"""Acceptance suite: one test per criterion (split per clause where a clause
can fail independently), each printing a PASS/FAIL line with its numbers.

Heavy simulation runs are cached at module scope and shared between
criteria. Worker count follows FREM_WORKERS (default: all available, capped
at 4); results are identical regardless.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from frem import datagen, recovery
from frem.bench import (
    SimulationConfig,
    holdout_eval,
    load_dataset,
    recovery_rate_study,
    relative_reduction,
    run_simulation,
)
from frem.estimator import FremModel, fit_local, fit_local_with_frame
from frem.funcspace import Grid, GridFunction
from frem.intrinsic_dim import DimEstimate, DimSettings, estimate_dim_values
from frem.recovery import DiscreteObservations, SmootherSettings, smooth_curve
from frem.tangent import TangentFrame, build_frame

GRID = datagen.default_grid()
MASTER_SEED = 20240801
_WORKERS = int(os.environ.get("FREM_WORKERS", min(4, os.cpu_count() or 1)))

_cache = {}
_DISK_CACHE = os.path.join(os.path.dirname(__file__), ".acceptance_cache")


def _simulate(setting, n, replicates=20, test_size=1000):
    """Run (or load) one heavy study; results are cached on disk by config
    hash so repeated suite runs do not recompute 20-replicate studies.
    Delete tests/.acceptance_cache to force a fresh run."""
    from frem.bench import config_hash
    from frem.bench.report import MethodResult

    key = (setting, n, replicates, test_size)
    if key in _cache:
        return _cache[key]
    cfg = SimulationConfig(setting=setting, n=n, replicates=replicates,
                           test_size=test_size, master_seed=MASTER_SEED)
    path = os.path.join(_DISK_CACHE, config_hash(cfg) + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            payload = json.load(fh)
        results = {}
        for m, r in payload["results"].items():
            results[m] = MethodResult(
                m,
                np.array(r["rmse"], dtype=float),
                np.array(r["rmse_noisy"], dtype=float),
                np.array(r["model_size"], dtype=float),
                [tuple(e) for e in r["errors"]],
            )
        from frem.bench.report import EvalReport as _ER

        report = _ER(payload["label"], payload["n"], payload["replicates"],
                     payload["master_seed"], payload["config"], results)
    else:
        report = run_simulation(cfg, workers=_WORKERS)
        os.makedirs(_DISK_CACHE, exist_ok=True)
        payload = {
            "label": report.label, "n": report.n, "replicates": report.replicates,
            "master_seed": report.master_seed, "config": report.config,
            "results": {
                m: {
                    "rmse": [None if np.isnan(v) else float(v) for v in r.rmse],
                    "rmse_noisy": [None if np.isnan(v) else float(v) for v in r.rmse_noisy],
                    "model_size": [None if np.isnan(v) else float(v) for v in r.model_size],
                    "errors": [list(e) for e in r.errors],
                }
                for m, r in report.results.items()
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
    _cache[key] = report
    return report


def _line(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# -- criterion 1: recovery rate in m -----------------------------------------


def test_criterion_1_recovery_rate():
    report = recovery_rate_study([50, 100, 200, 400, 800], replicates=200,
                                 master_seed=MASTER_SEED)
    slope = report.slopes["recovery"]
    ok = abs(slope - (-0.4)) <= 0.15
    _line(1, ok, f"recovery slope {slope:.3f} (target -0.4 +- 0.15, "
                 f"bootstrap se {report.bootstrap_se['recovery']:.3f})")
    assert ok


# -- criterion 2: dimension consistency ---------------------------------------

_DIM_SETTINGS = [
    ("circle", lambda s: datagen.gen_circle_example(1000, 2.0, 12, s), 1),
    ("klein", lambda s: datagen.gen_klein(1000, s), 2),
    ("so3", lambda s: datagen.gen_so3(1000, s), 3),
]


def test_criterion_2_dimension_noiseless():
    all_ok = True
    details = []
    for name, gen, d in _DIM_SETTINGS:
        hits = 0
        for seed in range(20):
            sample = datagen.unit_scale(gen(seed))
            est = estimate_dim_values(sample.values, GRID.quad_weights, DimSettings())
            hits += est.rounded == d
        ok = hits >= 18
        all_ok &= ok
        details.append(f"{name} exact {hits}/20")
    _line("2a", all_ok, "noiseless rounded dimension: " + ", ".join(details))
    assert all_ok


def test_criterion_2_dimension_contaminated():
    all_within = True
    all_exact = True
    details = []
    for name, gen, d in _DIM_SETTINGS:
        within = exact = 0
        for seed in range(20):
            sample = datagen.unit_scale(gen(seed))
            obs = datagen.observe(sample, 100, 4.0, seed + 5000)
            smoothed = recovery.smooth_all(obs, GRID)
            est = estimate_dim_values(smoothed, GRID.quad_weights, DimSettings())
            within += abs(est.rounded - d) <= 1
            exact += est.rounded == d
        all_within &= within >= 18
        all_exact &= exact > 10
        details.append(f"{name} within-1 {within}/20 exact {exact}/20")
    ok = all_within and all_exact
    _line("2b", ok, "contaminated (m=100, snr 4): " + ", ".join(details))
    assert ok


# -- criterion 3: tangent quality on the circle fixture ------------------------


def test_criterion_3_tangent_angle_trend():
    from scipy.stats import spearmanr

    x = GridFunction(GRID, datagen.circle_curve_values(GRID, 0.0, 2.0, 12)[0])
    tan = datagen.circle_tangent_values(GRID, 0.0, 2.0, 12)
    tan = tan / np.sqrt((tan * tan) @ GRID.quad_weights)
    w = GRID.quad_weights
    hs, angles = [], []
    for seed in range(12):
        sample = datagen.gen_circle_example(2000, 2.0, 12, seed)
        for h in (0.4, 0.2, 0.1):
            frame = build_frame(x, sample.curves, h, 1)
            cosang = min(abs(float((frame.basis_values[0] * w) @ tan)), 1.0)
            hs.append(h)
            angles.append(np.arccos(cosang))
    rho, pvalue = spearmanr(hs, angles, alternative="greater")
    mean_by_h = {h: np.mean([a for hh, a in zip(hs, angles) if hh == h])
                 for h in (0.4, 0.2, 0.1)}
    monotone = mean_by_h[0.1] < mean_by_h[0.2] < mean_by_h[0.4]
    ok = pvalue < 0.05 and monotone
    _line(3, ok, f"angle means by h_pca {{0.4: {mean_by_h[0.4]:.4f}, "
                 f"0.2: {mean_by_h[0.2]:.4f}, 0.1: {mean_by_h[0.1]:.4f}}}, "
                 f"spearman rho {rho:.3f}, one-sided p {pvalue:.2e}")
    assert ok


# -- criterion 4: exactness properties -----------------------------------------


def test_criterion_4_exactness():
    from frem.baselines import flr_fit, flr_predict, fnw_fit, fnw_predict

    basis = datagen.fourier_basis(GRID.points, 2)
    rng = np.random.default_rng(17)
    coefs = rng.uniform(-1, 1, size=(50, 2))
    values = coefs @ basis
    curves = [GridFunction(GRID, row) for row in values]
    const = np.full(50, 2.5)
    checks = {}

    frem_const = FremModel(curves, const, DimEstimate(raw=2.0), 2.0, 2.0)
    errs = [abs(fit_local(frem_const, c)[0] - 2.5) for c in curves[:8]]
    fnw_model = fnw_fit(curves, const, seed=1)
    errs += [abs(fnw_predict(fnw_model, c) - 2.5) for c in curves[:8]]
    flr_model = flr_fit(curves, const, p_candidates=range(0, 4), seed=2)
    errs += [abs(flr_predict(flr_model, c) - 2.5) for c in curves[:8]]
    checks["constant reproduction"] = max(errs) <= 1e-10

    linear_y = 1.0 + 2.0 * coefs[:, 0] - coefs[:, 1]
    frem_lin = FremModel(curves, linear_y, DimEstimate(raw=2.0), 2.0, 2.0)
    lin_errs = [abs(fit_local(frem_lin, curves[i])[0] - linear_y[i]) for i in range(8)]
    checks["linear-in-coordinates exactness"] = max(lin_errs) <= 1e-8

    m = 60
    t = np.linspace(0, 1, m)
    obs = DiscreteObservations(t, 1.5 - 0.75 * t)
    rec = smooth_curve(obs, SmootherSettings(0.2, m ** -2, GRID))
    checks["smoother affine reproduction"] = float(
        np.max(np.abs(rec.values - (1.5 - 0.75 * GRID.points)))
    ) <= 1e-8

    wob = rng.standard_normal(50)
    frem_rot = FremModel(curves, linear_y + 0.1 * wob, DimEstimate(raw=2.0), 2.0, 2.0)
    x = curves[5]
    frame = build_frame(x, curves, 2.0, 2)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = TangentFrame(
        base=frame.base, mean=frame.mean, eigenvalues=frame.eigenvalues,
        basis=[GridFunction(GRID, row) for row in q.T @ frame.basis_values],
        neighborhood_size=frame.neighborhood_size, h_pca_used=frame.h_pca_used,
    )
    base_val, _ = fit_local_with_frame(frem_rot, x, frame)
    rot_val, _ = fit_local_with_frame(frem_rot, x, rotated)
    checks["rotation invariance"] = abs(base_val - rot_val) <= 1e-10

    ok = all(checks.values())
    _line(4, ok, "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert ok, checks


# -- criterion 5: Table-1 direction and magnitude at desk scale ----------------


def test_criterion_5_magnitude_klein():
    rep = _simulate("klein", 500)
    mean = rep.results["frem"].mean_rmse
    ok = 0.07 <= mean <= 0.20
    _line("5a", ok, f"klein n=500 FREM mean rMSE {mean:.4f} (window [0.07, 0.20], "
                    f"reference 0.123)")
    assert ok


def test_criterion_5_frem_below_flr():
    all_ok = True
    details = []
    for setting in ("klein", "mixg"):
        for n in (250, 500):
            rep = _simulate(setting, n)
            fr, fl = rep.results["frem"].rmse, rep.results["flr"].rmse
            wins = int(np.sum(fr < fl))
            total = int(np.sum(~np.isnan(fr) & ~np.isnan(fl)))
            ok = wins >= int(np.ceil(0.9 * total))
            all_ok &= ok
            details.append(f"{setting} n={n}: {wins}/{total}")
    _line("5b", all_ok, "FREM beats FLR per replicate: " + ", ".join(details))
    assert all_ok


def test_criterion_5_frem_below_fnw():
    all_ok = True
    details = []
    for setting in ("klein", "mixg"):
        for n in (250, 500):
            rep = _simulate(setting, n)
            fr, fn = rep.results["frem"].rmse, rep.results["fnw"].rmse
            wins = int(np.sum(fr < fn))
            total = int(np.sum(~np.isnan(fr) & ~np.isnan(fn)))
            ok = wins >= int(np.ceil(0.9 * total))
            all_ok &= ok
            details.append(f"{setting} n={n}: {wins}/{total}")
    _line("5c", all_ok, "FREM beats FNW per replicate: " + ", ".join(details))
    assert all_ok


# -- criterion 6: rate in n ------------------------------------------------------


def test_criterion_6_reduction_window():
    small = _simulate("klein", 500)
    large = _simulate("klein", 1000)
    rows = relative_reduction(small, large, d=2)
    frem_row = next(r for r in rows if r["method"] == "frem")
    red = frem_row["reduction_pct"]
    ok = abs(red - 20.6) <= 10.0
    _line("6a", ok, f"klein FREM reduction 500->1000: {red:.1f}% "
                    f"(target 20.6 +- 10, theoretical {frem_row['theoretical_pct']:.1f}%)")
    assert ok


def test_criterion_6_frem_reduction_exceeds_fnw():
    small = _simulate("klein", 500)
    large = _simulate("klein", 1000)
    fr_s, fr_l = small.results["frem"].rmse, large.results["frem"].rmse
    fn_s, fn_l = small.results["fnw"].rmse, large.results["fnw"].rmse
    valid = ~(np.isnan(fr_s) | np.isnan(fr_l) | np.isnan(fn_s) | np.isnan(fn_l))
    frem_red = 1.0 - fr_l[valid] / fr_s[valid]
    fnw_red = 1.0 - fn_l[valid] / fn_s[valid]
    wins = int(np.sum(frem_red > fnw_red))
    total = int(valid.sum())
    ok = wins >= int(np.ceil(0.8 * total))
    _line("6b", ok, f"FREM reduction exceeds FNW's in {wins}/{total} paired replicates "
                    f"(mean FREM {100 * frem_red.mean():.1f}% vs FNW {100 * fnw_red.mean():.1f}%)")
    assert ok


# -- criterion 7: real data -------------------------------------------------------


def _tecator_path():
    path = os.environ.get("FREM_TECATOR_CSV", os.path.join("data", "tecator.csv"))
    return path if os.path.exists(path) else None


def test_criterion_7_tecator():
    path = _tecator_path()
    if path is None:
        _line(7, False, "SKIPPED: Tecator data not present (no network in this "
                        "environment; fetch with scripts/fetch_tecator.py)")
        pytest.skip("Tecator CSV not available; run scripts/fetch_tecator.py first")
    ds = load_dataset(path, preprocess="difference_quotient", name="meat")
    assert ds.n == 215 and len(ds.grid) == 99
    rep = holdout_eval(ds, repeats=20, master_seed=MASTER_SEED)
    frem = rep.results["frem"].mean_rmse
    fnw = rep.results["fnw"].mean_rmse
    flr = rep.results["flr"].mean_rmse
    dim = rep.results["frem"].mean_model_size
    ok = frem < fnw and frem < flr
    _line(7, ok, f"meat holdout: FREM {frem:.3f} vs FNW {fnw:.3f}, FLR {flr:.3f} "
                 f"(references 1.06 / 2.42 / 2.56); mean dim {dim:.2f} (reference 5.05)")
    assert ok


# -- criterion 8: CLI determinism across worker counts -----------------------------


def test_criterion_8_cli_determinism(tmp_path):
    cfg = dict(setting="circle", n=60, replicates=3, test_size=30,
               master_seed=77, methods=["frem", "fnw", "flr"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = {}
    for workers in (1, 4, 8):
        outdir = tmp_path / f"w{workers}"
        env = dict(os.environ, FREM_WORKERS=str(workers))
        proc = subprocess.run(
            [sys.executable, "-m", "frem.cli", "simulate",
             "--config", str(cfg_path), "--out", str(outdir)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        csv_bytes = (outdir / "simulate_circle_n60.csv").read_bytes()
        meta = json.loads((outdir / "simulate_circle_n60.meta.json").read_text())
        meta.pop("run", None)
        outputs[workers] = (csv_bytes, json.dumps(meta, sort_keys=True))
    ok = (outputs[1] == outputs[4] == outputs[8])
    _line(8, ok, "CSV and metadata byte-identical across 1, 4, and 8 workers"
          if ok else "outputs differ across worker counts")
    assert ok
