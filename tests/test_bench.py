import json
from pathlib import Path

import numpy as np
import pytest

from frem import datagen
from frem.bench import (
    Dataset,
    EvalReport,
    MethodResult,
    SimulationConfig,
    config_hash,
    holdout_eval,
    load_dataset,
    mix_seed,
    recovery_rate_study,
    relative_reduction,
    report_csv,
    report_meta,
    run_simulation,
    write_report,
)
from frem.bench.rates import rate_report_from_runs
from frem.errors import InvalidSettings, MethodMismatch, ParseError, SchemaError
from frem.funcspace import Grid


def _tiny_config(**over):
    base = dict(setting="circle", n=55, replicates=2, test_size=30,
                master_seed=123, methods=("frem", "fnw", "flr"))
    base.update(over)
    return SimulationConfig(**base)


# -- config -------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidSettings):
        _tiny_config(setting="torus")
    with pytest.raises(InvalidSettings):
        _tiny_config(n=10)
    with pytest.raises(InvalidSettings):
        _tiny_config(replicates=0)
    with pytest.raises(InvalidSettings):
        _tiny_config(methods=("frem", "svm"))


def test_config_json_roundtrip_and_unknown_keys():
    cfg = _tiny_config()
    data = cfg.to_dict()
    again = SimulationConfig.from_dict(json.loads(json.dumps(data)))
    assert again.to_dict() == data
    assert config_hash(again) == config_hash(cfg)
    with pytest.raises(InvalidSettings):
        SimulationConfig.from_dict(dict(data, extra_knob=1))
    bad_tuning = dict(data)
    bad_tuning["tuning"] = dict(data["tuning"], bogus=2)
    with pytest.raises(InvalidSettings):
        SimulationConfig.from_dict(bad_tuning)


def test_mix_seed_properties():
    assert mix_seed(1, 2) == mix_seed(1, 2)
    assert mix_seed(1, 2) != mix_seed(2, 1)
    assert mix_seed(0) != mix_seed(1)
    assert 0 <= mix_seed(99, 7) < 2 ** 64


# -- simulation ----------------------------------------------------------------


def test_simulation_smoke_and_determinism():
    cfg = _tiny_config()
    rep1 = run_simulation(cfg, workers=1)
    rep2 = run_simulation(cfg, workers=2)
    csv1, csv2 = report_csv(rep1), report_csv(rep2)
    assert csv1 == csv2
    for m in rep1.methods:
        assert np.isfinite(rep1.results[m].mean_rmse)
        assert rep1.results[m].mean_rmse >= 0
    meta1 = report_meta(rep1, wall_time=1.0, workers=1)
    meta2 = report_meta(rep2, wall_time=2.0, workers=2)
    meta1.pop("run"), meta2.pop("run")
    assert meta1 == meta2


def test_simulation_constant_response_near_noise_floor():
    cfg = _tiny_config(constant_response=True, methods=("fnw",), replicates=2)
    rep = run_simulation(cfg)
    # nothing to learn: noisy-target rMSE sits near the unit noise floor
    noisy = rep.results["fnw"].rmse_noisy
    assert np.all(noisy > 0.8) and np.all(noisy < 1.3)


def test_write_report_files_byte_identical(tmp_path):
    cfg = _tiny_config(replicates=1, methods=("flr",))
    rep = run_simulation(cfg)
    c1, m1 = write_report(rep, tmp_path / "a", "r", wall_time=0.1, workers=1)
    c2, m2 = write_report(rep, tmp_path / "b", "r", wall_time=0.7, workers=8)
    assert Path(c1).read_bytes() == Path(c2).read_bytes()
    j1, j2 = json.loads(Path(m1).read_text()), json.loads(Path(m2).read_text())
    j1.pop("run"), j2.pop("run")
    assert j1 == j2
    assert j1["config_hash"] == config_hash(cfg)


# -- relative reduction ---------------------------------------------------------


def _fake_report(label, n, rmses):
    results = {}
    for method, val in rmses.items():
        arr = np.array([val], dtype=float)
        results[method] = MethodResult(method, arr, arr.copy(), np.array([np.nan]))
    return EvalReport(label, n, 1, 0, {}, results)


def test_relative_reduction_arithmetic():
    small = _fake_report("klein", 500, {"frem": 2.0})
    large = _fake_report("klein", 1000, {"frem": 1.5})
    rows = relative_reduction(small, large, d=2)
    assert rows[0]["reduction_pct"] == pytest.approx(25.0)
    assert rows[0]["theoretical_pct"] == pytest.approx(100 * (1 - 0.5 ** (1 / 3)), abs=1e-9)


def test_relative_reduction_equal_rmse_and_antisymmetry():
    a = _fake_report("klein", 500, {"frem": 1.7, "fnw": 2.0})
    b = _fake_report("klein", 1000, {"frem": 1.7, "fnw": 1.6})
    rows = relative_reduction(a, b)
    assert rows[0]["reduction_pct"] == pytest.approx(0.0)
    forward = {r["method"]: 1 - r["reduction_pct"] / 100 for r in rows}
    backward = {r["method"]: 1 - r["reduction_pct"] / 100 for r in relative_reduction(b, a)}
    for m in forward:
        assert forward[m] * backward[m] == pytest.approx(1.0, abs=1e-12)


def test_relative_reduction_method_mismatch():
    a = _fake_report("klein", 500, {"frem": 1.0})
    b = _fake_report("klein", 1000, {"fnw": 1.0})
    with pytest.raises(MethodMismatch):
        relative_reduction(a, b)


def test_klein_theoretical_reduction_value():
    # d=2, n doubling: 100 (1 - 2^(-1/3)) is about 20.6 percent
    small = _fake_report("klein", 500, {"frem": 1.0})
    large = _fake_report("klein", 1000, {"frem": 1.0})
    rows = relative_reduction(small, large, d=2)
    assert rows[0]["theoretical_pct"] == pytest.approx(20.63, abs=0.01)


# -- rate studies ----------------------------------------------------------------


def test_recovery_rate_study_smoke():
    rep = recovery_rate_study([50, 100, 200], replicates=10, master_seed=5)
    assert rep.slopes["recovery"] < 0
    assert rep.bootstrap_se["recovery"] > 0


def test_rate_report_constant_responses_flat():
    cfg = _tiny_config(constant_response=True, methods=("fnw",), replicates=3,
                       n=60, test_size=40)
    reports = []
    for n in (60, 90, 135):
        d = cfg.to_dict()
        d["n"] = n
        reports.append(run_simulation(SimulationConfig.from_dict(d)))
    # slope on the noisy-target rMSE: nothing to learn, statistically zero
    for rep_obj in reports:
        rep_obj.results["fnw"].rmse[:] = rep_obj.results["fnw"].rmse_noisy
    rate = rate_report_from_runs([60, 90, 135], reports, 5)
    assert abs(rate.slopes["fnw"]) < 2 * max(rate.bootstrap_se["fnw"], 1e-3)


# -- dataset loading ---------------------------------------------------------------


def _write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_load_dataset_difference_quotient(tmp_path):
    path = _write_csv(tmp_path / "toy.csv",
                      "0,1,2,resp\n1,2,4,10\n1,2,4,11\n1,2,4,12\n")
    ds = load_dataset(path, preprocess="difference_quotient")
    assert ds.values.shape == (3, 2)
    assert np.allclose(ds.values, [[1.0, 2.0]] * 3)
    assert np.allclose(ds.grid.points, [0.5, 1.5])
    assert np.allclose(ds.responses, [10, 11, 12])


def test_load_dataset_malformed_row(tmp_path):
    path = _write_csv(tmp_path / "bad.csv", "0,1,2,resp\n1,2,3,4\n1,x,3,4\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert "row 3" in str(err.value)


def test_load_dataset_short_row(tmp_path):
    path = _write_csv(tmp_path / "short.csv", "0,1,2,resp\n1,2,3\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert "row 2" in str(err.value)


def test_load_dataset_bad_header(tmp_path):
    path = _write_csv(tmp_path / "hdr.csv", "0,wl,2,resp\n1,2,3,4\n")
    with pytest.raises(SchemaError):
        load_dataset(path)
    path2 = _write_csv(tmp_path / "dec.csv", "0,2,1,resp\n1,2,3,4\n")
    with pytest.raises(SchemaError):
        load_dataset(path2)


# -- holdout -----------------------------------------------------------------------


def _synthetic_dataset(n=80, seed=0, noise=0.05):
    grid = Grid.regular(0.0, 1.0, 60)
    basis = datagen.fourier_basis(grid.points, 3)
    rng = np.random.default_rng(seed)
    coefs = rng.uniform(-1, 1, size=(n, 3))
    values = coefs @ basis
    responses = 1.0 + coefs[:, 0] + 0.5 * coefs[:, 1] ** 2
    responses = responses + rng.standard_normal(n) * noise
    return Dataset(grid=grid, values=values, responses=responses, name="synth")


def test_holdout_reproducible_and_finite():
    ds = _synthetic_dataset()
    rep1 = holdout_eval(ds, repeats=2, master_seed=9)
    rep2 = holdout_eval(ds, repeats=2, master_seed=9)
    assert report_csv(rep1) == report_csv(rep2)
    for m in rep1.methods:
        assert np.isfinite(rep1.results[m].mean_rmse)


def test_constant_responses_zero_training_rmse():
    # every method reproduces a constant exactly on its own training curves
    from frem.baselines import flr_fit, flr_predict, fnw_fit, fnw_predict
    from frem.estimator import FremModel, fit_local
    from frem.funcspace import GridFunction
    from frem.intrinsic_dim import DimEstimate

    ds = _synthetic_dataset(noise=0.0)
    y = np.full(ds.n, 2.5)
    curves = [GridFunction(ds.grid, row) for row in ds.values]
    frem_model = FremModel(curves, y, DimEstimate(raw=3.0), 1.0, 1.0)
    fnw_model = fnw_fit(curves, y, seed=1)
    flr_model = flr_fit(curves, y, p_candidates=range(0, 4), seed=2)
    preds = {
        "frem": [fit_local(frem_model, c)[0] for c in curves[:10]],
        "fnw": [fnw_predict(fnw_model, c) for c in curves[:10]],
        "flr": [flr_predict(flr_model, c) for c in curves[:10]],
    }
    for method, vals in preds.items():
        rmse = np.sqrt(np.mean((np.array(vals) - 2.5) ** 2))
        assert rmse == pytest.approx(0.0, abs=1e-10), method


def test_holdout_records_model_sizes():
    ds = _synthetic_dataset()
    rep = holdout_eval(ds, repeats=2, master_seed=11, methods=("frem", "flr"))
    assert np.isfinite(rep.results["frem"].mean_model_size)
    assert np.isfinite(rep.results["flr"].mean_model_size)


def test_holdout_validates_split():
    ds = _synthetic_dataset()
    with pytest.raises(InvalidSettings):
        holdout_eval(ds, split=1.2, repeats=1)


# -- names the benchmark relies on -----------------------------------------------

# perfbench/ rebinds or calls these with these leading parameters (by position
# or by name); Tier-1 does not collect perfbench/, so a rename would otherwise
# break only the benchmark.
_BENCHMARK_NAMES = [
    ("bench.simulate", "_run_method",
     ("method", "tuning", "grid", "x_tr", "y_tr", "x_te", "dists_te", "rep_seed")),
    ("bench.simulate", "_generate", ("setting", "n", "seed", "grid")),
    ("bench.simulate", "run_replicate", ("config", "rep")),
    ("tangent", "frame_at", ("x_values", "values", "grid", "h_pca", "d", "dists")),
    ("estimator", "select_bandwidths_values",
     ("grid", "values", "responses", "dim", "h_pca_candidates", "h_reg_candidates")),
    ("estimator", "_local_fit_values", ("model", "x_values", "dists")),
    ("estimator", "predict", ("model", "query")),
    ("estimator", "grids_from_values", ("values", "quad_weights", "n_candidates")),
    ("baselines", "fnw_fit_values", ("grid", "values", "responses", "h_candidates")),
    ("baselines", "flr_fit_values", ("grid", "values", "responses", "p_candidates")),
    ("intrinsic_dim", "estimate_dim_values", ("values", "quad_weights", "settings")),
    ("recovery", "smooth_all", ("observations", "grid")),
    ("recovery", "cv_bandwidth", ("obs", "candidates")),
    ("recovery", "smooth_curve", ("obs", "settings")),
    ("datagen", "response_signal", ("sample",)),
    ("datagen", "gen_klein", ("n", "seed", "grid")),
    ("datagen", "observe", ("sample", "m", "snr_x", "seed", "design")),
]


@pytest.mark.parametrize("module, name, params", _BENCHMARK_NAMES,
                         ids=[f"{m}.{n}" for m, n, _ in _BENCHMARK_NAMES])
def test_benchmark_names_keep_their_signatures(module, name, params):
    import importlib
    import inspect

    sig = inspect.signature(getattr(importlib.import_module(f"frem.{module}"), name))
    listed = list(sig.parameters.values())
    assert tuple(p.name for p in listed[:len(params)]) == params
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in listed[:len(params)])
    # nothing beyond them may be required
    assert all(p.default is not p.empty for p in listed[len(params):])
