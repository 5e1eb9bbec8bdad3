"""Seeded Monte Carlo simulation studies.

Each replicate generates fresh training and test samples, contaminates both
with measurement noise, runs every requested method's full pipeline on the
training observations, and scores predictions on the smoothed test
predictors. All randomness flows from seeds derived by the documented mix
function, and replicates are reduced in index order, so reports are
byte-identical no matter how many workers run them.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .. import datagen, recovery
from ..baselines import flr_fit_values, flr_predict_values, fnw_fit_values, fnw_predict_values
from ..errors import FremError, TooManyFailures
from ..estimator import (
    FremModel,
    _local_fit_values,
    grids_from_values,
    select_bandwidths_values,
)
from ..funcspace import pairwise_l2
from ..intrinsic_dim import DimSettings, estimate_dim_values
from .config import SimulationConfig, mix_seed
from .report import EvalReport, MethodResult

# subtask tags for per-replicate seed derivation
_GEN_TRAIN, _GEN_TEST, _RESPONSE, _OBS_TRAIN, _OBS_TEST = 0, 1, 2, 3, 4
_CV_FREM, _CV_FNW, _CV_FLR = 5, 6, 7

_GENERATORS = {
    "so3": datagen.gen_so3,
    "klein": datagen.gen_klein,
    "mixg": datagen.gen_mixg,
}


def _generate(setting: str, n: int, seed: int, grid) -> datagen.ManifoldSample:
    if setting == "circle":
        return datagen.gen_circle_example(n, seed=seed, grid=grid)
    return _GENERATORS[setting](n, seed, grid=grid)


def workers_from_env(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, int(workers))
    return max(1, int(os.environ.get("FREM_WORKERS", "1")))


def _verbose() -> bool:
    return os.environ.get("FREM_VERBOSE", "") not in ("", "0")


def run_replicate(config: SimulationConfig, rep: int) -> dict:
    """One replicate; returns per-method dicts with rmse values or an error."""
    rep_seed = mix_seed(config.master_seed, rep)
    grid = datagen.default_grid()
    w = grid.quad_weights

    train = _generate(config.setting, config.n, mix_seed(rep_seed, _GEN_TRAIN), grid)
    test = _generate(config.setting, config.test_size, mix_seed(rep_seed, _GEN_TEST), grid)
    combined = datagen.ManifoldSample(
        grid,
        np.vstack([train.values, test.values]),
        np.vstack([train.latents, test.latents]),
        config.setting,
    )
    combined = datagen.unit_scale(combined)
    n_train = config.n

    if config.constant_response:
        signal_all = np.zeros(combined.n)
        sd_eps = 1.0
    else:
        signal_all = datagen.response_signal(combined)
        sd_eps = float(np.sqrt(signal_all.var() / config.snr_y))
    rng = np.random.default_rng(mix_seed(rep_seed, _RESPONSE))
    y_all = signal_all + rng.standard_normal(combined.n) * sd_eps

    train_sample = datagen.ManifoldSample(
        grid, combined.values[:n_train], combined.latents[:n_train], config.setting
    )
    test_sample = datagen.ManifoldSample(
        grid, combined.values[n_train:], combined.latents[n_train:], config.setting
    )
    y_train, y_test = y_all[:n_train], y_all[n_train:]
    signal_test = signal_all[n_train:]

    obs_train = datagen.observe(train_sample, config.m, config.snr_x,
                                mix_seed(rep_seed, _OBS_TRAIN))
    obs_test = datagen.observe(test_sample, config.m, config.snr_x,
                               mix_seed(rep_seed, _OBS_TEST))
    xhat_train = recovery.smooth_all(obs_train, grid)
    xhat_test = recovery.smooth_all(obs_test, grid)
    dists_test = pairwise_l2(xhat_test, xhat_train, w)

    return {method: score_method(method, config.tuning, grid, xhat_train, y_train,
                                 xhat_test, dists_test, rep_seed, signal_test, y_test)
            for method in config.methods}


def score_method(method, tuning, grid, x_tr, y_tr, x_te, dists_te, rep_seed,
                 truth, y_te) -> dict:
    """One method's rMSE against the truth and the noisy responses, or its error."""
    try:
        preds, size = _run_method(method, tuning, grid, x_tr, y_tr, x_te, dists_te, rep_seed)
    except FremError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "rmse": float(np.sqrt(np.mean((preds - truth) ** 2))),
        "rmse_noisy": float(np.sqrt(np.mean((preds - y_te) ** 2))),
        "model_size": size,
    }


def _run_method(method, tuning, grid, x_tr, y_tr, x_te, dists_te, rep_seed):
    """Fit one method on the training curves and predict every test curve.

    Returns the predictions and the model size (estimated dimension for frem,
    component count for flr, NaN for fnw).
    """
    w = grid.quad_weights
    if method == "frem":
        dim = estimate_dim_values(x_tr, w, DimSettings(k1=tuning.k1, k2=tuning.k2))
        hp_cands, hr_cands = grids_from_values(x_tr, w, tuning.n_bandwidth_candidates)
        h_pca, h_reg = select_bandwidths_values(
            grid, x_tr, y_tr, dim, hp_cands, hr_cands,
            n_folds=5, seed=mix_seed(rep_seed, _CV_FREM),
        )
        model = FremModel.from_values(grid, x_tr, y_tr, dim, h_pca, h_reg)
        preds = np.array([
            _local_fit_values(model, x_te[j], dists=dists_te[j])[0]
            for j in range(x_te.shape[0])
        ])
        return preds, float(dim.raw)
    if method == "fnw":
        model = fnw_fit_values(
            grid, x_tr, y_tr,
            grids_from_values(x_tr, w, tuning.n_bandwidth_candidates)[0],
            n_folds=10, seed=mix_seed(rep_seed, _CV_FNW),
        )
        return fnw_predict_values(model, dists_te), float("nan")
    if method == "flr":
        p_hi = min(tuning.flr_p_max, x_tr.shape[0] - 2)
        model = flr_fit_values(
            grid, x_tr, y_tr, range(0, p_hi + 1),
            n_folds=10, seed=mix_seed(rep_seed, _CV_FLR),
        )
        return flr_predict_values(model, x_te), float(model.p)
    raise FremError(f"unknown method {method!r}")


def collect_results(methods, rep_results) -> dict:
    """Per-method result arrays from per-replicate cells, in replicate order.

    Raises TooManyFailures if any method failed on more than 10 percent of
    the replicates.
    """
    reps = len(rep_results)
    results = {}
    for method in methods:
        rmse = np.full(reps, np.nan)
        rmse_noisy = np.full(reps, np.nan)
        size = np.full(reps, np.nan)
        errors = []
        for r, res in enumerate(rep_results):
            cell = res[method]
            if "error" in cell:
                errors.append((r, cell["error"]))
            else:
                rmse[r] = cell["rmse"]
                rmse_noisy[r] = cell["rmse_noisy"]
                size[r] = cell["model_size"]
        results[method] = MethodResult(method, rmse, rmse_noisy, size, errors)
        if len(errors) > 0.1 * reps:
            raise TooManyFailures(
                f"method {method} failed on {len(errors)}/{reps} replicates; "
                f"first failure: {errors[0][1]}"
            )
    return results


def run_simulation(config: SimulationConfig, workers: int | None = None) -> EvalReport:
    """Run every replicate, aggregate per-method results, and build the report.

    Failed replicates are recorded per method; if any method fails on more
    than 10 percent of replicates the whole run errors out.
    """
    workers = workers_from_env(workers)
    reps = config.replicates
    t0 = time.time()
    if workers > 1 and reps > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rep_results = list(pool.map(_replicate_task, [(config, r) for r in range(reps)]))
    else:
        rep_results = []
        for r in range(reps):
            rep_results.append(run_replicate(config, r))
            if _verbose():
                import sys

                print(f"[frem] {config.setting} n={config.n} replicate {r + 1}/{reps} "
                      f"({time.time() - t0:.1f}s)", file=sys.stderr, flush=True)

    return EvalReport(
        label=config.setting,
        n=config.n,
        replicates=reps,
        master_seed=config.master_seed,
        config=config.to_dict(),
        results=collect_results(config.methods, rep_results),
    )


def _replicate_task(args):
    config, rep = args
    return run_replicate(config, rep)
