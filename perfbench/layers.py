"""Which frem functions the traced run wraps, and the per-layer metrics.

Each layer is a frem module. A span is named ``<layer>.<function>``; the
benchmark's own glue is the ``bench`` layer. Functions are wrapped where they
are defined, and ``Tracer.wrap`` rebinds every importer's copy of the name.

Metrics describe one traced set-up plus one traced unit of work. Values that
only exist when a layer runs (a selected index, a dimension, a bandwidth)
read -1 on workloads where that layer does not run.
"""

from __future__ import annotations

import numpy as np

from frem import baselines, datagen, estimator, funcspace, intrinsic_dim, recovery, tangent
from frem.bench import simulate

NOT_RUN = -1

# (name, unit, better); the per_layer list of BENCHMARK.json is this list.
PER_LAYER = [
    ("estimator.select_bandwidths_values.s", "s", "lower"),
    ("estimator.select_bandwidths_values.self_s", "s", "lower"),
    ("estimator.h_pca_index", "index", "lower"),
    ("estimator.h_reg_index", "index", "lower"),
    ("estimator.local_fit.s", "s", "lower"),
    ("estimator.local_fit.calls", "count", "lower"),
    ("estimator.local_fit.self_s", "s", "lower"),
    ("estimator.predict.s", "s", "lower"),
    ("estimator.predict.calls", "count", "lower"),
    ("estimator.grids_from_values.s", "s", "lower"),
    ("estimator.grids_from_values.calls", "count", "lower"),
    ("tangent.frame_at.s", "s", "lower"),
    ("tangent.frame_at.calls", "count", "lower"),
    ("tangent.frame_at.errors", "count", "lower"),
    ("tangent.frame_at.widened", "count", "lower"),
    ("tangent.frame_at.neighbors_mean", "count", "lower"),
    ("recovery.cv_bandwidth.s", "s", "lower"),
    ("recovery.cv_bandwidth.calls", "count", "lower"),
    ("recovery.smooth_curve.s", "s", "lower"),
    ("recovery.smooth_all.s", "s", "lower"),
    ("recovery.smooth_all.calls", "count", "lower"),
    ("recovery.warnings", "count", "lower"),
    ("funcspace.pairwise_l2.s", "s", "lower"),
    ("funcspace.pairwise_l2.calls", "count", "lower"),
    ("funcspace.pairwise_l2.entries", "count", "lower"),
    ("intrinsic_dim.estimate_dim_values.s", "s", "lower"),
    ("intrinsic_dim.dim_raw", "dim", "lower"),
    ("intrinsic_dim.dim_rounded", "dim", "lower"),
    ("baselines.fnw_fit_values.s", "s", "lower"),
    ("baselines.flr_fit_values.s", "s", "lower"),
    ("baselines.fnw.bandwidth", "L2", "lower"),
    ("baselines.flr.p", "count", "lower"),
    ("datagen.generate.s", "s", "lower"),
    ("datagen.observe.s", "s", "lower"),
    ("bench.run_replicate.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _frame(tr, args, kwargs, result):
    h_pca = _arg(args, kwargs, 3, "h_pca")
    tr.counts["tangent.frame_at.neighbors"] += result[3]
    tr.counts["tangent.frame_at.widened"] += int(result[4] > h_pca)


def _pairwise(tr, args, kwargs, result):
    tr.counts["funcspace.pairwise_l2.entries"] += result.shape[0] * result.shape[1]


def _grids(tr, args, kwargs, result):
    tr.values["estimator.last_grids"] = result


def _select(tr, args, kwargs, result):
    # candidates passed as None default to the grids computed just before
    last = tr.values.get("estimator.last_grids")
    for k, (pos, arg, key) in enumerate(((4, "h_pca_candidates", "estimator.h_pca_index"),
                                         (5, "h_reg_candidates", "estimator.h_reg_index"))):
        cands = _arg(args, kwargs, pos, arg)
        cands = np.sort(np.asarray(last[k] if cands is None else cands, dtype=float))
        tr.values[key] = int(np.flatnonzero(cands == result[k])[0])


def _dim(tr, args, kwargs, result):
    tr.values["intrinsic_dim.dim_raw"] = result.raw
    tr.values["intrinsic_dim.dim_rounded"] = result.rounded


def _fnw(tr, args, kwargs, result):
    tr.values["baselines.fnw.bandwidth"] = result.bandwidth


def _flr(tr, args, kwargs, result):
    tr.values["baselines.flr.p"] = result.p


def instrument(tracer) -> None:
    """Wrap the layer boundaries; ``tracer.restore()`` undoes it."""
    w = tracer.wrap
    w(simulate, "run_replicate", "bench.run_replicate")
    w(simulate, "_generate", "datagen.generate")
    w(datagen, "gen_klein", "datagen.generate")
    w(datagen, "observe", "datagen.observe")
    w(recovery, "smooth_all", "recovery.smooth_all")
    w(recovery, "cv_bandwidth", "recovery.cv_bandwidth")
    w(recovery, "smooth_curve", "recovery.smooth_curve")
    w(funcspace, "pairwise_l2", "funcspace.pairwise_l2", _pairwise)
    w(intrinsic_dim, "estimate_dim_values", "intrinsic_dim.estimate_dim_values", _dim)
    w(tangent, "frame_at", "tangent.frame_at", _frame)
    w(estimator, "grids_from_values", "estimator.grids_from_values", _grids)
    w(estimator, "select_bandwidths_values", "estimator.select_bandwidths_values", _select)
    w(estimator, "_local_fit_values", "estimator.local_fit")
    w(estimator, "predict", "estimator.predict")
    w(baselines, "fnw_fit_values", "baselines.fnw_fit_values", _fnw)
    w(baselines, "flr_fit_values", "baselines.flr_fit_values", _flr)


def per_layer(tracer, wall_s: float, overhead_s: float) -> dict:
    """Every PER_LAYER metric from the tracer's spans, counts and values."""
    spans = tracer.summary()
    out = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls", "errors"):
            out[name] = spans.get(span, {}).get(field, 0)
        else:
            out[name] = tracer.values.get(name, NOT_RUN)
    frames = spans.get("tangent.frame_at")
    ok = frames["calls"] - frames["errors"] if frames else 0
    out["tangent.frame_at.neighbors_mean"] = (
        tracer.counts["tangent.frame_at.neighbors"] / ok if ok else 0)
    for name in ("tangent.frame_at.widened", "recovery.warnings", "funcspace.pairwise_l2.entries"):
        out[name] = tracer.counts.get(name, 0)
    out["trace.overhead_s"] = overhead_s
    out["trace.coverage"] = sum(s["self_s"] for s in spans.values()) / wall_s
    return out


# Which end-to-end figure each per-layer metric should move, on which
# workload ("metric@workload"); an empty list marks an exact value that a
# change keeping the numerics must not move.
MOVES = {
    "estimator.select_bandwidths_values.s": [
        "replicate_s@sim-klein-1000", "setup_s@predict-klein-offgrid"],
    "estimator.select_bandwidths_values.self_s": [
        "replicate_s@sim-klein-1000", "setup_s@predict-klein-offgrid"],
    "estimator.h_pca_index": [],
    "estimator.h_reg_index": [],
    "estimator.local_fit.s": ["replicate_s@sim-klein-1000", "query_p50_ms@predict-klein-offgrid"],
    "estimator.local_fit.self_s": ["replicate_s@sim-klein-1000"],
    "estimator.predict.s": ["query_p50_ms@predict-klein-offgrid",
                            "queries_per_s@predict-klein-offgrid"],
    "estimator.grids_from_values.s": ["replicate_s@baselines-so3-4000"],
    "tangent.frame_at.s": ["replicate_s@sim-klein-1000", "failed_frac@sim-klein-1000"],
    "tangent.frame_at.errors": ["failed_frac@sim-klein-1000"],
    "tangent.frame_at.widened": ["replicate_s@sim-klein-1000"],
    "tangent.frame_at.neighbors_mean": ["replicate_s@sim-klein-1000"],
    "recovery.cv_bandwidth.s": ["query_p50_ms@predict-klein-offgrid"],
    "recovery.smooth_curve.s": ["query_p50_ms@predict-klein-offgrid"],
    "recovery.smooth_all.s": ["replicate_s@baselines-so3-4000"],
    "recovery.warnings": [],
    "funcspace.pairwise_l2.s": ["replicate_s@baselines-so3-4000",
                                "peak_rss_mb@baselines-so3-4000"],
    "funcspace.pairwise_l2.entries": ["replicate_s@baselines-so3-4000",
                                      "peak_rss_mb@baselines-so3-4000"],
    "intrinsic_dim.estimate_dim_values.s": ["replicate_s@sim-klein-1000"],
    "intrinsic_dim.dim_raw": ["frem_rmse@sim-klein-1000", "frem_rmse@predict-klein-offgrid"],
    "intrinsic_dim.dim_rounded": ["frem_rmse@sim-klein-1000", "frem_rmse@predict-klein-offgrid",
                                  "replicate_s@sim-klein-1000"],
    "baselines.fnw_fit_values.s": ["replicate_s@baselines-so3-4000"],
    "baselines.flr_fit_values.s": ["replicate_s@baselines-so3-4000"],
    "baselines.fnw.bandwidth": [],
    "baselines.flr.p": [],
    "datagen.generate.s": ["setup_s@predict-klein-offgrid", "replicate_s@sim-klein-1000"],
    "datagen.observe.s": ["setup_s@predict-klein-offgrid", "replicate_s@baselines-so3-4000"],
    "bench.run_replicate.self_s": ["replicate_s@sim-klein-1000",
                                   "replicate_s@baselines-so3-4000"],
}
