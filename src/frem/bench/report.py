"""Evaluation reports and their deterministic persistence.

A report holds per-replicate rMSE values for each method plus metadata. The
CSV payload is byte-stable for a fixed configuration and seed regardless of
worker count; the JSON sidecar repeats the configuration and summary numbers
and adds a non-normative "run" section (wall time, workers) that is excluded
from the determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidSettings
from .config import canonical_json


@dataclass
class MethodResult:
    """Per-replicate outcomes for one method."""

    method: str
    rmse: np.ndarray
    rmse_noisy: np.ndarray
    model_size: np.ndarray
    errors: list = field(default_factory=list)   # (replicate index, message)

    def _ok(self) -> np.ndarray:
        return ~np.isnan(self.rmse)

    @property
    def n_failed(self) -> int:
        return len(self.errors)

    @property
    def mean_rmse(self) -> float:
        ok = self._ok()
        return float(np.mean(self.rmse[ok])) if ok.any() else float("nan")

    @property
    def stderr_rmse(self) -> float:
        ok = self._ok()
        k = int(ok.sum())
        if k < 2:
            return 0.0 if k == 1 else float("nan")
        return float(np.std(self.rmse[ok], ddof=1) / math.sqrt(k))

    @property
    def mean_model_size(self) -> float:
        ok = ~np.isnan(self.model_size)
        return float(np.mean(self.model_size[ok])) if ok.any() else float("nan")


@dataclass
class EvalReport:
    """Aggregated rMSE table for one study."""

    label: str
    n: int
    replicates: int
    master_seed: int
    config: dict
    results: dict    # method -> MethodResult, in method order

    @property
    def methods(self):
        return list(self.results)

    def mean_rmse(self, method: str) -> float:
        if method not in self.results:
            raise InvalidSettings(f"no results for method {method!r}")
        return self.results[method].mean_rmse


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return repr(float(x))


def report_csv(report: EvalReport) -> str:
    """Long-format CSV: one row per (method, replicate)."""
    lines = ["setting,method,n,replicate,rmse,rmse_noisy,model_size,error"]
    for method, res in report.results.items():
        err_by_rep = dict(res.errors)
        for r in range(report.replicates):
            msg = err_by_rep.get(r, "")
            msg = msg.replace('"', "'")
            err_field = f'"{msg}"' if msg else ""
            lines.append(
                f"{report.label},{method},{report.n},{r},"
                f"{_fmt(res.rmse[r])},{_fmt(res.rmse_noisy[r])},"
                f"{_fmt(res.model_size[r])},{err_field}"
            )
    return "\n".join(lines) + "\n"


def _finite_or_none(x: float):
    return float(x) if math.isfinite(x) else None


def report_meta(report: EvalReport, wall_time: float | None = None,
                workers: int | None = None) -> dict:
    from .. import __version__

    summary = {}
    for method, res in report.results.items():
        summary[method] = {
            "mean_rmse": _finite_or_none(res.mean_rmse),
            "stderr_rmse": _finite_or_none(res.stderr_rmse),
            "mean_model_size": _finite_or_none(res.mean_model_size),
            "failed_replicates": res.n_failed,
        }
    meta = {
        "label": report.label,
        "n": report.n,
        "replicates": report.replicates,
        "master_seed": report.master_seed,
        "config": report.config,
        "config_hash": hashlib.sha256(canonical_json(report.config).encode()).hexdigest(),
        "summary": summary,
        "versions": {"frem": __version__, "numpy": np.__version__},
    }
    if wall_time is not None or workers is not None:
        # non-normative: excluded from the byte-identity contract
        meta["run"] = {"wall_time_seconds": wall_time, "workers": workers}
    return meta


def write_report(report: EvalReport, outdir, basename: str,
                 wall_time: float | None = None, workers: int | None = None):
    """Persist a report as <basename>.csv plus <basename>.meta.json."""
    import os

    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, basename + ".csv")
    meta_path = os.path.join(outdir, basename + ".meta.json")
    with open(csv_path, "w", newline="") as fh:
        fh.write(report_csv(report))
    with open(meta_path, "w") as fh:
        json.dump(report_meta(report, wall_time, workers), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, meta_path
