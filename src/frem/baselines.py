"""Comparison estimators: functional Nadaraya-Watson and functional linear
regression on principal component scores."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyWindow, GridMismatch, InvalidSettings, RankDeficient
from .funcspace import (
    Grid,
    GridFunction,
    check_training,
    cv_folds,
    improves,
    kernel_eval,
    l2_distances_to,
    pairwise_l2,
    positive_bandwidths,
    stack_values,
    weighted_pca,
)


# ---------------------------------------------------------------------------
# Functional Nadaraya-Watson
# ---------------------------------------------------------------------------


class FnwModel:
    """Kernel-weighted mean of training responses in ambient L2 distance."""

    __slots__ = ("grid", "values", "responses", "bandwidth")

    def __init__(self, curves, responses, bandwidth: float):
        if isinstance(curves, np.ndarray):
            raise InvalidSettings("pass a list of grid functions; use from_values")
        values = stack_values(curves)
        self._init_from(curves[0].grid, values, responses, bandwidth)

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray, responses, bandwidth: float):
        self = object.__new__(cls)
        self._init_from(grid, np.asarray(values, dtype=float), responses, bandwidth)
        return self

    def _init_from(self, grid, values, responses, bandwidth):
        positive_bandwidths(bandwidth)
        responses = check_training(grid, values, responses)
        self.grid = grid
        self.values = values
        self.responses = responses
        self.bandwidth = float(bandwidth)


def _kernel_mean(kmat: np.ndarray, responses: np.ndarray):
    """The FNW kernel-weighted mean from (q, n) kernel weights, shared by
    prediction and the bandwidth cross-validation."""
    totals = kmat.sum(axis=-1)
    if np.any(totals <= 0):
        raise EmptyWindow("a test point has no training curve in its window")
    return (kmat @ responses) / totals


def fnw_predict_values(model: FnwModel, dists: np.ndarray):
    """Kernel-weighted mean responses from (q, n) distances to the training
    curves, or (n,) for one query; EmptyWindow if any query has no weight."""
    return _kernel_mean(kernel_eval(dists / model.bandwidth), model.responses)


def fnw_predict(model: FnwModel, x: GridFunction) -> float:
    """Kernel-weighted mean response at x; errors if every weight is zero."""
    if not x.grid.same_as(model.grid):
        raise GridMismatch("query curve is not on the model grid")
    dists = l2_distances_to(model.values, x.values, model.grid.quad_weights)
    return float(fnw_predict_values(model, dists))


def fnw_fit(curves, responses, h_candidates=None, n_folds: int = 10,
            seed: int = 0) -> FnwModel:
    """Bandwidth by 10-fold cross-validation over a distance-quantile grid.

    Candidates producing an empty window on any validation point are skipped;
    ties break toward the smaller bandwidth.
    """
    values = stack_values(curves)
    return fnw_fit_values(curves[0].grid, values, np.asarray(responses, dtype=float),
                          h_candidates, n_folds, seed)


def fnw_fit_values(grid: Grid, values: np.ndarray, responses: np.ndarray,
                   h_candidates=None, n_folds: int = 10, seed: int = 0) -> FnwModel:
    from .estimator import grids_from_values

    if h_candidates is None:
        h_candidates = grids_from_values(values, grid.quad_weights)[0]
    cands = positive_bandwidths(h_candidates, "bandwidth candidates")
    n = values.shape[0]
    folds = cv_folds(n, n_folds, seed)
    dmat = pairwise_l2(values, values, grid.quad_weights)

    def cv_error(h):
        err = 0.0
        for fold in folds:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            # kmat outlives the call so that the previous fold's matrix is
            # freed only once the next exists; freed earlier, the allocator
            # hands the heap top back and every fold faults it in again
            kmat = kernel_eval(dmat[np.ix_(fold, mask)] / h)
            try:
                preds = _kernel_mean(kmat, responses[mask])
            except EmptyWindow:
                return None
            err += float(np.sum((preds - responses[fold]) ** 2))
        return err

    best_h, best_err = None, np.inf
    for h in cands:
        err = cv_error(float(h))
        if err is not None and improves(err, best_err):
            best_h, best_err = float(h), err
    if best_h is None:
        # every quantile candidate left a window empty; extend upward until
        # the whole sample is covered
        dmax = float(dmat.max())
        for h in np.geomspace(cands[-1], 1.05 * dmax, 6)[1:]:
            err = cv_error(float(h))
            if err is not None and improves(err, best_err):
                best_h, best_err = float(h), err
    if best_h is None:
        raise EmptyWindow("every candidate bandwidth left some validation point empty")
    return FnwModel.from_values(grid, values, responses, best_h)


# ---------------------------------------------------------------------------
# Functional linear regression on principal component scores
# ---------------------------------------------------------------------------


@dataclass
class FlrModel:
    """Truncated principal-component regression of responses on curve scores."""

    grid: Grid
    mean_values: np.ndarray
    basis_values: np.ndarray      # (p, G), orthonormal under quadrature
    scores: np.ndarray            # (n, p) training scores
    slopes: np.ndarray            # (p,)
    intercept: float
    p: int = field(init=False)

    def __post_init__(self):
        self.p = self.basis_values.shape[0] if self.basis_values.size else 0
        if self.slopes.shape != (self.p,):
            raise InvalidSettings("one slope per retained component required")


def _fpca(values: np.ndarray, quad_weights: np.ndarray, p: int):
    mean, evals, basis = weighted_pca(values, quad_weights, p)
    rank = int(np.sum(evals > 1e-12 * max(evals[0], 0.0)))
    return mean, basis, rank


def _regress_on_scores(scores: np.ndarray, responses: np.ndarray):
    n, p = scores.shape
    a = np.empty((n, p + 1))
    a[:, 0] = 1.0
    a[:, 1:] = scores
    beta = np.linalg.lstsq(a, responses, rcond=None)[0]
    return float(beta[0]), beta[1:]


def flr_fit(curves, responses, p_candidates=None, n_folds: int = 10,
            seed: int = 0) -> FlrModel:
    """Global FPCA followed by linear regression on the top-p scores.

    p is chosen by 10-fold cross-validation with ties toward smaller p.
    """
    values = stack_values(curves)
    return flr_fit_values(curves[0].grid, values, np.asarray(responses, dtype=float),
                          p_candidates, n_folds, seed)


def flr_fit_values(grid: Grid, values: np.ndarray, responses: np.ndarray,
                   p_candidates=None, n_folds: int = 10, seed: int = 0) -> FlrModel:
    n = values.shape[0]
    if p_candidates is None:
        p_candidates = range(0, min(20, n - 2) + 1)
    p_list = sorted(set(int(p) for p in p_candidates))
    if not p_list or p_list[0] < 0:
        raise InvalidSettings("component counts must be nonnegative")
    if n <= max(p_list) + 1:
        raise InvalidSettings("need n > max(p_candidates) + 1")
    w = grid.quad_weights
    p_max = max(p_list)
    folds = cv_folds(n, n_folds, seed)
    errors = {p: 0.0 for p in p_list}
    feasible = {p: True for p in p_list}
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        tr_vals, tr_y = values[mask], responses[mask]
        k = min(p_max, tr_vals.shape[0])
        mean, basis, rank = _fpca(tr_vals, w, k) if p_max > 0 else (tr_vals.mean(axis=0), np.empty((0, values.shape[1])), 0)
        tr_scores = ((tr_vals - mean) * w) @ basis.T
        va_scores = ((values[fold] - mean) * w) @ basis.T
        for p in p_list:
            if p > rank and p > 0:
                feasible[p] = False
                continue
            intercept, slopes = _regress_on_scores(tr_scores[:, :p], tr_y)
            preds = intercept + va_scores[:, :p] @ slopes
            errors[p] += float(np.sum((preds - responses[fold]) ** 2))
    valid = [p for p in p_list if feasible[p]]
    if not valid:
        raise RankDeficient("no candidate component count is supported by the data")
    best_p, best_err = valid[0], errors[valid[0]]
    for p in valid[1:]:
        if improves(errors[p], best_err):
            best_p, best_err = p, errors[p]
    mean, basis, rank = _fpca(values, w, max(best_p, 1))
    if best_p > rank:
        raise RankDeficient(f"requested {best_p} components, data support {rank}")
    basis = basis[:best_p]
    scores = ((values - mean) * w) @ basis.T
    intercept, slopes = _regress_on_scores(scores, responses)
    return FlrModel(grid=grid, mean_values=mean, basis_values=basis,
                    scores=scores, slopes=slopes, intercept=intercept)


def flr_predict_values(model: FlrModel, x_values: np.ndarray):
    """Predictions for (q, G) curve values on the model grid, or (G,) for one."""
    scores = ((x_values - model.mean_values) * model.grid.quad_weights) @ model.basis_values.T
    return model.intercept + scores @ model.slopes


def flr_predict(model: FlrModel, x: GridFunction) -> float:
    """Intercept plus slopes applied to the centered scores of x."""
    if not x.grid.same_as(model.grid):
        raise GridMismatch("query curve is not on the model grid")
    return float(flr_predict_values(model, x.values))
