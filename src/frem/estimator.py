"""Local linear regression on tangent-space coordinates.

At a query curve x the pipeline builds a tangent frame from the curves in an
L2 ball, projects every training curve onto the frame, and solves a weighted
least squares of the responses on an intercept plus the coordinates centered
at the query's own coordinates. The weights come from the compact kernel
applied to ambient L2 distances, so training curves at distance >= h_reg
carry exactly zero weight. The intercept of the centered fit is the estimate
of the regression functional at x.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllFoldsFailed,
    FremError,
    GridMismatch,
    InsufficientNeighborhood,
    InvalidSettings,
)
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
    widened_ball,
)
from .intrinsic_dim import DimEstimate
from .recovery import DiscreteObservations, smooth_with_defaults
from .tangent import TangentFrame, frame_at

_MODEL_FORMAT = "frem-model"
_MODEL_VERSION = 1
_EPS = np.finfo(float).eps


@dataclass
class FitDiagnostics:
    """Bookkeeping from one local fit."""

    effective_neighbors: int
    condition_indicator: float
    ridge_applied: bool


class FremModel:
    """Fitted state: training curves, responses, dimension, and bandwidths."""

    __slots__ = ("grid", "values", "responses", "dim", "h_pca", "h_reg", "_curves")

    def __init__(self, curves, responses, dim: DimEstimate, h_pca: float, h_reg: float):
        if isinstance(curves, np.ndarray):
            raise InvalidSettings("pass a list of grid functions; use from_values for arrays")
        self._init_from(curves[0].grid, stack_values(curves), responses, dim, h_pca, h_reg)
        self._curves = list(curves)

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray, responses, dim: DimEstimate,
                    h_pca: float, h_reg: float) -> "FremModel":
        self = object.__new__(cls)
        self._init_from(grid, np.asarray(values, dtype=float), responses, dim, h_pca, h_reg)
        self._curves = None
        return self

    def _init_from(self, grid, values, responses, dim, h_pca, h_reg):
        responses = check_training(grid, values, responses)
        if values.shape[0] < dim.rounded + 2:
            raise InvalidSettings(
                f"need at least dim+2={dim.rounded + 2} training curves, have {values.shape[0]}"
            )
        positive_bandwidths([h_pca, h_reg], "bandwidths")
        self.grid = grid
        self.values = values
        self.responses = responses
        self.dim = dim
        self.h_pca = float(h_pca)
        self.h_reg = float(h_reg)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def curves(self):
        if self._curves is None:
            self._curves = [GridFunction(self.grid, row) for row in self.values]
        return self._curves

    # -- serialization -----------------------------------------------------

    def save(self, path) -> None:
        """Write the model to a versioned JSON container."""
        payload = {
            "format": _MODEL_FORMAT,
            "version": _MODEL_VERSION,
            "grid": self.grid.points.tolist(),
            "curves": self.values.tolist(),
            "responses": self.responses.tolist(),
            "dim": {
                "raw": self.dim.raw,
                "per_k": None if self.dim.per_k is None else list(map(float, self.dim.per_k)),
            },
            "h_pca": self.h_pca,
            "h_reg": self.h_reg,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "FremModel":
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("format") != _MODEL_FORMAT:
            raise InvalidSettings("not a model container")
        if payload.get("version") != _MODEL_VERSION:
            raise InvalidSettings(f"unsupported model version {payload.get('version')}")
        dim = DimEstimate(
            raw=payload["dim"]["raw"],
            per_k=None if payload["dim"]["per_k"] is None else np.array(payload["dim"]["per_k"]),
        )
        return cls.from_values(
            Grid(np.array(payload["grid"])),
            np.array(payload["curves"]),
            np.array(payload["responses"]),
            dim,
            payload["h_pca"],
            payload["h_reg"],
        )


def _wls_intercept(coords: np.ndarray, cx: np.ndarray, y: np.ndarray,
                   kernel_weights: np.ndarray, d: int):
    """Weighted least squares of y on (1, coords - cx); returns the intercept.

    Solved through an orthogonal decomposition of the weighted design; if the
    design is rank deficient, a ridge of 1e-8 times the normal-matrix trace is
    added to the coordinate block (never the intercept, preserving constant
    reproduction) and the ridge flag is set.
    """
    sw = np.sqrt(kernel_weights)
    a = np.empty((y.size, d + 1))
    a[:, 0] = 1.0
    a[:, 1:] = coords - cx[None, :]
    aw = a * sw[:, None]
    yw = y * sw
    beta, _, rank, svals = np.linalg.lstsq(aw, yw, rcond=None)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else float("inf")
    ridge_applied = False
    if rank < d + 1:
        m = aw.T @ aw
        lam = 1e-8 * np.trace(m)
        m[1:, 1:] += lam * np.eye(d)
        rhs = aw.T @ yw
        try:
            beta = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            beta = np.linalg.lstsq(m, rhs, rcond=None)[0]
        ridge_applied = True
    return float(beta[0]), cond, ridge_applied


def _reg_windows(dists: np.ndarray, h_regs, d: int):
    """Kernel window of each h_reg candidate at one query.

    The window is the open ball dists < h, exactly where K(dists/h) > 0; if it
    holds fewer than d+2 curves the radius grows by 1.5 at most 10 times
    (funcspace.widened_ball). Returns one entry per candidate: (rows, weights
    K(t/h)/h^d) of the widened window, or the InsufficientNeighborhood error
    if it stays thin.
    """
    out = []
    for h_reg in h_regs:
        nz, h = widened_ball(dists, h_reg, d + 2)
        if nz.size < d + 2:
            out.append(InsufficientNeighborhood(
                f"only {nz.size} curves carry weight within radius {h:g}"
            ))
        else:
            out.append((nz, kernel_eval(dists[nz] / h) / h ** d))
    return out


def _stacked_wls(coords: np.ndarray, cxs: np.ndarray, y: np.ndarray, windows):
    """Intercepts of the local linear fits for every (frame, window) pair.

    coords is (P, n, d): the training coordinates in each of P frames, cxs
    (P, d) the query's; windows are R (rows, weights) pairs from _reg_windows.
    Every pair's weighted design [sqrt(w) (1, coords - cx) | sqrt(w) y] over
    the union of the windows' rows (zero weight outside a pair's own window)
    goes into one stack, reduced by one batched QR. The singular values of
    each (d+1)x(d+1) R factor give the condition indicator and the rank
    check; a nearly rank-deficient pair is solved by _wls_intercept instead.
    Returns (intercepts, condition indicators, ridge flags), each (P, R).
    """
    n_frames, n, d = coords.shape
    union = np.zeros(n, dtype=bool)
    for nz, _ in windows:
        union[nz] = True
    rows = np.flatnonzero(union)
    sqrt_w = np.zeros((len(windows), rows.size))
    for r, (nz, kw) in enumerate(windows):
        sqrt_w[r, np.searchsorted(rows, nz)] = np.sqrt(kw)
    # built column-major per pair, the layout LAPACK's QR works in
    design = np.empty((n_frames, d + 2, rows.size))
    design[:, 0] = 1.0
    design[:, 1:-1] = (coords[:, rows] - cxs[:, None, :]).swapaxes(1, 2)
    design[:, -1] = y[rows]
    stack = design[:, None] * sqrt_w[None, :, None, :]
    r_fac = np.linalg.qr(stack.reshape(-1, d + 2, rows.size).swapaxes(1, 2), mode="r")
    ra, qty = r_fac[:, :-1, :-1], r_fac[:, :-1, -1]
    svals = np.linalg.svd(ra, compute_uv=False)
    # lstsq's own rank cut is eps * rows: with a 1e4 margin every pair it could
    # call rank deficient goes to _wls_intercept, and solve() only sees
    # well-conditioned R factors
    counts = np.array([nz.size for nz, _ in windows] * n_frames)
    solvable = svals[:, -1] > 1e4 * _EPS * counts * svals[:, 0]
    ghat = np.empty(counts.size)
    cond = np.empty(counts.size)
    ridged = np.zeros(counts.size, dtype=bool)
    if solvable.any():
        ghat[solvable] = np.linalg.solve(ra[solvable], qty[solvable][..., None])[:, 0, 0]
        cond[solvable] = svals[solvable, 0] / svals[solvable, -1]
    for k in np.flatnonzero(~solvable):
        p, r = divmod(int(k), len(windows))
        nz, kw = windows[r]
        ghat[k], cond[k], ridged[k] = _wls_intercept(coords[p, nz], cxs[p], y[nz], kw, d)
    shape = (n_frames, len(windows))
    return ghat.reshape(shape), cond.reshape(shape), ridged.reshape(shape)


def _weighted_fit(model: FremModel, x_values: np.ndarray, dists: np.ndarray,
                  basis: np.ndarray):
    """Kernel-weighted local linear fit at x on its coordinates in the frame
    whose basis rows are given, with adaptive h_reg widening."""
    d = basis.shape[0]
    window = _reg_windows(dists, [model.h_reg], d)[0]
    if isinstance(window, FremError):
        raise window
    w = model.grid.quad_weights
    coords = (model.values * w) @ basis.T
    cx = (x_values * w) @ basis.T
    ghat, cond, ridged = _stacked_wls(coords[None], cx[None], model.responses, [window])
    return float(ghat[0, 0]), FitDiagnostics(int(window[0].size), float(cond[0, 0]),
                                             bool(ridged[0, 0]))


def _local_fit_values(model: FremModel, x_values: np.ndarray,
                      dists: np.ndarray | None = None):
    if dists is None:
        dists = l2_distances_to(model.values, x_values, model.grid.quad_weights)
    _, _, basis, _, _ = frame_at(
        x_values, model.values, model.grid, model.h_pca, model.dim.rounded, dists=dists
    )
    return _weighted_fit(model, x_values, dists, basis)


def fit_local(model: FremModel, x: GridFunction):
    """Estimate of the regression functional at a fully observed query curve.

    Returns (estimate, diagnostics). The tangent frame is built at x with the
    model's h_pca; kernel weights use K(t/h)/h^d on ambient L2 distances with
    the model's h_reg, both adaptively widened when the neighborhood is too
    thin to support a d-dimensional local fit.
    """
    if not x.grid.same_as(model.grid):
        raise GridMismatch("query curve is not on the model grid")
    return _local_fit_values(model, x.values)


def fit_local_with_frame(model: FremModel, x: GridFunction, frame: TangentFrame):
    """Local fit using an externally supplied tangent frame at x.

    Exposed so invariance properties (basis rotations, sign flips) can be
    exercised directly; fit_local is this with the frame built internally.
    """
    if not x.grid.same_as(model.grid):
        raise GridMismatch("query curve is not on the model grid")
    dists = l2_distances_to(model.values, x.values, model.grid.quad_weights)
    return _weighted_fit(model, x.values, dists, frame.basis_values)


def default_candidate_grids(curves):
    """Eight log-spaced bandwidth candidates spanning the 5th to 50th
    percentile of pairwise L2 distances among the training curves; used for
    both h_pca and h_reg."""
    return grids_from_values(stack_values(curves), curves[0].grid.quad_weights)


def grids_from_values(values: np.ndarray, quad_weights: np.ndarray,
                      n_candidates: int = 8):
    if values.shape[0] < 2:
        raise InvalidSettings("need at least two curves to calibrate bandwidths")
    dmat = pairwise_l2(values, values, quad_weights)
    iu = np.triu_indices(values.shape[0], k=1)
    dists = dmat[iu]
    positive = dists[dists > 0]
    if positive.size == 0:
        raise InvalidSettings("all training curves coincide; bandwidths undefined")
    lo, hi = np.percentile(dists, [5.0, 50.0])
    if lo <= 0:
        lo = float(positive.min())
    if hi <= lo:
        hi = lo * 4.0
    cands = np.geomspace(lo, hi, n_candidates)
    return cands, cands.copy()


def select_bandwidths(curves, responses, dim: DimEstimate,
                      h_pca_candidates=None, h_reg_candidates=None,
                      n_folds: int = 5, seed: int = 0):
    """Joint K-fold cross-validation over the (h_pca, h_reg) product grid.

    Returns the pair minimizing the cross-validated squared prediction error;
    ties break toward smaller h_reg, then smaller h_pca. Folds are derived
    deterministically from the seed. A candidate pair that errors on any fold
    is excluded; if every pair is excluded the selection fails.
    """
    values = stack_values(curves)
    return select_bandwidths_values(
        curves[0].grid, values, np.asarray(responses, dtype=float), dim,
        h_pca_candidates, h_reg_candidates, n_folds=n_folds, seed=seed,
    )


def select_bandwidths_values(grid: Grid, values: np.ndarray, responses: np.ndarray,
                             dim: DimEstimate, h_pca_candidates=None,
                             h_reg_candidates=None, n_folds: int = 5, seed: int = 0):
    if h_pca_candidates is None or h_reg_candidates is None:
        hp_default, hr_default = grids_from_values(values, grid.quad_weights)
        h_pca_candidates = hp_default if h_pca_candidates is None else h_pca_candidates
        h_reg_candidates = hr_default if h_reg_candidates is None else h_reg_candidates
    hp = positive_bandwidths(h_pca_candidates, "bandwidth candidates")
    hr = positive_bandwidths(h_reg_candidates, "bandwidth candidates")
    if hp.size == 1 and hr.size == 1:
        return float(hp[0]), float(hr[0])
    folds = cv_folds(values.shape[0], n_folds, seed)
    sq_err, failed = _cv_errors(grid, values, responses, dim.rounded, hp, hr, folds)
    if failed.all():
        raise AllFoldsFailed("every bandwidth pair errored during cross-validation")
    best, best_err = None, np.inf
    for ir in range(hr.size):          # h_reg outer: ties prefer smaller h_reg
        for ip in range(hp.size):      # then smaller h_pca
            if failed[ip, ir]:
                continue
            if improves(sq_err[ip, ir], best_err):
                best, best_err = (float(hp[ip]), float(hr[ir])), float(sq_err[ip, ir])
    return best


def _cv_errors(grid: Grid, values: np.ndarray, responses: np.ndarray, d: int,
               hp: np.ndarray, hr: np.ndarray, folds):
    """Summed squared held-out errors of every (h_pca, h_reg) pair over the folds.

    Queries are visited in fold order. At each query the h_reg windows are
    built once; a window that stays too thin fails its h_reg column. A frame
    error fails the whole h_pca row, which later queries skip. The surviving
    pairs are solved together by _stacked_wls. Returns (sq_err, failed), both
    (len(hp), len(hr)); sq_err is meaningful only where failed is False.
    """
    n = values.shape[0]
    w = grid.quad_weights
    sq_err = np.zeros((hp.size, hr.size))
    row_failed = np.zeros(hp.size, dtype=bool)
    col_failed = np.zeros(hr.size, dtype=bool)
    for fold in folds:
        if row_failed.all() or col_failed.all():
            break
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        train_values = values[mask]
        train_y = responses[mask]
        if train_values.shape[0] < d + 2:
            row_failed[:] = True
            break
        weighted_train = train_values * w
        dist_block = pairwise_l2(values[fold], train_values, w)
        for j, idx in enumerate(fold):
            dists = dist_block[j]
            cols = np.flatnonzero(~col_failed)
            windows = _reg_windows(dists, hr[cols], d)
            thin = np.array([isinstance(win, FremError) for win in windows], dtype=bool)
            col_failed[cols[thin]] = True
            cols = cols[~thin]
            windows = [win for win, t in zip(windows, thin) if not t]
            if not windows:
                break
            bases = []
            for ip in np.flatnonzero(~row_failed):
                try:
                    _, _, basis, _, _ = frame_at(
                        values[idx], train_values, grid, float(hp[ip]), d, dists=dists
                    )
                except FremError:
                    row_failed[ip] = True
                    continue
                bases.append(basis)
            if not bases:
                break
            live = np.flatnonzero(~row_failed)
            stacked = np.concatenate(bases)
            coords = (weighted_train @ stacked.T).reshape(-1, live.size, d).swapaxes(0, 1)
            cxs = ((values[idx] * w) @ stacked.T).reshape(live.size, d)
            ghat, _, _ = _stacked_wls(coords, cxs, train_y, windows)
            sq_err[live[:, None], cols] += (ghat - responses[idx]) ** 2
    failed = row_failed[:, None] | col_failed[None, :]
    return sq_err, failed


def fit(curves, responses, dim: DimEstimate | None = None,
        h_pca: float | None = None, h_reg: float | None = None,
        cv_seed: int = 0) -> FremModel:
    """Convenience pipeline: estimate the dimension if not given, select any
    missing bandwidth by cross-validation, and return the fitted model."""
    from .intrinsic_dim import estimate_dim

    if dim is None:
        dim = estimate_dim(curves)
    if h_pca is None or h_reg is None:
        sel_pca, sel_reg = select_bandwidths(curves, responses, dim, seed=cv_seed)
        h_pca = sel_pca if h_pca is None else h_pca
        h_reg = sel_reg if h_reg is None else h_reg
    return FremModel(curves, np.asarray(responses, dtype=float), dim, h_pca, h_reg)


def predict(model: FremModel, query: DiscreteObservations) -> float:
    """Prediction for a discretely observed query predictor.

    The query record is first recovered with the default smoother onto the
    model grid, then evaluated by the local fit.
    """
    x_tilde = smooth_with_defaults(query, model.grid)
    value, _ = fit_local(model, x_tilde)
    return value
