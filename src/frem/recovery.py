"""Recovery of individual curves from discrete noisy measurements.

Each curve is estimated by a ridged local linear smoother: at every output
point t the kernel-weighted moments

    S_r = (m h)^-1 sum_j K((T_j - t)/h) ((T_j - t)/h)^r
    R_r = (m h)^-1 sum_j K((T_j - t)/h) ((T_j - t)/h)^r X*_j

are combined into (R0 S2 - R1 S1) / (S0 S2 - S1^2 + ridge), where the ridge
is added only when |S0 S2 - S1^2| falls below it, so the output is always
finite even where the local design is empty or degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllFoldsFailed, EmptyObservations, InvalidSettings
from .funcspace import Grid, GridFunction, kernel_eval, positive_bandwidths


@dataclass
class DiscreteObservations:
    """One subject's measurement pairs (T_j, X*_j)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.size == 0 or self.values.size == 0:
            raise EmptyObservations("no measurement pairs")
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise InvalidSettings("times and values must be vectors of equal length")
        if self.times.size < 4:
            raise InvalidSettings("need at least 4 measurement pairs per curve")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.values))):
            raise InvalidSettings("measurements must be finite")

    @property
    def m(self) -> int:
        return self.times.size


@dataclass
class SmootherSettings:
    """Bandwidth, ridge constant, and output grid for the smoother."""

    bandwidth: float
    ridge: float
    grid: Grid

    def __post_init__(self):
        positive_bandwidths(self.bandwidth)
        if not self.ridge > 0:
            raise InvalidSettings("ridge must be positive")


def default_ridge(m: int) -> float:
    """Convenient ridge choice 1/m^2 for a curve observed at m points."""
    return float(m) ** -2


def default_bandwidth(m: int, nu: float = 2.0, scale: float = 1.0,
                      domain_length: float = 1.0) -> float:
    """Rate-optimal bandwidth order scale * |D| * m^(-1/(2 nu + 1)).

    nu is the Holder smoothness of the underlying curve, in (0, 2].
    """
    if m < 4:
        raise InvalidSettings("need m >= 4 observations")
    if not 0 < nu <= 2:
        raise InvalidSettings("smoothness nu must lie in (0, 2]")
    if not scale > 0:
        raise InvalidSettings("scale must be positive")
    if not domain_length > 0:
        raise InvalidSettings("domain length must be positive")
    return scale * domain_length * float(m) ** (-1.0 / (2.0 * nu + 1.0))


def bandwidth_candidates(m: int, nu: float = 2.0, domain_length: float = 1.0) -> np.ndarray:
    """Ten log-spaced bandwidths from 1/4 to 4 times the default rate."""
    h0 = default_bandwidth(m, nu, 1.0, domain_length)
    return np.geomspace(h0 / 4.0, h0 * 4.0, 10)


def _moment_terms(times: np.ndarray, targets: np.ndarray, h: float):
    """Kernel moment matrices A_r[i, j] = K(u_ij) u_ij^r with u = (T_j - t_i)/h."""
    u = (times[None, :] - targets[:, None]) / h
    k = kernel_eval(u)
    ku = k * u
    return k, ku, ku * u


def _ridged_ratio(num: np.ndarray, den: np.ndarray, ridge: float) -> np.ndarray:
    return num / (den + ridge * (np.abs(den) < ridge))


def smooth_values(times: np.ndarray, values: np.ndarray, h: float, ridge: float,
                  targets: np.ndarray) -> np.ndarray:
    """Ridged local linear estimates at target points; values may be (m,) or (n, m).

    Returns an array of shape (len(targets),) or (n, len(targets)).
    """
    m = times.size
    k0, k1, k2 = _moment_terms(times, targets, h)
    c = 1.0 / (m * h)
    s0 = c * k0.sum(axis=1)
    s1 = c * k1.sum(axis=1)
    s2 = c * k2.sum(axis=1)
    single = values.ndim == 1
    vals = values[None, :] if single else values
    r0 = c * (k0 @ vals.T)
    r1 = c * (k1 @ vals.T)
    num = r0 * s2[:, None] - r1 * s1[:, None]
    den = s0 * s2 - s1 * s1
    out = _ridged_ratio(num, den[:, None], ridge).T
    return out[0] if single else out


def smooth_curve(obs: DiscreteObservations, settings: SmootherSettings) -> GridFunction:
    """Recover one curve on the output grid from its discrete noisy record."""
    est = smooth_values(obs.times, obs.values, settings.bandwidth, settings.ridge,
                        settings.grid.points)
    return GridFunction(settings.grid, est)


def _loo_predictions(times: np.ndarray, values: np.ndarray, h: float) -> np.ndarray:
    """Leave-one-out smoother predictions at each observation time.

    values may be (m,) or (n, m); the self pair is removed from the moments
    analytically (at u = 0 only the r = 0 terms contribute).
    """
    m = times.size
    k0, k1, k2 = _moment_terms(times, times, h)
    c = 1.0 / ((m - 1) * h)
    kc = kernel_eval(0.0)
    s0 = c * (k0.sum(axis=1) - kc)
    s1 = c * k1.sum(axis=1)
    s2 = c * k2.sum(axis=1)
    single = values.ndim == 1
    vals = values[None, :] if single else values
    r0 = c * (k0 @ vals.T - kc * vals.T)
    r1 = c * (k1 @ vals.T)
    num = r0 * s2[:, None] - r1 * s1[:, None]
    den = s0 * s2 - s1 * s1
    out = _ridged_ratio(num, den[:, None], default_ridge(m - 1)).T
    return out[0] if single else out


def cv_bandwidth(obs: DiscreteObservations, candidates) -> float:
    """Bandwidth with the smallest leave-one-out squared prediction error.

    Ties are broken toward the smaller bandwidth; AllFoldsFailed if no
    candidate's error is finite.
    """
    return float(cv_bandwidths_shared(obs.times, obs.values[None, :], candidates)[0])


def cv_bandwidths_shared(times: np.ndarray, values: np.ndarray, candidates) -> np.ndarray:
    """Per-curve leave-one-out bandwidths for curves sharing one design.

    values has one curve per row; returns the selected bandwidth per row,
    each as cv_bandwidth would choose it for that curve alone: a row's
    bandwidth changes only when its error beats the incumbent by the margin
    of `improves`, and the first finite error always does. AllFoldsFailed if
    some row has no finite error (its values too large to square).
    """
    cands = positive_bandwidths(candidates, "bandwidth candidates")
    best_h = np.empty(values.shape[0])
    # a row's bandwidth changes when its error falls below its bar: its best
    # error less the `improves` margin, and inf until a finite error is seen
    bar = np.full(values.shape[0], np.inf)
    # overflow only makes a candidate's error non-finite, which never wins
    with np.errstate(over="ignore", invalid="ignore"):
        for h in cands:
            pred = _loo_predictions(times, values, float(h))
            err = np.sum((pred - values) ** 2, axis=1)
            better = err < bar
            if better.any():
                best_h[better] = h
                won = err[better]
                bar[better] = won - np.maximum(1e-12 * won, 1e-24)
    failed = np.flatnonzero(np.isinf(bar))
    if failed.size:
        raise AllFoldsFailed(
            f"no bandwidth candidate gives a finite leave-one-out error for curve {failed[0]}"
        )
    return best_h


def smooth_with_defaults(obs: DiscreteObservations, grid: Grid, nu: float = 2.0) -> GridFunction:
    """Recover a curve using the default bandwidth search and ridge.

    The bandwidth is chosen by leave-one-out cross-validation over a 10-point
    log-spaced grid centered at the rate-optimal order; the ridge is 1/m^2.
    """
    cands = bandwidth_candidates(obs.m, nu, grid.length)
    h = cv_bandwidth(obs, cands)
    return smooth_curve(obs, SmootherSettings(h, default_ridge(obs.m), grid))


def smooth_all(observations, grid: Grid, nu: float = 2.0) -> np.ndarray:
    """Recover every curve with default settings; returns an (n, G) value matrix.

    When all records share one design (same times), the cross-validation and
    smoothing are batched; the batched path computes the same quantities as
    the per-curve path.
    """
    if len(observations) == 0:
        raise EmptyObservations("no curves to smooth")
    times0 = observations[0].times
    shared = all(
        o.times.size == times0.size and np.array_equal(o.times, times0)
        for o in observations[1:]
    )
    if not shared:
        return np.array([smooth_with_defaults(o, grid, nu).values for o in observations])
    values = np.array([o.values for o in observations])
    m = times0.size
    cands = bandwidth_candidates(m, nu, grid.length)
    chosen = cv_bandwidths_shared(times0, values, cands)
    out = np.empty((values.shape[0], len(grid)))
    ridge = default_ridge(m)
    for h in np.unique(chosen):
        rows = np.flatnonzero(chosen == h)
        out[rows] = smooth_values(times0, values[rows], float(h), ridge, grid.points)
    return out
