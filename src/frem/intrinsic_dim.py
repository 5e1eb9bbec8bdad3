"""Intrinsic dimension of the hidden manifold from nearest-neighbor distances.

The per-point maximum likelihood estimate inverts the average log ratio of
the k-th neighbor distance to the closer ones; a regularizer added to every
distance guards against the extra variability of contaminated curves. The
sample estimate averages over all base points and over a range of k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSample, InsufficientSpread, InvalidSettings
from .funcspace import GridFunction, l2_distances_to, pairwise_l2, stack_values


@dataclass
class DimSettings:
    """Neighbor range [k1, k2] and distance regularizer.

    The regularizer is added to every neighbor distance before the log
    ratios are formed; it defaults to zero, which maximizes resolution on
    clean samples and keeps the estimator scale-invariant.
    """

    k1: int = 10
    k2: int = 20
    regularizer: float = 0.0

    def __post_init__(self):
        if not (2 <= self.k1 <= self.k2):
            raise InvalidSettings("need 2 <= k1 <= k2")
        if self.regularizer < 0:
            raise InvalidSettings("regularizer must be nonnegative")


@dataclass
class DimEstimate:
    """Raw averaged dimension estimate, its integer rounding, and per-k values."""

    raw: float
    rounded: int = field(init=False)
    per_k: np.ndarray = None

    def __post_init__(self):
        if not self.raw > 0:
            raise InvalidSettings("dimension estimate must be positive")
        self.rounded = max(1, int(np.floor(self.raw + 0.5)))


def _mle_from_sorted(sorted_dists: np.ndarray, k: int, delta: float) -> np.ndarray:
    """Inverse mean log ratio over the k nearest distances; rows are base points."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(sorted_dists[:, :k] + delta)
        denom = logs[:, k - 1] - logs[:, : k - 1].mean(axis=1)
    if np.any(~np.isfinite(denom)) or np.any(denom <= 0.0):
        raise InsufficientSpread("nearest-neighbor distances carry no spread")
    return 1.0 / denom


def dim_mle_at_point(x: GridFunction, sample, k: int, delta: float = 0.0) -> float:
    """Per-point dimension estimate at x from its k nearest sample curves.

    If x itself belongs to the sample, that single zero distance is dropped.
    """
    if k < 2:
        raise InvalidSettings("need k >= 2")
    if delta < 0:
        raise InvalidSettings("regularizer must be nonnegative")
    values = stack_values(sample)
    dists = l2_distances_to(values, x.values, x.grid.quad_weights)
    zero = np.flatnonzero(dists == 0.0)
    if zero.size:
        dists = np.delete(dists, zero[0])
    if dists.size < k:
        raise InsufficientSample(f"need at least {k} curves, have {dists.size}")
    sorted_d = np.sort(dists)[None, :]
    return float(_mle_from_sorted(sorted_d, k, delta)[0])


def estimate_dim_values(values: np.ndarray, quad_weights: np.ndarray,
                        settings: DimSettings | None = None) -> DimEstimate:
    """Dimension estimate from an (n, G) matrix of curve values."""
    settings = settings or DimSettings()
    n = values.shape[0]
    if n <= settings.k2:
        raise InsufficientSample(f"need more than k2={settings.k2} curves, have {n}")
    dmat = pairwise_l2(values, values, quad_weights)
    # each base point sits in the sample; mask out its own zero distance
    dmat[np.arange(n), np.arange(n)] = np.inf
    sorted_d = np.sort(dmat, axis=1)[:, : settings.k2]
    delta = settings.regularizer
    per_k = np.array([
        _mle_from_sorted(sorted_d, k, delta).mean()
        for k in range(settings.k1, settings.k2 + 1)
    ])
    return DimEstimate(raw=float(per_k.mean()), per_k=per_k)


def estimate_dim(sample, settings: DimSettings | None = None) -> DimEstimate:
    """Dimension estimate averaged over base points and k in [k1, k2].

    The per-point estimates exclude each base point's own zero distance.
    The result does not depend on the ordering of the sample.
    """
    values = stack_values(sample)
    return estimate_dim_values(values, sample[0].grid.quad_weights, settings)
