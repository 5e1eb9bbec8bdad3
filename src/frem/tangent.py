"""Tangent-space estimation at a query curve by local functional PCA.

The neighborhood is an L2 ball around the query; the local covariance kernel
of the neighbors is eigendecomposed under the quadrature inner product, and
the top-d eigenfunctions span the estimated tangent space. A frame bundles
the local mean, eigenvalues, and orthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InsufficientNeighborhood, InvalidSettings, RankDeficient
from .funcspace import (
    Grid,
    GridFunction,
    batch_inner,
    covariance_values,
    l2_distances_to,
    orient_rows,
    stack_values,
    weighted_eigh,
)

_RANK_RTOL = 1e-12
_ORTHO_TOL = 1e-8


@dataclass
class TangentFrame:
    """Local mean, eigenvalues, and orthonormal tangent basis at a query curve."""

    base: GridFunction
    mean: GridFunction
    eigenvalues: np.ndarray
    basis: list
    neighborhood_size: int
    h_pca_used: float
    basis_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.basis) < 1:
            raise InvalidSettings("a tangent frame needs at least one basis function")
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if self.eigenvalues.size != len(self.basis):
            raise InvalidSettings("one eigenvalue per basis function required")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise InvalidSettings("eigenvalues must be nonincreasing")
        if self.eigenvalues[-1] < -1e-10 * max(1.0, abs(float(self.eigenvalues[0]))):
            raise InvalidSettings("eigenvalues must be nonnegative up to roundoff")
        grid = self.base.grid
        for f in (self.mean, *self.basis):
            if not f.grid.same_as(grid):
                raise GridMismatch("frame members live on different grids")
        self.basis_values = np.array([f.values for f in self.basis])
        gram = batch_inner(self.basis_values, self.basis_values, grid.quad_weights)
        if not np.allclose(gram, np.eye(len(self.basis)), atol=_ORTHO_TOL):
            raise InvalidSettings("basis is not orthonormal under the grid inner product")

    @property
    def d(self) -> int:
        return len(self.basis)


def neighborhood(x: GridFunction, curves, h_pca: float):
    """Indices of curves strictly within L2 distance h_pca of x, ascending."""
    if not h_pca > 0:
        raise InvalidSettings("h_pca must be positive")
    values = stack_values(curves)
    dists = l2_distances_to(values, x.values, x.grid.quad_weights)
    return [int(i) for i in np.flatnonzero(dists < h_pca)]


def local_covariance(neighbors) -> np.ndarray:
    """Empirical covariance kernel (G x G matrix) of a list of neighbor curves."""
    if len(neighbors) < 2:
        raise InsufficientNeighborhood("need at least 2 neighbors for a covariance")
    return covariance_values(stack_values(neighbors))[1]


def _require_rank(evals: np.ndarray, d: int) -> None:
    """RankDeficient unless the top d eigenvalues are numerically positive."""
    rank = int(np.sum(evals[:d] > _RANK_RTOL * max(evals[0], 0.0)))
    if rank < d:
        raise RankDeficient(
            f"requested {d} tangent directions, local covariance supports {rank}"
        )


def _top_eigenpairs(values: np.ndarray, weights: np.ndarray, d: int):
    """Leading eigenpairs of the local covariance operator of centered rows.

    Uses an SVD of the weighted data matrix when there are fewer neighbors
    than grid points, otherwise eigendecomposition of the weighted covariance;
    both give the eigenvalues of the quadrature-weighted covariance operator
    and a basis orthonormal under the quadrature inner product.
    """
    n, g = values.shape
    if n < g:
        mean = values.mean(axis=0)
        sqrt_w = np.sqrt(weights)
        scaled = (values - mean) * sqrt_w[None, :] / np.sqrt(n)
        _, svals, vt = np.linalg.svd(scaled, full_matrices=False)
        evals = svals[:d] * svals[:d]
        basis = orient_rows(vt[:d]) / sqrt_w[None, :]
    else:
        mean, cov = covariance_values(values)
        evals, basis = weighted_eigh(cov, weights, d)
    _require_rank(evals, d)
    return mean, evals, basis


def tangent_basis(cov: np.ndarray, d: int, x: GridFunction, mean: GridFunction,
                  neighborhood_size: int = 0, h_pca_used: float = float("nan")) -> TangentFrame:
    """Frame from the top-d eigenpairs of a covariance kernel at query x.

    The eigenproblem is solved under the quadrature inner product so the
    returned basis is orthonormal in the discretized L2 sense; each basis
    function's sign makes its first nonnegligible weighted coordinate positive.
    """
    if d < 1:
        raise InvalidSettings("need d >= 1")
    grid = x.grid
    evals, basis_values = weighted_eigh(cov, grid.quad_weights, d)
    _require_rank(evals, d)
    return TangentFrame(
        base=x,
        mean=mean,
        eigenvalues=evals,
        basis=[GridFunction(grid, row) for row in basis_values],
        neighborhood_size=neighborhood_size,
        h_pca_used=h_pca_used,
    )


def project(curve: GridFunction, frame: TangentFrame) -> np.ndarray:
    """Coordinates of a curve in the frame: inner products with each basis function."""
    if not curve.grid.same_as(frame.base.grid):
        raise GridMismatch("curve is not on the frame's grid")
    return (curve.values * curve.grid.quad_weights) @ frame.basis_values.T


def frame_at(x_values: np.ndarray, values: np.ndarray, grid: Grid, h_pca: float,
             d: int, dists: np.ndarray | None = None, growth: float = 1.5,
             max_expansions: int = 10):
    """Array-level frame construction with adaptive neighborhood widening.

    If the ball of radius h_pca holds fewer than max(d+2, 10) curves, the
    radius grows by `growth` at most `max_expansions` times before erroring.
    Returns (mean values, eigenvalues, basis values, neighbor count, radius used).
    """
    if not h_pca > 0:
        raise InvalidSettings("h_pca must be positive")
    if d < 1:
        raise InvalidSettings("need d >= 1")
    n = values.shape[0]
    if dists is None:
        dists = l2_distances_to(values, x_values, grid.quad_weights)
    target = min(max(d + 2, 10), n)
    if n < d + 2:
        raise InsufficientNeighborhood(f"need at least {d + 2} curves, have {n}")
    h = float(h_pca)
    members = dists < h
    count = int(members.sum())
    for _ in range(max_expansions):
        if count >= target:
            break
        h *= growth
        members = dists < h
        count = int(members.sum())
    if count < target:
        raise InsufficientNeighborhood(
            f"only {count} curves within radius {h:g} after widening"
        )
    mean, evals, basis = _top_eigenpairs(values[members], grid.quad_weights, d)
    return mean, evals, basis, count, h


def build_frame(x: GridFunction, curves, h_pca: float, d: int,
                growth: float = 1.5, max_expansions: int = 10) -> TangentFrame:
    """Tangent frame at x from the curves within an adaptively widened L2 ball."""
    values = stack_values(curves)
    grid = x.grid
    mean, evals, basis, count, h = frame_at(
        x.values, values, grid, h_pca, d, growth=growth, max_expansions=max_expansions
    )
    return TangentFrame(
        base=x,
        mean=GridFunction(grid, mean),
        eigenvalues=evals,
        basis=[GridFunction(grid, row) for row in basis],
        neighborhood_size=count,
        h_pca_used=h,
    )
