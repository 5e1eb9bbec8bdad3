"""Grid-based representation of square-integrable functions on a compact interval.

Curves are stored as values on a shared grid; inner products and distances
are trapezoid-rule approximations of their L2 counterparts. The rules that
several estimators share live here, each written once: the Epanechnikov
kernel, the adaptively widened L2 ball (`widened_ball`), the K-fold split
(`cv_folds`), the bandwidth check (`positive_bandwidths`), the training-array
check (`check_training`), the empirical covariance and the weighted
eigen-solver.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch, InvalidSettings

#: Radius of the kernel's support: K(u) = 0 for |u| > 1.
KERNEL_SUPPORT = 1.0

_REGULAR_RTOL = 1e-12


class Grid:
    """Strictly increasing evaluation points in a compact interval.

    Carries the trapezoid quadrature weights used for all inner products.
    Instances are immutable after construction.
    """

    __slots__ = ("points", "quad_weights", "is_regular", "spacing")

    def __init__(self, points):
        pts = np.asarray(points, dtype=float).copy()
        if pts.ndim != 1 or pts.size < 2:
            raise InvalidSettings("grid needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise InvalidSettings("grid points must be finite")
        steps = np.diff(pts)
        if np.any(steps <= 0):
            raise InvalidSettings("grid points must be strictly increasing")
        w = np.empty_like(pts)
        w[0] = steps[0] / 2.0
        w[-1] = steps[-1] / 2.0
        w[1:-1] = (steps[:-1] + steps[1:]) / 2.0
        span = np.max(steps) - np.min(steps)
        self.is_regular = bool(span <= _REGULAR_RTOL * np.max(steps))
        self.spacing = float(np.mean(steps)) if self.is_regular else None
        pts.flags.writeable = False
        w.flags.writeable = False
        self.points = pts
        self.quad_weights = w

    @classmethod
    def regular(cls, a: float = 0.0, b: float = 1.0, n: int = 100) -> "Grid":
        """Regular grid of n points on [a, b], endpoints included."""
        if n < 2:
            raise InvalidSettings("grid needs at least two points")
        if not b > a:
            raise InvalidSettings("grid interval must satisfy a < b")
        return cls(np.linspace(a, b, n))

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def length(self) -> float:
        """Length of the interval spanned by the grid."""
        return self.b - self.a

    def __len__(self) -> int:
        return self.points.size

    def same_as(self, other: "Grid") -> bool:
        return self is other or np.array_equal(self.points, other.points)

    def __repr__(self) -> str:
        return f"Grid({len(self)} points on [{self.a:g}, {self.b:g}])"


class GridFunction:
    """A curve evaluated on a grid: the discrete stand-in for an L2 element."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        vals = np.asarray(values, dtype=float).copy()
        if vals.shape != grid.points.shape:
            raise InvalidSettings(
                f"values have length {vals.size}, grid has {len(grid)} points"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidSettings("grid function values must be finite")
        vals.flags.writeable = False
        self.grid = grid
        self.values = vals

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"GridFunction({len(self.grid)} points)"


def _require_same_grid(f: GridFunction, g: GridFunction) -> None:
    if not f.grid.same_as(g.grid):
        raise GridMismatch("grid functions live on different grids")


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Trapezoid-rule approximation of the L2 inner product of f and g."""
    _require_same_grid(f, g)
    return float(np.dot(f.grid.quad_weights, f.values * g.values))


def l2_distance(f: GridFunction, g: GridFunction) -> float:
    """L2 distance between two curves on a shared grid."""
    _require_same_grid(f, g)
    diff = f.values - g.values
    return float(np.sqrt(np.dot(f.grid.quad_weights, diff * diff)))


def kernel_eval(u):
    """Epanechnikov kernel K(u) = 0.75 (1 - u^2) on [-1, 1], zero outside.

    Accepts scalars or arrays; symmetric, nonnegative, integrates to one.
    """
    u = np.asarray(u, dtype=float)
    out = np.where(np.abs(u) <= KERNEL_SUPPORT, 0.75 * (1.0 - u * u), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Array-level helpers shared by the estimation modules. These operate on
# stacked value matrices (one curve per row) to avoid per-curve overhead;
# they compute exactly the quantities defined above.
# ---------------------------------------------------------------------------


def stack_values(curves) -> np.ndarray:
    """Stack a nonempty list of grid functions into an (n, G) matrix.

    All curves must share one grid.
    """
    if len(curves) == 0:
        raise InvalidSettings("cannot stack an empty list of curves")
    grid = curves[0].grid
    for c in curves[1:]:
        if not c.grid.same_as(grid):
            raise GridMismatch("curves live on different grids")
    return np.array([c.values for c in curves])


def batch_inner(values: np.ndarray, other: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pairwise quadrature inner products between rows of two value matrices."""
    return (values * weights) @ other.T


def sq_norms(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Squared L2 norms of the rows of a value matrix."""
    return (values * values) @ weights


def pairwise_l2(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Matrix of L2 distances between rows of a and rows of b.

    Uses the Gram expansion ||f - g||^2 = ||f||^2 + ||g||^2 - 2 <f, g>;
    tiny negative values from cancellation are clipped to zero.
    """
    sq = sq_norms(a, weights)[:, None] + sq_norms(b, weights)[None, :]
    sq = sq - 2.0 * batch_inner(a, b, weights)
    return np.sqrt(np.clip(sq, 0.0, None))


def l2_distances_to(values: np.ndarray, point: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """L2 distances from each row of a value matrix to a single curve."""
    diff = values - point[None, :]
    return np.sqrt((diff * diff) @ weights)


def improves(err: float, best: float) -> bool:
    """Whether a candidate's error beats the incumbent beyond float noise.

    Near-ties (relative 1e-12, absolute 1e-24) count as ties so that
    candidate ordering, not rounding noise, breaks them.
    """
    if best == np.inf:
        return err < np.inf
    return err < best - max(1e-12 * best, 1e-24)


def widened_ball(dists: np.ndarray, h: float, need: int):
    """Indices of the open ball dists < h, its radius grown by 1.5 at most 10
    times until it holds `need` members.

    Returns (members, radius used); the caller decides whether fewer than
    `need` members after the last widening is an error.
    """
    h = float(h)
    members = np.flatnonzero(dists < h)
    for _ in range(10):
        if members.size >= need:
            break
        h *= 1.5
        members = np.flatnonzero(dists < h)
    return members, h


def cv_folds(n: int, n_folds: int, seed: int):
    """Seeded K-fold split of range(n), with K clipped to [2, n]."""
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, max(2, min(n_folds, n)))


def positive_bandwidths(h, what: str = "bandwidth") -> np.ndarray:
    """A bandwidth or candidate list as a sorted float array.

    InvalidSettings unless it is nonempty and every value is positive and
    finite.
    """
    h = np.sort(np.asarray(h, dtype=float).ravel())
    if h.size == 0 or not (h[0] > 0 and np.isfinite(h[-1])):
        raise InvalidSettings(f"{what} must be positive and finite")
    return h


def check_training(grid: Grid, values: np.ndarray, responses) -> np.ndarray:
    """Check an (n, G) training matrix on the grid and its n responses;
    returns the responses as floats."""
    responses = np.asarray(responses, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(grid):
        raise InvalidSettings("curve values must be an (n, G) matrix on the grid")
    if responses.shape != (values.shape[0],):
        raise InvalidSettings("one response per curve required")
    return responses


def covariance_values(values: np.ndarray):
    """Mean curve and (exactly symmetric) empirical covariance kernel of the rows."""
    mean = values.mean(axis=0)
    centered = values - mean
    cov = centered.T @ centered / values.shape[0]
    return mean, (cov + cov.T) / 2.0


def orient_rows(vecs: np.ndarray) -> np.ndarray:
    """Flip rows in place so each one's first nonnegligible entry is positive."""
    mag = np.abs(vecs)
    big = mag > 1e-12 * mag.max(axis=1, keepdims=True)
    first = vecs[np.arange(vecs.shape[0]), np.argmax(big, axis=1)]
    vecs[big.any(axis=1) & (first < 0)] *= -1.0
    return vecs


def weighted_eigh(cov: np.ndarray, weights: np.ndarray, k: int):
    """Leading eigenpairs of a covariance kernel under the quadrature inner product.

    Solves the symmetric eigenproblem of W^(1/2) C W^(1/2) with W the diagonal
    of quadrature weights, then unweights the eigenvectors so the returned
    basis rows are orthonormal under the trapezoid inner product. The sign of
    each basis function is fixed so that its first nonnegligible weighted
    coordinate is positive.

    Returns (eigenvalues, basis) with eigenvalues in nonincreasing order,
    truncated to the k largest, and basis of shape (k, G).
    """
    sqrt_w = np.sqrt(weights)
    sym = cov * sqrt_w[None, :] * sqrt_w[:, None]
    sym = (sym + sym.T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals)[::-1][:k]
    basis = orient_rows(evecs[:, order].T) / sqrt_w[None, :]
    return evals[order], basis
