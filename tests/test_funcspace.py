import subprocess
import sys

import numpy as np
import pytest

from frem import datagen
from frem.errors import GridMismatch, InvalidSettings
from frem.funcspace import (
    Grid,
    GridFunction,
    inner_product,
    kernel_eval,
    l2_distance,
    ROW_BLOCK,
    batch_inner,
    orient_rows,
    pairwise_l2,
    pairwise_l2_rows,
    sq_norms,
    stack_values,
    weighted_eigh,
    weighted_pca,
)


@pytest.fixture
def unit_grid():
    return Grid.regular(0.0, 1.0, 1001)


def test_grid_validation():
    with pytest.raises(InvalidSettings):
        Grid([0.0])
    with pytest.raises(InvalidSettings):
        Grid([0.0, 0.0, 1.0])
    with pytest.raises(InvalidSettings):
        Grid([1.0, 0.5, 0.0])
    g = Grid.regular(0.0, 1.0, 100)
    assert g.is_regular and len(g) == 100
    assert Grid([0.0, 0.1, 0.5, 1.0]).is_regular is False


def test_gridfunction_validation(unit_grid):
    with pytest.raises(InvalidSettings):
        GridFunction(unit_grid, np.ones(5))
    with pytest.raises(InvalidSettings):
        GridFunction(unit_grid, np.full(len(unit_grid), np.nan))


def test_inner_product_constant(unit_grid):
    one = GridFunction(unit_grid, np.ones(len(unit_grid)))
    assert inner_product(one, one) == pytest.approx(1.0, abs=1e-14)


def test_inner_product_orthogonal_trig(unit_grid):
    t = unit_grid.points
    f = GridFunction(unit_grid, np.sin(2 * np.pi * t))
    g = GridFunction(unit_grid, np.cos(2 * np.pi * t))
    assert inner_product(f, g) == pytest.approx(0.0, abs=1e-6)


def test_inner_product_affine_square(unit_grid):
    # integral of (2 + 3t)^2 = 4 + 12t + 9t^2 over [0, 1] is 4 + 6 + 3 = 13;
    # trapezoid error for the quadratic part at 1001 points is 1.5e-6
    f = GridFunction(unit_grid, 2.0 + 3.0 * unit_grid.points)
    assert inner_product(f, f) == pytest.approx(13.0, abs=2e-6)


def test_inner_product_grid_mismatch(unit_grid):
    other = Grid.regular(0.0, 1.0, 500)
    with pytest.raises(GridMismatch):
        inner_product(GridFunction(unit_grid, np.ones(1001)),
                      GridFunction(other, np.ones(500)))


def test_l2_distance_cases(unit_grid):
    one = GridFunction(unit_grid, np.ones(len(unit_grid)))
    zero = GridFunction(unit_grid, np.zeros(len(unit_grid)))
    ident = GridFunction(unit_grid, unit_grid.points)
    assert l2_distance(one, one) == 0.0
    assert l2_distance(one, zero) == pytest.approx(1.0, abs=1e-12)
    assert l2_distance(ident, zero) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-6)


def test_kernel_values():
    assert kernel_eval(0.0) == pytest.approx(0.75)
    assert kernel_eval(1.0) == 0.0
    assert kernel_eval(-1.0) == 0.0
    assert kernel_eval(2.0) == 0.0


def test_kernel_integrates_to_one():
    from scipy.integrate import quad

    total, _ = quad(kernel_eval, -1.0, 1.0)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_kernel_symmetry():
    rng = np.random.default_rng(0)
    u = rng.uniform(-2.0, 2.0, 1000)
    assert np.array_equal(kernel_eval(u), kernel_eval(-u))


_KERNEL_POINTS = np.array([0.0, 0.5, -0.5, 1.0, -1.0, np.nextafter(1.0, 2.0),
                           -np.nextafter(1.0, 2.0), 1e200, np.inf, -np.inf, np.nan])


def _where_kernel(u):
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def test_kernel_eval_matches_where_form_bit_for_bit():
    rng = np.random.default_rng(7)
    u = np.concatenate([_KERNEL_POINTS, rng.uniform(-1.5, 1.5, 500)])
    # 1e200 squared overflows to inf in both forms
    with np.errstate(over="ignore"):
        got, want = kernel_eval(u), _where_kernel(u)
        got_2d = kernel_eval(u.reshape(1, -1))
        scalars = [(kernel_eval(x), float(_where_kernel(x))) for x in _KERNEL_POINTS]
    assert got.tobytes() == want.tobytes() == got_2d.tobytes()
    for got_x, want_x in scalars:
        assert type(got_x) is float
        assert np.array(got_x).tobytes() == np.array(want_x).tobytes()


def test_kernel_eval_leaves_its_input_alone():
    u = np.linspace(-2.0, 2.0, 41)
    before = u.copy()
    kernel_eval(u)
    assert np.array_equal(u, before)


def _gram_reference(a, b, w):
    sq = sq_norms(a, w)[:, None] + sq_norms(b, w)[None, :]
    sq = sq - 2.0 * batch_inner(a, b, w)
    return np.sqrt(np.clip(sq, 0.0, None))


def test_pairwise_l2_matches_gram_expression_bit_for_bit():
    grid = Grid.regular(0.0, 1.0, 90)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((37, 90)).cumsum(axis=1)
    b = np.vstack([a[:5], rng.standard_normal((20, 90))])   # includes zero distances
    for x, y in ((a, b), (b, a), (a, a), (a[:1], b)):
        assert pairwise_l2(x, y, grid.quad_weights).tobytes() == \
            _gram_reference(x, y, grid.quad_weights).tobytes()


@pytest.mark.parametrize("n", [2, 3, ROW_BLOCK + 1, 2 * ROW_BLOCK + 37])
def test_row_blocks_equal_the_full_matrix_bit_for_bit(n, one_blas_thread):
    grid = Grid.regular(0.0, 1.0, 70)
    values = np.random.default_rng(n).standard_normal((n, 70)).cumsum(axis=1)
    full = pairwise_l2(values, values, grid.quad_weights)
    blocks = list(pairwise_l2_rows(values, grid.quad_weights))
    assert [start for start, _ in blocks] == list(range(0, max(1, n // ROW_BLOCK) * ROW_BLOCK,
                                                          ROW_BLOCK))
    assert all(block.shape[0] >= min(n, ROW_BLOCK) for _, block in blocks)
    assert np.vstack([block for _, block in blocks]).tobytes() == full.tobytes()


def test_inner_product_symmetric_bilinear():
    grid = Grid.regular(0.0, 1.0, 200)
    rng = np.random.default_rng(1)
    for _ in range(20):
        f, g, h = (GridFunction(grid, rng.standard_normal(200)) for _ in range(3))
        a, b = rng.standard_normal(2)
        assert inner_product(f, g) == pytest.approx(inner_product(g, f), rel=1e-10)
        lhs = inner_product(a * f + b * g, h)
        rhs = a * inner_product(f, h) + b * inner_product(g, h)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_triangle_inequality():
    grid = Grid.regular(0.0, 1.0, 150)
    rng = np.random.default_rng(2)
    for _ in range(20):
        f, g, h = (GridFunction(grid, rng.standard_normal(150)) for _ in range(3))
        assert l2_distance(f, h) <= l2_distance(f, g) + l2_distance(g, h) + 1e-10


def test_pairwise_matches_scalar():
    grid = Grid.regular(0.0, 1.0, 80)
    rng = np.random.default_rng(3)
    curves = [GridFunction(grid, rng.standard_normal(80)) for _ in range(6)]
    values = stack_values(curves)
    dmat = pairwise_l2(values, values, grid.quad_weights)
    # the Gram expansion loses about half the mantissa near zero distances
    for i in range(6):
        for j in range(6):
            assert dmat[i, j] == pytest.approx(
                l2_distance(curves[i], curves[j]), abs=2e-8
            )


def test_weighted_eigh_orthonormal():
    grid = Grid.regular(0.0, 1.0, 60)
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((10, 60))
    cov = mat.T @ mat / 10
    evals, basis = weighted_eigh(cov, grid.quad_weights, 3)
    assert np.all(np.diff(evals[:3]) <= 1e-12)
    gram = (basis * grid.quad_weights) @ basis.T
    assert np.allclose(gram, np.eye(3), atol=1e-8)


# weighted_pca eigendecomposes S S^T when n < G (an SVD instead when the
# third eigenvalue is below 1e-6 of the first) and S^T S when n >= G
@pytest.mark.parametrize("n, near_degenerate", [(40, False), (40, True), (60, False), (90, False)],
                         ids=["gram", "svd", "n-eq-g", "n-gt-g"])
def test_weighted_pca_matches_svd_of_scaled_rows(n, near_degenerate):
    grid = Grid.regular(0.0, 1.0, 60)
    rng = np.random.default_rng(6)
    if near_degenerate:
        coefs = rng.uniform(-1.0, 1.0, size=(n, 3)) * np.array([1.0, 0.5, 1e-4])
        values = coefs @ datagen.fourier_basis(grid.points, 3)
    else:
        values = rng.standard_normal((n, 60))
    mean, evals, basis = weighted_pca(values, grid.quad_weights, 3)
    sqrt_w = np.sqrt(grid.quad_weights)
    _, svals, vt = np.linalg.svd((values - values.mean(axis=0)) * sqrt_w / np.sqrt(n),
                                 full_matrices=False)
    assert np.allclose(mean, values.mean(axis=0), rtol=0.0, atol=1e-14)
    assert np.allclose(evals, svals[:3] ** 2, rtol=1e-10, atol=0.0)
    assert np.allclose(basis, orient_rows(vt[:3]) / sqrt_w, rtol=0.0, atol=1e-10)
    if near_degenerate:
        assert evals[2] / evals[0] == pytest.approx(1e-8, rel=0.5)


def test_import_does_not_load_scipy():
    # scipy is a test extra only; importing it would also add to start-up time
    code = "import sys, frem; assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def test_orient_rows_matches_row_loop():
    # rows with leading zeros, leading sub-threshold noise of either sign,
    # all zeros and NaN, against the per-row loop it replaced
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((40, 30))
    vecs[::3, :4] = 0.0
    vecs[1::4, :2] = 1e-14 * rng.standard_normal((10, 2))
    vecs[5] = 0.0
    vecs[7, 3] = np.nan
    expected = vecs.copy()
    for row in expected:
        nz = np.flatnonzero(np.abs(row) > 1e-12 * np.max(np.abs(row)))
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    out = orient_rows(vecs)
    assert out is vecs
    assert np.array_equal(vecs, expected, equal_nan=True)
