import warnings

import numpy as np
import pytest

from frem import datagen
from frem.errors import GridMismatch, InsufficientNeighborhood, RankDeficient
from frem.funcspace import Grid, GridFunction, inner_product, orient_rows, stack_values
from frem.tangent import (
    TangentFrame,
    build_frame,
    frame_at,
    local_covariance,
    neighborhood,
    project,
    tangent_basis,
)

GRID = Grid.regular(0.0, 1.0, 100)


def _as_funcs(values):
    return [GridFunction(GRID, row) for row in values]


def _flat_patch(n, seed, dims=2, scale=1.0):
    basis = datagen.fourier_basis(GRID.points, dims)
    rng = np.random.default_rng(seed)
    coefs = rng.uniform(-scale, scale, size=(n, dims))
    return coefs @ basis, basis


def test_neighborhood_strict_inequality():
    base = np.zeros(len(GRID))
    e1 = datagen.fourier_basis(GRID.points, 1)[0]
    curves = _as_funcs(np.array([0.1 * e1, 0.5 * e1, 0.9 * e1]))
    x = GridFunction(GRID, base)
    idx = neighborhood(x, curves, 0.5)
    assert idx == [0]


def test_neighborhood_includes_self_and_all():
    values, _ = _flat_patch(5, 0)
    curves = _as_funcs(values)
    idx = neighborhood(curves[2], curves, 1e9)
    assert idx == [0, 1, 2, 3, 4]
    assert 2 in neighborhood(curves[2], curves, 1e-12)


def test_local_covariance_identical_curves():
    curves = _as_funcs(np.ones((3, len(GRID))))
    cov = local_covariance(curves)
    assert np.allclose(cov, 0.0)


def test_local_covariance_rank_one():
    f = datagen.fourier_basis(GRID.points, 1)[0]
    curves = _as_funcs(np.array([f, -f]))
    cov = local_covariance(curves)
    assert np.allclose(cov, np.outer(f, f), atol=1e-12)


def test_local_covariance_trace_identity():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((12, len(GRID)))
    cov = local_covariance(_as_funcs(values))
    mu = values.mean(axis=0)
    direct = np.mean([((row - mu) ** 2) @ GRID.quad_weights for row in values])
    quad_trace = np.sum(GRID.quad_weights * np.diag(cov))
    assert quad_trace == pytest.approx(direct, abs=1e-8)


def test_local_covariance_needs_two():
    with pytest.raises(InsufficientNeighborhood):
        local_covariance(_as_funcs(np.ones((1, len(GRID)))))


def test_tangent_basis_flat_patch_residual():
    values, basis = _flat_patch(40, 2)
    curves = _as_funcs(values)
    cov = local_covariance(curves)
    mu = values.mean(axis=0)
    frame = tangent_basis(cov, 2, curves[0], GridFunction(GRID, mu))
    w = GRID.quad_weights
    for row in values:
        centered = row - mu
        coords = (centered * w) @ frame.basis_values.T
        recon = coords @ frame.basis_values
        residual = np.sqrt(((centered - recon) ** 2) @ w)
        assert residual <= 1e-8


def test_tangent_basis_rank_deficient():
    f = datagen.fourier_basis(GRID.points, 1)[0]
    curves = _as_funcs(np.array([f, -f, 2 * f]))
    cov = local_covariance(curves)
    mu = GridFunction(GRID, np.zeros(len(GRID)))
    with pytest.raises(RankDeficient):
        tangent_basis(cov, 2, curves[0], mu)
    # the same check in frame_at, on its Gram (n < G) and eigh (n >= G)
    # branches; on the Gram branch it must come before any division by a
    # zero or negative eigenvalue, so no warning may be raised either
    for values in (np.linspace(-1.0, 1.0, 40)[:, None] * f[None, :],
                   np.tile(f, (40, 1)),
                   np.zeros((40, len(GRID))),
                   np.linspace(-1.0, 1.0, 150)[:, None] * f[None, :]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficient):
                frame_at(values[0], values, GRID, 1e9, 2)


def _near_degenerate(n, seed):
    """Rank-3 curves whose third local eigenvalue is 1e-8 times the first."""
    rng = np.random.default_rng(seed)
    basis = datagen.fourier_basis(GRID.points, 3)
    coefs = rng.uniform(-1.0, 1.0, size=(n, 3)) * np.array([1.0, 0.5, 1e-4])
    return coefs @ basis


# frame_at solves by the Gram eigh when n < G, by an SVD when n < G and the
# spectrum is too spread for the Gram basis, and by the weighted eigh when
# n >= G
@pytest.mark.parametrize("n, near_degenerate", [(40, False), (40, True), (150, False)],
                         ids=["gram", "svd", "eigh"])
def test_frame_at_matches_tangent_basis(n, near_degenerate):
    rng = np.random.default_rng(12)
    values = _near_degenerate(n, 12) if near_degenerate else rng.standard_normal((n, len(GRID)))
    mean, evals, basis, count, _ = frame_at(values[0], values, GRID, 1e9, 3)
    assert count == n
    cov = local_covariance(_as_funcs(values))
    frame = tangent_basis(cov, 3, GridFunction(GRID, values[0]), GridFunction(GRID, mean))
    assert np.allclose(evals, frame.eigenvalues, rtol=0.0, atol=1e-10)
    if not near_degenerate:
        assert np.allclose(basis, frame.basis_values, rtol=0.0, atol=1e-10)
        return
    assert evals[2] / evals[0] == pytest.approx(1e-8, rel=0.5)
    # the covariance eigh resolves the third direction only to about
    # eps / 1e-8, so the reference here is the SVD of the weighted rows
    sqrt_w = np.sqrt(GRID.quad_weights)
    _, _, vt = np.linalg.svd((values - mean) * sqrt_w, full_matrices=False)
    ref = orient_rows(vt[:3]) / sqrt_w
    assert np.allclose(basis, ref, rtol=0.0, atol=1e-10)


def test_frame_orthonormal_and_eigen_order():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((30, len(GRID)))
    curves = _as_funcs(values)
    frame = build_frame(curves[0], curves, h_pca=1e9, d=4)
    for i in range(4):
        for j in range(4):
            ip = inner_product(frame.basis[i], frame.basis[j])
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)
    assert np.all(np.diff(frame.eigenvalues) <= 1e-12)
    # eigenvalue sum bounded by total local variance
    cov = local_covariance(curves)
    total = np.sum(GRID.quad_weights * np.diag(cov))
    assert np.sum(frame.eigenvalues) <= total + 1e-8


def test_frame_relabeling_invariance():
    rng = np.random.default_rng(4)
    values, _ = _flat_patch(25, 5, dims=3)
    curves = _as_funcs(values)
    frame_a = build_frame(curves[0], curves, 1e9, 2)
    perm = rng.permutation(25)
    frame_b = build_frame(curves[0], [curves[i] for i in perm], 1e9, 2)
    assert np.allclose(frame_a.basis_values, frame_b.basis_values, atol=1e-9)


def test_flat_patch_spectral_gap():
    from frem.funcspace import weighted_eigh

    values, _ = _flat_patch(60, 6, dims=2)
    cov = local_covariance(_as_funcs(values))
    evals, _ = weighted_eigh(cov, GRID.quad_weights, 3)
    assert evals[2] / evals[0] <= 1e-8


def test_project_orthonormality_cases():
    values, _ = _flat_patch(30, 7, dims=3)
    curves = _as_funcs(values)
    frame = build_frame(curves[0], curves, 1e9, 2)
    phi1 = frame.basis[0]
    coords = project(phi1, frame)
    assert coords[0] == pytest.approx(1.0, abs=1e-8)
    assert coords[1] == pytest.approx(0.0, abs=1e-8)
    combo = GridFunction(GRID, 2.0 * frame.basis_values[0] + 3.0 * frame.basis_values[1])
    assert np.allclose(project(combo, frame), [2.0, 3.0], atol=1e-8)
    # a curve orthogonal to the basis projects to zero
    extra = datagen.fourier_basis(GRID.points, 8)[7]
    w = GRID.quad_weights
    resid = extra - (extra * w) @ frame.basis_values.T @ frame.basis_values
    assert np.allclose(project(GridFunction(GRID, resid), frame), 0.0, atol=1e-8)


def test_project_grid_mismatch():
    values, _ = _flat_patch(20, 8)
    curves = _as_funcs(values)
    frame = build_frame(curves[0], curves, 1e9, 2)
    other = Grid.regular(0.0, 1.0, 50)
    with pytest.raises(GridMismatch):
        project(GridFunction(other, np.zeros(50)), frame)


def test_circle_tangent_angle_decreases_with_radius():
    s = datagen.gen_circle_example(2000, c=2.0, k_terms=12, seed=11)
    x = GridFunction(GRID, datagen.circle_curve_values(GRID, 0.0, 2.0, 12)[0])
    tan = datagen.circle_tangent_values(GRID, 0.0, 2.0, 12)
    tan = tan / np.sqrt((tan * tan) @ GRID.quad_weights)
    w = GRID.quad_weights
    angles = []
    for h in (0.4, 0.2):
        frame = build_frame(x, s.curves, h, 1)
        cosang = abs((frame.basis_values[0] * w) @ tan)
        angles.append(np.arccos(min(cosang, 1.0)))
    assert angles[1] < angles[0]


def test_adaptive_widening_errors_when_hopeless():
    values, _ = _flat_patch(6, 9)
    curves = _as_funcs(values)
    lonely = GridFunction(GRID, values[0] + 1e6)
    with pytest.raises(InsufficientNeighborhood):
        build_frame(lonely, curves, 1e-9, 5)


def test_widening_reports_used_radius():
    from frem.funcspace import l2_distances_to

    values, _ = _flat_patch(30, 10)
    curves = _as_funcs(values)
    dists = np.sort(l2_distances_to(values, values[0], GRID.quad_weights))
    h0 = float(dists[3])  # three neighbors inside, widening must reach ten
    frame = build_frame(curves[0], curves, h0, 2)
    assert frame.h_pca_used > h0
    assert frame.neighborhood_size >= 10
