import numpy as np
import pytest

from frem import datagen
from frem.errors import (
    AllFoldsFailed,
    FremError,
    GridMismatch,
    InsufficientNeighborhood,
    InvalidSettings,
)
from frem.estimator import (
    FremModel,
    _cv_errors,
    _reg_windows,
    default_candidate_grids,
    fit_local,
    fit_local_with_frame,
    grids_from_values,
    predict,
    select_bandwidths,
)
from frem.funcspace import (
    ROW_BLOCK,
    Grid,
    GridFunction,
    kernel_eval,
    l2_distance,
    pairwise_l2,
)
from frem.intrinsic_dim import DimEstimate
from frem.recovery import DiscreteObservations
from frem.tangent import TangentFrame, build_frame, frame_at

GRID = Grid.regular(0.0, 1.0, 100)


def _patch_model(n=60, dims=2, seed=0, responses=None, h_pca=2.0, h_reg=2.0,
                 noise=0.0, coef_fn=None):
    """Model on a flat patch spanned by orthonormal basis rows."""
    basis = datagen.fourier_basis(GRID.points, dims)
    rng = np.random.default_rng(seed)
    coefs = rng.uniform(-1.0, 1.0, size=(n, dims))
    values = coefs @ basis
    curves = [GridFunction(GRID, row) for row in values]
    if responses is None:
        responses = coef_fn(coefs) if coef_fn else rng.standard_normal(n)
    if noise:
        responses = responses + rng.standard_normal(n) * noise
    dim = DimEstimate(raw=float(dims))
    model = FremModel(curves, responses, dim, h_pca, h_reg)
    return model, curves, coefs, basis


def test_model_validation():
    model, curves, _, _ = _patch_model(10)
    with pytest.raises(InvalidSettings):
        FremModel(curves, np.zeros(3), model.dim, 1.0, 1.0)
    with pytest.raises(InvalidSettings):
        FremModel(curves, np.zeros(10), model.dim, -1.0, 1.0)
    with pytest.raises(InvalidSettings):
        FremModel(curves[:3], np.zeros(3), DimEstimate(raw=5.0), 1.0, 1.0)


def test_model_rejects_non_finite_bandwidths():
    # an infinite h_reg puts zero weight K(0)/inf^d on every curve
    sample = datagen.unit_scale(datagen.gen_klein(80, 0))
    y = datagen.gen_response(sample, 2.0, 1)
    curves = [GridFunction(GRID, row) for row in sample.values]
    dim = DimEstimate(raw=2.0)
    for h_pca, h_reg in ((0.5, np.inf), (np.inf, 0.5), (np.nan, 0.5), (0.5, np.nan)):
        with pytest.raises(InvalidSettings, match="finite"):
            FremModel(curves, y, dim, h_pca, h_reg)
        with pytest.raises(InvalidSettings, match="finite"):
            FremModel.from_values(GRID, sample.values, y, dim, h_pca, h_reg)
    for hp, hr in (([0.5, np.inf], [0.5]), ([0.5], [0.3, np.inf]), ([0.5], [np.nan, 0.5])):
        with pytest.raises(InvalidSettings, match="finite"):
            select_bandwidths(curves, y, dim, hp, hr)


def test_constant_response_reproduction():
    model, curves, _, _ = _patch_model(40, responses=np.full(40, 3.25))
    for x in curves[:5]:
        value, diag = fit_local(model, x)
        assert value == pytest.approx(3.25, abs=1e-10)
        assert diag.effective_neighbors >= 4


def test_linear_in_coordinates_exactness():
    # responses linear in the patch coordinates: local linear fit is exact
    coef_fn = lambda c: 1.0 + 2.0 * c[:, 0] - c[:, 1]
    model, curves, coefs, basis = _patch_model(50, coef_fn=coef_fn)
    for i in (0, 7, 23):
        value, _ = fit_local(model, curves[i])
        truth = 1.0 + 2.0 * coefs[i, 0] - coefs[i, 1]
        assert value == pytest.approx(truth, abs=1e-8)


def test_off_sample_query_exactness():
    coef_fn = lambda c: 0.5 - c[:, 0] + 3.0 * c[:, 1]
    model, _, _, basis = _patch_model(50, coef_fn=coef_fn)
    q = np.array([0.21, -0.4])
    x = GridFunction(GRID, q @ basis)
    value, _ = fit_local(model, x)
    assert value == pytest.approx(0.5 - q[0] + 3.0 * q[1], abs=1e-8)


def test_rotation_invariance_of_prediction():
    rng = np.random.default_rng(3)
    model, curves, _, _ = _patch_model(60, dims=3, seed=4,
                                       coef_fn=lambda c: np.sin(c[:, 0]) + c[:, 1] * c[:, 2])
    x = curves[11]
    frame = build_frame(x, model.curves, model.h_pca, model.dim.rounded)
    base_value, _ = fit_local_with_frame(model, x, frame)
    # random orthogonal rotation of the basis
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = TangentFrame(
        base=frame.base,
        mean=frame.mean,
        eigenvalues=frame.eigenvalues,
        basis=[GridFunction(GRID, row) for row in q.T @ frame.basis_values],
        neighborhood_size=frame.neighborhood_size,
        h_pca_used=frame.h_pca_used,
    )
    rotated_value, _ = fit_local_with_frame(model, x, rotated)
    assert rotated_value == pytest.approx(base_value, abs=1e-10)
    # sign flip of one basis function is a special case
    flipped = TangentFrame(
        base=frame.base,
        mean=frame.mean,
        eigenvalues=frame.eigenvalues,
        basis=[GridFunction(GRID, s * row) for s, row in zip([1.0, -1.0, 1.0], frame.basis_values)],
        neighborhood_size=frame.neighborhood_size,
        h_pca_used=frame.h_pca_used,
    )
    flipped_value, _ = fit_local_with_frame(model, x, flipped)
    assert flipped_value == pytest.approx(base_value, abs=1e-10)


def test_response_shift_equivariance():
    model, curves, _, _ = _patch_model(50, seed=5, noise=0.3)
    shifted = FremModel(curves, model.responses + 11.0, model.dim,
                        model.h_pca, model.h_reg)
    for x in curves[:4]:
        a, _ = fit_local(model, x)
        b, _ = fit_local(shifted, x)
        assert b - a == pytest.approx(11.0, abs=1e-10)


def test_compact_support_weights():
    # exact zero weight for curves at distance >= h_reg: prediction at x
    # ignores any curve outside the window entirely
    model, curves, coefs, basis = _patch_model(30, seed=6, h_reg=0.8,
                                               coef_fn=lambda c: c[:, 0])
    x = curves[0]
    dists = np.array([l2_distance(x, c) for c in curves])
    outside = dists >= model.h_reg
    if outside.any():
        tampered = model.responses.copy()
        tampered[outside] += 1e6
        model2 = FremModel(curves, tampered, model.dim, model.h_pca, model.h_reg)
        a, _ = fit_local(model, x)
        b, _ = fit_local(model2, x)
        assert a == pytest.approx(b, abs=1e-9)


def test_select_bandwidths_single_pair():
    model, curves, _, _ = _patch_model(40, seed=7)
    assert select_bandwidths(curves, model.responses, model.dim, [0.7], [0.9]) == (0.7, 0.9)


def test_select_bandwidths_tie_break():
    # constant responses: every pair attains zero CV error
    model, curves, _, _ = _patch_model(40, seed=8, responses=np.full(40, 2.0))
    pair = select_bandwidths(curves, model.responses, model.dim,
                             [1.5, 2.5], [1.25, 2.25], seed=1)
    assert pair == (1.5, 1.25)


def test_select_bandwidths_deterministic():
    model, curves, _, _ = _patch_model(50, seed=9, noise=0.2)
    a = select_bandwidths(curves, model.responses, model.dim, seed=3)
    b = select_bandwidths(curves, model.responses, model.dim, seed=3)
    assert a == b


def test_select_bandwidths_all_folds_failed():
    model, curves, _, _ = _patch_model(12, seed=10)
    # bandwidth so tiny that every neighborhood is empty even after widening
    with pytest.raises(AllFoldsFailed):
        select_bandwidths(curves, model.responses, model.dim, [1e-12], [1e-12, 2e-12])


def test_default_candidate_grids_quantiles():
    model, curves, _, _ = _patch_model(40, seed=11)
    hp, hr = default_candidate_grids(curves)
    assert len(hp) == 8 and len(hr) == 8
    assert np.all(np.diff(hp) > 0)
    assert np.array_equal(hp, hr)
    from frem.funcspace import pairwise_l2, stack_values

    dists = pairwise_l2(stack_values(curves), stack_values(curves), GRID.quad_weights)
    vals = dists[np.triu_indices(40, k=1)]
    assert hp[0] == pytest.approx(np.percentile(vals, 5), rel=1e-9)
    assert hp[-1] == pytest.approx(np.percentile(vals, 50), rel=1e-9)


def test_grid_mismatch_rejected():
    model, _, _, _ = _patch_model(20, seed=12)
    other = Grid.regular(0.0, 1.0, 55)
    with pytest.raises(GridMismatch):
        fit_local(model, GridFunction(other, np.zeros(55)))


def test_predict_constant_from_discrete_query():
    model, curves, _, _ = _patch_model(40, seed=13, responses=np.full(40, -1.5))
    t = np.linspace(0.0, 1.0, 200)
    basis_t = datagen.fourier_basis(t, 2)
    q = np.array([0.3, 0.1]) @ basis_t
    value = predict(model, DiscreteObservations(t, q))
    assert value == pytest.approx(-1.5, abs=1e-8)


def test_predict_matches_fit_local_on_smoothed_query():
    from frem.recovery import smooth_with_defaults

    model, curves, _, _ = _patch_model(40, seed=14, noise=0.1)
    rng = np.random.default_rng(15)
    t = np.linspace(0.0, 1.0, 120)
    raw = np.array([0.2, -0.5]) @ datagen.fourier_basis(t, 2)
    raw = raw + 0.05 * rng.standard_normal(t.size)
    query = DiscreteObservations(t, raw)
    smoothed = smooth_with_defaults(query, GRID)
    assert predict(model, query) == fit_local(model, smoothed)[0]


def test_selected_h_reg_interior_on_klein():
    # sanity: the default candidate grid brackets the cross-validated optimum
    from frem import datagen, recovery
    from frem.bench.config import mix_seed
    from frem.estimator import grids_from_values, select_bandwidths_values
    from frem.intrinsic_dim import DimSettings, estimate_dim_values

    interior = 0
    runs = 10
    for seed in range(runs):
        sample = datagen.unit_scale(datagen.gen_klein(500, seed))
        y = datagen.gen_response(sample, 2.0, seed + 900)
        obs = datagen.observe(sample, 100, 4.0, seed + 800)
        smoothed = recovery.smooth_all(obs, GRID)
        dim = estimate_dim_values(smoothed, GRID.quad_weights, DimSettings())
        hp, hr = grids_from_values(smoothed, GRID.quad_weights)
        _, h_reg = select_bandwidths_values(
            GRID, smoothed, y, dim, hp, hr, seed=mix_seed(seed, 5)
        )
        if hr[0] < h_reg < hr[-1]:
            interior += 1
    assert interior >= 0.7 * runs


def _full_matrix_grids(values, n_candidates=8):
    """The bandwidth grid read off the whole n x n distance matrix."""
    dmat = pairwise_l2(values, values, GRID.quad_weights)
    dists = dmat[np.triu_indices(values.shape[0], k=1)]
    lo, hi = np.percentile(dists, [5.0, 50.0])
    if lo <= 0:
        lo = float(dists[dists > 0].min())
    if hi <= lo:
        hi = lo * 4.0
    return lo, hi, np.geomspace(lo, hi, n_candidates)


@pytest.mark.parametrize("n", [2, 3, ROW_BLOCK + 1, 3 * ROW_BLOCK + 61])
@pytest.mark.parametrize("duplicates", [False, True])
def test_grids_from_values_equal_the_full_matrix_bit_for_bit(n, duplicates, one_blas_thread):
    values = np.random.default_rng(n).standard_normal((n, len(GRID))).cumsum(axis=1)
    if duplicates:
        values[: max(1, n // 3)] = 0.0     # exact zero distances push the 5th percentile to 0
    lo, _, want = _full_matrix_grids(values)
    hp, hr = grids_from_values(values, GRID.quad_weights)
    assert hp.tobytes() == want.tobytes() and hr.tobytes() == want.tobytes()
    if duplicates and n > 3:
        dmat = pairwise_l2(values, values, GRID.quad_weights)
        assert np.percentile(dmat[np.triu_indices(n, k=1)], 5.0) == 0.0 < lo


def test_grids_from_values_refuses_coincident_curves():
    with pytest.raises(InvalidSettings, match="coincide"):
        grids_from_values(np.zeros((ROW_BLOCK + 5, len(GRID))), GRID.quad_weights)
    with pytest.raises(InvalidSettings):
        grids_from_values(np.zeros((1, len(GRID))), GRID.quad_weights)


def test_weighted_values_set_by_every_constructor(tmp_path):
    model, curves, _, _ = _patch_model(30, seed=16)
    path = tmp_path / "model.json"
    model.save(path)
    built = [model, FremModel(curves, model.responses, model.dim, model.h_pca, model.h_reg),
             FremModel.load(path)]
    for m in built:
        assert m.weighted_values.tobytes() == (m.values * GRID.quad_weights).tobytes()


def test_model_save_load_roundtrip(tmp_path):
    model, _, _, _ = _patch_model(30, seed=16, noise=0.2)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = FremModel.load(path)
    assert np.array_equal(loaded.values, model.values)
    assert np.array_equal(loaded.responses, model.responses)
    assert loaded.dim.rounded == model.dim.rounded
    assert loaded.h_pca == model.h_pca and loaded.h_reg == model.h_reg
    x = model.curves[3]
    assert fit_local(loaded, x)[0] == fit_local(model, x)[0]


def test_ridge_on_degenerate_design():
    # all curves identical: coordinates coincide, design is rank deficient,
    # the ridged solve must still reproduce a constant response exactly
    values = np.tile(datagen.fourier_basis(GRID.points, 1)[0], (12, 1))
    curves = [GridFunction(GRID, row) for row in values]
    model = FremModel(curves, np.full(12, 4.0), DimEstimate(raw=1.0), 1.0, 1.0)
    value, diag = fit_local(model, curves[0])
    assert value == pytest.approx(4.0, abs=1e-10)
    assert diag.ridge_applied


def test_condition_indicator_matches_lstsq():
    model, curves, _, _ = _patch_model(60, seed=17, noise=0.1, h_pca=1.0, h_reg=0.9)
    d = model.dim.rounded
    w = GRID.quad_weights
    for x in curves[:5]:
        _, diag = fit_local(model, x)
        dists = np.sqrt(((model.values - x.values) ** 2) @ w)
        _, _, basis, _, _ = frame_at(x.values, model.values, GRID, model.h_pca, d, dists=dists)
        kw = kernel_eval(dists / model.h_reg)
        nz = np.flatnonzero(kw > 0)
        assert nz.size == diag.effective_neighbors
        design = np.column_stack([np.ones(nz.size), ((model.values[nz] - x.values) * w) @ basis.T])
        svals = np.linalg.lstsq(design * np.sqrt(kw[nz])[:, None], np.zeros(nz.size),
                                rcond=None)[3]
        assert diag.condition_indicator == pytest.approx(svals[0] / svals[-1], rel=1e-8)


def _reference_cv(values, y, d, hp, hr, folds):
    """The per-pair loop: one frame_at per (h_pca, query) and one lstsq per
    (h_pca, h_reg, query), h_pca outer. Also returns the largest frame
    neighbourhood, to tell which eigen-solver branch ran."""
    w = GRID.quad_weights
    sq_err = np.zeros((hp.size, hr.size))
    failed = np.zeros((hp.size, hr.size), dtype=bool)
    largest = 0
    for fold in folds:
        mask = np.ones(len(values), dtype=bool)
        mask[fold] = False
        train, train_y = values[mask], y[mask]
        dist_block = pairwise_l2(values[fold], train, w)
        for ip, h_pca in enumerate(hp):
            if failed[ip].all():
                continue
            for idx, dists in zip(fold, dist_block):
                try:
                    _, _, basis, count, _ = frame_at(values[idx], train, GRID, h_pca, d,
                                                     dists=dists)
                except FremError:
                    failed[ip] = True
                    break
                largest = max(largest, count)
                coords = ((train - values[idx]) * w) @ basis.T
                for ir, h in enumerate(hr):
                    if failed[ip, ir]:
                        continue
                    for step in range(11):      # at most 10 widenings by 1.5
                        kw = kernel_eval(dists / h) / h ** d
                        if np.count_nonzero(kw) >= d + 2:
                            break
                        h *= 1.5
                    else:
                        failed[ip, ir] = True
                        continue
                    nz = np.flatnonzero(kw)
                    design = np.column_stack([np.ones(nz.size), coords[nz]])
                    sw = np.sqrt(kw[nz])
                    beta = np.linalg.lstsq(design * sw[:, None], train_y[nz] * sw, rcond=None)[0]
                    sq_err[ip, ir] += (beta[0] - y[idx]) ** 2
    return sq_err, failed, largest


# n=60 frames only see neighbourhoods smaller than the grid (Gram eigh);
# n=200 with doubled h_pca also reaches the G x G eigh; shrinking h_reg forces
# window widening and fails the smallest h_reg columns
@pytest.mark.parametrize("n, hp_scale, hr_scale", [(60, 1.0, 1.0), (200, 2.0, 1.0), (60, 1.0, 0.03)],
                         ids=["gram", "eigh", "thin-windows"])
def test_cv_errors_match_per_pair_reference(n, hp_scale, hr_scale):
    sample = datagen.unit_scale(datagen.gen_klein(n, 3))
    y = datagen.gen_response(sample, 2.0, 4)
    hp, hr = grids_from_values(sample.values, GRID.quad_weights)
    hp, hr = hp * hp_scale, hr * hr_scale
    folds = np.array_split(np.random.default_rng(5).permutation(n), 5)
    sq_err, failed = _cv_errors(GRID, sample.values, y, 2, hp, hr, folds)
    ref_err, ref_failed, largest = _reference_cv(sample.values, y, 2, hp, hr, folds)
    assert (largest >= len(GRID)) == (hp_scale > 1.0)
    assert np.array_equal(failed, ref_failed)
    assert failed.any() == (hr_scale < 1.0) and not failed.all()
    assert np.allclose(sq_err[~failed], ref_err[~failed], rtol=1e-10, atol=0.0)


def test_curve_at_exactly_h_is_outside_both_balls():
    values = _patch_model(30, seed=18)[0].values
    x = values[0] + 0.01
    dists = np.sqrt(((values - x) ** 2) @ GRID.quad_weights)
    order = np.argsort(dists)
    h = float(dists[order[12]])    # twelve curves strictly inside, one on the boundary
    inside = np.flatnonzero(dists < h)
    assert inside.size == 12 and order[12] not in inside
    mean, _, _, count, h_used = frame_at(x, values, GRID, h, 2, dists=dists)
    assert (count, h_used) == (12, h)
    assert np.array_equal(mean, values[inside].mean(axis=0))
    rows, weights = _reg_windows(dists, [h], 2)[0]
    assert np.array_equal(rows, inside)
    assert np.all(weights > 0)


def test_widening_stops_after_ten_steps():
    values = _patch_model(12, seed=19)[0].values
    reach = 1.0
    for _ in range(10):
        reach *= 1.5
    # every other curve sits just inside, then exactly on, the tenth widening
    for far, ok in ((np.nextafter(reach, 0.0), True), (reach, False)):
        dists = np.r_[0.0, np.full(11, far)]
        windows = _reg_windows(dists, [1.0, 2.0 * reach], 2)
        assert isinstance(windows[1], tuple) and windows[1][0].size == 12
        if ok:
            assert frame_at(values[0], values, GRID, 1.0, 2, dists=dists)[4] == reach
            assert windows[0][0].size == 12
            continue
        with pytest.raises(InsufficientNeighborhood):
            frame_at(values[0], values, GRID, 1.0, 2, dists=dists)
        assert isinstance(windows[0], InsufficientNeighborhood)
