import numpy as np
import pytest

from frem import datagen
from frem.baselines import (
    FnwModel,
    flr_fit,
    flr_fit_values,
    flr_predict,
    flr_predict_values,
    fnw_fit,
    fnw_fit_values,
    fnw_predict,
    fnw_predict_values,
)
from frem.errors import EmptyWindow, GridMismatch, InvalidSettings
from frem.funcspace import Grid, GridFunction, l2_distances_to

GRID = Grid.regular(0.0, 1.0, 100)


def _curves(values):
    return [GridFunction(GRID, row) for row in values]


def _three_component_sample(n=80, seed=0, lambdas=(2.0, 1.0, 0.5)):
    basis = datagen.fourier_basis(GRID.points, 3)
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n, 3)) * np.sqrt(lambdas)
    values = scores @ basis
    return values, scores, basis


# -- functional Nadaraya-Watson ----------------------------------------------


def test_fnw_single_neighbor():
    values, _, _ = _three_component_sample(5)
    model = FnwModel(_curves(values), np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 1e-6)
    # bandwidth so small that only the queried training curve has weight
    assert fnw_predict(model, _curves(values)[2]) == 3.0


def test_fnw_constant_responses():
    values, _, _ = _three_component_sample(30, seed=1)
    model = FnwModel(_curves(values), np.full(30, 7.5), 10.0)
    assert fnw_predict(model, _curves(values)[4]) == pytest.approx(7.5, abs=1e-10)


def test_fnw_empty_window():
    values, _, _ = _three_component_sample(10, seed=2)
    model = FnwModel(_curves(values), np.zeros(10), 1e-9)
    far = GridFunction(GRID, values[0] + 100.0)
    with pytest.raises(EmptyWindow):
        fnw_predict(model, far)


def test_fnw_prediction_within_response_range():
    values, _, _ = _three_component_sample(60, seed=3)
    rng = np.random.default_rng(4)
    y = rng.uniform(-3.0, 5.0, 60)
    model = fnw_fit(_curves(values), y, seed=5)
    for i in range(0, 60, 7):
        pred = fnw_predict(model, _curves(values)[i])
        assert y.min() - 1e-12 <= pred <= y.max() + 1e-12


def test_fnw_fit_tie_break_and_validation():
    values, _, _ = _three_component_sample(20, seed=6)
    model = fnw_fit(_curves(values), np.full(20, 1.0), h_candidates=[2.0, 3.0], seed=7)
    assert model.bandwidth == 2.0
    with pytest.raises(InvalidSettings):
        fnw_fit(_curves(values), np.ones(20), h_candidates=[-1.0])


def test_fnw_model_rejects_mismatched_shapes():
    values, _, _ = _three_component_sample(10, seed=8)
    y = np.arange(10.0)
    with pytest.raises(InvalidSettings, match="one response per curve"):
        FnwModel.from_values(GRID, values, y[:-1], 1.0)
    with pytest.raises(InvalidSettings, match="matrix on the grid"):
        FnwModel.from_values(GRID, values[:, :50], y, 1.0)
    # an array is refused as such, before the response count is looked at
    with pytest.raises(InvalidSettings, match="from_values"):
        FnwModel(values, y[:-1], 1.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"])
def test_fnw_rejects_bad_bandwidths(bad):
    values, _, _ = _three_component_sample(20, seed=9)
    y = np.arange(20.0)
    with pytest.raises(InvalidSettings, match="positive and finite"):
        FnwModel.from_values(GRID, values, y, bad)
    with pytest.raises(InvalidSettings, match="positive and finite"):
        FnwModel(_curves(values), y, bad)
    with pytest.raises(InvalidSettings, match="positive and finite"):
        fnw_fit_values(GRID, values, y, [0.5, bad])


def test_batched_predictions_match_per_curve():
    values, _, _ = _three_component_sample(60, seed=24)
    y = np.random.default_rng(25).standard_normal(60)
    train, queries = values[:45], values[45:]
    fnw = fnw_fit(_curves(train), y[:45], seed=26)
    flr = flr_fit(_curves(train), y[:45], p_candidates=range(0, 4), seed=27)
    dists = np.array([l2_distances_to(train, q, GRID.quad_weights) for q in queries])
    assert np.allclose(fnw_predict_values(fnw, dists),
                       [fnw_predict(fnw, c) for c in _curves(queries)], rtol=1e-12, atol=0.0)
    assert np.allclose(flr_predict_values(flr, queries),
                       [flr_predict(flr, c) for c in _curves(queries)], rtol=1e-12, atol=0.0)
    # one query whose window is empty fails the whole batch
    dists[3] = 2.0 * fnw.bandwidth
    with pytest.raises(EmptyWindow):
        fnw_predict_values(fnw, dists)


# -- functional linear regression --------------------------------------------


def test_flr_exact_linear_recovery():
    values, scores, _ = _three_component_sample(100, seed=8)
    mean = values.mean(axis=0)
    w = GRID.quad_weights
    # build responses from the true first centered score
    centered = values - mean
    basis_est = datagen.fourier_basis(GRID.points, 3)
    s1 = (centered * w) @ basis_est[0]
    y = 2.0 + 3.0 * s1
    model = flr_fit(_curves(values), y, p_candidates=range(1, 6), seed=9)
    preds = np.array([flr_predict(model, c) for c in _curves(values)])
    assert np.max(np.abs(preds - y)) < 1e-6


def test_flr_zero_variance_responses():
    values, _, _ = _three_component_sample(50, seed=10)
    y = np.full(50, 4.25)
    model = flr_fit(_curves(values), y, p_candidates=range(0, 6), seed=11)
    preds = np.array([flr_predict(model, c) for c in _curves(values)])
    assert np.allclose(preds, 4.25, atol=1e-10)
    assert model.p == 0


def test_flr_predict_constructed_cases():
    values, _, _ = _three_component_sample(70, seed=12)
    rng = np.random.default_rng(13)
    y = rng.standard_normal(70)
    model = flr_fit(_curves(values), y, p_candidates=range(1, 4), seed=14)
    mean_curve = GridFunction(GRID, model.mean_values)
    assert flr_predict(model, mean_curve) == pytest.approx(model.intercept, abs=1e-10)
    shifted = GridFunction(GRID, model.mean_values + model.basis_values[0])
    assert flr_predict(model, shifted) == pytest.approx(
        model.intercept + model.slopes[0], abs=1e-8
    )
    # affine in the first-component amplitude
    deltas = []
    for a in (0.5, 1.0, 2.0):
        x = GridFunction(GRID, model.mean_values + a * model.basis_values[0])
        deltas.append((flr_predict(model, x) - model.intercept) / a)
    assert deltas[0] == pytest.approx(deltas[1], abs=1e-10)
    assert deltas[1] == pytest.approx(deltas[2], abs=1e-10)


def test_flr_residuals_orthogonal_to_scores():
    values, _, _ = _three_component_sample(90, seed=15)
    rng = np.random.default_rng(16)
    y = rng.standard_normal(90)
    model = flr_fit(_curves(values), y, p_candidates=[3], seed=17)
    preds = model.intercept + model.scores @ model.slopes
    resid = y - preds
    assert np.allclose(model.scores.T @ resid, 0.0, atol=1e-8)
    assert resid.sum() == pytest.approx(0.0, abs=1e-8)


@pytest.mark.filterwarnings("error")
def test_flr_small_sample_selects_supported_rank():
    # n = 40 < G puts the FPCA on the n x n Gram side; components past the
    # rank of 3 make its spectrum too spread, so they go through the SVD
    values, scores, _ = _three_component_sample(n=40, seed=8)
    responses = scores @ np.array([1.0, -0.5, 0.25])
    model = flr_fit_values(GRID, values, responses, p_candidates=range(11))
    assert model.p == 3


def test_flr_eigenfunctions_orthonormal():
    values, _, _ = _three_component_sample(60, seed=18)
    y = np.random.default_rng(19).standard_normal(60)
    model = flr_fit(_curves(values), y, p_candidates=[2], seed=20)
    gram = (model.basis_values * GRID.quad_weights) @ model.basis_values.T
    assert np.allclose(gram, np.eye(model.p), atol=1e-8)


def test_flr_grid_mismatch():
    values, _, _ = _three_component_sample(30, seed=21)
    y = np.zeros(30)
    model = flr_fit(_curves(values), y, p_candidates=[1], seed=22)
    other = Grid.regular(0.0, 1.0, 64)
    with pytest.raises(GridMismatch):
        flr_predict(model, GridFunction(other, np.zeros(64)))


def test_flr_requires_enough_samples():
    values, _, _ = _three_component_sample(10, seed=23)
    with pytest.raises(InvalidSettings):
        flr_fit(_curves(values), np.zeros(10), p_candidates=[9])
