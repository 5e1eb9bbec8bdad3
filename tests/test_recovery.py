import numpy as np
import pytest

from frem.errors import AllFoldsFailed, EmptyObservations, InvalidSettings
from frem.funcspace import Grid, GridFunction, l2_distance
from frem.recovery import (
    DiscreteObservations,
    SmootherSettings,
    bandwidth_candidates,
    cv_bandwidth,
    cv_bandwidths_shared,
    default_bandwidth,
    default_ridge,
    smooth_all,
    smooth_curve,
    smooth_with_defaults,
)

GRID = Grid.regular(0.0, 1.0, 100)


def _affine_obs(m=50, a=2.0, b=3.0):
    t = np.linspace(0.0, 1.0, m)
    return DiscreteObservations(t, a + b * t)


def test_observation_validation():
    with pytest.raises(EmptyObservations):
        DiscreteObservations(np.array([]), np.array([]))
    with pytest.raises(InvalidSettings):
        DiscreteObservations(np.array([0.1, 0.2]), np.array([1.0, 2.0]))
    with pytest.raises(InvalidSettings):
        SmootherSettings(-0.1, 1e-4, GRID)
    with pytest.raises(InvalidSettings):
        SmootherSettings(0.1, 0.0, GRID)


def test_affine_reproduction():
    obs = _affine_obs()
    settings = SmootherSettings(0.2, default_ridge(obs.m), GRID)
    out = smooth_curve(obs, settings)
    truth = 2.0 + 3.0 * GRID.points
    # check wherever the ridge is inactive (interior certainly)
    assert np.max(np.abs(out.values - truth)) < 1e-8


def test_ridge_keeps_output_finite():
    # all observation times far from the left end of a wide output grid
    obs = DiscreteObservations(np.linspace(0.8, 1.0, 10), np.ones(10))
    settings = SmootherSettings(0.05, default_ridge(10), GRID)
    out = smooth_curve(obs, settings)
    assert np.all(np.isfinite(out.values))
    assert out.values[0] == 0.0  # empty window collapses to ridged zero


def test_permutation_invariance():
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0, 1, 60))
    x = np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(60)
    perm = rng.permutation(60)
    s = SmootherSettings(0.15, default_ridge(60), GRID)
    a = smooth_curve(DiscreteObservations(t, x), s)
    b = smooth_curve(DiscreteObservations(t[perm], x[perm]), s)
    assert np.allclose(a.values, b.values, atol=1e-12)


def test_scaling_equivariance():
    rng = np.random.default_rng(1)
    t = np.sort(rng.uniform(0, 1, 50))
    x = np.cos(2 * np.pi * t) + 0.05 * rng.standard_normal(50)
    s = SmootherSettings(0.2, default_ridge(50), GRID)
    base = smooth_curve(DiscreteObservations(t, x), s).values
    scaled = smooth_curve(DiscreteObservations(t, 7.0 * x), s).values
    assert np.allclose(scaled, 7.0 * base, rtol=1e-13, atol=0)


def test_default_bandwidth_values():
    assert default_bandwidth(100, 2.0) == pytest.approx(100 ** -0.2, rel=1e-12)
    assert default_bandwidth(32, 0.5) == pytest.approx(32 ** -0.5, rel=1e-12)
    with pytest.raises(InvalidSettings):
        default_bandwidth(1, 2.0)
    with pytest.raises(InvalidSettings):
        default_bandwidth(100, 2.5)


def test_cv_single_candidate():
    obs = _affine_obs()
    assert cv_bandwidth(obs, [0.3]) == 0.3


def test_cv_tie_break_toward_smaller():
    # noiseless affine data: every bandwidth reproduces exactly, zero LOO error
    obs = _affine_obs()
    assert cv_bandwidth(obs, [0.4, 0.1]) == 0.1


def test_cv_tracks_default_rate():
    hits = 0
    h0 = default_bandwidth(100, 2.0)
    cands = np.geomspace(0.02, 0.5, 15)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0, 1, 100))
        sig = np.sin(2 * np.pi * t)
        x = sig + rng.standard_normal(100) * np.sqrt(0.5 / 4.0)
        h = cv_bandwidth(DiscreteObservations(t, x), cands)
        if h0 / 4 <= h <= h0 * 4:
            hits += 1
    assert hits >= 80


def test_error_decreases_with_m():
    sigma = np.sqrt(0.5 / 4.0)
    errs = {}
    for m in (100, 400):
        per_trial = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            t = np.sort(rng.uniform(0, 1, m))
            x = np.sin(2 * np.pi * t) + rng.standard_normal(m) * sigma
            s = SmootherSettings(default_bandwidth(m, 2.0), default_ridge(m), GRID)
            est = smooth_curve(DiscreteObservations(t, x), s)
            truth = GridFunction(GRID, np.sin(2 * np.pi * GRID.points))
            per_trial.append(l2_distance(est, truth))
        errs[m] = np.median(per_trial)
    assert errs[400] < errs[100]


def test_batched_paths_match_per_curve():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 1, 80)
    values = np.sin(2 * np.pi * t)[None, :] + 0.2 * rng.standard_normal((7, 80))
    obs = [DiscreteObservations(t, row) for row in values]
    batched = smooth_all(obs, GRID)
    for i, o in enumerate(obs):
        single = smooth_with_defaults(o, GRID)
        assert np.allclose(batched[i], single.values, atol=1e-12)
    cands = bandwidth_candidates(80, 2.0, 1.0)
    hs = cv_bandwidths_shared(t, values, cands)
    for i, o in enumerate(obs):
        assert hs[i] == cv_bandwidth(o, cands)


@pytest.mark.parametrize("scale", [1e200, 1e160])
def test_no_finite_loo_error_raises(scale):
    # squared errors overflow for every candidate: a typed error from the
    # per-curve and the batched path, not a leftover bandwidth or a warning
    t = np.linspace(0.0, 1.0, 50)
    huge = DiscreteObservations(t, scale * np.sin(6.0 * t))
    tame = DiscreteObservations(t, np.sin(6.0 * t))
    cands = bandwidth_candidates(50, 2.0, 1.0)
    with pytest.raises(AllFoldsFailed, match="curve 0"):
        cv_bandwidth(huge, cands)
    with pytest.raises(AllFoldsFailed, match="curve 1"):
        cv_bandwidths_shared(t, np.array([tame.values, huge.values]), cands)
    other_design = DiscreteObservations(t ** 2, tame.values)
    for records in ([tame, huge], [other_design, huge]):
        with pytest.raises(AllFoldsFailed):
            smooth_all(records, GRID)


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [0.05, np.inf], [], [0.0, 0.1], [-0.1]],
                         ids=["nan", "inf", "one-inf", "empty", "zero", "negative"])
def test_bandwidth_candidates_must_be_positive_and_finite(bad):
    t = np.linspace(0.0, 1.0, 50)
    obs = DiscreteObservations(t, np.sin(6.0 * t))
    with pytest.raises(InvalidSettings, match="positive and finite"):
        cv_bandwidth(obs, bad)
    with pytest.raises(InvalidSettings, match="positive and finite"):
        cv_bandwidths_shared(t, obs.values[None, :], bad)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -0.1], ids=["inf", "nan", "zero", "negative"])
def test_smoother_bandwidth_must_be_positive_and_finite(bad):
    with pytest.raises(InvalidSettings, match="positive and finite"):
        SmootherSettings(bandwidth=bad, ridge=1e-4, grid=GRID)
