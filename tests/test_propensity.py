import itertools

import numpy as np
import pytest

from drpi import propensity
from drpi.errors import DataError
from drpi.propensity import _prob_loglik, _sigmoid, fit_logistic, fit_logistic_columns


def _loglik(c, eta):
    return _prob_loglik(c, eta)[1]
from drpi.sim_bench import SimConfig, gen_dataset
from tests import reference_loops as ref


def test_all_ones_is_separated_constant_fit():
    w = np.column_stack([np.ones(6), np.arange(6.0)])
    fit = fit_logistic(np.ones(6), w)
    assert fit.separated and fit.converged
    assert (fit.delta_hat == 1.0).all()


def test_all_zeros_clips_to_floor():
    w = np.column_stack([np.ones(6), np.arange(6.0)])
    fit = fit_logistic(np.zeros(6), w, clip_floor=0.01)
    assert fit.separated
    assert (fit.delta_hat == 0.01).all()


def test_intercept_only_mle_is_sample_proportion():
    # logit MLE with intercept only: delta = mean(c)
    c = np.array([1.0, 1.0, 0.0, 1.0])
    fit = fit_logistic(c, np.ones((4, 1)))
    np.testing.assert_allclose(fit.delta_hat, 0.75, atol=1e-9)
    assert fit.converged


def test_score_equations_near_zero_at_convergence():
    rng = np.random.default_rng(0)
    n = 300
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    eta = 0.3 + 0.8 * w[:, 1]
    c = (rng.random(n) < _sigmoid(eta)).astype(float)
    fit = fit_logistic(c, w)
    score = w.T @ (c - _sigmoid(w @ fit.coef))
    assert np.abs(score).max() <= 1e-6


def test_monotone_loglik_against_start():
    rng = np.random.default_rng(1)
    n = 50
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    c = (rng.random(n) < 0.5).astype(float)
    fit = fit_logistic(c, w)
    assert _loglik(c, w @ fit.coef) >= _loglik(c, w @ np.zeros(2))


def test_grid_search_oracle_agreement():
    # brute-force maximization over a coefficient lattice, spacing 1e-3
    rng = np.random.default_rng(2)
    n = 15
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    c = (rng.random(n) < _sigmoid(0.4 - 0.6 * w[:, 1])).astype(float)
    fit = fit_logistic(c, w)
    span = 0.05
    g0 = np.arange(fit.coef[0] - span, fit.coef[0] + span, 1e-3)
    g1 = np.arange(fit.coef[1] - span, fit.coef[1] + span, 1e-3)
    best, best_ll = None, -np.inf
    for b0, b1 in itertools.product(g0, g1):
        ll = _loglik(c, w @ np.array([b0, b1]))
        if ll > best_ll:
            best, best_ll = (b0, b1), ll
    np.testing.assert_allclose(fit.coef, best, atol=2e-3)


def test_mar_recovery_monte_carlo():
    # P(C=0 | x) = e^x / (2 (1 + e^x)); at x=0 true delta = 0.75
    rng = np.random.default_rng(3)
    n = 5000
    x = rng.uniform(-1, 1, size=n)
    p_miss = np.exp(x) / (2 * (1 + np.exp(x)))
    c = (rng.random(n) >= p_miss).astype(float)
    w = np.column_stack([np.ones(n), x])
    fit = fit_logistic(c, w)
    at_zero = fit.predict(np.array([[1.0, 0.0]]))[0]
    mc_se = np.sqrt(0.75 * 0.25 / n)
    assert abs(at_zero - 0.75) < 3 * mc_se + 0.01


def test_predict_zero_coef_gives_half():
    fit = fit_logistic(
        np.array([0.0, 1.0, 0.0, 1.0]), np.column_stack([np.ones(4), np.arange(4.0)])
    )
    zeroed = fit.__class__(
        coef=np.zeros(2),
        delta_hat=fit.delta_hat,
        clip_floor=0.01,
        converged=True,
        iterations=0,
    )
    np.testing.assert_allclose(zeroed.predict(np.array([[1.0, 5.0]])), 0.5)


def test_predict_training_rows_match_delta_hat():
    rng = np.random.default_rng(4)
    n = 80
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    c = (rng.random(n) < 0.7).astype(float)
    fit = fit_logistic(c, w)
    np.testing.assert_allclose(fit.predict(w), fit.delta_hat, atol=1e-12)


def test_predict_rejects_a_covariate_count_mismatch():
    """Single and batched fits refuse covariate rows of the wrong width
    with the same DataError."""
    rng = np.random.default_rng(6)
    w = np.column_stack([np.ones(20), rng.normal(size=20)])
    c = (rng.random((20, 3)) < 0.7).astype(float)
    mismatch = r"covariate count 3 does not match fit \(2\)"
    with pytest.raises(DataError, match=mismatch):
        fit_logistic_columns(c, w, at=np.ones((4, 3)))
    with pytest.raises(DataError, match=mismatch):
        fit_logistic_columns(c, w).column(0).predict(np.ones((4, 3)))
    assert fit_logistic_columns(c, w, at=w[0]).delta_hat.shape == (1, 3)


@pytest.mark.parametrize("shape", [(20,), (19, 3)], ids=["one_d", "row_mismatch"])
def test_batched_fit_refuses_a_response_of_the_wrong_shape(shape):
    """The responses are an (n, p) matrix with one row per covariate row."""
    w = np.column_stack([np.ones(20), np.arange(20.0)])
    with pytest.raises(DataError, match=r"response shape .* does not match 20 covariate rows"):
        fit_logistic_columns(np.ones(shape), w)


@pytest.mark.parametrize("cell", [np.nan, 2.0, -1.0, 0.5])
def test_batched_fit_refuses_responses_other_than_zero_or_one(cell):
    w = np.column_stack([np.ones(20), np.arange(20.0)])
    c = np.ones((20, 3))
    c[4, 1] = cell
    with pytest.raises(DataError, match="response entries must be 0 or 1"):
        fit_logistic_columns(c, w)


def test_predict_saturates_at_one():
    fit = fit_logistic(
        np.array([0.0, 1.0, 1.0, 0.0]), np.column_stack([np.ones(4), np.arange(4.0)])
    )
    big = fit.__class__(
        coef=np.array([50.0, 0.0]),
        delta_hat=fit.delta_hat,
        clip_floor=0.01,
        converged=True,
        iterations=0,
    )
    np.testing.assert_allclose(big.predict(np.array([[1.0, 0.0]])), 1.0)


def test_delta_hat_respects_clip_floor():
    rng = np.random.default_rng(5)
    n = 200
    w = np.column_stack([np.ones(n), rng.normal(size=n) * 4])
    c = (rng.random(n) < _sigmoid(-3 + 2 * w[:, 1])).astype(float)
    fit = fit_logistic(c, w, clip_floor=0.05)
    assert fit.delta_hat.min() >= 0.05
    assert fit.delta_hat.max() <= 1.0


def _eta_grid():
    """(c, eta) rows over eta in [-700, 700]: mixed, all zero, and saturated
    columns whose c agrees with the sign of eta."""
    rng = np.random.default_rng(6)
    m = 500
    eta = np.stack([
        rng.uniform(-700, 700, size=m),
        np.linspace(-700, 700, m),
        rng.normal(scale=3, size=m),
        np.zeros(m),
        rng.uniform(40, 700, size=m),
        -rng.uniform(40, 700, size=m),
    ])
    c = (rng.random(eta.shape) < 0.5).astype(float)
    c[4], c[5] = 1.0, 0.0
    return c, eta


def test_loglik_matches_logaddexp_form():
    c, eta = _eta_grid()
    want = (c * eta).sum(axis=-1) - np.logaddexp(0.0, eta).sum(axis=-1)
    np.testing.assert_allclose(_loglik(c, eta), want, rtol=1e-13, atol=0)
    np.testing.assert_allclose(_loglik(c[2], eta[2]), want[2], rtol=1e-13, atol=0)


def test_kernel_probabilities_equal_sigmoid_bitwise():
    c, eta = _eta_grid()
    eta[3, :2] = -0.0
    np.testing.assert_array_equal(_prob_loglik(c, eta)[0], _sigmoid(eta))


def test_clipped_share_flags_limited_overlap():
    """Column 0 masked to the treated rows: a separates it, so its fit
    pushes the controls' delta_hat to the clip floor."""
    d = gen_dataset(SimConfig(model=3, n=200, p=30, seed=3))[0]
    c = d.mask.astype(float)
    c[:, 0] *= d.w[:, 1] == 1
    fits = fit_logistic_columns(c, d.w)
    assert fits.clipped_frac[0] >= 0.4
    assert fits.min_delta[0] == fits.clip_floor
    untouched = ~fits.separated
    untouched[0] = False
    assert (fits.clipped_frac[untouched] == 0).all()
    assert (fits.min_delta[untouched] > fits.clip_floor).all()
    np.testing.assert_array_equal(fits.min_delta, fits.delta_hat.min(axis=0))


@pytest.mark.parametrize("seed", [37, 40, 50])
def test_step_halving_on_a_column_observed_once(seed, monkeypatch):
    """A column observed in 1 of 29 rows overshoots with the full Newton
    step, so its IRLS halves steps: more log-likelihood evaluations than
    iterations.  Its fit in a batch is bitwise the one-column fit, and
    agrees with the reference loop."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(29)
    c = np.zeros(29)
    c[rng.integers(29)] = 1.0
    w = np.column_stack([np.ones(29), x])
    calls = []
    kernel = propensity._prob_loglik
    monkeypatch.setattr(propensity, "_prob_loglik", lambda *a: calls.append(1) or kernel(*a))
    fit = fit_logistic(c, w)
    assert fit.converged
    assert len(calls) > fit.iterations
    others = (rng.random((29, 4)) < 0.6).astype(float)
    batch = fit_logistic_columns(np.column_stack([others[:, :2], c, others[:, 2:]]), w)
    np.testing.assert_array_equal(batch.coef[2], fit.coef)
    np.testing.assert_array_equal(batch.delta_hat[:, 2], fit.delta_hat)
    assert batch.iterations[2] == fit.iterations
    coef, delta_hat = ref.fit_logistic(c, w)
    np.testing.assert_allclose(fit.coef, coef, rtol=0, atol=1e-10)
    np.testing.assert_allclose(fit.delta_hat, delta_hat, rtol=0, atol=1e-10)


@pytest.mark.parametrize("tol", [1e-8, 0.0])
def test_coefficients_stay_finite_in_any_covariate_unit(tol):
    """Columns that x separates, columns observed in one cell and random
    columns, with x recorded from 1e-8 to 1e8 times a standard normal, and
    at 1e300, where x^2 overflows and every Newton step's log-likelihood is
    NaN: every coefficient is finite, since a step whose log-likelihood is
    not at least the current one is never taken."""
    rng = np.random.default_rng(0)
    n = 30
    x = rng.standard_normal(n)
    c = (rng.random((n, 15)) < 0.6).astype(float)
    c[:, :5] = x[:, None] > np.quantile(x, [0.2, 0.4, 0.5, 0.6, 0.8])
    c[:, 5:10] = 0.0
    c[rng.integers(n, size=5), np.arange(5, 10)] = 1.0
    for x_unit in [*10.0 ** np.arange(-8, 9), 1e300]:
        with np.errstate(over="ignore", invalid="ignore"):  # x^2 overflows at 1e300
            fits = fit_logistic_columns(c, np.column_stack([np.ones(n), x_unit * x]), tol=tol)
        assert np.isfinite(fits.coef).all()
        assert np.isfinite(fits.delta_hat).all()
