"""The column-batched core against single-column fits and reference loops."""
import os
import platform
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drpi import imputers, propensity
from drpi._linalg import _centred
from drpi.cli import build_parser, parse_and_dispatch
from drpi.data_model import MethodKind, write_dataset
from drpi.dr_inference import InferenceConfig, infer_columns, infer_methods
from drpi.imputers import ImputerConfig, impute, impute_knn, impute_lowdim, impute_soft
from drpi.propensity import fit_logistic, fit_logistic_columns
from drpi.sim_bench import SimConfig, gen_dataset
from tests import reference_loops as ref
from tests.test_data_model import make_dataset

ROOT = Path(__file__).resolve().parents[1]
TCOL = 1  # "a" in W = [intercept, a, x]


def _new_fit(c, w):
    fit = fit_logistic(c, w)
    return fit.coef, fit.delta_hat


@pytest.fixture(scope="module")
def wide():
    """The 200 x 1000 dataset whose column 19 ends IRLS on a rounding-level
    log-likelihood gain."""
    return gen_dataset(SimConfig(model=3, n=200, p=1000, seed=7))[0]


@pytest.fixture(scope="module")
def desk():
    return gen_dataset(SimConfig(model=3, n=200, p=300, seed=1))


# ------------------------------------------------------ batch width


@pytest.mark.parametrize("which", ["wide", "desk"])
def test_batched_propensity_matches_single_column_fits(which, wide, desk):
    d = wide if which == "wide" else desk[0]
    c = d.mask.astype(float)
    batch = fit_logistic_columns(c, d.w)
    for j in range(d.p):
        single = fit_logistic(c[:, j], d.w)
        np.testing.assert_allclose(batch.delta_hat[:, j], single.delta_hat, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.coef[j], single.coef, rtol=0, atol=1e-12)
        assert batch.iterations[j] == single.iterations
        assert batch.converged[j] == single.converged


def test_batch_width_and_order_do_not_change_a_column(wide):
    c = wide.mask.astype(float)
    full = fit_logistic_columns(c, wide.w).delta_hat
    for cols in ([19], [18, 19], [19, 18, 17, 400], list(range(999, -1, -7))):
        part = fit_logistic_columns(c[:, cols], wide.w).delta_hat
        np.testing.assert_array_equal(part, full[:, cols])


@pytest.fixture(scope="module")
def crossfit_data():
    """The cross-fit workload's 200 x 120 shape; a training fold is 160 rows."""
    return gen_dataset(SimConfig(model=3, n=200, p=120, seed=5))[0]


@pytest.mark.parametrize("n", [37, 160])
def test_batch_width_and_order_are_bitwise_at_any_row_count(n, crossfit_data):
    """exp and log1p must give the same bits wherever a row starts in memory;
    an odd row count puts each row of a batch at another alignment.  As in
    cross-fitting, the fits then predict the rows they were not fit on (40
    rows after 160, 163 after 37)."""
    c, w = crossfit_data.mask[:n].astype(float), crossfit_data.w[:n]
    w_new = crossfit_data.w[n:]
    p = c.shape[1]
    full = fit_logistic_columns(c, w)
    full_pred = fit_logistic_columns(c, w, at=w_new).delta_hat
    for cols in ([7], [8, 7], list(range(p - 1, -1, -3)), list(range(1, p, 2))):
        part = fit_logistic_columns(c[:, cols], w)
        np.testing.assert_array_equal(part.delta_hat, full.delta_hat[:, cols])
        part_pred = fit_logistic_columns(c[:, cols], w, at=w_new).delta_hat
        np.testing.assert_array_equal(part_pred, full_pred[:, cols])
        np.testing.assert_array_equal(part.coef, full.coef[cols])
        np.testing.assert_array_equal(part.iterations, full.iterations[cols])
        np.testing.assert_array_equal(part.converged, full.converged[cols])


@pytest.mark.parametrize("j", [19, 143, 225])
def test_rounding_level_gain_needs_no_line_search(j, wide, monkeypatch):
    """These columns' last Newton steps gain only rounding noise: the Newton
    decrement stops them converged, with one log-likelihood evaluation per
    iteration and none spent halving the step."""
    kernel, calls = propensity._prob_loglik, []
    monkeypatch.setattr(propensity, "_prob_loglik", lambda c, eta: calls.append(1) or kernel(c, eta))
    fit = fit_logistic(wide.mask[:, j].astype(float), wide.w)
    assert fit.converged
    assert len(calls) <= fit.iterations  # the intercept-only start is closed form


def test_irls_matches_reference_loop_except_rounding_ties(wide):
    """Declared deviation: the log-likelihood is now summed per row rather
    than by a BLAS dot, so where the last Newton step gains only rounding
    noise the accept/halve decision can differ from the original loop.
    Without the intercept both start at zero."""
    c = wide.mask.astype(float)
    for w in (wide.w, wide.w[:, 1:]):
        batch = fit_logistic_columns(c, w).delta_hat
        loop = np.column_stack([ref.fit_logistic(c[:, j], w)[1] for j in range(wide.p)])
        dev = np.abs(batch - loop).max(axis=0)
        assert (dev > 1e-12).mean() <= 0.03
        assert dev.max() <= 5e-8


def test_intercept_only_start_saves_a_newton_step(wide):
    """Each column starts at its observed rate, one Newton step closer to
    the optimum than a start at zero (3.87 iterations a column)."""
    assert fit_logistic_columns(wide.mask, wide.w).iterations.mean() <= 3.3


@pytest.mark.parametrize("layout", ["intercept last", "intercept of 2", "intercept twice"])
def test_start_rule_follows_the_intercept(layout, wide):
    """The start finds the intercept in any column and at any value.  A
    second copy of it, as a 0/1 covariate constant on a fold's training
    rows would be, makes every Hessian singular and takes the pinv path."""
    w = {
        "intercept last": wide.w[:, [1, 2, 0]],
        "intercept of 2": wide.w * [2.0, 1.0, 1.0],
        "intercept twice": np.column_stack([wide.w[:, 0], wide.w]),
    }[layout]
    want = fit_logistic_columns(wide.mask, wide.w).delta_hat
    np.testing.assert_allclose(fit_logistic_columns(wide.mask, w).delta_hat, want, rtol=0, atol=5e-8)


# ------------------------------------------------------ estimators vs loops


@pytest.mark.parametrize("method", list(MethodKind))
def test_every_method_matches_reference_loop(method, desk):
    d, truth = desk
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="knn"))
    nu = impute_lowdim(d) if method is MethodKind.DR_W else impute(d, cfg.imputer)
    est = infer_columns(d, method, cfg, nu_hat=nu, oracle=truth.y_full)
    got = np.column_stack([est.beta, est.se, est.p_value])
    want = ref.infer(d, method, TCOL, nu=nu.nu_hat, oracle=truth.y_full, fit=_new_fit)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("method,backend", [
    (MethodKind.DR_W, "lowdim"), (MethodKind.DR_UW, "lowdim"), (MethodKind.DR_UW, "mean"),
])
def test_cross_fit_matches_reference_loop(method, backend):
    d, _ = gen_dataset(SimConfig(model=3, n=200, p=120, seed=5))
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend=backend))
    est = infer_columns(d, method, cfg, folds=5)
    assert est.kept.all()
    got = np.column_stack([est.beta, est.se, est.p_value])
    want = ref.cross_fit(d, 5, TCOL, "lowdim" if method is MethodKind.DR_W else backend,
                         fit=_new_fit)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


# ------------------------------------------------------ lowdim imputer


def _singular_design():
    """Column 1 is observed only where a == 1, so its observed design
    cannot separate the intercept from a; column 2 is observed q = 3 times
    and column 3 never."""
    rng = np.random.default_rng(1)
    n, p = 120, 4
    a = rng.integers(0, 2, size=n).astype(float)
    w = np.column_stack([np.ones(n), a, rng.uniform(size=n)])
    mask = (rng.random((n, p)) < 0.8).astype(np.int8)
    mask[:, 1] = a == 1
    mask[:, 2] = np.arange(n) < 3
    mask[:, 3] = 0
    return make_dataset(rng.normal(size=(n, p)), mask, w, covariate_names=("intercept", "a", "x"))


def _warnings_of(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


@pytest.mark.parametrize("which", ["wide", "desk", "singular"])
def test_lowdim_matches_reference_loop(which, wide, desk):
    d = {"wide": wide, "desk": desk[0], "singular": _singular_design()}[which]
    got, _ = _warnings_of(impute_lowdim, d)
    np.testing.assert_allclose(got.nu_hat, ref.lowdim(d), rtol=0, atol=1e-12)


def test_lowdim_fallback_keeps_its_warnings():
    _, caught = _warnings_of(impute_lowdim, _singular_design())
    assert caught == [
        "1 all-missing column(s) imputed as zero",
        "column 'p2': observed count <= q, falling back to mean imputation",
    ]


def test_lowdim_is_accurate_on_an_offset_covariate(desk):
    """A 1e4 offset on x (cond(W) 3.4e8) moved the normal-equation means by
    1.7e-6 against the lstsq loop before the grams were formed on centred
    covariates; a W without an intercept is not centred."""
    d = desk[0]
    w = d.w.copy()
    w[:, 2] += 1e4
    shifted = make_dataset(d.y_obs, d.mask, w, covariate_names=d.covariate_names)
    np.testing.assert_allclose(impute_lowdim(shifted).nu_hat, ref.lowdim(shifted), rtol=0, atol=1e-9)
    no_intercept = w[:, 1:]
    assert _centred(no_intercept)[0] is no_intercept and _centred(no_intercept)[1] is None


def test_soft_impute_moves_by_rounding_only(monkeypatch):
    """Soft-impute residualizes on the lowdim fit; the batched fit moves its
    output by rounding only, on the analyze-soft shape (200 x 30)."""
    cfg = ImputerConfig(backend="soft")
    data = [gen_dataset(SimConfig(model=3, n=200, p=30, seed=s))[0] for s in range(6)]
    got = [impute_soft(d, cfg).nu_hat for d in data]
    monkeypatch.setattr(imputers, "_lowdim_matrix", ref.lowdim)
    for d, nu in zip(data, got):
        np.testing.assert_allclose(nu, impute_soft(d, cfg).nu_hat, rtol=0, atol=1e-10)


# ------------------------------------------------------ soft-impute SVT


def _svt_input(case):
    """(x, lam, max_rank) for one SVT equivalence case: noise plus a
    rank-3 signal, as soft-impute's filled residual matrices are, or an
    exactly rank-4 matrix."""
    rng = np.random.default_rng(sum(map(ord, case)))
    shape = {"wide": (100, 300), "square": (60, 60)}.get(case, (200, 30))
    n, p = shape
    if case == "rank_deficient":
        x = rng.normal(size=(n, 4)) @ rng.normal(size=(4, p))
    else:
        x = 0.5 * rng.normal(size=shape) + rng.normal(size=(n, 3)) @ rng.normal(size=(3, p))
    sigma1 = np.linalg.svd(x, compute_uv=False)[0]
    lam, max_rank = {
        "lambda0_full_rank": (0.0, min(shape)),
        "above_sigma1": (1.01 * sigma1, 10),
        "rank_deficient": (0.0, min(shape)),
    }.get(case, (0.1 * sigma1, 10))
    return x, lam, max_rank


@pytest.mark.parametrize("case", [
    "tall", "wide", "square", "lambda0_full_rank", "above_sigma1", "rank_deficient",
])
def test_svt_matches_svd_reference(case):
    x, lam, max_rank = _svt_input(case)
    got, rank = imputers._svd_soft_threshold(x, lam, max_rank)
    want, want_rank = ref.svd_soft_threshold(x, lam, max_rank)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(x)))
    if case == "above_sigma1":
        assert rank == 0 and not got.any()
    if lam > 0:
        assert rank == want_rank


@pytest.fixture(scope="module")
def soft_data():
    """Six model-3 datasets at the analyze-soft shape and one wide one."""
    shapes = [(200, 30)] * 6 + [(100, 300)]
    return [gen_dataset(SimConfig(model=3, n=n, p=p, seed=s))[0] for s, (n, p) in enumerate(shapes)]


def test_soft_impute_matches_svd_reference(monkeypatch, soft_data):
    """Thresholding through the Gram eigendecomposition leaves every
    iterate, the iteration count and the convergence flag of the SVD path,
    at the default lambda, on the analyze-soft shape and one wide shape."""
    cfg = ImputerConfig(backend="soft")
    data = soft_data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = [impute_soft(d, cfg) for d in data]
        monkeypatch.setattr(imputers, "_svd_soft_threshold", ref.svd_soft_threshold)
        want = [impute_soft(d, cfg) for d in data]
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.nu_hat, w.nu_hat, rtol=0, atol=1e-10)
        assert g.converged == w.converged
        assert g.diagnostics["iterations"] == w.diagnostics["iterations"]
        assert g.diagnostics["rank"] == w.diagnostics["rank"]


def _soft_objective(d, nu_hat, lam):
    """1/2 ||P_obs(R - Z)||^2 + lam ||Z||_* of the completed residuals Z."""
    wfit = impute_lowdim(d).nu_hat
    z = nu_hat - wfit
    obs_resid = np.where(d.mask == 1, d.y_obs - wfit - z, 0.0)
    return 0.5 * (obs_resid**2).sum() + lam * np.linalg.svd(z, compute_uv=False).sum()


def test_soft_impute_reaches_long_run_objective(soft_data):
    """At the default settings the accelerated loop stops within 1e-7
    (relative) of the objective of a tol = 1e-12 run, without a warning and
    in fewer iterations than the plain proximal-gradient loop.  The long run
    is the accelerated loop itself: the plain loop run as long reaches the
    same means (within 6e-10 on the 200 x 30 sets) but needs 11625
    iterations at 100 x 300."""
    cfg = ImputerConfig(backend="soft")
    long_cfg = ImputerConfig(backend="soft", tol=1e-12, max_iter=20000)
    for d in soft_data:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = impute_soft(d, cfg)
        long = impute_soft(d, long_cfg)
        assert out.converged and long.converged
        lam = out.diagnostics["lambda"]
        best = _soft_objective(d, long.nu_hat, lam)
        assert abs(_soft_objective(d, out.nu_hat, lam) - best) <= 1e-7 * best
        # the plain loop needs more iterations: it has not converged in as many
        iterations = out.diagnostics["iterations"]
        assert not ref.soft_impute(d, replace(cfg, max_iter=iterations))[2]


def _soft_case(d, case):
    """Soft-impute config of one refactor case: the defaults, lambda above
    sigma_1 (rank 0), a rank cap above the thresholded rank, a cap of 0, or
    a run cut at 3 iterations."""
    cfg = ImputerConfig(backend="soft")
    resid = np.where(d.mask == 1, d.y_obs - imputers._lowdim_matrix(d), 0.0)
    sigma1 = np.linalg.svd(resid, compute_uv=False)[0]
    return {
        "default": cfg,
        "rank0": replace(cfg, rank_penalty=1.01 * sigma1),
        "uncapped": replace(cfg, rank_penalty=0.25 * sigma1, max_rank=min(d.n, d.p)),
        "cap0": replace(cfg, max_rank=0),
        "max_iter_3": replace(cfg, max_iter=3),
    }[case]


@pytest.mark.parametrize("case", ["default", "rank0", "uncapped", "cap0", "max_iter_3"])
def test_soft_impute_loop_is_a_pure_refactor(case, soft_data):
    """The one-buffer fill, the BLAS Frobenius norms and the sliced
    threshold leave nu and every diagnostic of the accelerated loop as
    first written bit for bit, tall (200 x 30) and wide (100 x 300)."""
    for d in soft_data:
        cfg = _soft_case(d, case)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = impute_soft(d, cfg)
        nu, converged, diagnostics = ref.soft_impute_apg(d, cfg)
        assert np.array_equal(got.nu_hat, nu)
        assert got.converged == converged
        assert got.diagnostics == diagnostics
        assert list(map(type, got.diagnostics.values())) == list(map(type, diagnostics.values()))
        assert [str(w.message) for w in caught if "soft-impute" in str(w.message)] == (
            [] if converged else [
                f"soft-impute did not converge in {cfg.max_iter} iterations "
                f"(relative change {diagnostics['rel_change']:.3g}, tol {cfg.tol:g}); "
                "returning last iterate"
            ]
        )
        rank = diagnostics["rank"]
        if case == "rank0":
            assert rank == 0 and diagnostics["iterations"] == 1 and converged
        elif case == "uncapped":
            assert 0 < rank < cfg.max_rank
        elif case == "cap0":
            assert rank == 0
        elif case == "max_iter_3":
            assert not converged and diagnostics["iterations"] == 3


# ------------------------------------------------------ knn imputers


def _knn_edge_case(case):
    """12 x 5 data where columns 0 and 1 are never observed in the same
    row (their co-observed means are NaN), or where column 4 is observed in
    two rows only, so no pair with it reaches the 3-row overlap and it has
    no neighbour with finite similarity."""
    rng = np.random.default_rng(12)
    n, p = 12, 5
    mask = np.ones((n, p), dtype=np.int8)
    if case == "never_co_observed":
        mask[:6, 0] = 0
        mask[6:, 1] = 0
        mask[[2, 9], 3] = 0
    else:
        mask[2:, 4] = 0
        mask[[1, 5, 8], 2] = 0
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    return make_dataset(rng.normal(size=(n, p)), mask, w)


@pytest.mark.parametrize("backend", ["knn", "knn2"])
@pytest.mark.parametrize("shape", [(200, 300), (60, 20)])
@pytest.mark.parametrize("model", [1, 3, 4])
def test_knn_matches_reference_loop(model, shape, backend):
    n, p = shape
    d = gen_dataset(SimConfig(model=model, n=n, p=p, seed=model))[0]
    cfg = ImputerConfig(backend=backend)
    got = impute(d, cfg)
    assert got.backend == backend
    want = ref.knn(d, cfg.k_neighbors, backend)
    np.testing.assert_allclose(got.nu_hat, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("backend", ["knn", "knn2"])
@pytest.mark.parametrize("case", ["never_co_observed", "no_finite_neighbour"])
def test_knn_edge_cases_match_reference_loop(case, backend):
    d = _knn_edge_case(case)
    got = impute(d, ImputerConfig(backend=backend, k_neighbors=2)).nu_hat
    want = ref.knn(d, 2, backend)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    if case == "no_finite_neighbour" and backend == "knn":
        np.testing.assert_allclose(got[:, 4], d.y_obs[:2, 4].mean(), rtol=0, atol=1e-15)


def _argsort_top_k(sim, k):
    """The first k columns of each row's stable descending argsort, less
    those with non-finite similarity."""
    top = np.argsort(-sim, axis=1, kind="stable")[:, :k]
    nbr = np.zeros(sim.shape, dtype=bool)
    nbr[np.arange(sim.shape[0])[:, None], top] = True
    return nbr & np.isfinite(sim)


def _knn_similarity(d):
    """impute_knn's column similarity matrix."""
    counts, _, sim = imputers._pairwise_stats(
        d.mask.astype(float), np.where(d.mask == 1, d.y_obs, 0.0)
    )
    sim[counts < 3] = -np.inf
    np.fill_diagonal(sim, -np.inf)
    return sim


def _tied_dataset():
    """40 x 12 data: columns 4-7 copy columns 0-3 and column 8 copies
    column 0 (equal correlations), and column 11 is observed in two rows,
    so its row of similarities holds no finite value."""
    rng = np.random.default_rng(3)
    y = rng.normal(size=(40, 12))
    y[:, 4:8] = y[:, :4]
    y[:, 8] = y[:, 0]
    mask = np.ones(y.shape, dtype=np.int8)
    mask[2:, 11] = 0
    w = np.column_stack([np.ones(40), rng.normal(size=40)])
    return make_dataset(y, mask, w)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 11])  # 11 = p - 1
def test_top_k_keeps_the_stable_argsort_order_of_ties(k):
    sim = _knn_similarity(_tied_dataset())
    assert not np.isfinite(sim[11]).any()  # and k = 11 leaves every row short
    np.testing.assert_array_equal(imputers._top_k(sim, k), _argsort_top_k(sim, k))


def test_top_k_on_heavy_ties_and_signed_zeros():
    """Every row holds many equal values, +0.0 next to -0.0 and -inf."""
    rng = np.random.default_rng(8)
    sim = rng.integers(-2, 3, size=(50, 30)).astype(float)
    sim[rng.random(sim.shape) < 0.2] = -np.inf
    sim[sim == 0] *= rng.choice([1.0, -1.0], size=(sim == 0).sum())
    sim[7] = -np.inf
    for k in range(1, 30):
        np.testing.assert_array_equal(imputers._top_k(sim, k), _argsort_top_k(sim, k))


@pytest.mark.parametrize("backend", ["knn", "knn2"])
def test_knn_on_tied_similarities_matches_reference_loop(backend):
    d = _tied_dataset()
    for k in (1, 3, 11):
        got = impute(d, ImputerConfig(backend=backend, k_neighbors=k)).nu_hat
        np.testing.assert_allclose(got, ref.knn(d, k, backend), rtol=0, atol=1e-12)


def test_counting_products_are_exact_in_float32():
    """knn's 0/1 products (co-observed counts, neighbour weights) run in
    float32 and equal float64's bit for bit; from 2**24 rows or columns the
    operands stay float64."""
    d = gen_dataset(SimConfig(model=3, n=200, p=300, seed=1))[0]
    obs = d.mask.astype(float)
    nbr_t = (np.random.default_rng(0).random((300, 300)) < 0.05).astype(float)
    ones = imputers._counting(obs)
    assert ones.dtype == np.float32
    np.testing.assert_array_equal(ones.T @ ones, obs.T @ obs)
    np.testing.assert_array_equal(ones @ imputers._counting(nbr_t), obs @ nbr_t)
    assert imputers._counting(np.zeros((2**24 - 1, 0))).dtype == np.float32
    assert imputers._counting(np.zeros((2**24, 0))).dtype == np.float64
    assert imputers._counting(np.zeros((0, 2**24))).dtype == np.float64


def test_knn2_backend_selects_the_sample_pass():
    d = gen_dataset(SimConfig(model=3, n=60, p=20, seed=2))[0]
    cfg = ImputerConfig(backend="knn2")
    direct, dispatched = impute_knn(d, cfg), impute(d, cfg)
    assert direct.backend == dispatched.backend == "knn2"
    np.testing.assert_array_equal(direct.nu_hat, dispatched.nu_hat)
    one_step = impute_knn(d, ImputerConfig(backend="knn")).nu_hat
    assert not np.array_equal(direct.nu_hat, one_step)


# ------------------------------------------------------ per-column failure


def _one_separated_column(rng, n=120, p=6, x_unit=1e-4):
    """Column 2 is observed exactly where x > 1/2, so x separates it and its
    propensity has no MLE; x is recorded as ``x_unit`` times a uniform."""
    a = rng.integers(0, 2, size=n).astype(float)
    x = rng.uniform(size=n)
    w = np.column_stack([np.ones(n), a, x_unit * x])
    y = np.outer(a, np.linspace(0, 1, p)) + rng.normal(size=(n, p))
    mask = (rng.random((n, p)) < 0.7).astype(np.int8)
    mask[:, 2] = x > 0.5
    return make_dataset(y, mask, w, covariate_names=("intercept", "a", "x"))


def test_fold_fit_evaluates_held_out_rows_as_its_own_coefficients_do():
    """``at=`` gives the held-out rows' delta_hat that the fold's own fit
    gives through ``_propensity``, bit for bit, on uneven folds (n = 203,
    K = 5), with a column that x separates and a column constant on one
    training fold; and ``at`` leaves the fit itself unchanged."""
    d = _one_separated_column(np.random.default_rng(0), n=203)
    folds = 5
    fold_of = np.empty(d.n, dtype=int)
    fold_of[np.random.default_rng(0).permutation(d.n)] = np.arange(d.n) % folds
    c = d.mask.copy()
    c[:, 4] = fold_of != 0  # observed on every row but fold 0's
    separated, rows = [], set()
    for k in range(folds):
        train, test = fold_of != k, fold_of == k
        fit = fit_logistic_columns(c[train], d.w[train], at=d.w[test])
        plain = fit_logistic_columns(c[train], d.w[train])
        want = propensity._propensity(
            d.w[test], fit.coef, fit.separated, fit.constant_value, fit.clip_floor
        )
        assert fit.delta_hat.shape == (test.sum(), d.p)
        np.testing.assert_array_equal(fit.delta_hat, want)
        for name in ("coef", "iterations", "converged", "separated", "constant_value"):
            np.testing.assert_array_equal(getattr(fit, name), getattr(plain, name))
        separated.append(fit.separated[4])
        rows.add(len(fit.delta_hat))
    assert separated == [True, False, False, False, False]
    assert rows == {40, 41}


def _assert_kept_match(res, alone):
    """The kept columns of ``res`` have the beta, se and p-value that
    ``alone``, fitted on those columns only, gives them."""
    for name in ("beta", "se", "p_value"):
        assert getattr(res, name)[res.kept] == pytest.approx(getattr(alone, name), rel=1e-12)


def test_small_covariate_unit_skips_no_column(tmp_path):
    """With x recorded at 1 and at 1e-4 every column is estimated, the one x
    separates included, and the five columns it does not separate get the
    same p-values: a propensity fit is judged by its likelihood, in any
    covariate units."""
    unit, small = (_one_separated_column(np.random.default_rng(0), x_unit=s) for s in (1.0, 1e-4))
    others = [0, 1, 3, 4, 5]
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    runs = [
        lambda data: infer_columns(data, MethodKind.DR_UW, cfg),
        lambda data: infer_columns(data, MethodKind.DR_W, cfg),
        lambda data: infer_columns(data, MethodKind.DR_UW, cfg, folds=3),
    ]
    for run in runs:
        at_unit, at_small = run(unit), run(small)
        assert at_unit.kept.all() and at_small.kept.all()
        np.testing.assert_allclose(
            at_small.p_value[others], at_unit.p_value[others], rtol=0, atol=1e-12
        )

    write_dataset(small, tmp_path / "y.csv", tmp_path / "w.csv")
    code = parse_and_dispatch([
        "analyze", "--outcomes", str(tmp_path / "y.csv"), "--covariates", str(tmp_path / "w.csv"),
        "--target", "a", "--imputer", "lowdim", "--out", str(tmp_path / "r.csv"), "--quiet",
    ])
    assert code == 0
    assert "p2" in (tmp_path / "r.csv").read_text()


@pytest.mark.parametrize("x_unit", [1e-7, 1e-6, 1e-3, 1e4])
def test_dr_inference_is_invariant_to_the_unit_of_x(desk, x_unit):
    """Model 3 at 200 x 300 with knn nu: with x in any unit the DR methods
    skip no column, and every p-value is the unit-scale one."""
    d = desk[0]
    w = d.w.copy()
    w[:, 2] *= x_unit
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="knn"))
    methods = (MethodKind.DR_W, MethodKind.DR_UW)
    want = infer_methods(d, methods, cfg)
    got = infer_methods(replace(d, w=w), methods, cfg)
    for m in methods:
        assert got[m].kept.all()
        np.testing.assert_allclose(got[m].p_value, want[m].p_value, rtol=0, atol=1e-10)


def test_singular_complete_case_design_skips_only_that_column():
    """Column 1 is observed only where a == 1, so its complete-case design
    cannot separate the intercept from a."""
    rng = np.random.default_rng(1)
    n, p = 120, 4
    a = rng.integers(0, 2, size=n).astype(float)
    w = np.column_stack([np.ones(n), a, rng.uniform(size=n)])
    mask = (rng.random((n, p)) < 0.8).astype(np.int8)
    mask[:, 1] = a == 1
    d = make_dataset(rng.normal(size=(n, p)), mask, w, covariate_names=("intercept", "a", "x"))
    cfg = InferenceConfig(target="a")
    res = infer_columns(d, MethodKind.COMPLETE, cfg)
    assert res.skip_reason.tolist() == ["", "singular complete-case design", "", ""]
    alone = infer_columns(d.select_columns([0, 2, 3]), MethodKind.COMPLETE, cfg)
    _assert_kept_match(res, alone)


# ------------------------------------------------------ import and docs


_LOADS_SCIPY = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def _in_fresh_process(code):
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_cli_import_leaves_scipy_stats_out():
    """Importing any of scipy would be most of every CLI run's start-up
    time; only Student-t p-values need it, and they import it on first use."""
    assert _in_fresh_process(f"import sys, drpi.cli; print({_LOADS_SCIPY})") == "False"


@pytest.mark.parametrize("method,loads", [("dr_uw", False), ("complete", True)])
def test_analyze_loads_scipy_only_for_student_t(method, loads, tmp_path):
    """The default analyze (dr_uw, sandwich, normal reference) never loads
    scipy; complete-case (homoskedastic, Student-t) does."""
    argv = [
        "analyze", "--outcomes", str(ROOT / "fixtures" / "outcomes.csv"),
        "--covariates", str(ROOT / "fixtures" / "covariates.csv"), "--target", "a",
        "--method", method, "--out", str(tmp_path / "out.csv"), "--quiet",
    ]
    code = f"import sys; from drpi.cli import parse_and_dispatch; print(parse_and_dispatch({argv!r}), {_LOADS_SCIPY})"
    assert _in_fresh_process(code) == f"0 {loads}"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc's")
def test_repeated_analyze_keeps_freed_temporaries(tmp_path):
    """The command keeps freed (n, p) temporaries for reuse: from the
    second run on, a 200 x 1000 analyze page-faults little more than its
    CSV parse (about 14k minor faults per run under glibc's defaults, under
    2k with them kept).  Importing the command sets nothing."""
    d, _ = gen_dataset(SimConfig(model=3, n=200, p=1000, seed=1))
    write_dataset(d, tmp_path / "y.csv", tmp_path / "w.csv")
    argv = [
        "analyze", "--outcomes", str(tmp_path / "y.csv"), "--covariates", str(tmp_path / "w.csv"),
        "--target", "a", "--imputer", "lowdim", "--out", str(tmp_path / "out.csv"), "--quiet",
    ]
    code = f"""
import resource
from drpi.cli import _keep_freed_memory, parse_and_dispatch
print(_keep_freed_memory.cache_info().misses)
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert parse_and_dispatch({argv!r}) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    calls, faults = map(int, _in_fresh_process(code).split())
    assert calls == 0
    assert faults < 3000


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_commands_parse():
    text = (ROOT / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, flags=re.S)).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in lines.splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "drpi"]
    assert [argv[1] for argv in commands] == ["analyze", "simulate", "toy-power"]
    for argv in commands:
        build_parser().parse_args(argv[1:])


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("0*.py")))
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
