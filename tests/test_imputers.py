import warnings

import numpy as np
import pytest

from drpi.errors import DataError
from drpi.imputers import (
    BACKENDS,
    ImputedMatrix,
    ImputerConfig,
    impute,
    impute_knn,
    impute_lowdim,
    impute_soft,
    load_external_nu,
)
from tests.test_data_model import make_dataset


def impute_mean(d):
    """The mean backend's fit on every row."""
    return impute(d, ImputerConfig(backend="mean"))


def rand_dataset(rng, n=12, p=6, miss=0.25, q_extra=1):
    y = rng.normal(size=(n, p))
    mask = (rng.random((n, p)) >= miss).astype(np.int8)
    mask[0] = 1  # keep every column observed at least once
    w = np.column_stack([np.ones(n), rng.normal(size=(n, q_extra))])
    return make_dataset(y, mask, w)


# ---------------------------------------------------------------- mean


def test_mean_simple_average():
    y = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
    mask = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int8)
    w = np.column_stack([np.ones(3), np.arange(3.0)])
    d = make_dataset(y, mask, w)
    nu = impute_mean(d).nu_hat
    np.testing.assert_allclose(nu[:, 0], 2.0)
    np.testing.assert_allclose(nu[:, 1], 5.0)


def test_mean_fully_observed_column_is_constant():
    rng = np.random.default_rng(0)
    d = rand_dataset(rng, miss=0.0)
    nu = impute_mean(d).nu_hat
    assert np.ptp(nu, axis=0).max() == 0.0


# ---------------------------------------------------------------- lowdim


def test_lowdim_exact_linear_truth():
    rng = np.random.default_rng(1)
    n = 20
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = np.column_stack([w @ np.array([1.0, 2.0]), w @ np.array([-0.5, 0.3])])
    mask = (rng.random((n, 2)) > 0.3).astype(np.int8)
    mask[:4] = 1
    d = make_dataset(y, mask, w)
    nu = impute_lowdim(d).nu_hat
    np.testing.assert_allclose(nu, y, atol=1e-10)


def test_lowdim_intercept_only_reduces_to_mean():
    rng = np.random.default_rng(2)
    n = 10
    y = rng.normal(size=(n, 3))
    mask = (rng.random((n, 3)) > 0.3).astype(np.int8)
    mask[0] = 1
    w = np.ones((n, 1))
    d = make_dataset(y, mask, w, covariate_names=("intercept",))
    np.testing.assert_allclose(
        impute_lowdim(d).nu_hat, impute_mean(d).nu_hat, atol=1e-12
    )


def test_lowdim_three_point_line():
    # observed (0,0), (1,1), (2,2); masked row at x=3 predicted as 3
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = x.copy().reshape(-1, 1)
    mask = np.array([[1], [1], [1], [0]], dtype=np.int8)
    w = np.column_stack([np.ones(4), x])
    d = make_dataset(y, mask, w)
    np.testing.assert_allclose(impute_lowdim(d).nu_hat[:, 0], [0, 1, 2, 3], atol=1e-12)


def test_lowdim_columns_lie_in_w_span():
    rng = np.random.default_rng(3)
    d = rand_dataset(rng, n=30, p=8, q_extra=2)
    nu = impute_lowdim(d).nu_hat
    proj = d.w @ np.linalg.lstsq(d.w, nu, rcond=None)[0]
    assert np.abs(nu - proj).max() < 1e-10


# ---------------------------------------------------------------- soft


def svt_oracle(x, lam, max_rank):
    """Singular-value soft-thresholding via a full np.linalg.svd.

    The implementation thresholds through an eigendecomposition of the
    smaller Gram matrix; the oracle deliberately takes the SVD route so the
    check does not share code paths with the implementation under test.
    """
    u, sigma, vt = np.linalg.svd(x, full_matrices=False)
    shrunk = np.clip(sigma - lam, 0.0, None)
    shrunk[max_rank:] = 0.0
    return (u * shrunk) @ vt


def rank1_als_oracle(y, mask, iters=2000):
    """Rank-1 completion by alternating least squares on observed cells."""
    n, p = y.shape
    rng = np.random.default_rng(99)
    u = rng.normal(size=n)
    v = rng.normal(size=p)
    for _ in range(iters):
        for i in range(n):
            obs = mask[i] == 1
            denom = (v[obs] ** 2).sum()
            if denom > 0:
                u[i] = (y[i, obs] * v[obs]).sum() / denom
        for j in range(p):
            obs = mask[:, j] == 1
            denom = (u[obs] ** 2).sum()
            if denom > 0:
                v[j] = (y[obs, j] * u[obs]).sum() / denom
    return np.outer(u, v)


def test_soft_rank1_completion_matches_als_oracle():
    # u-values masked in +/- pairs per column so every observed column mean
    # is exactly zero; the intercept residualization then leaves the rank-1
    # matrix untouched and lambda -> 0 completion must recover it.
    u = np.array([1.0, -1.0, 2.0, -2.0, 1.5, -1.5])
    v = np.array([0.8, -1.2, 0.5, 2.0, -0.7, 1.1])
    y = np.outer(u, v)
    mask = np.ones((6, 6), dtype=np.int8)
    for rows, col in (((0, 1), 1), ((2, 3), 3), ((4, 5), 4)):
        mask[rows, col] = 0
    w = np.ones((6, 1))
    d = make_dataset(y, mask, w, covariate_names=("intercept",))
    cfg = ImputerConfig(backend="soft", rank_penalty=1e-10, max_rank=1, tol=1e-13,
                        max_iter=5000)
    nu = impute_soft(d, cfg).nu_hat
    oracle = rank1_als_oracle(np.where(mask == 1, y, 0.0), mask)
    np.testing.assert_allclose(nu[mask == 0], oracle[mask == 0], atol=1e-6)
    np.testing.assert_allclose(nu[mask == 0], y[mask == 0], atol=1e-6)


def test_soft_fully_observed_hand_svt():
    # fully observed, zero column means -> residual equals y, solution is
    # one singular-value soft-threshold step: diag(3,1) with lam=0.5 ->
    # diag(2.5, 0.5)
    y = np.array([[3.0, 0.0], [0.0, 1.0], [-3.0, 0.0], [0.0, -1.0]])
    mask = np.ones((4, 2), dtype=np.int8)
    w = np.ones((4, 1))
    d = make_dataset(y, mask, w, covariate_names=("intercept",))
    cfg = ImputerConfig(backend="soft", rank_penalty=0.5, max_rank=2, tol=1e-12)
    nu = impute_soft(d, cfg).nu_hat
    sing = np.linalg.svd(y, compute_uv=False)
    expected = y * (np.array([1.0]) - 0.5 / sing[0])  # rank-2 y with
    # orthogonal columns: each column scales by (sigma_j - lam)/sigma_j
    s0, s1 = sing
    expected = y.copy()
    expected[:, 0] *= (s0 - 0.5) / s0
    expected[:, 1] *= (s1 - 0.5) / s1
    np.testing.assert_allclose(nu, expected, atol=1e-10)


def test_soft_satisfies_fixed_point_equation():
    """At convergence Z = SVT(P_obs(R) + P_miss(Z), lam), verified with an
    independent SVD-based SVT."""
    rng = np.random.default_rng(4)
    n, p = 20, 8
    y = rng.normal(size=(n, p)) + np.outer(rng.normal(size=n), rng.normal(size=p))
    mask = (rng.random((n, p)) > 0.25).astype(np.int8)
    mask[:3] = 1
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    d = make_dataset(y, mask, w)
    lam, max_rank = 1.5, 5
    cfg = ImputerConfig(backend="soft", rank_penalty=lam, max_rank=max_rank, tol=1e-12)
    nu = impute_soft(d, cfg).nu_hat
    wfit = impute_lowdim(d).nu_hat
    z = nu - wfit
    resid_obs = np.where(mask == 1, y - wfit, 0.0)
    filled = np.where(mask == 1, resid_obs, z)
    z_next = svt_oracle(filled, lam, max_rank)
    np.testing.assert_allclose(z, z_next, atol=1e-8)


def test_soft_diagnostics_converged_and_capped():
    rng = np.random.default_rng(4)
    n, p = 20, 8
    y = rng.normal(size=(n, p)) + np.outer(rng.normal(size=n), rng.normal(size=p))
    mask = (rng.random((n, p)) > 0.25).astype(np.int8)
    mask[:3] = 1
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    d = make_dataset(y, mask, w)
    cfg = ImputerConfig(backend="soft", rank_penalty=1.5, max_rank=5, tol=1e-8)

    out = impute_soft(d, cfg)
    diag = out.diagnostics
    assert out.converged
    assert set(diag) == {"lambda", "iterations", "rank", "rel_change"}
    assert diag["lambda"] == 1.5
    assert 3 < diag["iterations"] < cfg.max_iter
    assert diag["rel_change"] <= cfg.tol
    sigma = np.linalg.svd(out.nu_hat - impute_lowdim(d).nu_hat, compute_uv=False)
    assert 0 < diag["rank"] <= cfg.max_rank
    assert diag["rank"] == (sigma > 1e-8 * sigma[0]).sum()

    capped = ImputerConfig(backend="soft", rank_penalty=1.5, max_rank=5, tol=1e-8, max_iter=3)
    with pytest.warns(UserWarning, match="did not converge in 3 iterations") as caught:
        out = impute_soft(d, capped)
    diag = out.diagnostics
    assert not out.converged
    assert diag["iterations"] == 3
    assert diag["rel_change"] > capped.tol
    assert f"relative change {diag['rel_change']:.3g}" in str(caught[0].message)
    assert 0 < diag["rank"] <= capped.max_rank


def test_soft_one_iteration_is_one_svt_of_zero_filled_residual():
    """The first step has no momentum: max_iter=1 returns the W-fit plus one
    soft-threshold of the residuals with every missing cell set to zero."""
    rng = np.random.default_rng(4)
    d = rand_dataset(rng, n=20, p=8)
    wfit = impute_lowdim(d).nu_hat
    resid = np.where(d.mask == 1, d.y_obs - wfit, 0.0)
    cfg = ImputerConfig(backend="soft", rank_penalty=0.5, max_rank=3, max_iter=1)
    with pytest.warns(UserWarning, match="did not converge in 1 iterations"):
        out = impute_soft(d, cfg)
    np.testing.assert_allclose(out.nu_hat, wfit + svt_oracle(resid, 0.5, 3), atol=1e-10)
    assert out.diagnostics["iterations"] == 1 and not out.converged


def test_unknown_backend_rejected_at_construction():
    """An unknown backend would fail in every later impute call; the
    config refuses it by name, and every listed backend is accepted."""
    with pytest.raises(DataError, match="unknown imputer backend 'svd'"):
        ImputerConfig(backend="svd")
    for backend in BACKENDS:
        ImputerConfig(backend=backend, external_path="nu.csv")


def test_external_backend_without_a_file_rejected_at_construction():
    """With no file, every impute call would fail on opening ''."""
    with pytest.raises(DataError, match="external imputer needs external_path"):
        ImputerConfig(backend="external")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_imputed_matrix_refuses_a_non_finite_value(value):
    nu = np.zeros((3, 2))
    nu[1, 0] = value
    with pytest.raises(DataError, match="imputed matrix contains non-finite values"):
        ImputedMatrix(nu_hat=nu, backend="external")


def test_zero_neighbors_rejected():
    with pytest.raises(DataError, match="k_neighbors must be >= 1"):
        ImputerConfig(backend="knn", k_neighbors=0)


def test_soft_negative_lambda_rejected():
    with pytest.raises(DataError, match="rank_penalty"):
        ImputerConfig(backend="soft", rank_penalty=-1.0)
    assert np.isnan(ImputerConfig(backend="soft").rank_penalty)


@pytest.mark.parametrize("field,value", [
    ("max_iter", 0), ("max_iter", -3), ("tol", -1e-5), ("tol", float("nan")),
])
def test_soft_iteration_settings_rejected(field, value):
    """No iteration would return the W-fit, and a NaN or negative tol
    would silently run every iteration."""
    with pytest.raises(DataError, match=field):
        ImputerConfig(backend="soft", **{field: value})


def test_soft_full_shrinkage_equals_lowdim():
    rng = np.random.default_rng(5)
    d = rand_dataset(rng, n=15, p=5)
    resid_norm = 1e6  # lambda far above any singular value
    cfg = ImputerConfig(backend="soft", rank_penalty=resid_norm, max_rank=3)
    nu = impute_soft(d, cfg).nu_hat
    np.testing.assert_allclose(nu, impute_lowdim(d).nu_hat, atol=1e-8)


def test_soft_fully_observed_lambda_zero_reproduces_y():
    rng = np.random.default_rng(6)
    n, p = 8, 5
    y = rng.normal(size=(n, p))
    mask = np.ones((n, p), dtype=np.int8)
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    d = make_dataset(y, mask, w)
    cfg = ImputerConfig(backend="soft", rank_penalty=0.0, max_rank=min(n, p))
    np.testing.assert_allclose(impute_soft(d, cfg).nu_hat, y, atol=1e-8)


# ---------------------------------------------------------------- knn


def test_knn_duplicate_column_perfect_neighbor():
    rng = np.random.default_rng(7)
    n = 10
    base = rng.normal(size=n)
    y = np.column_stack([base, base, rng.normal(size=n)])
    mask = np.ones((n, 3), dtype=np.int8)
    mask[4, 0] = 0
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    d = make_dataset(y, mask, w)
    nu = impute_knn(d, ImputerConfig(backend="knn", k_neighbors=1)).nu_hat
    assert nu[4, 0] == pytest.approx(base[4], abs=1e-12)


def test_knn_hand_computed_nearest_column():
    y = np.array(
        [
            [1.0, 1.1, -5.0],
            [2.0, 2.1, 3.0],
            [3.0, 3.2, 0.5],
            [4.0, 0.0, 2.0],
        ]
    )
    mask = np.array([[1, 1, 1], [1, 1, 1], [1, 1, 1], [0, 1, 1]], dtype=np.int8)
    w = np.column_stack([np.ones(4), np.arange(4.0)])
    d = make_dataset(y, mask, w)
    nu = impute_knn(d, ImputerConfig(backend="knn", k_neighbors=1)).nu_hat
    # co-observed rows of (0, 1) are 0..2; corr(col0, col1) there ~ 0.999
    # exhaustive check: col1 is the closest to col0
    m0 = y[:3, 0].mean()
    m1 = y[:3, 1].mean()
    expected = y[3, 1] + (m0 - m1)
    assert nu[3, 0] == pytest.approx(expected, abs=1e-12)


def test_knn_no_valid_overlap_falls_back_to_mean():
    rng = np.random.default_rng(8)
    n = 6
    y = rng.normal(size=(n, 2))
    mask = np.array(
        [[1, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1]], dtype=np.int8
    )  # zero co-observed rows
    w = np.ones((n, 1))
    d = make_dataset(y, mask, w, covariate_names=("intercept",))
    nu = impute_knn(d, ImputerConfig(backend="knn", k_neighbors=1)).nu_hat
    np.testing.assert_allclose(nu[:, 0], y[:3, 0].mean())
    capped = impute_knn(d, ImputerConfig(backend="knn", k_neighbors=2)).nu_hat  # k = p
    np.testing.assert_array_equal(capped, nu)


def test_knn_two_step_fills_missing_from_samples():
    rng = np.random.default_rng(9)
    d = rand_dataset(rng, n=15, p=6, miss=0.2)
    nu = impute_knn(d, ImputerConfig(backend="knn2", k_neighbors=3)).nu_hat
    assert np.isfinite(nu).all()


# ------------------------------------------------------- size settings are caps


def test_soft_rank_cap_above_p_keeps_p_components():
    """The default rank cap of 10 on 5 columns keeps at most 5 components,
    exactly as a cap of 5 does."""
    d = rand_dataset(np.random.default_rng(12), n=30, p=5)
    got = impute_soft(d)
    want = impute_soft(d, ImputerConfig(backend="soft", max_rank=5))
    np.testing.assert_array_equal(got.nu_hat, want.nu_hat)
    assert got.diagnostics == want.diagnostics


def test_knn_neighbour_count_above_p_selects_every_other_column():
    """A column is never its own neighbour, so k = 10 on 5 columns averages
    the other 4, exactly as k = 4 does."""
    d = rand_dataset(np.random.default_rng(13), n=30, p=5)
    got = impute_knn(d, ImputerConfig(backend="knn", k_neighbors=10)).nu_hat
    want = impute_knn(d, ImputerConfig(backend="knn", k_neighbors=4)).nu_hat
    np.testing.assert_array_equal(got, want)


def test_knn2_row_pass_keeps_its_own_neighbour_count():
    """The column pass caps k = 10 at p = 5, but the row pass still averages
    the 10 most correlated of the other n - 1 = 59 samples."""
    d = rand_dataset(np.random.default_rng(14), n=60, p=5)
    nu = impute_knn(d, ImputerConfig(backend="knn2", k_neighbors=10)).nu_hat
    cols = impute_knn(d, ImputerConfig(backend="knn", k_neighbors=10)).nu_hat
    filled = np.where(d.mask == 1, d.y_obs, cols)
    sim = np.corrcoef(filled)
    np.fill_diagonal(sim, -np.inf)
    near = np.argsort(-sim, axis=1, kind="stable")[:, :10]
    want = np.where(d.mask == 1, cols, filled[near].mean(axis=1))
    np.testing.assert_allclose(nu, want, rtol=1e-12, atol=1e-12)


def test_knn2_constant_rows_are_no_ones_neighbours():
    """At p = 1 every filled row is constant, so no sample has a direction
    to compare: knn2 keeps knn's fill, the column mean, instead of the
    first k rows' mean."""
    y = np.arange(30.0)[:, None] % 3 / 10 + np.where(np.arange(30) >= 15, 5.0, 0.0)[:, None]
    mask = np.ones((30, 1), dtype=np.int8)
    mask[[20, 25]] = 0
    d = make_dataset(y, mask, np.ones((30, 1)), covariate_names=("intercept",))
    got = impute_knn(d, ImputerConfig(backend="knn2", k_neighbors=10)).nu_hat
    want = impute_knn(d, ImputerConfig(backend="knn", k_neighbors=10)).nu_hat
    np.testing.assert_array_equal(got, want)
    assert got[20, 0] == y[mask[:, 0] == 1, 0].mean()


# ------------------------------------------------------- shared invariants


@pytest.mark.parametrize("backend", ["mean", "lowdim", "soft", "knn", "knn2"])
def test_mask_respecting(backend):
    """Changing values at masked cells never changes the imputation."""
    rng = np.random.default_rng(10)
    n, p = 14, 6
    y = rng.normal(size=(n, p))
    mask = (rng.random((n, p)) > 0.3).astype(np.int8)
    mask[:3] = 1
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    cfg = ImputerConfig(backend=backend, k_neighbors=2, max_rank=3)

    d1 = make_dataset(y, mask, w)
    y2 = y.copy()
    y2[mask == 0] = 1e9  # garbage at masked cells
    d2 = make_dataset(y2, mask, w)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nu1 = impute(d1, cfg).nu_hat
        nu2 = impute(d2, cfg).nu_hat
    np.testing.assert_array_equal(nu1, nu2)


# ---------------------------------------------------------------- row fits


def sparse_dataset(rng, n=40):
    """rand_dataset with q = 2 plus three columns observed 0, 1 and 2 times:
    lowdim falls back to the mean (0 when none) for all three; the mean
    backend has none to take for the first."""
    d = rand_dataset(rng, n=n, p=6)
    mask = np.zeros((n, 3), dtype=np.int8)
    for j, k in enumerate((0, 1, 2)):
        mask[rng.permutation(n)[:k], j] = 1
    y = np.hstack([np.where(d.mask == 1, d.y_obs, 0.0), rng.normal(size=(n, 3))])
    return make_dataset(y, np.hstack([d.mask, mask]), d.w)


@pytest.mark.parametrize("backend,full_fit", [("mean", impute_mean), ("lowdim", impute_lowdim)])
def test_row_fit_on_every_row_is_the_full_sample_fit(backend, full_fit):
    """One fold whose training and prediction rows are all rows gives the
    full-sample means bit for bit, without the full-sample warnings."""
    d = sparse_dataset(np.random.default_rng(13))
    every = np.ones(d.n, dtype=bool)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want = full_fit(d)
    fallbacks = [] if backend == "mean" else ["p7", "p8"]
    assert [str(w.message) for w in caught] == ["1 all-missing column(s) imputed as zero"] + [
        f"column {pid!r}: observed count <= q, falling back to mean imputation" for pid in fallbacks
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = impute(d, ImputerConfig(backend=backend), train=every, at=every)
    np.testing.assert_array_equal(got.nu_hat, want.nu_hat)
    too_few = [False] * 6 + ([True, False, False] if backend == "mean" else [True] * 3)
    assert got.diagnostics["too_few"].tolist() == too_few


@pytest.mark.parametrize("backend", ["mean", "lowdim"])
def test_row_fit_never_reads_held_out_cells(backend):
    """Shifting the observed outcomes of the held-out rows leaves their
    means unchanged; shifting the training rows' does not."""
    rng = np.random.default_rng(14)
    d = sparse_dataset(rng)
    train = rng.random(d.n) < 0.75
    y = np.where(d.mask == 1, d.y_obs, 0.0)
    cfg = ImputerConfig(backend=backend)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base, held_out, trained = (
            impute(make_dataset(y + shift, d.mask, d.w), cfg, train=train, at=~train).nu_hat
            for shift in (0.0, np.where(train, 0.0, 100.0)[:, None], 100.0 * train[:, None])
        )
    assert base.shape == ((~train).sum(), d.p)
    np.testing.assert_array_equal(held_out, base)
    assert not np.array_equal(trained[:, :6], base[:, :6])


@pytest.mark.parametrize("backend", ["soft", "knn", "knn2", "external"])
def test_row_fit_needs_a_row_predictive_backend(backend):
    d = rand_dataset(np.random.default_rng(15), n=20)
    with pytest.raises(DataError, match="row-predictive imputer"):
        impute(d, ImputerConfig(backend, external_path="nu.csv"), train=np.arange(d.n) < 15)


def test_external_nu_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    d = rand_dataset(rng, n=6, p=3)
    nu = rng.normal(size=(6, 3))
    path = tmp_path / "nu.csv"
    with open(path, "w") as fh:
        fh.write(",".join(d.peptide_ids) + "\n")
        for row in nu:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    loaded = load_external_nu(path, d)
    np.testing.assert_allclose(loaded.nu_hat, nu)
    assert loaded.backend == "external"


def test_external_nu_shape_mismatch(tmp_path):
    rng = np.random.default_rng(12)
    d = rand_dataset(rng, n=6, p=3)
    path = tmp_path / "nu.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="expected"):
        load_external_nu(path, d)
