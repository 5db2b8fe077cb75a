"""Pluggable conditional-mean imputers.

All backends return a fully dense fitted-mean matrix and never read a
masked cell of the outcome matrix.  The soft-impute backend serves as the
default augmented imputer; an externally computed matrix (e.g. from a deep
generative model) can be ingested through ``load_external_nu``.  Only mean
and lowdim are row-predictive: they can be fitted on some rows and predict
at others, which cross-fitting needs (``impute(d, cfg, train, at)``).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._linalg import _masked_least_squares
from .data_model import Dataset, _read_matrix
from .errors import DataError


@dataclass(frozen=True)
class ImputedMatrix:
    """Dense n x p matrix of fitted conditional means (of a row fit: its ``at`` rows)."""

    nu_hat: np.ndarray
    backend: str
    converged: bool = True
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        nu = np.asarray(self.nu_hat, dtype=float)
        if not np.isfinite(nu).all():
            raise DataError("imputed matrix contains non-finite values")
        nu.setflags(write=False)
        object.__setattr__(self, "nu_hat", nu)


BACKENDS = ("mean", "lowdim", "soft", "knn", "knn2", "external")


@dataclass
class ImputerConfig:
    backend: str = "soft"  # one of BACKENDS
    rank_penalty: float = float("nan")  # soft-impute lambda; NaN = auto
    max_rank: int = 10
    k_neighbors: int = 10
    max_iter: int = 500
    tol: float = 1e-5
    external_path: str = ""

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise DataError(f"unknown imputer backend {self.backend!r}")
        if self.k_neighbors < 1:
            raise DataError("k_neighbors must be >= 1")
        if self.max_rank < 0:
            raise DataError("max_rank (soft-impute rank cap) must be >= 0")
        if self.rank_penalty < 0:
            raise DataError("rank_penalty (soft-impute lambda) must be >= 0")
        if self.max_iter < 1:
            raise DataError("max_iter (soft-impute iterations) must be >= 1")
        if not self.tol >= 0:
            raise DataError("tol (soft-impute tolerance) must be >= 0")
        if self.backend == "external" and not self.external_path:
            raise DataError("the external imputer needs external_path, its fitted-means CSV")


def check_shape(backend: str, cfg: ImputerConfig, n: int, p: int) -> None:
    """Raise DataError if ``backend`` cannot fit an n x p matrix under
    ``cfg``: soft-impute needs max_rank <= min(n, p), knn and knn2 need
    k_neighbors < p."""
    if backend == "soft" and cfg.max_rank > min(n, p):
        raise DataError("max_rank exceeds min(n, p)")
    if backend in ("knn", "knn2") and cfg.k_neighbors >= p:
        raise DataError("k_neighbors must be < p")


def _column_means(d: Dataset, train=None) -> np.ndarray:
    """Observed mean of each column on the ``train`` rows (None: all, warned), or 0."""
    rows = slice(None) if train is None else train
    mask = d.mask[rows]
    sums = np.where(mask == 1, d.y_obs[rows], 0.0).sum(axis=0)
    return _means(sums, mask.sum(axis=0), warn=train is None)


def _means(sums, counts, warn) -> np.ndarray:
    """sums / counts per column, 0 where a column has no observed cell (warned if ``warn``)."""
    means = np.zeros(len(sums))
    nz = counts > 0
    means[nz] = sums[nz] / counts[nz]
    if warn and (~nz).any():
        warnings.warn(f"{(~nz).sum()} all-missing column(s) imputed as zero")
    return means


def _row_fit(d: Dataset, backend: str, train=None, at=None):
    """(means at the ``at`` rows, too-few (p,) mask) of the mean or lowdim backend
    fit on the ``train`` rows (boolean masks; None is every row).  Too few is none
    observed, or for lowdim at most q, which then takes the mean; every-row fits warn."""
    rows = slice(None) if train is None else train
    mask, w_at = d.mask[rows], d.w if at is None else d.w[at]
    counts = mask.sum(axis=0)
    if backend == "mean":
        return np.tile(_column_means(d, train), (len(w_at), 1)), counts == 0
    few = counts <= d.q
    # a column copy even if every column fits: pinned full-sample outputs round in its F order
    y, obs = d.y_obs[rows][:, ~few], mask[:, ~few]
    y[obs == 0] = 0.0  # in place, keeping that order
    coef = _masked_least_squares(d.w[rows], y, obs, inverse=False)[0]
    nu = np.empty((len(w_at), d.p))
    nu[:, ~few] = w_at @ coef.T
    if few.any():  # warns about all-missing columns, before the rest below
        nu[:, few] = _column_means(d, train)[few]
    if train is None:
        for j in np.flatnonzero(few & (counts > 0)):
            pid = d.peptide_ids[j]
            warnings.warn(f"column {pid!r}: observed count <= q, falling back to mean imputation")
    return nu, few


def _lowdim_matrix(d: Dataset) -> np.ndarray:
    return _row_fit(d, "lowdim")[0]


def impute_lowdim(d: Dataset) -> ImputedMatrix:
    """Fitted means from per-column least squares on the covariates only."""
    return ImputedMatrix(_lowdim_matrix(d), backend="lowdim")


# default soft-impute penalty as a fraction of the residual matrix's top
# singular value; strong enough to keep same-data nuisance fits from
# overfitting their own column's noise
SOFT_LAMBDA_FRACTION = 0.1


def _svd_soft_threshold(x: np.ndarray, lam: float, max_rank: int):
    """Singular-value soft-thresholding of x, keeping at most max_rank
    components; returns (thresholded matrix, its rank).

    The singular values and right (tall x) or left (wide x) singular vectors
    come from one eigendecomposition of the smaller Gram matrix, and the
    kept components are rebuilt from x itself, so the n x p factor of an SVD
    is never formed.  Squaring the conditioning perturbs singular values
    near sqrt(eps) * sigma_1 by about their own size, which matters only
    for a lambda that small.
    """
    tall = x.shape[0] >= x.shape[1]
    evals, vecs = np.linalg.eigh(x.T @ x if tall else x @ x.T)
    s = np.sqrt(np.maximum(evals[::-1], 0.0))
    shrunk = np.maximum(s[:max_rank] - lam, 0.0)
    r = int(np.count_nonzero(shrunk))
    if r == 0:
        return np.zeros_like(x), 0
    vecs = vecs[:, ::-1][:, :r]
    scale = shrunk[:r] / s[:r]
    if tall:
        return ((x @ vecs) * scale) @ vecs.T, r
    return vecs @ ((vecs.T @ x) * scale[:, None]), r


def impute_soft(d: Dataset, cfg: ImputerConfig = None) -> ImputedMatrix:
    """Low-rank completion of covariate-residualized outcomes.

    Observed entries are residualized on W column-wise; soft-impute then
    minimizes 1/2 ||P_obs(R - Z)||^2 + lambda ||Z||_* under the rank cap by
    accelerated proximal gradient with gradient restart (O'Donoghue &
    Candes 2015): each step soft-thresholds the residuals with their missing
    cells filled from a Nesterov extrapolation of the last two iterates, and
    the momentum resets when the step points uphill (has a positive inner
    product with the gradient mapping).  The filled matrix is rebuilt in one
    buffer as ``miss * y + resid`` (``miss`` the 0/1 missing indicator),
    which equals ``where(obs, resid, y)`` bit for bit because the residuals
    are 0 where missing.  It stops when the relative Frobenius change falls
    below tol.  The fitted means are the W-regression
    fit plus the completed residuals.  ``diagnostics`` records ``lambda``,
    ``iterations``, ``rank`` (of the completed residuals) and ``rel_change``
    (the last relative Frobenius change).
    """
    cfg = cfg or ImputerConfig(backend="soft")
    check_shape("soft", cfg, d.n, d.p)
    wfit = _lowdim_matrix(d)
    obs = d.mask == 1
    resid = np.where(obs, d.y_obs - wfit, 0.0)

    lam = cfg.rank_penalty
    if not np.isfinite(lam):
        lam = SOFT_LAMBDA_FRACTION * np.linalg.svd(resid, compute_uv=False)[0]

    z = y = np.zeros_like(resid)
    miss = (~obs).astype(float)
    filled = np.empty_like(resid)
    t = 1.0
    converged = False
    iterations, rank, rel_change = 0, 0, float("nan")
    for iterations in range(1, cfg.max_iter + 1):
        np.multiply(miss, y, out=filled)  # resid is 0 where missing
        filled += resid
        z_new, rank = _svd_soft_threshold(filled, lam, cfg.max_rank)
        step = z_new - z
        delta = math.sqrt(np.vdot(step, step))
        if np.vdot(y - z_new, step) > 0:  # momentum points uphill: restart
            t = 1.0
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = z_new + ((t - 1.0) / t_new) * step
        z, t = z_new, t_new
        scale = max(math.sqrt(np.vdot(z, z)), 1.0)
        rel_change = delta / scale
        if delta <= cfg.tol * scale:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"soft-impute did not converge in {iterations} iterations "
            f"(relative change {rel_change:.3g}, tol {cfg.tol:g}); "
            f"returning last iterate"
        )
    return ImputedMatrix(
        wfit + z,
        backend="soft",
        converged=converged,
        diagnostics={
            "lambda": lam,
            "iterations": iterations,
            "rank": rank,
            "rel_change": rel_change,
        },
    )


def _counting(a):
    """The 0/1 matrix ``a`` as float32 while it has fewer than 2**24 rows and
    columns, else float64.  A product's sums then run over at most 2**24 - 1
    ones, so every partial sum is an integer float32 holds exactly: the
    result equals float64's bit for bit, at about twice the speed."""
    return a.astype(np.float32 if max(a.shape) < 2**24 else float)


def _pairwise_stats(obs, yz):
    """Co-observed counts, pairwise means, and correlations between columns,
    from the 0/1 observation matrix and the outcomes zeroed where missing.

    Built in place, so at most five (p, p) float arrays are live at once.
    """
    ones = _counting(obs)
    counts = ones.T @ ones  # co-observed counts
    mean_a = yz.T @ obs  # sum of col a over rows co-observed with col b
    cov = yz.T @ yz
    var_a = (yz**2).T @ obs
    tmp = np.empty_like(cov)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_a /= counts
        cov /= counts
        cov -= np.multiply(mean_a, mean_a.T, out=tmp)
        var_a /= counts
        var_a -= np.square(mean_a, out=tmp)
        np.multiply(var_a, var_a.T, out=tmp)
        del var_a
        cov /= np.sqrt(tmp, out=tmp)
    del tmp
    cov[~np.isfinite(cov)] = 0.0
    return counts, mean_a, cov


def _top_k(sim, k):
    """Boolean matrix of each row's first k columns in a stable descending
    sort of ``sim`` (equal values in column order), less the columns whose
    similarity is not finite.  ``sim`` holds no NaN.

    One ``np.partition`` finds each row's k-th largest value; every column
    above it is kept, and ties at it are admitted in column order until k
    are chosen.
    """
    kth = np.partition(sim, sim.shape[1] - k, axis=1)[:, -k, None]
    top = sim > kth
    tie = sim == kth
    need = k - top.sum(axis=1)
    crowded = np.flatnonzero(tie.sum(axis=1) > need)
    tie[crowded] &= np.cumsum(tie[crowded], axis=1) <= need[crowded, None]
    top |= tie
    top &= np.isfinite(sim)
    return top


def impute_knn(d: Dataset, cfg: ImputerConfig = None) -> ImputedMatrix:
    """Mean of the k most-correlated peptide columns, mean-adjusted per pair.

    Similarity is the Pearson correlation over co-observed rows (minimum
    overlap 3, otherwise the pair is ignored).  Transferred values are
    shifted by the pairwise co-observed column means so a duplicate column
    reproduces its twin exactly.  With ``cfg.backend == "knn2"`` the missing
    cells are then re-imputed from the k closest samples of the filled
    matrix.
    """
    cfg = cfg or ImputerConfig(backend="knn")
    check_shape("knn", cfg, d.n, d.p)
    k = cfg.k_neighbors
    obs = d.mask.astype(float)
    yz = np.where(d.mask == 1, d.y_obs, 0.0)
    counts, mean_a, sim = _pairwise_stats(obs, yz)
    sim[counts < 3] = -np.inf  # overlap below 3 rows: pair carries no signal
    del counts
    np.fill_diagonal(sim, -np.inf)  # a column is never its own neighbor

    # nbr[j, l]: column l is one of j's k most similar, with finite similarity
    nbr = _top_k(sim, k)
    # transferred value from neighbor l at row i:
    #   mean_j|co(j,l) + (y_il - mean_l|co(j,l));
    # np.where, not a product: never co-observed pairs have NaN means
    shift = np.where(nbr, mean_a - mean_a.T, 0.0)
    # one C-ordered float copy for both products: at small p, BLAS takes
    # other kernels for a transposed operand, which round differently
    nbr_t = np.ascontiguousarray(nbr.T, dtype=float)
    wts = _counting(obs) @ _counting(nbr_t)
    vals = yz @ nbr_t + obs @ shift.T
    fallback = _means(yz.sum(axis=0), obs.sum(axis=0), warn=True)
    nu = np.where(wts > 0, vals / np.maximum(wts, 1.0), fallback)

    backend = "knn2" if cfg.backend == "knn2" else "knn"
    if backend == "knn2":
        # fill missing cells, then re-impute them from the closest samples
        filled = np.where(d.mask == 1, d.y_obs, nu)
        centered = filled - filled.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1)
        norms[norms == 0] = 1.0
        unit = centered / norms[:, None]
        rowsim = unit @ unit.T
        np.fill_diagonal(rowsim, -np.inf)
        kk = min(k, d.n - 1)
        near = _top_k(rowsim, kk).astype(float)
        nu = np.where(d.mask == 1, nu, (near @ filled) / kk)

    return ImputedMatrix(nu, backend=backend)


def load_external_nu(path, d: Dataset) -> ImputedMatrix:
    """Ingest an externally imputed matrix CSV whose header is d's peptide
    ids, in d's column order."""
    nu = _read_matrix(path, d.peptide_ids, d.n, "external matrix")
    return ImputedMatrix(nu, backend="external")


def impute(d: Dataset, cfg: ImputerConfig, train=None, at=None) -> ImputedMatrix:
    """Dispatch on cfg.backend.  Given a boolean row mask ``train``, a row-predictive
    backend is fit on those rows only; it returns its means at the ``at`` rows (every
    row if None), with ``_row_fit``'s too-few columns as ``diagnostics["too_few"]``."""
    if cfg.backend in ("mean", "lowdim"):
        nu, few = _row_fit(d, cfg.backend, train, at)
        diagnostics = {} if train is None else {"too_few": few}
        return ImputedMatrix(nu, cfg.backend, diagnostics=diagnostics)
    if train is not None:
        raise DataError("cross-fitting needs a row-predictive imputer (mean/lowdim), "
                        f"got {cfg.backend!r}")
    if cfg.backend == "soft":
        return impute_soft(d, cfg)
    if cfg.backend in ("knn", "knn2"):
        return impute_knn(d, cfg)
    if cfg.backend == "external":
        return load_external_nu(cfg.external_path, d)
    raise DataError(f"unknown imputer backend {cfg.backend!r}")  # a field set after construction
