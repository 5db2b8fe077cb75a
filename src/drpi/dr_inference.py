"""Pseudo-outcome construction and column-batched regression inference.

Implements the six compared estimators: full-data OLS, complete-case OLS,
plugin, plugin-missing, and the two inverse-propensity debiased estimators
(conditioning on the low-dimensional covariates only, or augmented with the
remaining columns through a high-dimensional imputer).

All six are one computation: the (n, p) matrix of pseudo-outcomes
nu + C/delta * (Y - nu), every column regressed on W in one batched
least-squares fit.  The methods differ only in the (nu, C, delta) they plug
in and their default variance, one row each of ``_METHODS``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import imputers, propensity
from ._linalg import _centred, _normal_equations, _outer_rows, _uncentre
from .data_model import ColumnInference, Dataset, MethodKind
from .errors import DataError
from .imputers import ImputedMatrix, ImputerConfig
from .propensity import PropensityColumns

VARIANCE_MODES = ("", "sandwich", "homoskedastic")  # "" -> the method's default


class _Method(NamedTuple):
    nu: str  # "imputer" (the configured one), "lowdim", "oracle" or "zero"
    masked: bool  # C is the observation mask; otherwise 0
    fitted_delta: bool  # delta is the fitted propensity; otherwise 1
    variance: str  # default variance mode


# nu = 0 models no missing cell, so complete-case fits each column on its
# observed rows only
_METHODS = {
    MethodKind.FULL: _Method("oracle", False, False, "homoskedastic"),
    MethodKind.COMPLETE: _Method("zero", True, False, "homoskedastic"),
    MethodKind.PLUGIN: _Method("imputer", False, False, "homoskedastic"),
    MethodKind.PLUGIN_MISSING: _Method("imputer", True, False, "homoskedastic"),
    MethodKind.DR_W: _Method("lowdim", True, True, "sandwich"),
    MethodKind.DR_UW: _Method("imputer", True, True, "sandwich"),
}

_erfc = np.frompyfunc(math.erfc, 1, 1)  # the normal reference without scipy


@dataclass(frozen=True)
class PseudoOutcome:
    y_tilde: np.ndarray
    weights_used: np.ndarray  # C_i / delta_i


@dataclass(frozen=True)
class OlsFit:
    beta: np.ndarray
    cov: np.ndarray  # covariance of beta (already scaled by 1/n)
    residuals: np.ndarray
    variance_mode: str


@dataclass
class InferenceConfig:
    """Knobs shared by the inference functions."""

    target: str = "a"
    variance_mode: str = ""  # one of VARIANCE_MODES
    prop_tol: float = 1e-8
    prop_max_iter: int = 100
    prop_clip: float = 0.01
    imputer: ImputerConfig = field(default_factory=ImputerConfig)

    def __post_init__(self):
        if self.variance_mode not in VARIANCE_MODES:
            raise DataError(f"unknown variance mode {self.variance_mode!r}")
        if not 0 < self.prop_clip < 1:
            raise DataError("prop_clip (propensity floor) must lie in (0, 1)")
        if self.prop_max_iter < 1:
            raise DataError("prop_max_iter must be >= 1")
        if not self.prop_tol >= 0:
            raise DataError("prop_tol must be >= 0")


def pseudo_outcomes(y, c, delta_hat, nu_hat) -> PseudoOutcome:
    """y_tilde = nu + (c / delta) * (y - nu); masked y never enters y_tilde.

    Arguments broadcast, so one call builds the (n, p) matrix of a method.
    Raises DataError for a delta outside (0, 1], NaN included, and for a
    non-finite observed y or nu.
    """
    c = np.asarray(c, dtype=float)
    delta_hat = np.asarray(delta_hat, dtype=float)
    nu_hat = np.asarray(nu_hat, dtype=float)
    if not ((delta_hat > 0) & (delta_hat <= 1)).all():  # NaN fails both
        raise DataError("delta_hat entries must lie in (0, 1]")
    weights = c / delta_hat
    observed = c == 1
    resid = _residuals(np.where(observed, y, 0.0), observed, nu_hat)
    return PseudoOutcome(y_tilde=_augmented(nu_hat, weights, resid), weights_used=weights)


def _residuals(y0, obs, nu_hat):
    """(y - nu) * obs for a 0/1 ``obs``, from ``y0``: y with every cell off
    obs set to 0, so a masked y is never read.  Refuses a non-finite
    residual, hence a non-finite nu anywhere."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        resid = y0 - nu_hat
        resid *= obs
    if not np.isfinite(resid).all():
        raise DataError("non-finite observed outcome or nu_hat")
    return resid


def _augmented(nu_hat, weights, resid, out=None):
    """nu + weights * resid, written to ``out`` if given.  ``out``, or
    weights * resid, spans nu's shape, as residuals from ``_residuals`` do."""
    out = np.multiply(weights, resid, out=out)
    out += nu_hat
    return out


def _ols_columns(w, y, variance_mode, obs=None):
    """Least squares of every column of y (n, p) on w, with its covariance,
    both formed on ``_centred`` w and mapped back once.

    Sandwich: (W'W)^-1 [sum_i r_i^2 w_i w_i'] (W'W)^-1, the plug-in HC0
    covariance.  Homoskedastic: s^2 (W'W)^-1 with s^2 = r'r / (rows - q).
    With ``obs`` both sums run over each column's observed rows only.

    Returns (coef (p, q), cov (p, q, q), df (p,), singular (p,)).  One
    (n, p) array is made: the residuals, masked and squared in place.
    """
    w = np.asarray(w, dtype=float)
    n, q = w.shape
    if n <= q:
        raise DataError(f"need n > q, got n={n}, q={q}")
    if variance_mode not in VARIANCE_MODES[1:]:
        raise DataError(f"unknown variance mode {variance_mode!r}")
    wc, back = _centred(w)
    coef, gram_inv, singular = _normal_equations(wc, y, obs)
    resid = wc @ coef.T
    np.subtract(y, resid, out=resid)
    if obs is None:
        rows = np.full(y.shape[1], n)
    else:
        resid *= obs  # y is 0 off obs, so the residual there is finite
        rows = obs.sum(axis=0)
    sq = np.square(resid, out=resid)
    if variance_mode == "sandwich":
        meat = (sq.T @ _outer_rows(wc)).reshape(-1, q, q)
        cov = gram_inv @ meat @ gram_inv
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma2 = sq.sum(axis=0) / (rows - q)
        cov = sigma2[:, None, None] * gram_inv
    _uncentre(back, coef, cov)
    return coef, cov, rows - q, singular


def ols_sandwich(
    y_tilde: np.ndarray, w: np.ndarray, variance_mode: str = "sandwich"
) -> OlsFit:
    """Least squares of one response with the plug-in sandwich or the
    homoskedastic covariance (see ``_ols_columns``); a singular W is a DataError."""
    y = np.asarray(y_tilde, dtype=float)[:, None]
    coef, cov, _, singular = _ols_columns(w, y, variance_mode)
    if singular[0]:
        raise DataError("singular W'W in least squares")
    resid = y - np.asarray(w, dtype=float) @ coef.T
    return OlsFit(
        beta=coef[0], cov=cov[0], residuals=resid[:, 0], variance_mode=variance_mode
    )


def _p_values(beta, se, variance_mode, df):
    """Two-sided p-values of z = beta / se.

    The sandwich estimator is asymptotic and takes the standard normal
    reference, erfc(|z| / sqrt 2) from ``math.erfc``.  The homoskedastic
    variance takes Student-t with ``df`` degrees of freedom,
    2 * stdtr(df, -|z|) from ``scipy.special``.  A zero se (perfect fit) is
    flagged degenerate, with z = +-inf (p = 0), or z = 0 (p = 1) when beta
    is 0."""
    degenerate = ~(se > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = beta / se
    if variance_mode == "sandwich":
        p = _erfc(np.abs(z) / math.sqrt(2.0)).astype(float)
    else:
        from scipy.special import stdtr  # most of the CLI's start-up time; only Student-t needs it

        p = 2.0 * stdtr(df, -np.abs(z))
    zero = beta == 0.0
    z = np.where(degenerate, np.where(zero, 0.0, np.copysign(np.inf, beta)), z)
    p = np.where(degenerate, np.where(zero, 1.0, 0.0), p)
    return z, p, degenerate


def _nuisances(d, specs, cfg, nu_hat=None, prop=None, train=None, at=None):
    """({nu source: its fit}, propensity or None) for the ``_METHODS`` rows
    ``specs``.

    Each imputer that one of them needs ("imputer" or "lowdim") is fitted
    once on the ``train`` rows, predicting at the ``at`` rows (see
    ``impute``), and the propensity likewise once if one of them fits delta.
    A passed ``nu_hat`` (the nu of every method that imputes) or ``prop`` is
    used as given, never refit.
    """
    sources = {"imputer": cfg.imputer, "lowdim": ImputerConfig(backend="lowdim")}
    fits = {
        source: nu_hat or imputers.impute(d, imputer, train, at)
        for source, imputer in sources.items() if any(spec.nu == source for spec in specs)
    }
    if prop is None and any(spec.fitted_delta for spec in specs):
        sub = slice(None) if train is None else train
        prop = propensity.fit_logistic_columns(
            d.mask[sub], d.w[sub], cfg.prop_tol, cfg.prop_max_iter, cfg.prop_clip,
            at=None if at is None else d.w[at],
        )
    return fits, prop


def _at_rows(full, rows, part):
    """``full`` (made if None) with ``part`` at ``rows``; if rows is None, ``part`` itself."""
    if rows is None:
        return part
    if full is None:
        full = np.empty((rows.size, part.shape[1]))
    full[rows] = part
    return full


def infer_methods(
    d: Dataset,
    methods,
    cfg: InferenceConfig,
    nu_hat: ImputedMatrix = None,
    prop: PropensityColumns = None,
    oracle: np.ndarray = None,
    folds: int = 0,
) -> dict:
    """Apply the estimators ``methods`` to all columns at once:
    {method: ColumnInference}, in the order given.

    The nuisances the methods need are fitted once and shared.  Each
    method's pseudo-outcomes are one block of a stacked response, and each
    fit group (W with the homoskedastic variance, W with the sandwich, the
    complete-case fit on each column's observed rows) is one batched
    least-squares fit with one p-value pass.  Every block is fitted and
    tested exactly as it would be alone, so the result of each method is
    bitwise that of ``infer_columns`` on it.

    ``nu_hat`` is the nu of every method that imputes (see ``_METHODS``;
    full and complete-case ignore it).  Missing nuisances (nu from the
    configured imputer or lowdim, delta from a batched logistic fit of the
    mask) are fitted on every row, or with ``folds`` = K (DR methods,
    row-predictive imputers) cross-fitted: each row's nu and delta come from
    fits on the other K - 1 folds.  Skipped are all-missing columns, columns
    too sparse on a fold's training rows and complete-case fits with too few
    rows or a singular design.
    """
    specs = {m: _METHODS[m] for m in methods}
    tcol = d.covariate_index(cfg.target)
    if any(spec.nu == "oracle" for spec in specs.values()) and (
        oracle is None or not np.isfinite(oracle).all()
    ):
        raise DataError("method 'full' requires a finite oracle complete matrix")
    given = {"nu_hat": nu_hat and nu_hat.nu_hat, "prop": prop and prop.delta_hat}
    for name, a in {**given, "oracle": oracle}.items():
        if a is not None and np.shape(a) != (d.n, d.p):
            raise DataError(f"{name} has shape {np.shape(a)}, expected ({d.n}, {d.p})")
    row_sets = [(None, None)]  # (train, test) rows of each nuisance fit; None is every row
    if folds:  # K folds dealt round-robin from a fixed permutation of the rows
        if any(a is not None for a in given.values()):
            raise DataError("cross-fitting fits its own nuisances; pass none with folds")
        if not all(spec.fitted_delta for spec in specs.values()):
            raise DataError("cross-fitting applies to the DR estimators only")
        if folds < 2:
            raise DataError("need at least 2 folds")
        if d.n // folds <= d.q:
            raise DataError(f"fold size {d.n // folds} too small for q={d.q}")
        fold_of = np.empty(d.n, dtype=int)
        fold_of[np.random.default_rng(0).permutation(d.n)] = np.arange(d.n) % folds
        row_sets = [(fold_of != k, fold_of == k) for k in range(folds)]

    nus = {"oracle": oracle, "zero": 0.0}  # nu source -> its (n, p) nu
    delta = None
    few = {}  # nu source -> (p,) too few observed training rows
    for train, test in row_sets:
        fits, prop_k = _nuisances(d, specs.values(), cfg, nu_hat, prop, train, test)
        for source, fit in fits.items():
            nus[source] = _at_rows(nus.get(source), test, fit.nu_hat)
            few[source] = few.get(source, False) | fit.diagnostics.get("too_few", False)
        if prop_k is not None:
            delta = _at_rows(delta, test, prop_k.delta_hat)

    groups = {}  # (complete-case, variance mode) -> its methods, in order
    for m, spec in specs.items():
        key = (spec.nu == "zero", cfg.variance_mode or spec.variance)
        groups.setdefault(key, []).append(m)
    c = d.mask  # C; a 0/1 factor or dividend gives the same floats as its float copy
    y0 = np.where(c == 1, d.y_obs, 0.0)
    resid = {}  # nu source -> its masked residuals, shared by the masked methods
    all_missing = ~d.mask.any(axis=0)
    results = {}
    for (complete, variance_mode), group in groups.items():
        blocks = [slice(k * d.p, (k + 1) * d.p) for k in range(len(group))]
        response = np.empty((d.n, len(group) * d.p))
        for m, block in zip(group, blocks):  # no block's temporaries outlive it
            spec = specs[m]
            if not spec.masked:  # C = 0: the response is nu
                _augmented(nus[spec.nu], 0.0, 0.0, out=response[:, block])
                continue
            if spec.nu not in resid:
                resid[spec.nu] = _residuals(y0, c, nus[spec.nu])
            _augmented(
                nus[spec.nu], c / delta if spec.fitted_delta else c,  # C/1 is C
                resid[spec.nu], out=response[:, block],
            )
        obs = d.mask if complete else None  # complete-case is alone in its group
        coef, cov, df, singular = _ols_columns(d.w, response, variance_mode, obs)
        beta = coef[:, tcol]
        se = np.sqrt(np.maximum(cov[:, tcol, tcol], 0.0))
        z, p_value, degenerate = _p_values(beta, se, variance_mode, df)

        for m, block in zip(group, blocks):
            spec = specs[m]
            reasons = np.full(d.p, "", dtype=object)
            reasons[few.get(spec.nu, False)] = "too few observed training rows"
            if complete:
                rows = d.mask.sum(axis=0)
                reasons[singular[block]] = "singular complete-case design"
                short = rows < d.q + 2
                reasons[short] = [f"complete-case rows {r} < q+2" for r in rows[short]]
            if spec.nu != "oracle":  # the oracle has every cell
                reasons[all_missing] = "all entries missing"
            skipped = reasons != ""
            results[m] = ColumnInference(
                *(np.where(skipped, np.nan, a[block]) for a in (beta, se, z, p_value)),
                degenerate[block] & ~skipped, reasons,
            )
    return {m: results[m] for m in specs}


def infer_columns(
    d: Dataset,
    method: MethodKind,
    cfg: InferenceConfig,
    nu_hat: ImputedMatrix = None,
    prop: PropensityColumns = None,
    oracle: np.ndarray = None,
    folds: int = 0,
) -> ColumnInference:
    """Apply one estimator to all columns at once: the method's
    pseudo-outcomes, then one batched least-squares fit.

    The one-method case of ``infer_methods``; ``nu_hat`` is the method's own
    nu, and the nuisances, folds and skips are as described there.
    """
    return infer_methods(d, (method,), cfg, nu_hat, prop, oracle, folds)[method]
