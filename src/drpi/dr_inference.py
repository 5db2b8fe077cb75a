"""Pseudo-outcome construction and column-batched regression inference.

Implements the six compared estimators: full-data OLS, complete-case OLS,
plugin, plugin-missing, and the two inverse-propensity debiased estimators
(conditioning on the low-dimensional covariates only, or augmented with the
remaining columns through a high-dimensional imputer).

All six are one computation.  Each method picks an observation indicator C,
a propensity delta and a conditional mean nu, builds the (n, p) matrix of
pseudo-outcomes nu + C/delta * (Y - nu), and regresses every column on W in
one batched least-squares fit:

    full            oracle Y, C = 1, delta = 1
    plugin          C = 0 (the pseudo-outcome is nu)
    plugin_missing  delta = 1
    dr_w / dr_uw    fitted delta, lowdim / augmented nu
    complete        Y itself, each column fit on its observed rows only
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import imputers, propensity
from ._linalg import _masked_least_squares, _outer_rows
from .data_model import Dataset, MethodKind, PeptideInference, SkipRecord
from .errors import DataError, NumericalError
from .imputers import ImputedMatrix, ImputerConfig
from .propensity import PropensityColumns

_DR = (MethodKind.DR_W, MethodKind.DR_UW)

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
    variance_mode: str = ""  # "" -> per-method default
    prop_tol: float = 1e-8
    prop_max_iter: int = 100
    prop_clip: float = 0.01
    imputer: ImputerConfig = field(default_factory=ImputerConfig)

    def __post_init__(self):
        if not 0 < self.prop_clip < 1:
            raise DataError("prop_clip (propensity floor) must lie in (0, 1)")
        if self.prop_max_iter < 1:
            raise DataError("prop_max_iter must be >= 1")
        if not self.prop_tol >= 0:
            raise DataError("prop_tol must be >= 0")


@dataclass(frozen=True)
class ColumnInference:
    """One estimator's target-coefficient inference for every column.

    Skipped columns have a non-empty ``skip_reason`` and NaN estimates.
    """

    beta: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p_value: np.ndarray
    degenerate: np.ndarray
    skip_reason: np.ndarray  # object array of str, "" where kept

    @property
    def kept(self) -> np.ndarray:
        return self.skip_reason == ""


def pseudo_outcomes(y, c, delta_hat, nu_hat) -> PseudoOutcome:
    """y_tilde = nu + (c / delta) * (y - nu); masked y never read.

    Arguments broadcast, so one call builds the (n, p) matrix of a method.
    """
    c = np.asarray(c, dtype=float)
    delta_hat = np.asarray(delta_hat, dtype=float)
    nu_hat = np.asarray(nu_hat, dtype=float)
    if (delta_hat <= 0).any() or (delta_hat > 1).any():
        raise DataError("delta_hat entries must lie in (0, 1]")
    weights = c / delta_hat
    y_safe = np.where(c == 1, y, 0.0)
    if not np.isfinite(y_safe).all():
        raise DataError("non-finite observed outcome")
    y_tilde = nu_hat + weights * (y_safe - np.where(c == 1, nu_hat, 0.0))
    return PseudoOutcome(y_tilde=y_tilde, weights_used=weights)


def _ols_columns(w, y, variance_mode, obs=None):
    """``_masked_least_squares`` of every column of y (n, p) on w, with its
    covariance.

    Sandwich: (W'W)^-1 [sum_i r_i^2 w_i w_i'] (W'W)^-1, the plug-in HC0
    covariance.  Homoskedastic: s^2 (W'W)^-1 with s^2 = r'r / (rows - q).
    With ``obs`` both sums run over each column's observed rows only.

    Returns (coef (p, q), cov (p, q, q), residuals (n, p), df (p,),
    singular (p,)).
    """
    w = np.asarray(w, dtype=float)
    n, q = w.shape
    if n <= q:
        raise DataError(f"need n > q, got n={n}, q={q}")
    if variance_mode not in ("sandwich", "homoskedastic"):
        raise DataError(f"unknown variance mode {variance_mode!r}")
    coef, gram_inv, singular = _masked_least_squares(w, y, obs)
    resid = y - w @ coef.T
    if obs is None:
        rows = np.full(y.shape[1], n)
    else:
        resid = np.where(obs == 1, resid, 0.0)
        rows = obs.sum(axis=0)
    if variance_mode == "sandwich":
        meat = ((resid**2).T @ _outer_rows(w)).reshape(-1, q, q)
        cov = gram_inv @ meat @ gram_inv
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma2 = (resid**2).sum(axis=0) / (rows - q)
        cov = sigma2[:, None, None] * gram_inv
    return coef, cov, resid, rows - q, singular


def ols_sandwich(
    y_tilde: np.ndarray, w: np.ndarray, variance_mode: str = "sandwich"
) -> OlsFit:
    """Least squares of one response with the plug-in sandwich or the
    homoskedastic covariance (see ``_ols_columns``)."""
    y_tilde = np.asarray(y_tilde, dtype=float)
    coef, cov, resid, _, singular = _ols_columns(w, y_tilde[:, None], variance_mode)
    if singular[0]:
        raise NumericalError("singular W'W in least squares")
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


def _default_variance(method: MethodKind) -> str:
    if method in _DR:
        return "sandwich"
    return "homoskedastic"


def _records(peptide_ids, method, est: ColumnInference):
    """(results, skips) records in column order."""
    results, skips = [], []
    for row in zip(
        peptide_ids, est.skip_reason, est.beta.tolist(), est.se.tolist(),
        est.z.tolist(), est.p_value.tolist(), est.degenerate.tolist(),
    ):
        pid, reason, beta, se, z, p, degenerate = row
        if reason:
            skips.append(SkipRecord(pid, reason))
        else:
            results.append(PeptideInference(
                peptide_id=pid, method=method, beta=beta, se=se, z=z, p_value=p,
                degenerate=degenerate,
            ))
    return results, skips


def _needs_augmented(method: MethodKind) -> bool:
    return method in (MethodKind.PLUGIN, MethodKind.PLUGIN_MISSING, MethodKind.DR_UW)


def _nuisances(d, methods, cfg, nu_hat=None, mu_hat=None, prop=None, train=None, at=None):
    """(nu_hat, mu_hat, prop), fitting those that ``methods`` need and the caller
    did not pass on the ``train`` rows, nu and mu at the ``at`` rows (see ``impute``)."""
    if nu_hat is None and any(_needs_augmented(m) for m in methods):
        nu_hat = imputers.impute(d, cfg.imputer, train, at)
    if mu_hat is None and MethodKind.DR_W in methods:
        mu_hat = imputers.impute(d, ImputerConfig(backend="lowdim"), train, at)
    if prop is None and any(m in _DR for m in methods):
        rows = slice(None) if train is None else train
        prop = propensity.fit_logistic_columns(
            d.mask[rows], d.w[rows], cfg.prop_tol, cfg.prop_max_iter, cfg.prop_clip
        )
    return nu_hat, mu_hat, prop


def _at_rows(full, rows, part):
    """``full`` (made if None) with ``part`` at ``rows``; if rows is None, ``part`` itself."""
    if rows is None:
        return part
    if full is None:
        full = np.empty((rows.size, part.shape[1]))
    full[rows] = part
    return full


def infer_columns(
    d: Dataset,
    method: MethodKind,
    cfg: InferenceConfig,
    nu_hat: ImputedMatrix = None,
    mu_hat: ImputedMatrix = None,
    prop: PropensityColumns = None,
    oracle: np.ndarray = None,
    folds: int = 0,
) -> ColumnInference:
    """Apply one estimator to all columns at once: the method's
    pseudo-outcomes, then one batched least-squares fit.

    Missing nuisances (the configured imputer for nu_hat, lowdim for mu_hat,
    a batched logistic fit of the mask for delta) are fitted on every row,
    or with ``folds`` = K (DR methods, row-predictive imputers) cross-fitted:
    each row's nu and delta come from fits on the other K - 1 folds.  Skipped
    are all-missing columns, columns too sparse on a fold's training rows,
    complete-case fits with too few rows or a singular design and DR fits of
    a column whose propensity IRLS diverged.
    """
    if method is MethodKind.FULL and oracle is None:
        raise DataError("method 'full' requires an oracle complete matrix")
    given = {"nu_hat": nu_hat and nu_hat.nu_hat, "mu_hat": mu_hat and mu_hat.nu_hat,
             "prop": prop and prop.delta_hat}
    for name, a in {**given, "oracle": oracle}.items():
        if a is not None and np.shape(a) != (d.n, d.p):
            raise DataError(f"{name} has shape {np.shape(a)}, expected ({d.n}, {d.p})")
    row_sets = [(None, None)]  # (train, test) rows of each nuisance fit; None is every row
    if folds:  # K folds dealt round-robin from a fixed permutation of the rows
        if any(a is not None for a in given.values()):
            raise DataError("cross-fitting fits its own nuisances; pass none with folds")
        if method not in _DR:
            raise DataError("cross-fitting applies to the DR estimators only")
        if folds < 2:
            raise DataError("need at least 2 folds")
        if d.n // folds <= d.q:
            raise DataError(f"fold size {d.n // folds} too small for q={d.q}")
        fold_of = np.empty(d.n, dtype=int)
        fold_of[np.random.default_rng(0).permutation(d.n)] = np.arange(d.n) % folds
        row_sets = [(fold_of != k, fold_of == k) for k in range(folds)]

    nu = delta = None
    few = diverged = np.zeros(d.p, dtype=bool)
    for train, test in row_sets:
        nu_k, mu_k, prop_k = _nuisances(d, (method,), cfg, nu_hat, mu_hat, prop, train, test)
        source = mu_k if method is MethodKind.DR_W else nu_k
        if source is not None:
            nu = _at_rows(nu, test, source.nu_hat)
            few = few | source.diagnostics.get("too_few", False)
        if method in _DR:
            delta_k = prop_k.delta_hat if test is None else prop_k.predict(d.w[test])
            delta = _at_rows(delta, test, delta_k)
            diverged = diverged | prop_k.diverged
    reasons = np.full(d.p, "", dtype=object)
    reasons[few] = "too few observed training rows"
    if method in _DR:
        reasons[diverged] = "propensity IRLS diverged"
        bad = reasons != ""  # their nu and delta columns must still be finite
        nu, delta = np.where(bad, 0.0, nu), np.where(bad, 1.0, delta)

    tcol = d.covariate_index(cfg.target)
    variance_mode = cfg.variance_mode or _default_variance(method)
    obs = None
    if method is MethodKind.FULL:
        response = pseudo_outcomes(oracle, 1.0, 1.0, 0.0).y_tilde
    elif method is MethodKind.COMPLETE:
        response, obs = d.y_obs, d.mask
    elif method is MethodKind.PLUGIN:
        response = pseudo_outcomes(d.y_obs, 0.0, 1.0, nu).y_tilde
    elif method is MethodKind.PLUGIN_MISSING:
        response = pseudo_outcomes(d.y_obs, d.mask, 1.0, nu).y_tilde
    elif method in _DR:
        response = pseudo_outcomes(d.y_obs, d.mask, delta, nu).y_tilde
    else:
        raise DataError(f"unknown method {method!r}")

    coef, cov, _, df, singular = _ols_columns(d.w, response, variance_mode, obs)
    beta = coef[:, tcol]
    se = np.sqrt(np.maximum(cov[:, tcol, tcol], 0.0))
    z, p_value, degenerate = _p_values(beta, se, variance_mode, df)

    if obs is not None:
        rows = d.mask.sum(axis=0)
        reasons[singular] = "singular complete-case design"
        short = rows < d.q + 2
        reasons[short] = [f"complete-case rows {r} < q+2" for r in rows[short]]
    if method is not MethodKind.FULL:
        reasons[~d.mask.any(axis=0)] = "all entries missing"
    skipped = reasons != ""
    beta, se, z, p_value = (np.where(skipped, np.nan, a) for a in (beta, se, z, p_value))
    return ColumnInference(
        beta=beta,
        se=se,
        z=z,
        p_value=p_value,
        degenerate=degenerate & ~skipped,
        skip_reason=reasons,
    )


def infer_all(
    d: Dataset,
    method: MethodKind,
    cfg: InferenceConfig,
    nu_hat: ImputedMatrix = None,
    mu_hat: ImputedMatrix = None,
    prop: PropensityColumns = None,
    oracle: np.ndarray = None,
    folds: int = 0,
):
    """``infer_columns`` as records: (results, skips) in column order."""
    est = infer_columns(d, method, cfg, nu_hat, mu_hat, prop, oracle, folds)
    return _records(d.peptide_ids, method, est)
