"""Logistic observation-probability models fit by IRLS with step-halving.

``fit_logistic_columns`` fits every column of a 0/1 matrix at once.  A
column's arithmetic is elementwise or a reduction along its own row, never
a BLAS call that mixes columns, so a column gets bit-for-bit the same fit
whatever else is in the batch; ``fit_logistic`` is the one-column case.
That matters because the step-halving test compares log-likelihoods that
agree to rounding near the optimum.

When W has an intercept (the first column holding the same nonzero value
v on every row, as ``_linalg._constant_columns`` finds it), each column
starts at its intercept-only MLE: coefficient logit(r)/v for its observed
rate r, every probability r, log-likelihood n (r log r + (1-r) log(1-r)).
That start is closed form, so it costs no pass of exp over the (p, n)
array, and it saves about one Newton step per column over a start at
zero, which a W without an intercept keeps.

Each linear predictor eta is evaluated with one ``exp(-|eta|)``, which
gives both the probabilities and the log-likelihood (``_prob_loglik``); the
accepted step's probabilities carry into the next iteration.  The linear
predictors, the score and the unique Hessian entries are ``np.einsum``
contractions (not BLAS): each output entry sums one column's own row, over
the rows or, for eta, over the covariates, with no (p, ., n) temporary.  A
column whose Newton decrement ``0.5 * score' H^-1 score`` (the gain the
quadratic model predicts for the full step) is within the log-likelihood
tolerance takes the full step and stops: a line search there would only
compare rounding noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import _constant_columns, _solve_or_pinv
from .errors import DataError

STEP_HALVINGS = 50


def _exp_sigmoid(eta: np.ndarray):
    """(exp(-|eta|), sigmoid(eta)): 1 / (1 + e) for eta >= 0, e / (1 + e)
    below, so no exp overflows."""
    e = np.abs(eta)
    np.negative(e, out=e)
    np.exp(e, out=e)
    prob = np.where(eta >= 0, 1.0, e)
    prob /= 1.0 + e
    return e, prob


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return _exp_sigmoid(eta)[1]


def _prob_loglik(c, eta):
    """(sigmoid(eta), sum c*eta - log(1 + exp(eta)) over the last axis) from
    one exp(-|eta|)."""
    e, prob = _exp_sigmoid(eta)
    ll = (c * eta).sum(axis=-1)
    np.log1p(e, out=e)
    e += np.maximum(eta, 0.0)
    ll -= e.sum(axis=-1)
    return prob, ll


def _eta(wt: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """(p, n) linear predictors coef[j] @ wt, wt the (q, n) transpose of
    the covariates; pass it contiguous, as a strided w.T is several times
    slower."""
    return np.einsum("jk,kn->jn", coef, wt)


def _propensity(w, coef, separated, constant, clip_floor):
    """(m, p) fitted probabilities at the rows of w (m, q) of the p fits
    ``coef`` (p, q): each column's sigmoid of its linear predictor, or a
    separated column's constant, clipped to [clip_floor, 1]."""
    wt = np.ascontiguousarray(np.atleast_2d(np.asarray(w, dtype=float)).T)
    if wt.shape[0] != coef.shape[1]:
        raise DataError(f"covariate count {wt.shape[0]} does not match fit ({coef.shape[1]})")
    pred = _sigmoid(_eta(wt, coef)).T
    pred[:, separated] = constant[separated]
    return np.clip(pred, clip_floor, 1.0)


@dataclass(frozen=True)
class PropensityFit:
    """Fitted logistic model with clipped observation probabilities."""

    coef: np.ndarray
    delta_hat: np.ndarray  # clipped to [clip_floor, 1]
    clip_floor: float
    converged: bool
    iterations: int
    separated: bool = False
    constant_value: float = float("nan")  # set when separated

    def predict(self, w_new: np.ndarray) -> np.ndarray:
        sep, const = np.array([self.separated]), np.array([self.constant_value])
        return _propensity(w_new, self.coef[None], sep, const, self.clip_floor)[:, 0]


@dataclass(frozen=True)
class PropensityColumns:
    """Per-column logistic fits of an (n, p) observation matrix.

    ``delta_hat``, ``clipped_frac`` and ``min_delta`` describe the rows the
    fit was evaluated at (``fit_logistic_columns``'s ``at``): its own n rows
    unless given.
    """

    coef: np.ndarray  # (p, q)
    delta_hat: np.ndarray  # (m, p) at the evaluated rows, clipped to [clip_floor, 1]
    clip_floor: float
    converged: np.ndarray  # (p,) bool: False only when max_iter ran out
    iterations: np.ndarray  # (p,) int
    separated: np.ndarray  # (p,) bool: constant column, constant fit
    constant_value: np.ndarray  # (p,) the constant of a separated column

    @property
    def clipped_frac(self) -> np.ndarray:
        """(p,) share of each column's delta_hat at clip_floor, where the
        model cannot tell the observation probability from zero."""
        return (self.delta_hat <= self.clip_floor).mean(axis=0)

    @property
    def min_delta(self) -> np.ndarray:
        """(p,) smallest delta_hat of each column."""
        return self.delta_hat.min(axis=0)

    def column(self, j: int) -> PropensityFit:
        return PropensityFit(
            coef=self.coef[j],
            delta_hat=self.delta_hat[:, j],
            clip_floor=self.clip_floor,
            converged=bool(self.converged[j]),
            iterations=int(self.iterations[j]),
            separated=bool(self.separated[j]),
            constant_value=float(self.constant_value[j]),
        )


def fit_logistic_columns(
    c: np.ndarray,
    w: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
    clip_floor: float = 0.01,
    at: np.ndarray = None,
) -> PropensityColumns:
    """Maximize the Bernoulli log-likelihood of each column of c given w.

    Each iteration takes one Newton step per column.  A column converges
    when its score max-norm drops below tol; when the step's predicted
    log-likelihood gain (its Newton decrement), or failing that its actual
    gain, is at most tol relative to the log-likelihood; or when no
    step-halving of the Newton step raises it (a NaN counts as lower).  A
    column that W separates has no MLE and stops when its gain stalls, in
    any units of W, with probabilities at clip_floor (``clipped_frac``).
    Fitted probabilities are clipped to [clip_floor, 1] so inverse-propensity
    weights stay bounded.  A constant column gets a constant-propensity fit
    with ``separated`` set, so fully observed columns flow through the same
    pipeline.

    Every other column starts at its intercept-only fit when w has an
    intercept (the first column with the same nonzero value v on every row
    gets logit(rate)/v, the rest 0), and at zero otherwise.

    ``delta_hat`` holds the fitted probabilities at the covariate rows
    ``at`` (m, q), or at a single 1-D row; at the rows of w if None.  A
    cross-fit fold fits on its training rows and evaluates only the rows
    it predicts.
    """
    c = np.asarray(c)
    w = np.asarray(w, dtype=float)
    n, q = w.shape
    if c.ndim != 2 or c.shape[0] != n:
        raise DataError(f"response shape {c.shape} does not match {n} covariate rows")
    ct = np.ascontiguousarray(c.T, dtype=float)  # (p, n): each column one contiguous row
    if not ((ct == 0.0) | (ct == 1.0)).all():
        raise DataError("response entries must be 0 or 1")
    p = ct.shape[0]
    separated = ct.min(axis=1) == ct.max(axis=1)
    constant = ct[:, 0].copy()
    coef = np.zeros((p, q))
    converged = separated.copy()
    iterations = np.zeros(p, dtype=int)

    wt = np.ascontiguousarray(w.T)
    iu, ju = np.triu_indices(q)
    wwt = wt[iu] * wt[ju]  # (q(q+1)/2, n): the Hessian's unique entries
    sym = np.empty((q, q), dtype=int)  # each Hessian entry's place among them
    sym[iu, ju] = sym[ju, iu] = np.arange(iu.size)
    sym = sym.ravel()

    cols = np.flatnonzero(~separated)  # the active columns and their state
    if cols.size < p:
        ct = ct[cols]
    beta = coef[cols]
    const = np.flatnonzero(_constant_columns(w))
    if const.size:
        # the intercept-only MLE: every row's probability is the column's rate
        rate = ct.mean(axis=1)
        log_r, log_1r = np.log(rate), np.log1p(-rate)
        beta[:, const[0]] = (log_r - log_1r) / w[0, const[0]]
        prob = np.repeat(rate[:, None], n, axis=1)
        ll = n * (rate * log_r + (1.0 - rate) * log_1r)
    else:
        prob, ll = _prob_loglik(ct, _eta(wt, beta))

    for it in range(1, max_iter + 1):
        if cols.size == 0:
            break
        score = np.einsum("jn,kn->jk", ct - prob, wt)
        upper = np.einsum("jn,kn->jk", prob * (1.0 - prob), wwt)
        hess = upper.take(sym, axis=1).reshape(cols.size, q, q)
        step = _solve_or_pinv(hess, score[:, :, None])[0][:, :, 0]

        ll_tol = tol * np.maximum(np.abs(ll), 1.0)
        flat = np.abs(score).max(axis=1) <= tol
        small = ~flat & (0.5 * (score * step).sum(axis=1) <= ll_tol)
        beta[small] += step[small]

        # step-halving keeps each searched column's log-likelihood monotone
        search = np.flatnonzero(~(flat | small))
        every = search.size == cols.size  # then search is every active column, in order
        cand = beta + step if every else beta[search] + step[search]
        prob_new, ll_new = _prob_loglik(ct if every else ct[search], _eta(wt, cand))
        pending = np.flatnonzero(~(ll_new >= (ll if every else ll[search])))  # NaN fails too
        stuck = np.zeros(cols.size, dtype=bool)
        moved = search
        if pending.size:
            scale = np.ones(search.size)
            for _ in range(STEP_HALVINGS - 1):
                rows = search[pending]
                scale[pending] *= 0.5
                cand[pending] = beta[rows] + scale[pending, None] * step[rows]
                prob_new[pending], ll_new[pending] = _prob_loglik(ct[rows], _eta(wt, cand[pending]))
                pending = pending[~(ll_new[pending] >= ll[rows])]
                if pending.size == 0:
                    break
            stuck[search[pending]] = True  # no ascent direction left: at the optimum
            accept = np.ones(search.size, dtype=bool)
            accept[pending] = False
            moved, cand, ll_new = search[accept], cand[accept], ll_new[accept]
        beta[moved] = cand
        stalled = np.zeros(cols.size, dtype=bool)
        stalled[moved] = ll_new - ll[moved] <= ll_tol[moved]
        ll[moved] = ll_new

        done = flat | small | stuck | stalled
        if not done.any():  # every column searched and moved
            prob = prob_new
            continue
        converged[cols[done]] = True
        coef[cols[done]] = beta[done]
        iterations[cols[done]] = it
        keep = ~done
        left = keep[search]  # every column left moved: its probabilities are the candidate's
        prob = prob_new if left.all() else prob_new[left]
        cols, ct, beta, ll = cols[keep], ct[keep], beta[keep], ll[keep]
    coef[cols] = beta  # out of iterations, not converged
    iterations[cols] = max_iter
    return PropensityColumns(
        coef=coef,
        delta_hat=_propensity(w if at is None else at, coef, separated, constant, clip_floor),
        clip_floor=clip_floor,
        converged=converged,
        iterations=iterations,
        separated=separated,
        constant_value=constant,
    )


def fit_logistic(
    c: np.ndarray,
    w: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
    clip_floor: float = 0.01,
) -> PropensityFit:
    """One column of ``fit_logistic_columns``."""
    c = np.asarray(c, dtype=float)
    return fit_logistic_columns(c[:, None], w, tol, max_iter, clip_floor).column(0)
