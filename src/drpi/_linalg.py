"""Stacked linear solves shared by propensity, imputers and dr_inference.

``_masked_least_squares`` is the one fit behind every "column j of Y on W
over its observed rows".
"""
import numpy as np


def _solve_or_pinv(a: np.ndarray, b: np.ndarray):
    """Solve the stacked systems a[j] x[j] = b[j]; a is (p, q, q), b (p, q, r).

    A system whose LU factorization meets an exactly zero pivot takes the
    minimum-norm least-squares solution instead, as an SVD solver would.
    Returns (x, singular), singular a (p,) mask of those systems.
    """
    try:
        return np.linalg.solve(a, b), np.zeros(a.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    singular = np.linalg.slogdet(a)[0] == 0
    x = np.empty(b.shape)
    regular = ~singular
    if regular.any():
        x[regular] = np.linalg.solve(a[regular], b[regular])
    pinv = np.linalg.pinv(a[singular], rcond=np.finfo(float).eps * a.shape[-1])
    x[singular] = np.matmul(pinv, b[singular])
    return x, singular


def _outer_rows(w: np.ndarray) -> np.ndarray:
    """(n, q*q) flattened outer products w_i w_i' of the rows of w."""
    n, q = w.shape
    return (w[:, :, None] * w[:, None, :]).reshape(n, q * q)


def _constant_columns(w: np.ndarray) -> np.ndarray:
    """(q,) mask of the columns of w that hold the same nonzero value on
    every row: intercepts."""
    return (w == w[:1]).all(axis=0) & (w[0] != 0)


def _centred(w: np.ndarray):
    """(w @ a, a): when w has a nonzero constant column, an intercept, every
    non-constant column is shifted by its midrange, which the intercept
    absorbs; otherwise a is None and w is returned unchanged.

    Normal equations square cond(W), and a covariate's offset from zero is
    most of that.  The midrange of a 0/1 column is 0.5, so a 0/1 column that
    is constant on a fit's rows stays an exact power-of-two multiple of the
    intercept there and its gram still meets an exact zero pivot.
    """
    const = _constant_columns(w)
    if not const.any() or const.all():
        return w, None
    shift = np.where(const, 0.0, 0.5 * (w.min(axis=0) + w.max(axis=0)))
    i0 = np.flatnonzero(const)[0]
    a = np.eye(w.shape[1])
    a[i0] -= shift / w[0, i0]
    return w - shift, a


def _normal_equations(w: np.ndarray, y: np.ndarray, obs=None):
    q, p = w.shape[1], y.shape[1]
    if obs is None:
        gram = (w.T @ w)[None]
    else:
        gram = (obs.T @ _outer_rows(w)).reshape(p, q, q)
    gram_inv, singular = _solve_or_pinv(gram, np.broadcast_to(np.eye(q), gram.shape))
    coef = np.matmul(gram_inv, (w.T @ y).T[:, :, None])[:, :, 0]
    return coef, gram_inv, np.broadcast_to(singular, p)


def _masked_least_squares(w: np.ndarray, y: np.ndarray, obs=None, *, inverse=True):
    """Normal-equation least squares of every column of y (n, p) on w (n, q).

    With ``obs``, an (n, p) 0/1 matrix, column j is fit on its rows with
    obs == 1 only, through its own gram W' diag(obs_j) W; y must be 0
    wherever obs is 0.  The grams are formed on ``_centred`` w and the results
    mapped back.  With ``obs``, a singular gram gets the minimum-norm
    solution in w's own coordinates, as an SVD solver of w would give;
    without, a singular w is the caller's error (a ``Dataset``'s W has full
    rank).

    Returns (coef (p, q), gram_inv (p, q, q), or (1, q, q) without obs,
    singular (p,)).  With ``inverse`` False, gram_inv is None: a fit that
    reads coef alone does not map the inverses back.
    """
    if obs is not None:
        obs = np.asarray(obs, dtype=float)
    wc, a = _centred(w)
    coef, gram_inv, singular = _normal_equations(wc, y, obs)
    gram_inv = gram_inv if inverse else None
    if a is None:
        return coef, gram_inv, singular
    coef = coef @ a.T  # w_centred = w a: beta = a beta_c, (W'W)^-1 = a G_c^-1 a'
    if inverse:
        gram_inv = a @ gram_inv @ a.T
    if obs is not None and singular.any():  # many solutions: keep w's own minimum-norm one
        cols = np.flatnonzero(singular)
        refit = _normal_equations(w, y[:, cols], obs[:, cols])
        coef[cols] = refit[0]
        if inverse:
            gram_inv[cols] = refit[1]
    return coef, gram_inv, singular
