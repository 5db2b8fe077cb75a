"""Stacked linear solves shared by propensity, imputers and dr_inference.

``_masked_least_squares`` is the one fit behind every "column j of Y on W
over its observed rows", and ``_centred`` the one coordinate map of every fit on W.
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
    """(w - shift, back), the one coordinate map of every fit on W: with an
    intercept (the first nonzero constant column i0, value v) every other
    column is shifted by its midrange, and back = (i0, e_i0 - shift / v) for
    ``_uncentre``; without, (w, None).  A 0/1 column's midrange is 0.5, so
    one constant on a fit's rows stays an exact power-of-two multiple of the
    intercept there, and its gram still meets an exact zero pivot."""
    const = _constant_columns(w)
    if not const.any() or const.all():
        return w, None
    shift = np.where(const, 0.0, 0.5 * (w.min(axis=0) + w.max(axis=0)))
    i0 = np.flatnonzero(const)[0]
    return w - shift, (i0, np.eye(w.shape[1])[i0] - shift / w[0, i0])


def _uncentre(back, coef: np.ndarray, cov: np.ndarray = None) -> None:
    """Map coefficients b (p, q) of a fit on ``_centred`` w, and their
    symmetric covariances C (p, q, q), to w's units in place: only b[i0],
    to r . b, and row and column i0 of C, to C r (r' C r at i0, i0), change."""
    if back is None:
        return
    i0, r = back
    coef[:, i0] = coef @ r
    if cov is not None:
        cr = (cov.reshape(-1, r.size) @ r).reshape(cov.shape[:2])  # one product for every column
        cr[:, i0] = cr @ r
        cov[:, i0, :] = cov[:, :, i0] = cr


def _normal_equations(w: np.ndarray, y: np.ndarray, obs=None):
    q, p = w.shape[1], y.shape[1]
    if obs is None:
        gram = (w.T @ w)[None]
    else:
        gram = (np.asarray(obs, dtype=float).T @ _outer_rows(w)).reshape(p, q, q)
    gram_inv, singular = _solve_or_pinv(gram, np.broadcast_to(np.eye(q), gram.shape))
    coef = np.matmul(gram_inv, (w.T @ y).T[:, :, None])[:, :, 0]
    return coef, gram_inv, np.broadcast_to(singular, p)


def _masked_least_squares(w: np.ndarray, y: np.ndarray, obs=None) -> np.ndarray:
    """(p, q) normal-equation least squares of every column of y (n, p) on w.

    With ``obs``, an (n, p) 0/1 matrix, column j is fit on its rows with
    obs == 1 only, through its own gram W' diag(obs_j) W; y must be 0
    wherever obs is 0.  The grams are formed on ``_centred`` w and the
    coefficients mapped back.  With ``obs``, a singular gram gets the
    minimum-norm solution in w's own coordinates, as an SVD solver of w
    would give; without, a singular w is the caller's error (a ``Dataset``'s
    W has full rank).
    """
    wc, back = _centred(w)
    coef, _, singular = _normal_equations(wc, y, obs)
    _uncentre(back, coef)
    if back is not None and obs is not None and singular.any():  # keep w's own minimum-norm one
        coef[singular] = _normal_equations(w, y[:, singular], obs[:, singular])[0]
    return coef
