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


def _masked_least_squares(w: np.ndarray, y: np.ndarray, obs=None):
    """Normal-equation least squares of every column of y (n, p) on w (n, q).

    With ``obs``, an (n, p) 0/1 matrix, column j is fit on its rows with
    obs == 1 only, through its own gram W' diag(obs_j) W; its other cells
    are never read.  A singular gram gets the minimum-norm solution.

    Returns (coef (p, q), gram_inv (p, q, q), or (1, q, q) without obs,
    singular (p,)).
    """
    q, p = w.shape[1], y.shape[1]
    if obs is None:
        gram = (w.T @ w)[None]
    else:
        obs = np.asarray(obs, dtype=float)
        y = np.where(obs == 1, y, 0.0)
        gram = (obs.T @ _outer_rows(w)).reshape(p, q, q)
    gram_inv, singular = _solve_or_pinv(gram, np.broadcast_to(np.eye(q), gram.shape))
    coef = np.matmul(gram_inv, (w.T @ y).T[:, :, None])[:, :, 0]
    return coef, gram_inv, np.broadcast_to(singular, p)
