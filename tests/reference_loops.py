"""Column-at-a-time reference estimators for the batched core.

One column per call, with the arithmetic of the original loop
implementation: ``fit_logistic`` below is that IRLS (BLAS dot products,
``lstsq`` on a singular Hessian), verbatim but for its start at the
intercept-only fit when w has an intercept and for the score max-norm stop
it no longer has, since a score's size depends on W's units; least squares
inverts W'W per column, the lowdim imputer runs ``lstsq`` per column, soft-impute thresholds
through a full SVD and iterates plain proximal-gradient steps (and, in
``soft_impute_apg``, the accelerated loop as first written), the knn
imputers loop over columns, neighbours and rows, and p-values come from
``scipy.stats``.  Tests compare the batched estimators against these loops.

The CSV reader and writer at the end are the cell-by-cell originals:
``csv.reader`` over the file, a ``float()`` per observed cell behind a
missing-cell predicate, and a type check per written cell.
"""
import csv
from itertools import chain, compress

import numpy as np
from scipy import stats

from drpi.data_model import MethodKind
from drpi.errors import DataError
from drpi.imputers import SOFT_LAMBDA_FRACTION, _column_means, _lowdim_matrix, _pairwise_stats
from drpi.propensity import _sigmoid


def _loglik(c, eta):
    return float(c @ eta - np.logaddexp(0.0, eta).sum())


def fit_logistic(c, w, tol=1e-8, max_iter=100, clip_floor=0.01):
    """(coef, clipped delta_hat) of one column's logistic IRLS."""
    n, q = w.shape
    if c.min() == c.max():
        return np.zeros(q), np.full(n, 1.0 if c[0] == 1.0 else clip_floor)
    beta = np.zeros(q)
    const = np.flatnonzero((w == w[0]).all(axis=0) & (w[0] != 0))
    if const.size:  # start at the intercept-only MLE, as the batched fit does
        rate = c.mean()
        beta[const[0]] = np.log(rate / (1.0 - rate)) / w[0, const[0]]
    ll = _loglik(c, w @ beta)
    for _ in range(max_iter):
        prob = _sigmoid(w @ beta)
        score = w.T @ (c - prob)
        hess = w.T @ (w * (prob * (1.0 - prob))[:, None])
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, score, rcond=None)[0]
        scale = 1.0
        for _ in range(50):
            cand = beta + scale * step
            ll_new = _loglik(c, w @ cand)
            if ll_new >= ll:
                break
            scale *= 0.5
        else:
            break
        beta = cand
        if ll_new - ll <= tol * max(abs(ll), 1.0):
            break
        ll = ll_new
    return beta, np.clip(_sigmoid(w @ beta), clip_floor, 1.0)


def lowdim(d):
    """The lowdim imputer's fitted means: one ``lstsq`` per column on its
    observed rows, the observed mean where a column has at most q."""
    nu = np.empty((d.n, d.p))
    for j in range(d.p):
        obs = d.mask[:, j] == 1
        if obs.sum() <= d.q:
            nu[:, j] = d.y_obs[obs, j].mean() if obs.any() else 0.0
            continue
        coef = np.linalg.lstsq(d.w[obs], d.y_obs[obs, j], rcond=None)[0]
        nu[:, j] = d.w @ coef
    return nu


def svd_soft_threshold(x, lam, max_rank):
    """(matrix, rank) of singular-value soft-thresholding through one full
    thin SVD, the original implementation; it also returns the rank so that
    it can stand in for the Gram-eigendecomposition version."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    s = np.maximum(s - lam, 0.0)
    if max_rank < s.size:
        s[max_rank:] = 0.0
    r = int((s > 0).sum())
    if r == 0:
        return np.zeros_like(x), 0
    return (u[:, :r] * s[:r]) @ vt[:r], r


def knn(d, k, backend="knn"):
    """The knn or knn2 imputer's fitted means: for each column, a loop over
    its k most-correlated columns with finite similarity, then for knn2 a
    loop over rows averaging the k closest samples at the missing cells."""
    yz = np.where(d.mask == 1, d.y_obs, 0.0)
    counts, mean_a, corr = _pairwise_stats(d.mask.astype(float), yz)
    sim = np.where(counts >= 3, corr, -np.inf)
    np.fill_diagonal(sim, -np.inf)
    col_means = _column_means(d)
    nu = np.empty((d.n, d.p))
    order = np.argsort(-sim, axis=1, kind="stable")
    for j in range(d.p):
        neigh = [l for l in order[j, :k] if np.isfinite(sim[j, l])]
        if not neigh:
            nu[:, j] = col_means[j]
            continue
        vals = np.zeros(d.n)
        wts = np.zeros(d.n)
        for l in neigh:
            ok = d.mask[:, l] == 1
            shift = mean_a[j, l] - mean_a[l, j]
            vals[ok] += yz[ok, l] + shift
            wts[ok] += 1.0
        have = wts > 0
        nu[have, j] = vals[have] / wts[have]
        nu[~have, j] = col_means[j]
    if backend == "knn2":
        filled = np.where(d.mask == 1, d.y_obs, nu)
        centered = filled - filled.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1)
        norms[norms == 0] = 1.0
        rowsim = (centered / norms[:, None]) @ (centered / norms[:, None]).T
        np.fill_diagonal(rowsim, -np.inf)
        nn = np.argsort(-rowsim, axis=1, kind="stable")[:, : min(k, d.n - 1)]
        for i in range(d.n):
            miss = d.mask[i] == 0
            if miss.any():
                nu[i, miss] = filled[nn[i]][:, miss].mean(axis=0)
    return nu


def ols(y, w, tcol, variance_mode):
    """(beta, se, p) of the target coefficient from one column's fit."""
    n, q = w.shape
    gram_inv = np.linalg.inv(w.T @ w)
    coef = gram_inv @ (w.T @ y)
    resid = y - w @ coef
    if variance_mode == "sandwich":
        meat = (w * resid[:, None] ** 2).T @ w / n
        cov = (gram_inv * n) @ meat @ (gram_inv * n) / n
    else:
        cov = float(resid @ resid) / (n - q) * gram_inv
    beta, se = coef[tcol], np.sqrt(cov[tcol, tcol])
    if variance_mode == "sandwich":
        p = 2.0 * stats.norm.sf(abs(beta / se))
    else:
        p = 2.0 * stats.t.sf(abs(beta / se), n - q)
    return beta, se, p


def pseudo(y, c, delta, nu):
    return nu + c / delta * (np.where(c == 1, y, 0.0) - np.where(c == 1, nu, 0.0))


def infer(d, method, tcol, nu=None, oracle=None, variance_mode="", fit=fit_logistic):
    """(p, 3) array of (beta, se, p) per column, NaN where skipped.

    ``fit(c, w)`` gives one column's (coef, delta_hat)."""
    dr = method in (MethodKind.DR_W, MethodKind.DR_UW)
    variance_mode = variance_mode or ("sandwich" if dr else "homoskedastic")
    out = np.full((d.p, 3), np.nan)
    for j in range(d.p):
        c = d.mask[:, j].astype(float)
        y = d.y_obs[:, j]
        if c.sum() == 0 and method is not MethodKind.FULL:
            continue
        if method is MethodKind.COMPLETE:
            obs = c == 1
            if obs.sum() >= d.q + 2:
                out[j] = ols(y[obs], d.w[obs], tcol, variance_mode)
            continue
        if method is MethodKind.FULL:
            resp = oracle[:, j]
        elif method is MethodKind.PLUGIN:
            resp = nu[:, j]
        elif method is MethodKind.PLUGIN_MISSING:
            resp = pseudo(y, c, 1.0, nu[:, j])
        else:
            resp = pseudo(y, c, fit(c, d.w)[1], nu[:, j])
        out[j] = ols(resp, d.w, tcol, variance_mode)
    return out


def cross_fit(d, folds, tcol, backend, seed=0, fit=fit_logistic):
    """(p, 3) cross-fitted DR (beta, se, p) per column."""
    perm = np.random.default_rng(seed).permutation(d.n)
    fold_of = np.empty(d.n, dtype=int)
    for k in range(folds):
        fold_of[perm[k::folds]] = k
    out = np.full((d.p, 3), np.nan)
    for j in range(d.p):
        c = d.mask[:, j].astype(float)
        y = d.y_obs[:, j]
        y_tilde = np.empty(d.n)
        for k in range(folds):
            test = fold_of == k
            fit_rows = ~test & (c == 1)
            coef, _ = fit(c[~test], d.w[~test])
            delta = np.clip(_sigmoid(d.w[test] @ coef), 0.01, 1.0)
            if c[~test].min() == c[~test].max():
                delta[:] = 1.0 if c[~test][0] == 1.0 else 0.01
            if backend == "mean":
                nu = np.full(test.sum(), y[fit_rows].mean())
            else:
                nu = d.w[test] @ np.linalg.lstsq(d.w[fit_rows], y[fit_rows], rcond=None)[0]
            y_tilde[test] = pseudo(y[test], c[test], delta, nu)
        out[j] = ols(y_tilde, d.w, tcol, "sandwich")
    return out


def soft_impute(d, cfg):
    """(nu_hat, iterations, converged) of the original soft-impute loop:
    plain proximal-gradient steps with step 1, each a full-SVD
    soft-threshold of the residual matrix with its missing cells filled
    from the last iterate, stopped when the relative Frobenius change
    falls to ``cfg.tol``.  A NaN ``cfg.rank_penalty`` takes 0.1 of the
    residual matrix's top singular value, as ``impute_soft`` does."""
    wfit = lowdim(d)
    obs = d.mask == 1
    resid = np.where(obs, d.y_obs - wfit, 0.0)
    lam = cfg.rank_penalty
    if not np.isfinite(lam):
        lam = 0.1 * np.linalg.svd(resid, compute_uv=False)[0]
    z = np.zeros_like(resid)
    for it in range(1, cfg.max_iter + 1):
        z_new, _ = svd_soft_threshold(np.where(obs, resid, z), lam, cfg.max_rank)
        delta = np.linalg.norm(z_new - z)
        z = z_new
        if delta <= cfg.tol * max(np.linalg.norm(z), 1.0):
            return wfit + z, it, True
    return wfit + z, cfg.max_iter, False


def gram_soft_threshold(x, lam, max_rank):
    """(matrix, rank) of singular-value soft-thresholding through one
    eigendecomposition of the smaller Gram matrix, as first written: clip
    the eigenvalues, shrink every singular value, then zero those past
    ``max_rank``."""
    tall = x.shape[0] >= x.shape[1]
    evals, vecs = np.linalg.eigh(x.T @ x if tall else x @ x.T)
    s = np.sqrt(np.clip(evals[::-1], 0.0, None))
    shrunk = np.maximum(s - lam, 0.0)
    shrunk[max_rank:] = 0.0
    r = int((shrunk > 0).sum())
    if r == 0:
        return np.zeros_like(x), 0
    vecs = vecs[:, ::-1][:, :r]
    scale = shrunk[:r] / s[:r]
    if tall:
        return ((x @ vecs) * scale) @ vecs.T, r
    return vecs @ ((vecs.T @ x) * scale[:, None]), r


def soft_impute_apg(d, cfg):
    """(nu_hat, converged, diagnostics) of the accelerated soft-impute loop
    as first written: each iteration allocates ``where(obs, resid, y)`` and
    takes Frobenius norms through ``np.linalg.norm``.  Residualizes on
    ``impute_soft``'s own W fit, so a pure refactor of the loop matches it
    bit for bit."""
    wfit = _lowdim_matrix(d)
    obs = d.mask == 1
    resid = np.where(obs, d.y_obs - wfit, 0.0)
    lam = cfg.rank_penalty
    if not np.isfinite(lam):
        lam = SOFT_LAMBDA_FRACTION * np.linalg.svd(resid, compute_uv=False)[0]
    z = y = np.zeros_like(resid)
    t = 1.0
    converged = False
    iterations, rank, rel_change = 0, 0, float("nan")
    for iterations in range(1, cfg.max_iter + 1):
        filled = np.where(obs, resid, y)
        z_new, rank = gram_soft_threshold(filled, lam, cfg.max_rank)
        step = z_new - z
        delta = np.linalg.norm(step)
        if np.vdot(y - z_new, step) > 0:  # momentum points uphill: restart
            t = 1.0
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = z_new + ((t - 1.0) / t_new) * step
        z, t = z_new, t_new
        scale = max(np.linalg.norm(z), 1.0)
        rel_change = float(delta / scale)
        if delta <= cfg.tol * scale:
            converged = True
            break
    diagnostics = {"lambda": lam, "iterations": iterations, "rank": rank, "rel_change": rel_change}
    return wfit + z, converged, diagnostics


def read_csv(path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    return rows[0], rows[1:]


def parse_cells(rows, names, what: str, is_missing=None) -> tuple:
    n, p = len(rows), len(names)
    ragged = next((i for i, row in enumerate(rows) if len(row) != p), n)
    cells = list(map(str.strip, chain.from_iterable(rows[:ragged])))
    if is_missing is None:
        observed = np.ones(len(cells), bool)
    else:
        observed = ~np.fromiter(map(is_missing, cells), bool, len(cells))
    try:
        vals = np.fromiter(map(float, compress(cells, observed)), float)
    except ValueError:
        for k in np.flatnonzero(observed):
            try:
                float(cells[k])
            except ValueError:
                raise DataError(
                    f"non-numeric {what} cell at row {k // p}, column "
                    f"{names[k % p]!r}: {cells[k]!r}"
                ) from None
    if ragged < n:
        raise DataError(f"{what} row {ragged} has {len(rows[ragged])} cells, expected {p}")
    values = np.full(n * p, np.nan)
    values[observed] = vals
    return values.reshape(n, p), observed.reshape(n, p)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows
        )


def write_results(results, path):
    """The results CSV, one row per record: any object with the fields named
    in the header, and a ``method`` whose ``value`` is written."""
    header = ["peptide_id", "method", "beta", "se", "z", "p_value", "q_value", "selected"]
    write_csv(path, header, (
        [r.peptide_id, r.method.value, float(r.beta), float(r.se), float(r.z),
         float(r.p_value), "" if np.isnan(r.q_value) else float(r.q_value), int(r.selected)]
        for r in results
    ))
