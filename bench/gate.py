"""Correctness gate: checks every op's output without trusting the program.

The gate reads only what a user gets back: the results CSV of ``drpi
analyze`` and the ``BenchResult`` of ``run_benchmark``.  Its longhand
estimators rebuild the pseudo-outcomes, the least-squares fits, the HC0 or
homoskedastic variances and the p-values with plain NumPy from the public
``impute`` and ``fit_logistic`` outputs, so a fast path that drifts from an
estimator's definition is caught even when it agrees with itself.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, stdtr

RTOL = 1e-7  # program vs longhand; both are double-precision closed forms
ATOL = 1e-12
GOLDEN_ATOL = 1e-5
LONGHAND_COLUMNS = 3
METHODS = ("full", "complete", "plugin", "plugin_missing", "dr_w", "dr_uw")


@dataclass
class Row:
    """One line of the results CSV written by ``drpi analyze``."""

    peptide_id: str
    beta: float
    se: float
    p_value: float
    q_value: float
    selected: bool


def read_results(path):
    with open(path, newline="") as fh:
        return [
            Row(r["peptide_id"], float(r["beta"]), float(r["se"]), float(r["p_value"]),
                float(r["q_value"]), r["selected"] == "1")
            for r in csv.DictReader(fh)
        ]


def bh_selected(p_values, alpha):
    """Indices selected by the Benjamini-Hochberg step-up rule, from scratch."""
    p = np.asarray(p_values, dtype=float)
    m = p.size
    order = np.argsort(p, kind="stable")
    passed = np.flatnonzero(p[order] <= alpha * np.arange(1, m + 1) / m)
    if passed.size == 0:
        return set()
    return set(order[: passed[-1] + 1].tolist())


def fdr_tpr(selected_cols, signal):
    sel, sig = set(selected_cols), set(np.asarray(signal).tolist())
    return (len(sel - sig) / len(sel) if sel else 0.0), len(sel & sig) / len(sig)


def check_rows(rows, expected_ids, alpha):
    """Coverage, range and BH checks on the results of one analyze op.

    ``expected_ids`` are the columns with at least one observed cell, the
    only ones the DR estimators may report; the rest must be skipped.
    """
    fails = []
    if sorted(r.peptide_id for r in rows) != sorted(expected_ids):
        fails.append(f"{len(rows)} results for {len(expected_ids)} columns with observed data")
    pv = np.array([r.p_value for r in rows], dtype=float)
    qv = np.array([r.q_value for r in rows], dtype=float)
    if not ((pv >= 0) & (pv <= 1)).all():
        fails.append("p-value outside [0, 1]")
    # q = p * m / rank can round one ulp below p when rank == m
    if not ((qv >= pv * (1 - 1e-12)) & (qv <= 1)).all():
        fails.append("q-value below its p-value or above 1")
    if {i for i, r in enumerate(rows) if r.selected} != bh_selected(pv, alpha):
        fails.append("BH selection differs from the recomputed step-up rule")
    return fails


# -- longhand estimators -----------------------------------------------------


def dr_pseudo(y, c, nu, delta):
    """nu + C/delta * (Y - nu), reading Y only where C == 1 (any shape)."""
    obs = c == 1
    out = np.array(nu, dtype=float)
    out[obs] += (y[obs] - nu[obs]) / delta[obs]
    return out


def ols_columns(w, y, tcol, sandwich):
    """(beta, se, p) of the target coefficient for every column of ``y``.

    Sandwich: HC0 with a normal reference.  Otherwise: homoskedastic with a
    Student-t reference on n - q degrees of freedom.
    """
    n, q = w.shape
    g_inv = np.linalg.inv(w.T @ w)
    hat = g_inv @ w.T
    coef = hat @ y
    resid = y - w @ coef
    beta = coef[tcol]
    if sandwich:
        se = np.sqrt((hat[tcol][:, None] ** 2 * resid**2).sum(axis=0))
        p = erfc(np.abs(beta / se) / np.sqrt(2.0))
    else:
        se = np.sqrt((resid**2).sum(axis=0) / (n - q) * g_inv[tcol, tcol])
        p = 2.0 * stdtr(n - q, -np.abs(beta / se))
    return beta, se, p


def longhand_dr(y, c, w, nu, delta, tcol):
    b, se, p = ols_columns(w, dr_pseudo(y, c, nu, delta)[:, None], tcol, True)
    return float(b[0]), float(se[0]), float(p[0])


def longhand_cross_fit(y, c, w, tcol, folds, fit_logistic, fold_seed=0):
    """Cross-fitted DR with a lowdim mean, from public fit_logistic output.

    Folds follow infer_cross_fit's assignment at its default seed: a
    permutation from ``default_rng(fold_seed)`` dealt round-robin.
    """
    n = len(y)
    perm = np.random.default_rng(fold_seed).permutation(n)
    y_tilde = np.empty(n)
    for k in range(folds):
        test = np.zeros(n, dtype=bool)
        test[perm[k::folds]] = True
        train = ~test
        delta = fit_logistic(c[train], w[train]).predict(w[test])
        fit_rows = train & (c == 1)
        coef = np.linalg.lstsq(w[fit_rows], y[fit_rows], rcond=None)[0]
        y_tilde[test] = dr_pseudo(y[test], c[test], w[test] @ coef, delta)
    b, se, p = ols_columns(w, y_tilde[:, None], tcol, True)
    return float(b[0]), float(se[0]), float(p[0])


def longhand_all(y_full, mask, w, tcol, nu, mu, delta):
    """{method: (beta, p)} over all columns for the six estimators.

    ``nu`` is the augmented imputation, ``mu`` the lowdim one and ``delta``
    the (n, p) clipped propensities.  Skipped columns are NaN.
    """
    q = w.shape[1]
    obs = mask == 1
    y = np.where(obs, y_full, 0.0)
    responses = {
        "full": (y_full, False),
        "plugin": (nu, False),
        "plugin_missing": (np.where(obs, y, nu), False),
        "dr_w": (dr_pseudo(y, mask, mu, delta), True),
        "dr_uw": (dr_pseudo(y, mask, nu, delta), True),
    }
    out = {}
    for m, (resp, sandwich) in responses.items():
        beta, _, p = ols_columns(w, resp, tcol, sandwich)
        out[m] = (beta, p)
    beta, p = np.full(mask.shape[1], np.nan), np.full(mask.shape[1], np.nan)
    for j in range(mask.shape[1]):
        rows = obs[:, j]
        if rows.sum() >= q + 2:
            b, _, pj = ols_columns(w[rows], y[rows, j][:, None], tcol, False)
            beta[j], p[j] = b[0], pj[0]
    out["complete"] = (beta, p)
    empty = ~obs.any(axis=0)
    for m in METHODS:
        if m != "full":
            out[m][0][empty] = np.nan
            out[m][1][empty] = np.nan
    return out


def compare(record, want, label):
    """Failures where a record's (beta, se, p) differs from the longhand."""
    fails = []
    for field, value in zip(("beta", "se", "p_value"), want):
        got = getattr(record, field)
        if not np.isclose(got, value, rtol=RTOL, atol=1e-300):
            fails.append(f"{label} {record.peptide_id} {field}: {got!r} != longhand {value!r}")
    return fails


def check_golden(parse_and_dispatch, fixtures, out_path):
    """The golden CLI fixture through analyze --method dr_w, to GOLDEN_ATOL."""
    code = parse_and_dispatch([
        "analyze",
        "--outcomes", str(fixtures / "outcomes.csv"),
        "--covariates", str(fixtures / "covariates.csv"),
        "--target", "a",
        "--method", "dr_w",
        "--out", str(out_path),
        "--quiet",
    ])
    if code != 0:
        return [f"golden fixture: analyze exited {code}"]
    with open(out_path, newline="") as fh:
        got = {r["peptide_id"]: r for r in csv.DictReader(fh)}
    with open(fixtures / "expected_results.csv", newline="") as fh:
        want = {r["peptide_id"]: r for r in csv.DictReader(fh)}
    if got.keys() != want.keys():
        return ["golden fixture: peptide ids differ"]
    fails = []
    for pid, exp in want.items():
        for col in ("beta", "se", "z", "p_value", "q_value"):
            if abs(float(got[pid][col]) - float(exp[col])) > GOLDEN_ATOL:
                fails.append(f"golden fixture: {pid}/{col} {got[pid][col]} != {exp[col]}")
        if got[pid]["selected"] != exp["selected"]:
            fails.append(f"golden fixture: {pid}/selected differs")
    return fails
