"""Benjamini-Hochberg q-values, cutoff selection, and the mirror rate."""
from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DataError


def bh_qvalues(p_values: np.ndarray) -> np.ndarray:
    """Step-up adjusted p-values: q_(i) = min_{j>=i} p_(j) * m / j, capped at 1.

    Skipped columns must be excluded before adjustment.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise DataError("p_values must be one-dimensional")
    if p.size == 0:
        return p.copy()
    if np.isnan(p).any() or (p < 0).any() or (p > 1).any():
        raise DataError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    q_sorted = np.minimum.accumulate(ranked[::-1])[::-1]
    q_sorted = np.minimum(q_sorted, 1.0)
    q = np.empty(m)
    q[order] = q_sorted
    return q


def check_alpha(alpha: float) -> None:
    """Raise DataError unless 0 < alpha < 1."""
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")


def select(q_values: np.ndarray, alpha: float) -> np.ndarray:
    """Indices with q <= alpha (inclusive; matches the step-up rule exactly)."""
    check_alpha(alpha)
    return np.flatnonzero(np.asarray(q_values) <= alpha)


def mirror_rate(betas: np.ndarray, selected: np.ndarray) -> Optional[float]:
    """Ratio of selected negative to selected positive coefficients.

    Returns None (undefined) when no selected coefficient is positive; exact
    zeros count on neither side.
    """
    sel = np.asarray(selected)
    if sel.dtype == bool:
        b = np.asarray(betas, dtype=float)[sel]
    else:
        b = np.asarray(betas, dtype=float)[sel.astype(int)]
    npos = int((b > 0).sum())
    nneg = int((b < 0).sum())
    if npos == 0:
        return None
    return nneg / npos
