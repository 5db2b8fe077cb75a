"""Core containers for outcome matrices with missingness, plus CSV I/O.

The outcome matrix stores NaN at unobserved cells; the binary mask is the
single source of truth for observability and no arithmetic ever reads a
masked cell.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress
from typing import Sequence

import numpy as np

from .errors import DataError


class MethodKind(str, Enum):
    """Estimators compared throughout the package.

    FULL is only valid in simulation mode, where an oracle complete matrix
    is available.
    """

    FULL = "full"
    COMPLETE = "complete"
    PLUGIN = "plugin"
    PLUGIN_MISSING = "plugin_missing"
    DR_W = "dr_w"
    DR_UW = "dr_uw"


@dataclass
class PeptideInference:
    """Per-column inference result for the covariate of interest."""

    peptide_id: str
    method: MethodKind
    beta: float
    se: float
    z: float
    p_value: float
    q_value: float = float("nan")
    selected: bool = False
    degenerate: bool = False


@dataclass(frozen=True)
class SkipRecord:
    peptide_id: str
    reason: str


def _first_repeat(names):
    """The first name that occurs a second time in ``names``, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


@dataclass(frozen=True)
class Dataset:
    """Immutable outcome/mask/covariate bundle.

    y_obs : (n, p) float array, NaN wherever mask == 0.
    mask  : (n, p) int8 array of 0/1 observability indicators.
    w     : (n, q) float covariate matrix, full column rank, first column
            all-ones intercept unless intercept injection was disabled.
    """

    y_obs: np.ndarray
    mask: np.ndarray
    w: np.ndarray
    peptide_ids: tuple
    sample_ids: tuple
    covariate_names: tuple

    def __post_init__(self):
        y = np.asarray(self.y_obs, dtype=float)
        m = np.asarray(self.mask)
        w = np.asarray(self.w, dtype=float)
        if y.shape != m.shape:
            raise DataError(f"y_obs shape {y.shape} != mask shape {m.shape}")
        if not np.isin(m, (0, 1)).all():
            raise DataError("mask entries must be 0 or 1")
        m = m.astype(np.int8)
        n, p = y.shape
        if w.ndim != 2 or w.shape[0] != n:
            raise DataError(f"covariate rows {w.shape} do not match n={n}")
        q = w.shape[1]
        if n <= q:
            raise DataError(f"need n > q, got n={n}, q={q}")
        if np.linalg.matrix_rank(w) < q:
            raise DataError("covariate matrix is rank deficient")
        if not np.isfinite(y[m == 1]).all():
            raise DataError("non-finite value at an observed cell")
        if len(self.peptide_ids) != p or len(self.sample_ids) != n:
            raise DataError("label counts do not match matrix shape")
        if len(self.covariate_names) != q:
            raise DataError("covariate name count does not match q")
        for what, names in (("peptide id", self.peptide_ids), ("covariate", self.covariate_names)):
            dup = _first_repeat(names)
            if dup is not None:
                raise DataError(f"duplicate {what} {dup!r}")
        for a in (y, m, w):
            a.setflags(write=False)
        object.__setattr__(self, "y_obs", y)
        object.__setattr__(self, "mask", m)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "peptide_ids", tuple(self.peptide_ids))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))

    @property
    def n(self) -> int:
        return self.y_obs.shape[0]

    @property
    def p(self) -> int:
        return self.y_obs.shape[1]

    @property
    def q(self) -> int:
        return self.w.shape[1]

    def covariate_index(self, name: str) -> int:
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise DataError(
                f"unknown covariate {name!r}; have {list(self.covariate_names)}"
            ) from None

    def select_columns(self, cols: Sequence[int]) -> "Dataset":
        cols = list(cols)
        return Dataset(
            y_obs=self.y_obs[:, cols].copy(),
            mask=self.mask[:, cols].copy(),
            w=self.w.copy(),
            peptide_ids=tuple(self.peptide_ids[j] for j in cols),
            sample_ids=self.sample_ids,
            covariate_names=self.covariate_names,
        )

    def select_rows(self, rows: Sequence[int]) -> "Dataset":
        rows = list(rows)
        return Dataset(
            y_obs=self.y_obs[rows].copy(),
            mask=self.mask[rows].copy(),
            w=self.w[rows].copy(),
            peptide_ids=self.peptide_ids,
            sample_ids=tuple(self.sample_ids[i] for i in rows),
            covariate_names=self.covariate_names,
        )


def _read_csv(path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    return rows[0], rows[1:]


def _parse_cells(rows, names, what: str, is_missing=None) -> tuple:
    """(values, observed) of CSV body ``rows`` under header ``names``: the
    (n, len(names)) floats of the stripped cells, NaN wherever
    ``is_missing(cell)`` holds, and the boolean mask of the other cells.

    The first fault in row order is raised, a non-numeric cell or a row of
    the wrong length, as a DataError that names ``what``.
    """
    n, p = len(rows), len(names)
    ragged = next((i for i, row in enumerate(rows) if len(row) != p), n)
    # the cells of the rows before the first ragged one, parsed in bulk; a
    # bad cell among them is reported first, as a row-by-row read would
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


def _read_matrix(path, ids, n: int, what: str) -> np.ndarray:
    """(n, len(ids)) float array from a CSV whose header must be ``ids``."""
    header, rows = _read_csv(path)
    p = len(ids)
    if len(header) != p or len(rows) != n:
        raise DataError(f"{what} is {len(rows)}x{len(header)}, expected {n}x{p}")
    for got, want in zip(header, ids):
        if got != want:
            raise DataError(f"{what} header has {got!r} where {want!r} is expected")
    return _parse_cells(rows, ids, what)[0]


def _write_csv(path, header, rows):
    """Write a CSV of ``header`` then ``rows``; a float cell, numpy scalars
    included, is written as ``repr(float(v))`` and any other cell as it is."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows
        )


def load_dataset(
    outcome_path,
    covariate_path,
    missing_token: str = "",
    mask_path=None,
    add_intercept: bool = True,
) -> Dataset:
    """Load outcome and covariate CSVs into a validated Dataset.

    Outcome CSV: header row of peptide ids, one row per sample.  A cell is
    missing when it is empty or equals ``missing_token``.  An optional mask
    CSV of 0/1 entries, with the outcome CSV's header, overrides token
    detection.
    """
    pep_ids, y_rows = _read_csv(outcome_path)
    cov_names, w_rows = _read_csv(covariate_path)
    if len(y_rows) != len(w_rows):
        raise DataError(
            f"row count mismatch: {len(y_rows)} outcome rows vs "
            f"{len(w_rows)} covariate rows"
        )
    n = len(y_rows)
    y, observed = _parse_cells(y_rows, pep_ids, "outcome", {"", missing_token}.__contains__)
    mask = observed.astype(np.int8)
    if mask_path is not None:
        mask = _read_matrix(mask_path, pep_ids, n, "mask CSV")
        y[mask == 0] = np.nan

    w = _parse_cells(w_rows, cov_names, "covariate")[0]
    names = list(cov_names)
    if add_intercept:
        w = np.column_stack([np.ones(n), w])
        names = ["intercept"] + names

    empty = np.flatnonzero(mask.sum(axis=0) == 0)
    if empty.size:
        warnings.warn(
            f"{empty.size} all-missing column(s) retained; inference will "
            f"skip them (e.g. {pep_ids[empty[0]]!r})"
        )
    return Dataset(
        y_obs=y,
        mask=mask,
        w=w,
        peptide_ids=tuple(pep_ids),
        sample_ids=tuple(str(i) for i in range(n)),
        covariate_names=tuple(names),
    )


def write_dataset(d: Dataset, outcome_path, covariate_path, mask_path=None):
    """Write a Dataset back to CSV; inverse of load_dataset at observed cells."""
    # row by row, so that no (n, p) list of Python floats is ever built
    _write_csv(outcome_path, d.peptide_ids, (
        [v if m else "" for v, m in zip(y_row.tolist(), m_row.tolist())]
        for y_row, m_row in zip(d.y_obs, d.mask)
    ))
    start = 1 if d.covariate_names and d.covariate_names[0] == "intercept" else 0
    _write_csv(covariate_path, d.covariate_names[start:], d.w[:, start:].tolist())
    if mask_path is not None:
        _write_csv(mask_path, d.peptide_ids, map(np.ndarray.tolist, d.mask))


def observation_rate(d: Dataset) -> np.ndarray:
    """Fraction of observed samples per column."""
    return d.mask.mean(axis=0)


def filter_by_rate(
    d: Dataset, threshold: float, feed_threshold: float = 0.2
) -> tuple:
    """Split columns into an inference set and a wider imputation feed set.

    Inference keeps columns with observation rate >= threshold; the feed set
    keeps columns with rate >= feed_threshold (default 0.2).
    """
    for name, rate in (("threshold", threshold), ("feed_threshold", feed_threshold)):
        if not 0.0 <= rate <= 1.0:
            raise DataError(f"{name} must be in [0, 1], got {rate}")
    rates = observation_rate(d)
    keep = np.flatnonzero(rates >= threshold)
    if keep.size == 0:
        raise DataError(f"no column passes observation-rate threshold {threshold}")
    feed = np.flatnonzero(rates >= min(threshold, feed_threshold))
    return d.select_columns(keep), d.select_columns(feed)


def write_results(results, path):
    """Write inference results as CSV (peptide_id, method, beta, se, z,
    p_value, q_value, selected)."""
    header = ["peptide_id", "method", "beta", "se", "z", "p_value", "q_value", "selected"]
    _write_csv(path, header, (
        [r.peptide_id, r.method.value, float(r.beta), float(r.se), float(r.z),
         float(r.p_value), "" if np.isnan(r.q_value) else float(r.q_value), int(r.selected)]
        for r in results
    ))
