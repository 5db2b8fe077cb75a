"""Core containers for outcome matrices with missingness, plus CSV I/O.

The outcome matrix stores NaN at unobserved cells; the binary mask is the
single source of truth for observability and no arithmetic ever reads a
masked cell.
"""
from __future__ import annotations

import csv
import math
import warnings
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
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
        if not ((m == 0) | (m == 1)).all():
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
        if len(self.peptide_ids) != p or len(self.sample_ids) != n:
            raise DataError("label counts do not match matrix shape")
        bad = ~np.isfinite(y) & (m == 1)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(
                f"non-finite value at an observed cell: row {i}, "
                f"peptide {self.peptide_ids[j]!r}"
            )
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


# at most this many cells are held as Python strings at once; a file of up
# to this size is parsed in one block
_BLOCK_CELLS = 2**15


def _csv_rows(path):
    """``csv.reader``'s rows of the UTF-8 CSV file ``path``, one at a time;
    a leading byte-order mark is not part of the first row.

    A line without a quote is split with ``str.split``, which gives the
    same row at a fraction of the cost. From the first line with a quote
    on, ``csv.reader`` reads the rest, so the file is read once even
    when it is a pipe.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for line in fh:
                if '"' in line:
                    # csv.reader keeps no state across an unquoted line end
                    yield from csv.reader(chain([line], fh))
                    return
                line = line.rstrip("\r\n")
                yield line.split(",") if line else []
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_block(rows, names, what: str, missing, start: int) -> tuple:
    """(values, observed) of the CSV body ``rows`` under header ``names``,
    flat: the floats of the stripped cells, NaN wherever a cell equals one
    of the ``missing`` tokens, and the boolean mask of the other cells.

    The first fault in row order is raised, a non-numeric cell or a row of
    the wrong length, as a DataError that names ``what`` and counts rows
    from ``start``.
    """
    n, p = len(rows), len(names)
    ragged = next((i for i, row in enumerate(rows) if len(row) != p), n)
    # the cells of the rows before the first ragged one, parsed in bulk; a
    # bad cell among them is reported first, as a row-by-row read would
    cells = np.fromiter(map(str.strip, chain.from_iterable(rows[:ragged])), object, ragged * p)
    observed = np.ones(cells.size, bool)
    for token in missing:
        observed &= cells != token
    cells[~observed] = np.nan
    try:
        # an object-to-float cast calls float() on each cell
        values = cells.astype(float)
    except ValueError:
        for k in np.flatnonzero(observed):
            try:
                float(cells[k])
            except ValueError:
                raise DataError(
                    f"non-numeric {what} cell at row {start + k // p}, column "
                    f"{names[k % p]!r}: {cells[k]!r}"
                ) from None
    if ragged < n:
        raise DataError(
            f"{what} row {start + ragged} has {len(rows[ragged])} cells, expected {p}"
        )
    return values, observed


def _read_table(path, what: str, missing=(), header: bool = True) -> tuple:
    """(names, values, observed) of the CSV file ``path``, read in one pass:
    its header (column indexes if it has none) and its body's (n, p)
    values and observed mask.

    Each block of at most ``_BLOCK_CELLS`` cells (one row if a row is
    wider) is converted to floats before the next is read, so no more
    than a block of cells is ever held as strings. A cell fault is raised
    once the rest of the file has been read, so that a decode or quoting
    error anywhere in the file comes first. Without a ``header`` the
    columns are named by index and blank lines are skipped.
    """
    rows = _csv_rows(path)
    names = next(rows, None)
    if names is None:
        raise DataError(f"{path}: empty file")
    if not header:
        rows = filter(None, chain([names], rows))
        first = next(rows, [])
        rows = chain([first], rows) if first else rows
        names = range(len(first))
    step = max(1, _BLOCK_CELLS // max(len(names), 1))
    # an empty first block, so that a file without body rows concatenates
    n, values, observed = 0, [np.empty(0)], [np.empty(0, bool)]
    for block in iter(lambda: list(islice(rows, step)), []):
        try:
            v, o = _parse_block(block, names, what, missing, n)
        except DataError:
            deque(rows, maxlen=0)  # read to the end
            raise
        values.append(v)
        observed.append(o)
        n += len(block)
    shape = (n, len(names))
    return names, np.concatenate(values).reshape(shape), np.concatenate(observed).reshape(shape)


def _read_matrix(path, ids, n: int, what: str) -> np.ndarray:
    """(n, len(ids)) float array from a CSV whose header must be ``ids``."""
    names, values, _ = _read_table(path, what)
    if values.shape != (n, len(ids)):
        raise DataError(f"{what} is {len(values)}x{len(names)}, expected {n}x{len(ids)}")
    for got, want in zip(names, ids):
        if got != want:
            raise DataError(f"{what} header has {got!r} where {want!r} is expected")
    return values


def _write_rows(path, header, rows):
    """Write a CSV of ``header`` then ``rows``, each cell as csv.writer
    writes it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _write_csv(path, header, rows):
    """Write a CSV of ``header`` then ``rows``; a float cell, numpy scalars
    included, is written as ``repr(float(v))`` and any other cell as it is."""
    _write_rows(path, header, (
        [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
        for row in rows
    ))


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
    pep_ids, y, observed = _read_table(outcome_path, "outcome", {"", missing_token})
    cov_names, w, _ = _read_table(covariate_path, "covariate")
    n = len(y)
    if n != len(w):
        raise DataError(f"row count mismatch: {n} outcome rows vs {len(w)} covariate rows")
    mask = observed.astype(np.int8)
    if mask_path is not None:
        mask = _read_matrix(mask_path, pep_ids, n, "mask CSV")
        y[mask == 0] = np.nan

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


def _kept_rows(peptide_ids, est: ColumnInference, selected) -> tuple:
    """(column indexes, peptide ids, 0/1 selected flags) of the kept columns
    of ``est``; ``selected`` indexes the kept columns, as ``select`` returns."""
    kept = np.flatnonzero(est.kept)
    flags = np.zeros(kept.size, dtype=int)
    flags[selected] = 1
    return kept, [peptide_ids[j] for j in kept], flags.tolist()


def write_results(peptide_ids, method: MethodKind, est: ColumnInference, q_values, selected, path):
    """Write the kept columns of ``est``, the inference of ``method``, as CSV
    (peptide_id, method, beta, se, z, p_value, q_value, selected).

    ``peptide_ids`` name every column of ``est``.  ``q_values`` and the
    indices ``selected`` run over its kept columns, in order, as
    ``bh_qvalues`` and ``select`` return them; a NaN q-value is written as
    an empty cell."""
    header = ["peptide_id", "method", "beta", "se", "z", "p_value", "q_value", "selected"]
    kept, ids, flags = _kept_rows(peptide_ids, est, selected)
    # each float column is formatted in one pass, as _write_csv would
    floats = [list(map(repr, a[kept].tolist())) for a in (est.beta, est.se, est.z, est.p_value)]
    q = ["" if math.isnan(v) else repr(v) for v in np.asarray(q_values, dtype=float).tolist()]
    _write_rows(path, header, zip(ids, repeat(method.value), *floats, q, flags))
