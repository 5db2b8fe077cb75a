import csv
import io
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpi import data_model
from drpi.data_model import (
    ColumnInference,
    Dataset,
    MethodKind,
    _csv_rows,
    _read_table,
    filter_by_rate,
    load_dataset,
    observation_rate,
    write_dataset,
    write_results,
)
from drpi.errors import DataError
from drpi.imputers import load_external_nu
from drpi.sim_bench import load_cov_csv
from tests import reference_loops as ref


def make_dataset(y, mask, w, **kw):
    y = np.asarray(y, dtype=float)
    mask = np.asarray(mask)
    w = np.asarray(w, dtype=float)
    return Dataset(
        y_obs=np.where(mask == 1, y, np.nan),
        mask=mask,
        w=w,
        peptide_ids=kw.get("peptide_ids", tuple(f"p{j}" for j in range(y.shape[1]))),
        sample_ids=tuple(str(i) for i in range(y.shape[0])),
        covariate_names=kw.get(
            "covariate_names", tuple(["intercept"] + [f"w{j}" for j in range(1, w.shape[1])])
        ),
    )


@pytest.fixture
def small_csvs(tmp_path):
    out = tmp_path / "y.csv"
    cov = tmp_path / "w.csv"
    out.write_text("a,b\n1.0,2.0\n3.0,\n5.0,6.0\n7.0,8.0\n")
    cov.write_text("x1,x2\n0.1,1.0\n0.2,0.0\n0.3,1.0\n0.4,0.0\n")
    return out, cov


def test_load_small_csv_mask_sum(small_csvs):
    d = load_dataset(*small_csvs)
    assert d.mask.sum() == 7
    assert d.peptide_ids == ("a", "b")


def test_intercept_prepended(small_csvs):
    d = load_dataset(*small_csvs)
    assert d.q == 3
    assert d.covariate_names[0] == "intercept"
    assert (d.w[:, 0] == 1.0).all()


def test_missing_token_detection(tmp_path):
    out = tmp_path / "y.csv"
    cov = tmp_path / "w.csv"
    out.write_text("a\n1.0\nNaN\n2.0\n3.0\n")
    cov.write_text("x\n0\n1\n2\n3\n")
    d = load_dataset(out, cov, missing_token="NaN")
    assert d.mask[1, 0] == 0
    assert d.mask.sum() == 3


def test_non_numeric_cell_errors(tmp_path):
    out = tmp_path / "y.csv"
    cov = tmp_path / "w.csv"
    out.write_text("a\n1.0\noops\n2.0\n")
    cov.write_text("x\n0\n1\n2\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_dataset(out, cov)


@pytest.mark.parametrize("rows,message", [
    # the first fault in row order is reported, whichever kind it is
    ("1,2\n3,x \n5\n7,8\n", "non-numeric outcome cell at row 1, column 'b': 'x'"),
    ("1,2\n3\n5,x\n7,8\n", "outcome row 1 has 1 cells, expected 2"),
    ("1,2\n3,4\n5,6\n7,8,9\n", "outcome row 3 has 3 cells, expected 2"),
    # a trailing blank line is named, not counted against the covariate rows
    ("1,2\n3,4\n5,6\n7,8\n\n", "outcome row 4 has 0 cells, expected 2"),
])
def test_outcome_csv_faults_reported_in_row_order(tmp_path, rows, message):
    out = tmp_path / "y.csv"
    cov = tmp_path / "w.csv"
    out.write_text("a,b\n" + rows)
    cov.write_text("x\n0\n1\n2\n3\n")
    with pytest.raises(DataError) as exc:
        load_dataset(out, cov)
    assert str(exc.value) == message


def _read_fault(tmp_path, kind, body):
    """The DataError message of reading ``body`` as a ``kind`` CSV next to a
    valid 3-row outcome CSV with columns a, b."""
    out, cov, bad = tmp_path / "y.csv", tmp_path / "w.csv", tmp_path / "bad.csv"
    out.write_text("a,b\n1,2\n3,4\n5,6\n")
    cov.write_text("x\n0\n1\n2\n")
    bad.write_text(body)
    with pytest.raises(DataError) as exc:
        if kind == "covariate":
            load_dataset(out, bad)
        elif kind == "mask":
            load_dataset(out, cov, mask_path=bad)
        elif kind == "external":
            load_external_nu(bad, load_dataset(out, cov))
        else:
            load_cov_csv(bad)
    return str(exc.value)


CSV_FAULTS = [
    ("covariate", "x\n0\nz\n2\n", "non-numeric covariate cell at row 1, column 'x': 'z'"),
    ("covariate", "x\n0\n1,3\n2\n", "covariate row 1 has 2 cells, expected 1"),
    ("mask", "a,b\n1,1\n1,y\n1,1\n", "non-numeric mask CSV cell at row 1, column 'b': 'y'"),
    ("mask", "a,b\n1,1\n1\n1,1\n", "mask CSV row 1 has 1 cells, expected 2"),
    ("mask", "a,b\n1,1\n1,0\n1,1\n\n", "mask CSV row 3 has 0 cells, expected 2"),
    ("external", "a,b\n1,1\n,1\n1,1\n",
     "non-numeric external matrix cell at row 1, column 'a': ''"),
    ("external", "a,b\n1,1\n1,1\n1,1,1\n", "external matrix row 2 has 3 cells, expected 2"),
    ("covariance", "1,0\nq,1\n", "non-numeric covariance CSV cell at row 1, column 0: 'q'"),
    ("covariance", "1,0\n0\n", "covariance CSV row 1 has 1 cells, expected 2"),
]


@pytest.mark.parametrize("kind,body,message", CSV_FAULTS)
def test_csv_faults_share_one_format(tmp_path, kind, body, message):
    assert _read_fault(tmp_path, kind, body) == message


# A reader bound of 1 cell reads every file one row at a time; 2 cells read
# a 1-wide file two rows at a time and a 2-wide one a row at a time; 4
# cells read a 2-wide file two rows at a time. Row numbers in messages
# count across blocks.
BLOCK_BOUNDS = [1, 2, 4]


@pytest.mark.parametrize("block_cells", BLOCK_BOUNDS)
@pytest.mark.parametrize("kind,body,message", CSV_FAULTS)
def test_csv_faults_share_one_format_across_blocks(
    monkeypatch, tmp_path, kind, body, message, block_cells
):
    monkeypatch.setattr(data_model, "_BLOCK_CELLS", block_cells)
    assert _read_fault(tmp_path, kind, body) == message


@pytest.mark.parametrize("block_cells", [1, 2**15])
@pytest.mark.parametrize("faults,outcome,covariate,mask,message", [
    ("outcome cell, row count", "a,b\n1,2\n3,x\n", "x\n0\n1\n2\n", None,
     "non-numeric outcome cell at row 1, column 'b': 'x'"),
    ("covariate cell, row count", "a,b\n1,2\n3,4\n", "x\n0\nz\n2\n", None,
     "non-numeric covariate cell at row 1, column 'x': 'z'"),
    ("outcome cell, covariate cell", "a,b\n1,2\n3,x\n5,6\n", "x\n0\nz\n2\n", None,
     "non-numeric outcome cell at row 1, column 'b': 'x'"),
    ("covariate cell, mask cell", "a,b\n1,2\n3,4\n5,6\n", "x\n0\nz\n2\n",
     "a,b\n1,1\n1,y\n1,1\n", "non-numeric covariate cell at row 1, column 'x': 'z'"),
    ("mask cell, mask rows", "a,b\n1,2\n3,4\n5,6\n", "x\n0\n1\n2\n",
     "a,b\n1,y\n1,1\n", "non-numeric mask CSV cell at row 0, column 'b': 'y'"),
    ("mask cell, mask header", "a,b\n1,2\n3,4\n5,6\n", "x\n0\n1\n2\n",
     "a,c\n1,y\n1,1\n1,1\n", "non-numeric mask CSV cell at row 0, column 'c': 'y'"),
])
def test_two_csv_faults_reported_in_load_order(
    monkeypatch, tmp_path, faults, outcome, covariate, mask, message, block_cells
):
    """A file pair with two faults reports the one the load reaches first:
    the outcome file's own fault, the covariate file's, the row counts,
    then the mask's own fault, its shape and its header, however the files
    are split into blocks."""
    monkeypatch.setattr(data_model, "_BLOCK_CELLS", block_cells)
    paths = {}
    for name, text in (("y", outcome), ("w", covariate), ("m", mask)):
        if text is not None:
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text)
    with pytest.raises(DataError) as exc:
        load_dataset(paths["y"], paths["w"], mask_path=paths.get("m"))
    assert str(exc.value) == message


@pytest.mark.parametrize("block_cells", [1, 2**15])
def test_undecodable_bytes_after_a_bad_cell_are_reported_first(
    monkeypatch, tmp_path, block_cells
):
    """The whole file is read before a cell fault is raised; the bad byte
    lies past the first read of the file, after the bad cell's block."""
    monkeypatch.setattr(data_model, "_BLOCK_CELLS", block_cells)
    out, cov = tmp_path / "y.csv", tmp_path / "w.csv"
    out.write_bytes(b"a,b\n1,x\n" + b"3,4\n" * 5000 + b"5,\xe9\n")
    cov.write_text("x\n0\n1\n2\n")
    with pytest.raises(DataError, match=r"y\.csv: .*can't decode byte 0xe9"):
        load_dataset(out, cov)


@pytest.mark.parametrize("cell", ["0.5", "2", "nan"])
def test_mask_cells_other_than_zero_or_one_refused(tmp_path, cell):
    assert _read_fault(tmp_path, "mask", f"a,b\n1,1\n1,{cell}\n1,1\n") == (
        "mask entries must be 0 or 1"
    )


def test_mask_cells_parsed_as_floats(tmp_path):
    out, cov, msk = tmp_path / "y.csv", tmp_path / "w.csv", tmp_path / "m.csv"
    out.write_text("a,b\n1,2\n3,4\n5,6\n")
    cov.write_text("x\n0\n1\n2\n")
    msk.write_text("a,b\n1.0,0\n1, 1\n0.0,1\n")
    assert load_dataset(out, cov, mask_path=msk).mask.tolist() == [[1, 0], [1, 1], [0, 1]]


def test_rank_deficient_covariates_error(tmp_path):
    out = tmp_path / "y.csv"
    cov = tmp_path / "w.csv"
    out.write_text("a\n1\n2\n3\n4\n")
    cov.write_text("x1,x2\n1,2\n1,2\n1,2\n1,2\n")
    with pytest.raises(DataError, match="rank"):
        load_dataset(out, cov)


def test_row_count_mismatch(tmp_path):
    out = tmp_path / "y.csv"
    cov = tmp_path / "w.csv"
    out.write_text("a\n1\n2\n")
    cov.write_text("x\n0\n1\n2\n")
    with pytest.raises(DataError, match="mismatch"):
        load_dataset(out, cov)


def test_all_missing_column_warns(tmp_path):
    out = tmp_path / "y.csv"
    cov = tmp_path / "w.csv"
    out.write_text("a,b\n1,\n2,\n3,\n")
    cov.write_text("x\n0\n1\n2\n")
    with pytest.warns(UserWarning, match="all-missing"):
        d = load_dataset(out, cov)
    assert d.p == 2  # retained for indexing


def test_mask_csv_overrides_tokens(tmp_path):
    out = tmp_path / "y.csv"
    cov = tmp_path / "w.csv"
    msk = tmp_path / "m.csv"
    out.write_text("a,b\n1,2\n3,4\n5,6\n")
    cov.write_text("x\n0\n1\n2\n")
    msk.write_text("a,b\n1,0\n1,1\n0,1\n")
    d = load_dataset(out, cov, mask_path=msk)
    assert d.mask.tolist() == [[1, 0], [1, 1], [0, 1]]
    assert np.isnan(d.y_obs[0, 1])


def test_observation_rate():
    mask = np.ones((10, 3), dtype=np.int8)
    mask[:3, 1] = 0
    mask[:, 2] = 0
    y = np.arange(30.0).reshape(10, 3)
    w = np.column_stack([np.ones(10), np.arange(10.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d = make_dataset(y, mask, w)
    rates = observation_rate(d)
    assert rates.tolist() == [1.0, 0.7, 0.0]


def test_filter_by_rate_paper_example():
    # rates 0.9, 0.6, 0.1 with threshold 0.7 -> inference {0}, feed {0, 1}
    rng = np.random.default_rng(0)
    n = 10
    mask = np.ones((n, 3), dtype=np.int8)
    mask[0, 0] = 0
    mask[:4, 1] = 0
    mask[1:, 2] = 0
    y = rng.normal(size=(n, 3))
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    d = make_dataset(y, mask, w)
    inf, feed = filter_by_rate(d, 0.7)
    assert inf.peptide_ids == ("p0",)
    assert feed.peptide_ids == ("p0", "p1")


def test_filter_threshold_zero_keeps_everything():
    rng = np.random.default_rng(1)
    mask = (rng.random((10, 4)) > 0.5).astype(np.int8)
    mask[0] = 1  # no all-missing columns
    y = rng.normal(size=(10, 4))
    w = np.column_stack([np.ones(10), rng.normal(size=10)])
    d = make_dataset(y, mask, w)
    inf, feed = filter_by_rate(d, 0.0)
    assert inf.p == feed.p == 4


def test_filter_threshold_one_boundary():
    rng = np.random.default_rng(2)
    mask = np.ones((10, 3), dtype=np.int8)
    mask[0, 1] = 0
    y = rng.normal(size=(10, 3))
    w = np.column_stack([np.ones(10), rng.normal(size=10)])
    d = make_dataset(y, mask, w)
    inf, _ = filter_by_rate(d, 1.0)
    assert inf.peptide_ids == ("p0", "p2")


def test_filter_empty_inference_set_errors():
    rng = np.random.default_rng(3)
    mask = np.ones((10, 2), dtype=np.int8)
    mask[:6] = 0
    y = rng.normal(size=(10, 2))
    w = np.column_stack([np.ones(10), rng.normal(size=10)])
    d = make_dataset(y, mask, w)
    with pytest.raises(DataError, match="threshold"):
        filter_by_rate(d, 0.9)


@pytest.mark.parametrize("threshold,feed", [(-0.1, 0.2), (1.5, 0.2), (0.5, -3.0), (0.5, 7.0)])
def test_filter_thresholds_outside_unit_interval_refused(threshold, feed):
    d = make_dataset(np.ones((4, 2)), np.ones((4, 2), dtype=np.int8), np.ones((4, 1)))
    with pytest.raises(DataError, match=r"threshold must be in \[0, 1\]"):
        filter_by_rate(d, threshold, feed)


def test_inference_subset_of_feed_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        mask = (rng.random((12, 6)) > rng.random()).astype(np.int8)
        mask[0] = 1
        y = rng.normal(size=(12, 6))
        w = np.column_stack([np.ones(12), rng.normal(size=12)])
        d = make_dataset(y, mask, w)
        thr = float(rng.random())
        try:
            inf, feed = filter_by_rate(d, thr)
        except DataError:
            assert (observation_rate(d) < thr).all()
            continue
        assert set(inf.peptide_ids) <= set(feed.peptide_ids)


def test_write_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    n, p = 8, 5
    mask = (rng.random((n, p)) > 0.3).astype(np.int8)
    mask[0] = 1
    y = rng.normal(size=(n, p)) * 1e3
    w = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    d = make_dataset(y, mask, w)
    out, cov, msk = tmp_path / "y.csv", tmp_path / "w.csv", tmp_path / "m.csv"
    write_dataset(d, out, cov, msk)
    d2 = load_dataset(out, cov, mask_path=msk)
    assert (d2.mask == d.mask).all()
    obs = d.mask == 1
    np.testing.assert_array_equal(d2.y_obs[obs], d.y_obs[obs])
    np.testing.assert_array_equal(d2.w, d.w)


@pytest.mark.parametrize("labels,message", [
    ({"peptide_ids": ("p0", "p1", "p0", "p1")}, "duplicate peptide id 'p0'"),
    ({"covariate_names": ("intercept", "x", "x")}, "duplicate covariate 'x'"),
])
def test_duplicate_labels_refused(labels, message):
    """A repeated peptide id or covariate name would make lookups by name
    ambiguous; the first name seen again is reported."""
    rng = np.random.default_rng(0)
    w = np.column_stack([np.ones(8), rng.normal(size=(8, 2))])
    with pytest.raises(DataError, match=message):
        make_dataset(rng.normal(size=(8, 4)), np.ones((8, 4), dtype=np.int8), w, **labels)


@pytest.mark.parametrize("bad,value", [
    ("mask", np.nan), ("mask", 2), ("mask", -1), ("y", np.nan),
], ids=["nan_in_mask", "two_in_mask", "minus_one_in_mask", "nan_at_observed_cell"])
def test_dataset_refuses_bad_mask_and_non_finite_observed_cells(bad, value):
    y, mask = np.arange(10.0).reshape(5, 2), np.ones((5, 2))
    (mask if bad == "mask" else y)[2, 1] = value
    if bad == "y":
        y[3, 0] = np.inf  # a later cell in row order
    w = np.column_stack([np.ones(5), np.arange(5.0)])
    want = "mask entries must be 0 or 1" if bad == "mask" else "non-finite value at an observed cell"
    with pytest.raises(DataError, match=want) as exc:
        Dataset(y, mask, w, ("a", "b"), tuple("01234"), ("intercept", "x"))
    if bad == "y":
        assert str(exc.value) == "non-finite value at an observed cell: row 2, peptide 'b'"


def test_dataset_accepts_bool_mask_and_nan_at_missing_cell():
    y, mask = np.arange(10.0).reshape(5, 2), np.ones((5, 2), dtype=bool)
    y[2, 1], mask[2, 1] = np.nan, False
    w = np.column_stack([np.ones(5), np.arange(5.0)])
    d = Dataset(y, mask, w, ("a", "b"), tuple("01234"), ("intercept", "x"))
    assert d.mask.dtype == np.int8 and d.mask.sum() == 9


def test_dataset_immutable():
    d = make_dataset(
        np.ones((5, 2)), np.ones((5, 2), dtype=np.int8),
        np.column_stack([np.ones(5), np.arange(5.0)]),
    )
    with pytest.raises(ValueError):
        d.y_obs[0, 0] = 99.0


# The CSV reader and writer against the cell-by-cell originals in
# tests/reference_loops.py: values and masks bitwise, DataError messages
# equal, written files byte for byte.

READER_CASES = {
    "padded": "a,b\n 1.5 , 2\n3 ,\t4\t\n",
    "whitespace_only": "a,b\n1,  \n\t ,4\n",
    "tokens": "a,b\nNA,2\n NA ,-999\n-999 ,4\n",
    "negative_zero": "a,b\n-0.0,0.0\n-0,+0\n",
    "nan_observed": "a,b\nnan,1\n2,NaN\n",
    "underscores_and_exponents": "a,b\n1_000,2e3\n-inf,.5\n",
    "bad_then_ragged": "a,b\n1,x\n3\n",
    "ragged_then_bad": "a,b\n1\n3,x\n",
    "ragged_long_row": "a,b\n1,2\n3,4,5\n",
    "blank_line": "a,b\n1,2\n\n3,4\n",
    "trailing_newlines": "a,b\n1,2\n3,4\n\n\n",
    "no_final_newline": "a,b\n1,2\n3,4",
    "lone_cr": "a,b\r1,2\r3,4",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "mixed_line_ends": "a,b\r\n1,2\n3,4\r5,6\r\n",
    "control_characters_that_end_no_csv_line": "a,b\n1,2\x0c\n3\x0b,4\n5\x1c,6\n",
    "quoted_header": '"a","b"\r\n1,2\r\n3,\r\n',
    "quoted_header_escapes": '"a""q","b,c"\n1,2\n',
    "quoted_header_line_break": '"a\nq",b\n1,2\n',
    "open_quote_in_header": '"a,b\n1,2\n',
    "quote_inside_field": 'a"b,c\n1,2\n',
    "quoted_body": 'a,b\n"1",2\n" 3 ",""\n',
    "header_only": "a,b\n",
    "header_without_line_end": "a,b",
    "blank_first_line": "\na,b\n1,2\n",
    "empty": "",
    "late_bad_cell": "a,b\n1,2\nNA,4\n5,\n7,x\n9,10\n",
    "late_ragged_row": "a,b\n1,2\nNA,4\n5,\n7\n9,x\n",
    "late_quote": 'a,b\n1,2\nNA,4\n"5",\n7,""\n9,10\n',
}


def _table(path, missing):
    return _read_table(path, "outcome", missing)


def _reference_table(path, missing):
    header, rows = ref.read_csv(path)
    return (header, *ref.parse_cells(rows, header, "outcome", missing))


def _table_or_message(read, path, missing):
    try:
        return read(path, missing)
    except DataError as exc:
        return str(exc)


def _check_reader(tmp_path, case, token):
    path = tmp_path / "y.csv"
    path.write_bytes(READER_CASES[case].encode())
    missing = None if token is None else {"", token}
    got = _table_or_message(_table, path, () if missing is None else missing)
    want = _table_or_message(
        _reference_table, path, None if missing is None else missing.__contains__
    )
    if isinstance(want, str):
        assert got == want
        return
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
    assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
    assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("token", ["", "NA", "-999", None])
@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_reader_matches_reference_loop(tmp_path, case, token):
    """None stands for a matrix without missing cells (covariates, mask,
    external ν); a token adds itself to the empty cell as missing."""
    _check_reader(tmp_path, case, token)


@pytest.mark.parametrize("block_cells", BLOCK_BOUNDS)
@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_reader_matches_reference_loop_across_blocks(monkeypatch, tmp_path, case, block_cells):
    monkeypatch.setattr(data_model, "_BLOCK_CELLS", block_cells)
    for token in ["", "NA", "-999", None]:
        _check_reader(tmp_path, case, token)


def _results(method):
    """Lightweight records for the reference writer; ``_as_columns`` gives
    the writer's arguments."""
    ids = ["p1", "pep,2", 'pep"3', "pep\n4", " pep5 ", "pep\r6"]
    beta = [0.1, -0.0, np.float64(1e-300), float("inf"), np.float64("nan"), 3]
    q = [float("nan"), 0.0, np.float64(1 / 3), np.float64("nan"), 1.0, 0.1 + 0.2]
    return [
        SimpleNamespace(
            peptide_id=pid, method=method, beta=b, se=abs(b) / 3 + 1e-17 * k,
            z=np.float64(-b), p_value=1 / (k + 1), q_value=qv, selected=bool(k % 2),
        )
        for k, (pid, b, qv) in enumerate(zip(ids, beta, q))
    ]


def _as_columns(records):
    """(peptide ids, ColumnInference, q-values, selected indices) of the
    records, after a skipped first column."""
    def column(name):
        return np.array([np.nan] + [getattr(r, name) for r in records], dtype=float)

    est = ColumnInference(
        column("beta"), column("se"), column("z"), column("p_value"),
        np.zeros(len(records) + 1, dtype=bool),
        np.array(["all entries missing"] + [""] * len(records), dtype=object),
    )
    q = np.array([r.q_value for r in records], dtype=float)
    selected = np.flatnonzero([r.selected for r in records])
    return ["skipped", *(r.peptide_id for r in records)], est, q, selected


@pytest.mark.parametrize("method", [MethodKind.DR_UW, MethodKind.PLUGIN, MethodKind.COMPLETE])
@pytest.mark.parametrize("count", [0, 1, 6])
def test_write_results_matches_reference_loop(tmp_path, count, method):
    """The kept columns are written as the reference loop writes their
    records; the skipped column is left out."""
    results = _results(method)[:count]
    ids, est, q, selected = _as_columns(results)
    write_results(ids, method, est, q, selected, tmp_path / "new.csv")
    ref.write_results(results, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _rows(path):
    """(header, body rows) of ``path`` as the reader splits them."""
    rows = list(_csv_rows(path))
    return rows[0], rows[1:]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_quoted_body_is_read_once_from_a_pipe():
    """A pipe, such as ``--outcomes <(zcat y.csv.gz)``, can be read only
    once, so the quoted rows must come from the same pass as the rest."""
    text = 'a,b\n1,2\n"3",""\n4,5\n'
    r, w = os.pipe()
    try:
        os.write(w, text.encode())
        os.close(w)
        assert _rows(f"/dev/fd/{r}") == (["a", "b"], [["1", "2"], ["3", ""], ["4", "5"]])
    finally:
        os.close(r)


def test_csv_error_names_the_file(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text('"a"\n"' + "1" * 200_000 + '"\n')
    with pytest.raises(DataError, match=r"y\.csv: field larger than field limit"):
        _read_table(path, "outcome")


def test_undecodable_file_is_a_data_error(tmp_path):
    path = tmp_path / "y.csv"
    path.write_bytes(b"a\n\xe9\n")
    with pytest.raises(DataError, match=r"y\.csv: .*can't decode byte 0xe9"):
        _read_table(path, "outcome")


# csv.reader refuses NUL on Python 3.10; a BOM is dropped only at the start
_CSV_CHAR = st.one_of(
    st.sampled_from(list(',\r\n \t1.a"\x0b\x0c\x1c\x85\u2028\ufeff')),
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
)


def _reader_agrees_with_csv(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(text.encode())
    want = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    if not want:
        with pytest.raises(DataError, match="empty file"):
            _read_table(path, "outcome")
    else:
        assert _rows(path) == (want[0], want[1:])


@settings(max_examples=300, deadline=None)
@given(text=st.text(_CSV_CHAR.filter(lambda c: c != '"'), max_size=60))
def test_split_rows_equal_csv_reader_without_quotes(tmp_path_factory, text):
    _reader_agrees_with_csv(tmp_path_factory, text)


@settings(max_examples=300, deadline=None)
@given(text=st.text(_CSV_CHAR, max_size=60))
def test_rows_equal_csv_reader_with_quotes(tmp_path_factory, text):
    _reader_agrees_with_csv(tmp_path_factory, text)
