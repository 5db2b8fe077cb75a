import warnings

import numpy as np
import pytest

from drpi.data_model import (
    Dataset,
    filter_by_rate,
    load_dataset,
    observation_rate,
    write_dataset,
)
from drpi.errors import DataError
from drpi.imputers import load_external_nu
from drpi.sim_bench import load_cov_csv


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


@pytest.mark.parametrize("kind,body,message", [
    ("covariate", "x\n0\nz\n2\n", "non-numeric covariate cell at row 1, column 'x': 'z'"),
    ("covariate", "x\n0\n1,3\n2\n", "covariate row 1 has 2 cells, expected 1"),
    ("mask", "a,b\n1,1\n1,y\n1,1\n", "non-numeric mask CSV cell at row 1, column 'b': 'y'"),
    ("mask", "a,b\n1,1\n1\n1,1\n", "mask CSV row 1 has 1 cells, expected 2"),
    ("external", "a,b\n1,1\n,1\n1,1\n",
     "non-numeric external matrix cell at row 1, column 'a': ''"),
    ("external", "a,b\n1,1\n1,1\n1,1,1\n", "external matrix row 2 has 3 cells, expected 2"),
    ("covariance", "1,0\nq,1\n", "non-numeric covariance CSV cell at row 1, column 0: 'q'"),
    ("covariance", "1,0\n0\n", "covariance CSV row 1 has 1 cells, expected 2"),
])
def test_csv_faults_share_one_format(tmp_path, kind, body, message):
    assert _read_fault(tmp_path, kind, body) == message


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


def test_dataset_immutable():
    d = make_dataset(
        np.ones((5, 2)), np.ones((5, 2), dtype=np.int8),
        np.column_stack([np.ones(5), np.arange(5.0)]),
    )
    with pytest.raises(ValueError):
        d.y_obs[0, 0] = 99.0
