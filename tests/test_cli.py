import argparse
import contextlib
import csv
import ctypes
import inspect
import logging
import platform
import subprocess
import sys

import numpy as np
import pytest

from drpi import cli, dr_inference, sim_bench
from drpi.cli import _parse_rho_grid, emit_volcano_data, parse_and_dispatch
from drpi.data_model import (
    ColumnInference, Dataset, MethodKind, filter_by_rate, load_dataset, write_dataset,
    write_results,
)
from drpi.dr_inference import InferenceConfig, infer_columns
from drpi.errors import DataError
from drpi.imputers import ImputedMatrix, ImputerConfig, impute
from drpi.multiple_testing import bh_qvalues, select
from drpi.sim_bench import SimConfig, gen_dataset
from tests.test_batched import ROOT, _in_fresh_process


def run_cli(*argv):
    return parse_and_dispatch(list(argv))


@pytest.fixture
def csv_pair(tmp_path):
    """Small outcomes/covariates pair with some missing cells."""
    rng = np.random.default_rng(0)
    n, p = 40, 8
    a = (np.arange(n) % 2).astype(float)
    y = np.outer(a, np.linspace(0, 2, p)) + rng.normal(size=(n, p))
    mask = rng.random((n, p)) > 0.25
    out = tmp_path / "outcomes.csv"
    with open(out, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"pep{j}" for j in range(p)])
        for i in range(n):
            wr.writerow(
                ["" if not mask[i, j] else repr(float(y[i, j])) for j in range(p)]
            )
    cov = tmp_path / "covariates.csv"
    with open(cov, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["a"])
        for i in range(n):
            wr.writerow([repr(float(a[i]))])
    return out, cov


def test_no_subcommand_usage_error(capsys):
    assert run_cli() == 1


def test_unknown_flag_exit_1():
    assert run_cli("toy-power", "--bogus", "x", "--out", "o.csv") == 1


def test_missing_required_flag_exit_1():
    assert run_cli("analyze", "--outcomes", "x.csv") == 1


def test_missing_input_file_exit_2(tmp_path, capsys):
    code = run_cli(
        "analyze",
        "--outcomes", str(tmp_path / "nope.csv"),
        "--covariates", str(tmp_path / "nope2.csv"),
        "--target", "a",
        "--out", str(tmp_path / "out.csv"),
    )
    assert code == 2


PEP_IDS = [f"pep{j}" for j in range(8)]  # the csv_pair header; 40 rows


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _analyze_with(csv_pair, tmp_path, flag, path):
    """Exit code of analyze on csv_pair with a --mask or --external-nu file."""
    imputer = "external" if flag == "--external-nu" else "lowdim"
    return run_cli(
        "analyze", "--outcomes", str(csv_pair[0]), "--covariates", str(csv_pair[1]),
        "--target", "a", "--imputer", imputer, flag, str(path),
        "--out", str(tmp_path / "out.csv"), "--quiet",
    )


@pytest.mark.parametrize("bad", ["mask_non_integer", "mask_ragged_row", "external_empty"])
def test_bad_input_csv_exits_2(bad, csv_pair, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    rows = [[1] * 8 for _ in range(40)]
    if bad == "mask_non_integer":
        rows[3][2] = "0.5"
    elif bad == "mask_ragged_row":
        rows[3].pop()
    if bad == "external_empty":
        path.write_text("")
    else:
        _write_csv(path, PEP_IDS, rows)
    flag = "--external-nu" if bad.startswith("external") else "--mask"
    assert _analyze_with(csv_pair, tmp_path, flag, path) == 2
    assert "drpi: data error:" in capsys.readouterr().err


def test_mask_marking_an_empty_cell_observed_names_the_cell(csv_pair, tmp_path, capsys):
    with open(csv_pair[0], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    i, j = next((i, j) for i, row in enumerate(rows) for j, cell in enumerate(row) if not cell)
    path = tmp_path / "m.csv"
    _write_csv(path, PEP_IDS, [[1] * 8 for _ in range(40)])
    assert _analyze_with(csv_pair, tmp_path, "--mask", path) == 2
    assert capsys.readouterr().err == (
        f"drpi: data error: non-finite value at an observed cell: row {i}, peptide 'pep{j}'\n"
    )


@pytest.mark.parametrize("flag", ["--mask", "--external-nu"])
def test_reordered_header_rejected(flag, csv_pair, tmp_path, capsys):
    """A mask or external-nu file of the right shape whose columns are in
    another order than the outcome CSV's is refused, not misaligned."""
    path = tmp_path / "m.csv"
    _write_csv(path, [PEP_IDS[1], PEP_IDS[0]] + PEP_IDS[2:], [[1] * 8 for _ in range(40)])
    assert _analyze_with(csv_pair, tmp_path, flag, path) == 2
    assert "'pep1' where 'pep0' is expected" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--prop-clip", "1.5"), ("--prop-clip", "1"), ("--prop-clip", "0"), ("--prop-clip", "-1"),
    ("--prop-max-iter", "0"), ("--prop-tol", "-1e-8"), ("--prop-tol", "nan"),
])
def test_out_of_range_propensity_setting_exits_2(flag, value, csv_pair, tmp_path, capsys):
    """A clip of 1 or more would turn the weighted estimators into plug-ins,
    a clip of 0 or less leaves the weights unbounded, and zero iterations
    leave every propensity at 1/2; none of them may run silently."""
    out = tmp_path / "out.csv"
    code = run_cli(
        "analyze", "--outcomes", str(csv_pair[0]), "--covariates", str(csv_pair[1]),
        "--target", "a", "--imputer", "lowdim", f"{flag}={value}", "--out", str(out), "--quiet",
    )
    assert code == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,field", [
    (("--imputer-rank=-1",), "max_rank"), (("--alpha=1.5",), "alpha"), (("--alpha=0",), "alpha"),
    (("--obs-threshold=-0.5",), "--obs-threshold must be in [0, 1]"),
    (("--feed-threshold=7",), "--feed-threshold must be in [0, 1]"),
    (("--feed-threshold=-3",), "--feed-threshold must be in [0, 1]"),
    (("--feed-threshold=0.9",),
     "--feed-threshold has no effect without a positive --obs-threshold"),
    (("--obs-threshold=0.7", "--feed-threshold=0.1", "--method=dr_w"),
     "--feed-threshold has no effect with --method dr_w"),
    (("--obs-threshold=0.7", "--feed-threshold=0.1", "--method=complete"),
     "--feed-threshold has no effect with --method complete"),
    (("--obs-threshold=0.7", "--feed-threshold=0.1", "--cross-fit=5"),
     "--feed-threshold has no effect with --cross-fit 5"),
    (("--imputer=external",), "--external-nu and --imputer external"),
])
def test_out_of_range_flag_exits_2_before_reading_csvs(flags, field, tmp_path, capsys):
    """A negative rank cap would silently lift the cap, an alpha outside
    (0, 1) would only fail after the whole analysis, an observation-rate
    threshold outside [0, 1] would be ignored, as would a feed threshold
    without an observation threshold or with a method or cross-fitting
    that fits no imputer on the feed set, and the external imputer
    needs its --external-nu file; each is refused before the inputs, which
    do not exist here, are opened."""
    out = tmp_path / "out.csv"
    code = run_cli(
        "analyze", "--outcomes", str(tmp_path / "nope.csv"),
        "--covariates", str(tmp_path / "nope2.csv"), "--target", "a",
        *flags, "--out", str(out), "--quiet",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert field in err and "nope" not in err
    assert not out.exists()


def test_byte_order_marks_are_not_read_as_names(csv_pair, tmp_path):
    """Excel's "CSV UTF-8" export starts each file with a byte-order mark;
    the covariate and the first peptide id keep their plain names."""
    marked = []
    for path in csv_pair:
        marked.append(tmp_path / f"bom_{path.name}")
        marked[-1].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    outs = []
    for outcomes, covariates in (csv_pair, marked):
        outs.append(tmp_path / f"out{len(outs)}.csv")
        assert run_cli(
            "analyze", "--outcomes", str(outcomes), "--covariates", str(covariates),
            "--target", "a", "--imputer", "lowdim", "--out", str(outs[-1]), "--quiet",
        ) == 0
    assert outs[1].read_bytes() == outs[0].read_bytes()
    assert b"pep0," in outs[1].read_bytes()


def test_quoted_field_over_csv_limit_exits_2(csv_pair, tmp_path, capsys):
    """csv.reader refuses a field over 131072 characters; the command says
    which file instead of ending in a traceback."""
    bad = tmp_path / "quoted.csv"
    bad.write_text('"a"\n"' + "1" * 200_000 + '"\n')
    out = tmp_path / "out.csv"
    code = run_cli(
        "analyze", "--outcomes", str(csv_pair[0]), "--covariates", str(bad),
        "--target", "a", "--out", str(out), "--quiet",
    )
    assert code == 2
    assert "quoted.csv: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


def test_external_nu_without_external_imputer_exits_2(csv_pair, tmp_path, capsys):
    """An --external-nu file would be ignored by any other imputer."""
    out = tmp_path / "out.csv"
    code = run_cli(
        "analyze", "--outcomes", str(csv_pair[0]), "--covariates", str(csv_pair[1]),
        "--target", "a", "--imputer", "lowdim", "--external-nu", str(tmp_path / "nu.csv"),
        "--out", str(out), "--quiet",
    )
    assert code == 2
    assert "--external-nu and --imputer external" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,field", [
    (("simulate", "--n", "40", "--p", "10", "--reps", "0"), "reps"),
    (("simulate", "--n", "40", "--p", "10", "--cutoffs", "0.05,1.5"), "alpha"),
    (("simulate", "--n", "40", "--p", "10", "--threads", "-1"), "threads"),
    (("toy-power", "--n", "40", "--reps", "0"), "reps"),
    (("simulate", "--n", "40", "--cutoffs", "x"), "'x'"),
    (("simulate", "--n", "40", "--methods", "dr_uw,bogus"), "'bogus'"),
    (("toy-power", "--n", "40", "--rho", "a:b"), "'a'"),
    (("toy-power", "--n", "40", "--rho", "0.1,zz"), "'zz'"),
    (("toy-power", "--n", "40", "--rho", "0:1:0"), "step"),
    (("simulate", "--n", "40", "--p", "0"), "p must be >= 1"),
    (("simulate", "--n", "3", "--p", "5"), "need n > q"),
    (("simulate", "--model", "1", "--n", "2", "--p", "5"), "need n > q"),
    (("simulate", "--n", "40", "--p", "10", "--methods", "dr_w,dr_uw,dr_w"),
     "method 'dr_w' given more than once"),
    (("simulate", "--n", "40", "--p", "10", "--cutoffs", "0.05,0.1,0.05"),
     "cutoff 0.05 given more than once"),
])
def test_empty_or_out_of_range_run_exits_2(argv, field, tmp_path, capsys, monkeypatch):
    """No repetitions or a cutoff outside (0, 1) would write an all-NaN
    table, and toy-power with no repetitions would divide by zero; each is
    refused before any repetition runs.  So is a list flag with a token
    that does not parse, or a rho grid whose step is not positive, with a
    message that names it, and a shape that would fail every repetition:
    no columns or no more samples than covariates.  A method or cutoff given
    twice would score each repetition twice, so it is refused by name."""
    monkeypatch.setattr(sim_bench, "_run_rep", lambda *a: pytest.fail("a repetition ran"))
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", str(out), "--quiet") == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--n", "0"), ("--n", "1"), ("--delta", "0"), ("--delta", "-0.2"), ("--delta", "1.5"),
    ("--beta", "nan"), ("--beta", "inf"),
])
def test_toy_power_bad_n_delta_or_beta_exits_2(flag, value, tmp_path, capsys, monkeypatch):
    """Fewer than 2 samples, an observation probability outside (0, 1] or
    a non-finite effect would print RuntimeWarnings or write a power table
    of 0s or 1s; each is refused by name before any draw."""
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("a draw was made"))
    out = tmp_path / "out.csv"
    assert run_cli("toy-power", flag, value, "--reps", "10", "--out", str(out), "--quiet") == 2
    assert f"{flag[2:]} must be" in capsys.readouterr().err
    assert not out.exists()


def test_version_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "drpi.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "drpi" in proc.stdout


@pytest.mark.parametrize("libc", ["unloadable", "without_mallopt"])
def test_analyze_without_mallopt_writes_the_same_results(libc, csv_pair, tmp_path, monkeypatch):
    """Where the C library cannot be opened, or has no mallopt, the
    allocator setting is skipped and analyze writes what it writes with it."""
    def args(out):
        return [
            "analyze", "--outcomes", str(csv_pair[0]), "--covariates", str(csv_pair[1]),
            "--target", "a", "--imputer", "lowdim", "--out", str(out), "--quiet",
        ]

    opened = []

    def cdll(name):
        opened.append(name)
        if libc == "unloadable":
            raise OSError("cannot open the C library")
        return object()

    assert run_cli(*args(tmp_path / "want.csv")) == 0
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cli._keep_freed_memory.cache_clear()
    try:
        assert run_cli(*args(tmp_path / "got.csv")) == 0
    finally:
        cli._keep_freed_memory.cache_clear()
    assert opened == [None]
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_analyze_end_to_end(csv_pair, tmp_path):
    out_path = tmp_path / "results.csv"
    code = run_cli(
        "analyze",
        "--outcomes", str(csv_pair[0]),
        "--covariates", str(csv_pair[1]),
        "--target", "a",
        "--method", "dr_uw",
        "--imputer", "lowdim",
        "--out", str(out_path),
        "--quiet",
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert rows[0]["method"] == "dr_uw"
    # strong signal columns should reach selection
    selected = [r for r in rows if r["selected"] == "1"]
    assert selected
    for r in rows:
        assert 0.0 <= float(r["p_value"]) <= 1.0
        assert 0.0 <= float(r["q_value"]) <= 1.0


@contextlib.contextmanager
def _fresh_process_logging():
    """Logging as a new process has it: the root logger without handlers and
    drpi's logger at NOTSET, so ``basicConfig`` installs its handler on the
    current (captured) stderr.  Everything is restored afterwards."""
    root, drpi_log = logging.getLogger(), logging.getLogger("drpi")
    saved = root.handlers[:]
    for h in saved:
        root.removeHandler(h)
    try:
        yield
    finally:
        for h in root.handlers[:]:
            root.removeHandler(h)
        for h in saved:
            root.addHandler(h)
        drpi_log.setLevel(logging.NOTSET)


@pytest.mark.parametrize("order", [
    ("default", "--quiet", "--log-level=warning", "default"),
    ("--quiet", "default", "--log-level=warning", "default"),
])
def test_quiet_and_log_level_apply_on_every_call(order, csv_pair, tmp_path, capsys):
    """``basicConfig`` acts only once per process; each later call's
    --quiet or --log-level must still set what gets printed."""
    with _fresh_process_logging():
        for flag in order:
            extra = [] if flag == "default" else [flag]
            assert run_cli(
                "analyze", "--outcomes", str(csv_pair[0]), "--covariates", str(csv_pair[1]),
                "--target", "a", "--imputer", "lowdim", "--out", str(tmp_path / "o.csv"), *extra,
            ) == 0
            err = capsys.readouterr().err
            assert ("INFO drpi:" in err) == (flag == "default"), (order, flag, err)


@pytest.mark.parametrize("level,code", [
    ("WARNING", 0), ("Debug", 0), ("verbose", 1), ("basic_format", 1), ("", 1),
])
def test_log_level_is_a_case_insensitive_choice(level, code, csv_pair, tmp_path, capsys):
    """A level name in any case sets the level; any other value, even a
    ``logging`` attribute that is not a level, is a usage error."""
    with _fresh_process_logging():
        assert run_cli(
            "analyze", "--outcomes", str(csv_pair[0]), "--covariates", str(csv_pair[1]),
            "--target", "a", "--imputer", "lowdim", "--out", str(tmp_path / "o.csv"),
            f"--log-level={level}",
        ) == code
        err = capsys.readouterr().err
    assert ("INFO drpi:" in err) == (level == "Debug")
    assert ("--log-level" in err) == (code == 1)


def test_analyze_deterministic_output(csv_pair, tmp_path):
    args = lambda out: [
        "analyze",
        "--outcomes", str(csv_pair[0]),
        "--covariates", str(csv_pair[1]),
        "--target", "a",
        "--method", "dr_w",
        "--out", out,
        "--quiet",
    ]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(*args(str(p1))) == 0
    assert run_cli(*args(str(p2))) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_analyze_imputes_on_the_feed_set(tmp_path):
    """With --obs-threshold the imputer sees every feed column; inference
    runs on the kept columns only."""
    d, _ = gen_dataset(SimConfig(model=2, n=120, p=30, mcar_prob=0.1, seed=4))
    mask = d.mask.copy()
    mask[::2, :6] = 0  # observation rate about 0.45: feed, not kept
    d = Dataset(np.where(mask == 1, d.y_obs, np.nan), mask, d.w, d.peptide_ids,
                d.sample_ids, d.covariate_names)
    y_csv, w_csv, out = tmp_path / "y.csv", tmp_path / "w.csv", tmp_path / "r.csv"
    write_dataset(d, y_csv, w_csv)
    code = run_cli(
        "analyze", "--outcomes", str(y_csv), "--covariates", str(w_csv), "--target", "a",
        "--imputer", "knn", "--obs-threshold", "0.7", "--out", str(out), "--quiet",
    )
    assert code == 0
    with open(out, newline="") as fh:
        got = [(r["peptide_id"], float(r["beta"]), float(r["se"]), float(r["p_value"]))
               for r in csv.DictReader(fh)]

    kept, feed = filter_by_rate(load_dataset(y_csv, w_csv), 0.7)
    assert feed.p == 30 and kept.p == 24
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="knn"))
    nu = impute(feed, cfg.imputer).nu_hat[:, 6:]
    want = infer_columns(kept, MethodKind.DR_UW, cfg, nu_hat=ImputedMatrix(nu, backend="knn"))
    assert want.kept.all()
    assert got == list(zip(kept.peptide_ids, want.beta.tolist(), want.se.tolist(),
                           want.p_value.tolist()))
    kept_only = infer_columns(kept, MethodKind.DR_UW, cfg)
    assert kept_only.beta.tolist() != want.beta.tolist()


def test_analyze_logs_kept_columns_out_of_the_loaded_ones(tmp_path, caplog):
    """The kept count is out of the columns loaded, not out of the feed set,
    which a feed threshold as high as the observation threshold narrows."""
    with caplog.at_level(logging.INFO, logger="drpi"):
        code = run_cli(
            "analyze", "--outcomes", str(ROOT / "fixtures" / "outcomes.csv"),
            "--covariates", str(ROOT / "fixtures" / "covariates.csv"), "--target", "a",
            "--imputer", "lowdim", "--obs-threshold", "0.9", "--feed-threshold", "0.9",
            "--out", str(tmp_path / "r.csv"),
        )
    assert code == 0
    assert "kept 1/10 columns for inference" in caplog.messages


def test_default_imputer_sizes_run_on_narrow_inputs(tmp_path, monkeypatch):
    """The default neighbour count 10 on the 10 fixture columns, and the
    default rank cap 10 on a one-column feed set or 5 simulated columns,
    are caps: each run succeeds, and knn with k = 10 writes what k = 9
    does."""
    fixture = ["analyze", "--outcomes", str(ROOT / "fixtures" / "outcomes.csv"),
               "--covariates", str(ROOT / "fixtures" / "covariates.csv"), "--target", "a",
               "--quiet"]
    knn, knn9, narrow = (tmp_path / f"{name}.csv" for name in ("knn", "knn9", "narrow"))
    assert run_cli(*fixture, "--imputer", "knn", "--out", str(knn)) == 0
    assert run_cli(*fixture, "--imputer", "knn", "--imputer-k", "9", "--out", str(knn9)) == 0
    assert knn.read_bytes() == knn9.read_bytes()
    assert run_cli(*fixture, "--obs-threshold", "0.9", "--feed-threshold", "0.9",
                   "--out", str(narrow)) == 0
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--n", "40", "--p", "5", "--reps", "2", "--out", "sim.csv",
                   "--quiet") == 0


@pytest.mark.parametrize("threshold", [None, "0.5"])
def test_analyze_duplicate_peptide_id_exits_2(threshold, tmp_path, capsys):
    """A header that names pep3 twice, one copy observed in 30% of rows,
    is refused: results would hold two pep3 rows, and with an observation
    threshold the feed-set imputation would keep both copies."""
    rng = np.random.default_rng(3)
    n, p = 60, 20
    y = rng.normal(size=(n, p))
    y[rng.random(n) > 0.3, 4] = np.nan
    y_csv, w_csv, out = tmp_path / "y.csv", tmp_path / "w.csv", tmp_path / "r.csv"
    header = [f"pep{j}" for j in range(p)]
    header[4] = "pep3"
    with open(y_csv, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *([repr(v) if v == v else "" for v in row.tolist()]
                                            for row in y)])
    w_csv.write_text("a\n" + "".join(f"{i % 2}\n" for i in range(n)))
    extra = ["--obs-threshold", threshold] if threshold else []
    code = run_cli(
        "analyze", "--outcomes", str(y_csv), "--covariates", str(w_csv), "--target", "a",
        "--imputer", "lowdim", *extra, "--out", str(out), "--quiet",
    )
    assert code == 2
    assert "duplicate peptide id 'pep3'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("names", ["a,a", "intercept,a"])
def test_analyze_duplicate_covariate_exits_2(names, csv_pair, tmp_path, capsys):
    """Two covariates of one name, or one named like the added intercept,
    would make --target ambiguous."""
    rows = csv_pair[1].read_text().splitlines()[1:]
    w_csv, out = tmp_path / "w2.csv", tmp_path / "r.csv"
    w_csv.write_text(names + "\n" + "".join(f"{v},{i}\n" for i, v in enumerate(rows)))
    code = run_cli(
        "analyze", "--outcomes", str(csv_pair[0]), "--covariates", str(w_csv), "--target", "a",
        "--imputer", "lowdim", "--out", str(out), "--quiet",
    )
    assert code == 2
    assert f"duplicate covariate {names.split(',')[0]!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def cross_fit_csvs(tmp_path):
    """A model-3 dataset whose first 6 columns fall below a 0.5 observation
    rate, written as CSVs."""
    d, _ = gen_dataset(SimConfig(model=3, n=120, p=30, seed=6))
    mask = d.mask.copy()
    mask[::2, :6] = 0
    d = Dataset(np.where(mask == 1, d.y_obs, np.nan), mask, d.w, d.peptide_ids,
                d.sample_ids, d.covariate_names)
    y_csv, w_csv = tmp_path / "y.csv", tmp_path / "w.csv"
    write_dataset(d, y_csv, w_csv)
    return y_csv, w_csv


@pytest.mark.parametrize("threshold", [None, "0.5"])
@pytest.mark.parametrize("method", ["dr_uw", "dr_w"])
def test_analyze_cross_fit_matches_infer_columns(method, threshold, cross_fit_csvs, tmp_path):
    """``--cross-fit K`` writes what ``infer_columns(..., folds=K)``, BH and
    ``select`` give on the same (kept) columns."""
    y_csv, w_csv = cross_fit_csvs
    out, want_csv = tmp_path / "r.csv", tmp_path / "want.csv"
    extra = ["--obs-threshold", threshold] if threshold else []
    code = run_cli(
        "analyze", "--outcomes", str(y_csv), "--covariates", str(w_csv), "--target", "a",
        "--method", method, "--imputer", "lowdim", "--cross-fit", "5", *extra,
        "--out", str(out), "--quiet",
    )
    assert code == 0

    d = load_dataset(y_csv, w_csv)
    if threshold:
        d, _ = filter_by_rate(d, float(threshold))
        assert d.p == 24
    cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="lowdim"))
    want = infer_columns(d, MethodKind(method), cfg, folds=5)
    assert want.kept.all()
    q = bh_qvalues(want.p_value)
    write_results(d.peptide_ids, MethodKind(method), want, q, select(q, 0.05), want_csv)
    assert out.read_bytes() == want_csv.read_bytes()


@pytest.mark.parametrize("extra,message", [
    (("--cross-fit", "1"), "at least 2 folds"),
    (("--cross-fit", "5", "--imputer", "soft"), "row-predictive imputer"),
    (("--cross-fit", "3", "--method", "plugin"), "DR estimators only"),
])
def test_analyze_cross_fit_misuse_exits_2(extra, message, cross_fit_csvs, tmp_path, capsys):
    y_csv, w_csv = cross_fit_csvs
    out = tmp_path / "r.csv"
    code = run_cli(
        "analyze", "--outcomes", str(y_csv), "--covariates", str(w_csv), "--target", "a",
        *extra, "--out", str(out), "--quiet",
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_file_flag_precedence(csv_pair, tmp_path):
    cfg = tmp_path / "drpi.conf"
    cfg.write_text(
        "method = complete\nquiet = true\n"
        f"outcomes = {csv_pair[0]}\ncovariates = {csv_pair[1]}\n"
    )
    out_path = tmp_path / "r.csv"
    # file sets complete; explicit flag overrides to dr_w
    code = run_cli(
        "analyze",
        "--config", str(cfg),
        "--target", "a",
        "--method", "dr_w",
        "--out", str(out_path),
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["method"] == "dr_w"

    # without the explicit flag the file value applies
    out2 = tmp_path / "r2.csv"
    code = run_cli(
        "analyze", "--config", str(cfg), "--target", "a", "--out", str(out2)
    )
    assert code == 0
    with open(out2, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["method"] == "complete"


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    """The parser is built once per process; each call in a sequence writes
    the results a fresh process writes for the same arguments, whatever the
    calls before it set."""
    assert cli.build_parser() is cli.build_parser()
    conf = tmp_path / "drpi.conf"
    conf.write_text("imputer = lowdim\n")
    base = [
        "analyze", "--outcomes", str(ROOT / "fixtures" / "outcomes.csv"),
        "--covariates", str(ROOT / "fixtures" / "covariates.csv"), "--target", "a", "--quiet",
    ]
    calls = [
        ["--imputer", "lowdim", "--method", "complete", "--alpha", "0.2"],
        [],
        ["--config", str(conf)],
        [],
    ]
    for i, extra in enumerate(calls):
        assert run_cli(*base, *extra, "--out", str(tmp_path / f"seq{i}.csv")) == 0
    for i, extra in enumerate(calls):
        argv = [*base, *extra, "--out", str(tmp_path / f"fresh{i}.csv")]
        code = f"from drpi.cli import parse_and_dispatch; print(parse_and_dispatch({argv!r}))"
        assert _in_fresh_process(code) == "0"
        assert (tmp_path / f"seq{i}.csv").read_bytes() == (tmp_path / f"fresh{i}.csv").read_bytes()
    # the calls differ, so a leaked setting would have shown
    assert (tmp_path / "seq2.csv").read_bytes() != (tmp_path / "seq3.csv").read_bytes()


@pytest.mark.parametrize("sub", ["analyze", "toy-power"])
@pytest.mark.parametrize("which", ["missing", "directory"])
def test_unreadable_config_file_exits_2(sub, which, tmp_path, capsys):
    """A --config that cannot be opened is a data error, not a traceback."""
    cfg = tmp_path / "missing.conf" if which == "missing" else tmp_path
    out = tmp_path / "x.csv"
    args = ["--outcomes", "y.csv", "--covariates", "w.csv", "--target", "a"] if sub == "analyze" else []
    assert run_cli(sub, "--config", str(cfg), *args, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("drpi: data error: ") and str(cfg) in err
    assert not out.exists()


class _Captured(Exception):
    """Raised by a stand-in to hand back the call it received."""


def _capture(monkeypatch, module, name):
    def stand_in(*args, **kwargs):
        raise _Captured(args, kwargs)

    monkeypatch.setattr(module, name, stand_in)


def _captured_call(*argv):
    """(args, kwargs) of the captured call that ``drpi *argv`` makes."""
    with pytest.raises(_Captured) as info:
        run_cli(*argv, "--quiet")
    return info.value.args


def test_explicit_sizes_override_preset(tmp_path, monkeypatch):
    """--preset fills in the sizes left out, not the ones given."""
    _capture(monkeypatch, sim_bench, "run_benchmark")
    (cfg, *_), _ = _captured_call(
        "simulate", "--preset", "desk", "--reps", "2", "--p", "20", "--out", str(tmp_path / "o")
    )
    assert (cfg.n, cfg.p, cfg.reps) == (200, 20, 2)


def test_omitted_flags_take_the_library_defaults(csv_pair, tmp_path, monkeypatch):
    """With only its required flags each command passes the library's own
    defaults, and no flag that sets a library field or parameter states a
    default of its own, so the two cannot drift apart."""
    library = {
        "analyze": (ImputerConfig, InferenceConfig, load_dataset, filter_by_rate),
        "simulate": (ImputerConfig, InferenceConfig, SimConfig),
        "toy-power": (sim_bench.toy_power_experiment,),
    }
    commands = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    mapped = []
    for command, targets in library.items():
        names = {name for t in targets for name in inspect.signature(t).parameters}
        for action in commands[command]._actions:
            if action.dest in names and not action.required:
                assert action.default is argparse.SUPPRESS, (command, action.option_strings)
                mapped.append(action.dest)
    assert len(mapped) == 32

    out = str(tmp_path / "o.csv")
    _capture(monkeypatch, dr_inference, "infer_columns")
    (_, _, cfg), _ = _captured_call(
        "analyze", "--outcomes", str(csv_pair[0]), "--covariates", str(csv_pair[1]),
        "--target", "a", "--out", out,
    )
    assert cfg == InferenceConfig(target="a") and cfg.imputer == ImputerConfig()
    _capture(monkeypatch, sim_bench, "run_benchmark")
    (sim_cfg, _, inf_cfg), _ = _captured_call("simulate", "--out", out)
    assert sim_cfg == SimConfig() and inf_cfg == InferenceConfig(target="a")
    _capture(monkeypatch, sim_bench, "toy_power_experiment")
    args, kwargs = _captured_call("toy-power", "--out", out)
    assert len(args) == 1 and not kwargs  # the rho grid alone


def test_simulate_writes_summary(tmp_path):
    out_path = tmp_path / "bench.csv"
    code = run_cli(
        "simulate",
        "--model", "3",
        "--n", "60",
        "--p", "20",
        "--reps", "2",
        "--methods", "complete,dr_uw",
        "--imputer", "lowdim",
        "--out", str(out_path),
        "--quiet",
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"complete", "dr_uw"}
    assert {r["metric"] for r in rows} == {"fdr", "tpr"}


@pytest.mark.parametrize("cov,reason", [
    ("1,2\n2,1\n", "covariance not SPD"),
    ("1,0,0\n0,1,0\n0,0,1\n", "need p=2"),
], ids=["not_spd", "wrong_size"])
def test_simulate_unusable_covariance_exits_2_before_any_repetition(
    cov, reason, tmp_path, capsys, monkeypatch
):
    """A --cov-csv that cannot be used would fail every repetition alike, so
    the run stops before the first, names the reason and writes no table."""
    monkeypatch.setattr(sim_bench, "_run_rep", lambda *a: pytest.fail("a repetition ran"))
    cov_csv = tmp_path / "cov.csv"
    cov_csv.write_text(cov)
    out = tmp_path / "bench.csv"
    code = run_cli(
        "simulate", "--n", "40", "--p", "2", "--imputer", "lowdim", "--cov-csv", str(cov_csv),
        "--reps", "2", "--out", str(out), "--quiet",
    )
    assert code == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_simulate_with_every_repetition_failed_exits_2(tmp_path, capsys, monkeypatch):
    """A run in which no repetition succeeded has nothing to summarize: it
    exits 2 with the first failure's reason and writes no table."""
    def fail(cfg, rep, *rest):
        raise DataError(f"no fit in repetition {rep}")

    monkeypatch.setattr(sim_bench, "_run_rep", fail)
    out = tmp_path / "bench.csv"
    code = run_cli(
        "simulate", "--n", "40", "--p", "20", "--imputer", "lowdim",
        "--reps", "2", "--out", str(out), "--quiet",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "all 2 repetitions failed; repetition 0: no fit in repetition 0" in err
    assert not out.exists()


def test_simulate_with_some_repetitions_failed_exits_0(tmp_path, monkeypatch):
    run_rep = sim_bench._run_rep

    def fail_first(cfg, rep, *rest):
        if rep == 0:
            raise DataError("first repetition fails")
        return run_rep(cfg, rep, *rest)

    monkeypatch.setattr(sim_bench, "_run_rep", fail_first)
    out = tmp_path / "bench.csv"
    code = run_cli(
        "simulate", "--n", "60", "--p", "20", "--reps", "2", "--methods", "dr_uw",
        "--imputer", "lowdim", "--out", str(out), "--quiet",
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["metric"] for r in rows] == ["fdr", "tpr"]
    assert all(r["mc_se"] == "nan" for r in rows)  # one repetition left


def test_toy_power_writes_csv(tmp_path):
    out_path = tmp_path / "power.csv"
    code = run_cli(
        "toy-power",
        "--rho", "0.0,0.5",
        "--n", "50",
        "--reps", "100",
        "--out", str(out_path),
        "--quiet",
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["method"] for r in rows} == {"w", "uw"}


def test_parse_rho_grid():
    np.testing.assert_allclose(
        _parse_rho_grid("0.1:0.4:0.1"), [0.1, 0.2, 0.3, 0.4]
    )
    np.testing.assert_allclose(_parse_rho_grid("0.0,0.9"), [0.0, 0.9])


def test_golden_fixture_analyze(tmp_path):
    """End-to-end run against results precomputed by an independent oracle
    (scipy optimizer for the propensity, explicit matrix algebra)."""
    import pathlib

    fixtures = pathlib.Path(__file__).parent.parent / "fixtures"
    out_path = tmp_path / "results.csv"
    code = run_cli(
        "analyze",
        "--outcomes", str(fixtures / "outcomes.csv"),
        "--covariates", str(fixtures / "covariates.csv"),
        "--target", "a",
        "--method", "dr_w",
        "--out", str(out_path),
        "--quiet",
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        got = {r["peptide_id"]: r for r in csv.DictReader(fh)}
    with open(fixtures / "expected_results.csv", newline="") as fh:
        want = {r["peptide_id"]: r for r in csv.DictReader(fh)}
    assert got.keys() == want.keys()
    for pid, exp in want.items():
        for col in ("beta", "se", "z", "p_value", "q_value"):
            assert float(got[pid][col]) == pytest.approx(
                float(exp[col]), abs=1e-5
            ), f"{pid}/{col}"
        assert got[pid]["selected"] == exp["selected"]


def test_volcano_values(tmp_path):
    """p3, skipped, is left out; rows 0 to 2 have q = 0.05, 1 and 0."""
    est = ColumnInference(
        beta=np.array([1.0, -0.5, 2.0, np.nan]), se=np.array([0.1, 0.1, 0.1, np.nan]),
        z=np.array([10.0, -5.0, 20.0, np.nan]), p_value=np.array([0.01, 0.5, 0.0, np.nan]),
        degenerate=np.zeros(4, dtype=bool),
        skip_reason=np.array(["", "", "", "all entries missing"], dtype=object),
    )
    path = tmp_path / "volcano.csv"
    emit_volcano_data(["p0", "p1", "p2", "p3"], est, np.array([0.05, 1.0, 0.0]), [0, 2], path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[0]["neg_log10_q"]) == pytest.approx(-np.log10(0.05), abs=1e-12)
    assert float(rows[1]["neg_log10_q"]) == pytest.approx(0.0, abs=1e-12)
    assert path.read_text().splitlines()[2] == "p1,-0.5,0.0,0,0"  # q = 1: no "-0.0"
    assert float(rows[2]["neg_log10_q"]) == 300.0
    assert rows[2]["capped"] == "1"
    assert rows[0]["selected"] == "1" and rows[1]["selected"] == "0"
