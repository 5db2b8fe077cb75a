"""Self-test of the benchmark at tiny shapes (about 50 s).

    python3 -m pytest -q bench/test_bench.py

Runs every workload traced and untraced with one command each, checks that
each metric named in BENCHMARK.json is printed with its unit for every
workload, and that corrupted results trip the correctness gate.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def results(lines):
    return [json.loads(line) for line in lines if line.startswith('{"correct"')]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_metric_with_unit(trace):
    code, lines = run_bench("all", trace)
    assert code == 0, "\n".join(lines)
    assert lines[-1].startswith('{"correct"')
    runs = results(lines)
    assert len(runs) == len(WORKLOADS)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    for result in runs:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec]
        for m in spec:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float) and np.isfinite(got["value"])
    for m in spec:
        printed = [line for line in lines
                   if line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]]
        assert len(printed) == len(WORKLOADS), f"{m['name']} not printed with {m['unit']}"
    if not trace:
        for name in ("error_rate", "fdr", "tpr"):
            assert sum(line.split()[:1] == [name] for line in lines) == len(WORKLOADS)


@pytest.mark.parametrize("workload", ["analyze-soft", "simulate-desk"])
def test_corrupted_results_fail_the_run(workload):
    code, lines = run_bench(workload, 0, "--corrupt")
    assert code != 0
    (result,) = results(lines)
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("FAIL ") for line in lines)


def _rows():
    p = np.array([0.001, 0.2, 0.03, 0.8])
    sel = gate.bh_selected(p, 0.05)
    q = np.minimum(1.0, p * 4 / (np.argsort(np.argsort(p)) + 1))
    return [gate.Row(f"pep{j}", 0.0, 1.0, p[j], max(q[j], p[j]), j in sel) for j in range(4)]


IDS = [f"pep{j}" for j in range(4)]


def test_gate_accepts_consistent_rows():
    assert gate.check_rows(_rows(), IDS, alpha=0.05) == []


@pytest.mark.parametrize("corruption", ["flip_selected", "p_out_of_range", "lost_column", "q_below_p"])
def test_gate_rejects_corrupted_rows(corruption):
    rows = _rows()
    if corruption == "flip_selected":
        rows[1].selected = not rows[1].selected
    elif corruption == "p_out_of_range":
        rows[2].p_value = 1.5
    elif corruption == "lost_column":
        rows.pop()
    else:
        rows[3].q_value = rows[3].p_value / 2
    assert gate.check_rows(rows, IDS, alpha=0.05)


def test_host_adjustment_cancels_host_speed():
    from run import host_adjusted_op_s

    res = {"op_walls": [0.20, 0.31, 0.24], "op_inputs": [0, 1, 0],
           "ref_walls": [0.015, 0.017, 0.016, 0.015], "ref_nominal_s": 0.0155}
    slow = {**res, "op_walls": [1.7 * w for w in res["op_walls"]],
            "ref_walls": [1.7 * r for r in res["ref_walls"]]}
    assert host_adjusted_op_s(slow) == pytest.approx(host_adjusted_op_s(res))
    costly = {**res, "op_walls": [1.2 * w for w in res["op_walls"]]}
    assert host_adjusted_op_s(costly) == pytest.approx(1.2 * host_adjusted_op_s(res))


def test_longhand_detects_a_perturbed_estimate():
    rng = np.random.default_rng(0)
    n = 50
    w = np.column_stack([np.ones(n), rng.integers(0, 2, n), rng.random(n)])
    y = w @ [0.0, 0.5, 1.0] + rng.standard_normal(n)
    c = (rng.random(n) < 0.7).astype(float)
    nu = w @ np.linalg.lstsq(w[c == 1], y[c == 1], rcond=None)[0]
    delta = np.full(n, c.mean())
    beta, se, p = gate.longhand_dr(np.where(c == 1, y, np.nan), c, w, nu, delta, 1)
    exact = gate.Row("pep0", beta, se, p, p, False)
    assert gate.compare(exact, (beta, se, p), "t") == []
    off = gate.Row("pep0", beta * (1 + 1e-6), se, p, p, False)
    assert gate.compare(off, (beta, se, p), "t")
