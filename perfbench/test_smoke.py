"""Smoke test for the benchmark itself.

Runs every workload once at tiny sizes, traced and untraced, and shows that
the correctness gate fails on a tampered digest and on corrupted CSV rows.
Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
from gate import Gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))["tiny"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _tiny(name: str):
    return workloads.WORKLOADS[name](1, workloads.SIZES[name]["tiny"], OUT_DIR)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_clean(name, trace):
    done = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert [(m, v["unit"]) for m, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in expected
    ]


def test_fails_without_the_program():
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run(bare, "--workload", "table1", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_recorded_digest_matches(name):
    workload = _tiny(name)
    gate = Gate(workload.row_check, workload.rows_per_pass, TINY_DIGESTS[name])
    gate.check_csv(workload.run(1))
    assert gate.correct, gate.problems


def test_tampered_digest_fails_every_row():
    workload = _tiny("table1")
    gate = Gate(workload.row_check, workload.rows_per_pass, "0" * 64)
    gate.check_csv(workload.run(1))
    assert gate.failed == gate.attempted == workload.rows_per_pass


def _replace_field(text: str, row_index: int, column: str, value: str) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    fields = lines[row_index + 1].rstrip("\n").split(",")
    fields[header.index(column)] = value
    lines[row_index + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def _row_where(text: str, **match: str) -> int:
    header = text.splitlines()[0].split(",")
    for i, line in enumerate(text.splitlines()[1:]):
        fields = dict(zip(header, line.split(",")))
        if all(fields[key] == value for key, value in match.items()):
            return i
    raise LookupError(match)


def test_corrupted_rate_at_full_truncation_fails():
    workload = _tiny("table1")
    text = workload.run(1)
    bad = _replace_field(text, _row_where(text, rule="stv", k="6"), "rate", "0.5000")
    gate = Gate(workload.row_check, workload.rows_per_pass, None)
    gate.check_csv(bad)
    assert gate.failed == 1


def test_corrupted_rate_fails_against_reference():
    workload = _tiny("large_n")
    text = workload.run(1)
    row = _row_where(text, rule="copeland", k="1")
    bad = _replace_field(text, row, "rate", "0.0000" if "1.0000" in text.splitlines()[row + 1] else "1.0000")
    gate = Gate(workload.row_check, workload.rows_per_pass, None)
    gate.check_csv(bad)
    assert gate.correct  # the row rules alone cannot see this corruption
    gate.check_csv(bad, reference=text)
    assert gate.failed == 1


def test_corrupted_bounds_row_fails():
    workload = _tiny("bounds_grid")
    text = workload.run(1)
    bad = _replace_field(text, _row_where(text, rule="borda:zero", m="5", k="3"), "attained", "1")
    gate = Gate(workload.row_check, workload.rows_per_pass, None)
    gate.check_csv(bad)
    assert gate.failed == 1
