"""Tests of the benchmark itself, on tiny versions of each workload.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

TINY = 0.01
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_runs_report():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics_print_with_units(name, capsys):
    result = run.run(name, seed=3, seconds=0.1, trace=0, scale=TINY)
    out = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m for m, _ in run.END_TO_END}
    for metric, unit in run.END_TO_END + (("error_rate", "ratio"),):
        line = next(row for row in out.splitlines() if row.split()[:1] == [metric])
        assert unit in line.split()
    assert "samples" in out
    assert '"int_max_str_digits"' in out and '"backend"' in out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name, capsys):
    result = run.run(name, seed=3, seconds=0.1, trace=1, scale=TINY)
    out = capsys.readouterr().out
    assert list(result["metrics"]) == [m for m, _, _ in PER_LAYER]
    for metric, unit, _ in PER_LAYER:
        assert result["metrics"][metric]["unit"] == unit
        assert f" {metric} " in out
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_corrupted_reference_digest_counts_as_a_failure():
    queries = workloads.build("dense", 5, TINY)
    report = run.run_worker(queries, 0.1, 0)
    digests = run.reference_digests(queries, report["runs"])
    clean = run.check(queries, report["runs"], digests)
    assert clean["failed"] == clean["wrong"] == 0

    digests[7][0] = "0" * 32
    corrupted = run.check(queries, report["runs"], digests)
    runs_of_query = len(report["runs"][7])
    assert corrupted["wrong"] == corrupted["failed"] == runs_of_query
    assert corrupted["ok_per_round"] == clean["ok_per_round"] - 1
    assert len(corrupted["latencies"]) == len(clean["latencies"]) - 1


def test_a_raising_query_counts_as_a_failure():
    queries = [{"fn": "f", "via": "count", "set": "1..20000"}]
    report = run.run_worker(queries, 0.1, 0)
    outcome = run.check(queries, report["runs"], run.reference_digests(queries, report["runs"]))
    assert outcome["failed"] == outcome["attempted"] >= 1
    assert outcome["wrong"] == 0
    assert any("4300 digits" in message for message in outcome["errors"])


def test_reference_reproduces_the_known_sequence():
    query = {"fn": "f", "via": "seq", "lo": 1, "hi": 10}
    assert reference.expected(query) == [1, 2, 5, 11, 26, 53, 116, 236, 488, 983]


def test_digest_does_not_depend_on_decimal_conversion():
    wide = (1 << 100_000) - 1  # far beyond the 4300-digit str() limit
    assert workloads.digest(wide) != workloads.digest(wide - 1)


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 11) == workloads.build(name, 11)
        assert workloads.build(name, 11) != workloads.build(name, 12)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
