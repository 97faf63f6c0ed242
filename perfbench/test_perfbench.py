"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare()

import bench_trace  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402
from gptlab import circuits, real_quantum_theory  # noqa: E402

COUNT_STATS = ("calls", "outcome_strings", "configurations", "peak_frontier", "evaluations",
               "queries", "errors")


def _originals():
    return [owner.__dict__[attr] for owner, attr, _ in bench_trace.PATCH_TARGETS]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(name):
    workload = WORKLOADS[name]()
    assert workload.round_spec(11, 0) == workload.round_spec(11, 0)
    assert workload.round_spec(11, 1) == workload.round_spec(11, 1)
    assert workload.round_spec(11, 0) != workload.round_spec(12, 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_agree_and_clean_up(name):
    before = _originals()
    first = run.traced(name, seed=5, seconds=0)
    second = run.traced(name, seed=5, seconds=0)
    assert _originals() == before
    for result in (first, second):
        assert result["failed"] == 0, result["failures"]
        # one untraced and one traced pass: their op results are bit-identical
        assert result["problems"] == []
        assert result["spans"]
    for metric, (value, _) in first["metrics"].items():
        if metric.rpartition(".")[2].endswith(COUNT_STATS):
            assert second["metrics"][metric][0] == value, metric
    assert first["metrics"]["trace.coverage"][0] > 0.9


def test_patches_and_proxies_are_removed():
    theory = real_quantum_theory(2)
    rule, hooks = theory.composite_rule, theory.strategies
    before = _originals()
    tracer = bench_trace.Tracer()
    proxied = bench_trace.traced_theory(theory, tracer)
    with bench_trace.patched(tracer):
        assert circuits.distribution is not before[0]
        assert isinstance(proxied.composite_rule, bench_trace.RuleProxy)
        proxied.composite_rule.parallel_matrix([theory.gates["t1"].outcomes["0"]])
    assert _originals() == before
    assert theory.composite_rule is rule and theory.strategies is hooks
    assert [row["name"] for row in tracer.span_rows()] == ["theories.parallel_matrix"]


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    result = run.end_to_end("cli-bundled", seed=3, seconds=0.2)
    assert result["failed"] == 0, result["failures"]
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(result["metrics"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
