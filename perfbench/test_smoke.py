"""Smoke test of the benchmark at tiny size; not part of the tier-1 suite.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from compare import verdict  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]]
                         + ["mc_contractive"])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert type(m["value"]) in (int, float), m
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (ROOT / ".perfbench_work").exists()


def test_same_seed_same_digest():
    def digest():
        proc = _run(ROOT, "--workload", "mc_contractive", "--seed", "5",
                    "--seconds", "0", "--trace", "0", "--tiny")
        info = next(line for line in proc.stdout.splitlines() if line.startswith("info "))
        return json.loads(info[5:])["digest"]
    assert digest() == digest()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mc_backhaul", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_hook_is_absent_and_leaves_module_untouched():
    import json as target
    original = target.dumps
    t = tracer.Tracer([("json", "dumps", "x.dumps"), ("json", "gone", "x.gone"),
                       ("no_such_module_here", "f", "y.f")])
    assert t.absent == {"x.gone", "y.f"}
    result, root = t.root("op", lambda: target.dumps([1]))
    assert result == "[1]" and target.dumps is original
    names = [s.name for s in t.spans[root:]]
    assert names == ["op", "x.dumps"]
    own = tracer.self_times(t.spans, root, len(t.spans))
    assert sum(own.values()) == t.spans[root].end - t.spans[root].start


def test_self_times_reject_a_child_outside_its_parent():
    parent, child = tracer.Span("p", -1), tracer.Span("c", 0)
    parent.start, parent.end = 0, 10
    child.start, child.end = 5, 12
    with pytest.raises(ValueError):
        tracer.self_times([parent, child], 0, 2)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5]
    assert verdict(base, [130.0, 131.0, 129.0, 130.5], 0.1, False) == "worse"
    assert verdict(base, [102.0, 101.0, 103.0, 102.5], 0.1, False) == "same"
    assert verdict(base, [80.0, 81.0, 79.0, 80.5], 0.1, False) == "better"
    assert verdict(base, [50.0, 150.0, 60.0, 140.0], 0.1, False) == "unresolved"
