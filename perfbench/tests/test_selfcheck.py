"""Self-check of the benchmark: ``python3 -m pytest perfbench/tests``.

Runs the command in ``--quick`` mode (inputs / 8, one repeat) untraced and
traced, and checks that what it prints is what ``BENCHMARK.json`` declares.
Not collected by the repository's tier-1 run (``testpaths`` is ``tests``
and ``benchmarks``); it takes about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    MANIFEST = json.load(_handle)


@pytest.fixture
def scratch():
    """A directory inside the benchmark's own (ignored) output directory."""
    path = os.path.join(ROOT, "perfbench", "out", f"selfcheck-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path)


def _run(*arguments):
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_manifest_is_well_formed():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < metric["bound"] <= 0.25 for metric in MANIFEST["end_to_end"])
    setup = next(metric for metric in MANIFEST["end_to_end"] if metric["name"] == "setup_s")
    assert setup["bound"] == max(metric["bound"] for metric in MANIFEST["end_to_end"])
    for workload in MANIFEST["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_declared_metric(trace, scratch):
    report_path = os.path.join(scratch, "report.json")
    completed = _run("--quick", "--trace", str(trace), "--out", report_path)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    with open(report_path, encoding="utf-8") as handle:
        (run,) = json.load(handle)["runs"]
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(run["workloads"]) == [workload["name"] for workload in MANIFEST["workloads"]]
    for name, result in run["workloads"].items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert list(result["metrics"]) == [metric["name"] for metric in declared], name
        for metric in declared:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
            if not trace:
                assert emitted["value"] > 0, (name, metric["name"])
        assert not result.get("absent"), result.get("absent")
        if trace:
            assert os.path.isfile(os.path.join(ROOT, "perfbench", "out", f"trace-{name}.json"))


def test_single_workload_ends_with_the_result_line():
    completed = _run("--quick", "--workload", "stream-churn", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in MANIFEST["end_to_end"]}


def test_refuses_to_run_without_the_sources(scratch):
    bare = os.path.join(scratch, "bare")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "protein-oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
