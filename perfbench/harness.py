"""The parent process: generate, repeat in fresh children, verify, report.

``BENCHMARK.json`` at the repository root is the one declaration of the
workloads and of every metric's name, unit, direction and bound; this
module reads it and emits exactly what it lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from . import inputs, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(HERE, "out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

#: Input sizes and repeat count of ``--quick``.
QUICK_SCALE = 1 / 8

MIN_REPEATS = 5
MAX_REPEATS = 9

#: A child that takes longer than this is terminated and the run fails.
CHILD_TIMEOUT_S = 150

#: Reported for a per-layer metric whose probe's entry point is gone
#: (0 means: this workload does not exercise that layer).
ABSENT = -1.0

#: Cores a workload's processes need to run unshared.
CORES_NEEDED = {"service-fanout": 2, "sharded-events": 4}


class BenchmarkFailure(Exception):
    """The run cannot produce a result (drifted pin, dead child, ...)."""


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def _run_child(spec_path: str, mode: str) -> Dict[str, Any]:
    """One fresh interpreter; returns the JSON object on its last line."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED="0")
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", spec_path, mode],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.send_signal(signal.SIGTERM)  # lets the child stop its server
        try:
            process.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
        raise BenchmarkFailure(f"child timed out after {CHILD_TIMEOUT_S} s ({mode})")
    except BaseException:
        process.kill()
        process.communicate()
        raise
    if process.returncode != 0:
        raise BenchmarkFailure(
            f"child exited with {process.returncode} ({mode}):\n{stderr[-4000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def _check_pin(name: str, spec: Dict[str, Any]) -> None:
    """The default seed's inputs and answers are pinned; drift is loud."""
    path = os.path.join(HERE, "expected", f"{name}.json")
    with open(path, encoding="utf-8") as handle:
        pin = json.load(handle)
    actual = {
        "input_sha256": spec["input_sha256"],
        "count": spec["expected"]["count"],
        "digest": spec["expected"]["digest"],
    }
    for key, value in actual.items():
        if pin[key] != value:
            raise BenchmarkFailure(
                f"{name}: pinned {key} drifted for seed {spec['seed']}: "
                f"expected/{name}.json has {pin[key]!r}, the generator made {value!r}"
            )


def _value(samples: Sequence[float]) -> Dict[str, Any]:
    return {
        "value": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "samples": list(samples),
    }


def _failures(sample: Dict[str, Any]) -> int:
    return (
        sample["missing"] + sample["unexpected"] + sample["errors"] + sample["dropped"]
        + sample.get("late", 0)  # services only: owed when the open phase ended in backlog
    )


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool, manifest: Dict[str, Any]
) -> Dict[str, Any]:
    """All repeats (or the traced pass) of one workload; the full result."""
    tmp_dir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}-{name}")
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        spec = workloads.build_spec(name, seed, QUICK_SCALE if quick else 1.0, tmp_dir)
        if seed == inputs.DEFAULT_SEED and not quick:
            _check_pin(name, spec)
        spec.update(src_dir=SRC_DIR, out_dir=tmp_dir)
        spec_path = os.path.join(tmp_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        if trace:
            return _traced(name, spec_path, manifest)
        return _repeated(name, spec_path, seconds, quick, manifest)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _repeated(
    name: str, spec_path: str, seconds: float, quick: bool, manifest: Dict[str, Any]
) -> Dict[str, Any]:
    samples = [_run_child(spec_path, "run")]
    repeats = 1
    if not quick:
        measured = samples[0].get("measured_s", samples[0]["wall_s"])
        repeats = min(MAX_REPEATS, max(MIN_REPEATS, round(seconds / measured)))
    while len(samples) < repeats:
        samples.append(_run_child(spec_path, "run"))
    derived = {
        "setup_s": [s["setup_s"] for s in samples],
        "throughput_mb_s": [s["input_mb"] / s["wall_s"] for s in samples],
        "cpu_s_per_mb": [s["cpu_s"] / s["input_mb"] for s in samples],
        "match_latency_p50_ms": [s["latency_p50_ms"] for s in samples],
        "match_latency_p99_ms": [s["latency_p99_ms"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    metrics = {}
    for metric in manifest["end_to_end"]:
        metrics[metric["name"]] = dict(_value(derived[metric["name"]]), unit=metric["unit"])
    failed = sum(_failures(s) for s in samples)
    return {
        "correct": failed == 0,
        "attempted": sum(s["expected"] for s in samples),
        "failed": failed,
        "repeats": len(samples),
        "latency_samples": min(s["latency_samples"] for s in samples),
        "oversubscribed": (os.cpu_count() or 1) < CORES_NEEDED.get(name, 1),
        "metrics": metrics,
    }


def _traced(name: str, spec_path: str, manifest: Dict[str, Any]) -> Dict[str, Any]:
    result = _run_child(spec_path, "trace")
    layers, absent = result["layers"], result["absent"]
    metrics = {}
    for metric in manifest["per_layer"]:
        key = metric["name"]
        value = ABSENT if key in absent else float(layers.get(key, 0.0))
        metrics[key] = {"value": value, "unit": metric["unit"]}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{name}.json"), "w", encoding="utf-8") as handle:
        json.dump(result["trace"], handle)
    sample = result["sample"]
    failed = _failures(sample)
    return {
        "correct": failed == 0,
        "attempted": sample["expected"],
        "failed": failed,
        "repeats": 1,
        "absent": absent,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _environment() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cores = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": cores,
        "loadavg_1m": load,
        "noisy": load > 0.5 * cores,
    }


def _format(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.0f}"


def print_workload(name: str, result: Dict[str, Any]) -> None:
    flags = " [oversubscribed: read cpu_s_per_mb, not wall]" if result.get("oversubscribed") else ""
    print(
        f"{name}: {result['repeats']} repeat(s), attempted {result['attempted']}, "
        f"failed {result['failed']}, failed_share "
        f"{result['failed'] / result['attempted']:.6f}{flags}"
    )
    absent = result.get("absent", {})
    for key, metric in result["metrics"].items():
        if key in absent:
            print(f"  {key:<46} absent ({absent[key]})")
            continue
        spread = ""
        if "min" in metric and metric["min"] != metric["max"]:
            spread = f"   [min {_format(metric['min'])}, max {_format(metric['max'])}]"
        print(f"  {key:<46} {_format(metric['value']):>10} {metric['unit']}{spread}")


def result_line(result: Dict[str, Any]) -> str:
    """The contract's last line: correct, attempted, failed, metrics."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": metric["value"], "unit": metric["unit"]}
            for key, metric in result["metrics"].items()
        },
    })


def _write_report(path: str, run: Dict[str, Any], append: bool) -> None:
    report: Dict[str, Any] = {"runs": []}
    if append and os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    report["runs"].append(run)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        from . import compare

        return compare.main(argv[1:])
    if argv and argv[0] == "pin":
        from . import pin

        return pin.main(argv[1:])
    if not os.path.isfile(MANIFEST) or not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print(
            f"perfbench: needs {MANIFEST} and the vitex sources under {SRC_DIR}; "
            "run it from a full checkout",
            file=sys.stderr,
        )
        return 2
    manifest = load_manifest()
    names = [workload["name"] for workload in manifest["workloads"]]

    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench",
        description="End-to-end and per-layer benchmark of vitex; see perfbench/README.md. "
        "Subcommands: 'compare A.json B.json', 'pin'.",
    )
    parser.add_argument("--workload", choices=names, help="run one workload and end with the result line (default: all)")
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED, help="seed of every input generator")
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]), help="measured seconds per workload; sets the repeat count")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1), help="1: the staged traced pass (per-layer metrics, span files)")
    parser.add_argument("--quick", action="store_true", help="inputs / 8, one repeat; for smoke tests, not for comparison")
    parser.add_argument("--out", metavar="FILE", help="write the run as a report for 'compare'")
    parser.add_argument("--append", action="store_true", help="add the run to --out instead of replacing it")
    args = parser.parse_args(argv)

    started = time.time()
    run: Dict[str, Any] = dict(
        _environment(), seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), quick=args.quick, workloads={},
    )
    if run["noisy"]:
        print(f"perfbench: noisy: load average {run['loadavg_1m']:.2f} on {run['nproc']} core(s)")
    selected = [args.workload] if args.workload else names
    try:
        for name in selected:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick, manifest)
            run["workloads"][name] = result
            print_workload(name, result)
    except BenchmarkFailure as failure:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
        return 3
    run["elapsed_s"] = time.time() - started
    if args.out:
        _write_report(args.out, run, args.append)
    correct = all(result["correct"] for result in run["workloads"].values())
    if args.workload:
        print(result_line(run["workloads"][args.workload]))
    else:
        print(f"perfbench: {len(selected)} workload(s) in {run['elapsed_s']:.0f} s, "
              f"{'all answers correct' if correct else 'WRONG ANSWERS'}")
    return 0 if correct else 1
