"""bookcross benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 32 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the run fails without printing a result if it is missing.
Every pass runs in a fresh interpreter (``child.py``), because a command-line
user pays for the import and for the cold per-length enumeration table on
every call.

``--trace 0`` repeats untraced serial passes (``jobs=1``) for ``--seconds``,
each after a fresh interpreter that imports bookcross and exits, and reports
``norm_cpu_s`` (the median CPU time, user + system, of a pass from the first
call to the last checked result), ``setup_s`` (the median CPU time of the
import-only interpreters) and ``peak_rss_mb`` (the median peak RSS of a
pass).  CPU time, not wall time, because on a shared virtual machine the
hypervisor steals up to a fifth of a pass's wall time.  Both times are
scaled to reference host speed (``reference.py``): a serial pass takes a
short sample of a fixed reference loop every 50 ms, and its CPU time, less
the samples', is multiplied by ``REFERENCE_S`` over the mean sample.  The
speed of a vCPU on such a host changes by a third from second to second;
the samples see the same changes as the pass, so the scaling takes them out.
Set-up times are scaled by the run's median of the passes' mean samples.
All children but the ``jobs=2`` passes run on one CPU.

``--trace 1`` alternates untraced serial passes, traced serial passes and,
on ``prove`` and ``refute``, untraced ``jobs=2`` passes.  It reports every
per-layer metric as the median over the traced passes; the serial pass's
unscaled wall and CPU time (``pass.wall_s``, ``pass.cpu_s``) and mean
reference sample (``host.sample_ms``), and the pool's wall time and speedup,
from the untraced passes; and the tracing overhead as the traced median CPU
time minus the untraced one.  Spans go to ``perfbench/out/``.

``--smoke`` runs the same code on tiny instances, for the benchmark's test.

The last line of stdout is the result: ``correct``, ``attempted`` and
``failed`` (checked answers over all passes; their ratio is the error rate)
and ``metrics``, each with the unit declared in BENCHMARK.json.  The line
before it records the seed, the machine, the versions and every pass.  A
pass with a wrong answer never contributes a timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("prove", "refute", "drawings", "enumerate")
COLORING_WORKLOADS = ("prove", "refute")
POOL_JOBS = 2
SETUP_REPEATS = 5  # at least this many import-only interpreters per untraced run
RUN_LIMIT_S = 170.0  # every child is killed before the run reaches this age


class BenchError(RuntimeError):
    """The benchmark could not measure: a child crashed or timed out."""


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _child(args: list[str], started: float, cpus: set[int]) -> tuple[float, float, str]:
    """Run child.py on ``cpus`` to completion; (wall seconds, CPU seconds, stdout)."""
    timeout = RUN_LIMIT_S - (time.perf_counter() - started)
    if timeout <= 0:
        raise BenchError("run time limit reached")
    t0, cpu0 = time.perf_counter(), _children_cpu()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so a timeout also ends the pool's workers
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args[:2]} timed out") from None
    wall, cpu = time.perf_counter() - t0, _children_cpu() - cpu0
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}: {err.strip()}")
    return wall, cpu, out


def _pass(kind: str, workload: str, seed: int, smoke: bool, index: int, started: float, cpus: set[int]) -> dict:
    jobs = POOL_JOBS if kind == "jobs2" else 1
    args = ["pass", workload, str(seed), str(jobs), str(int(smoke)), str(int(kind == "serial"))]
    if kind == "traced":
        OUT.mkdir(exist_ok=True)
        args.append(str(OUT / f"spans-{workload}-{seed}-{index}.jsonl"))
    wall, _, out = _child(args, started, cpus if kind == "jobs2" else {min(cpus)})
    result = json.loads(out.strip().splitlines()[-1])
    result["kind"] = kind
    result["process_s"] = wall
    if kind == "traced":
        result["spans_file"] = args[-1]
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    return result


def _environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """(result line, record of the run)."""
    started = time.perf_counter()
    deadline = started + seconds
    cpus = os.sched_getaffinity(0)
    setup: list[float] = []

    def set_up() -> float:
        wall, cpu, _ = _child(["setup"], started, {min(cpus)})
        setup.append(cpu)
        return wall

    kinds = ["serial"]
    if trace:
        kinds.append("traced")
        if workload in COLORING_WORKLOADS:
            kinds.append("jobs2")
    passes: list[dict] = []
    last: dict[str, float] = {}  # process seconds of the latest pass of each kind
    while True:
        kind = kinds[len(passes) % len(kinds)]
        if kind in last and time.perf_counter() + last[kind] > deadline:
            break
        setup_wall = set_up() if not trace and kind == "serial" else 0.0
        passes.append(_pass(kind, workload, seed, smoke, len(passes), started, cpus))
        last[kind] = setup_wall + passes[-1]["process_s"]
    while not trace and len(setup) < SETUP_REPEATS:
        set_up()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    good = {kind: [p for p in passes if p["kind"] == kind and p["failed"] == 0] for kind in kinds}
    fields = ("kind", "wall_s", "cpu_s", "samples_s", "rss_mb", "failed")
    record = {"setup_s": setup, "passes": [{k: p[k] for k in fields} for p in passes]}
    if failed or not all(good.values()):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, record

    def median(kind: str, field: str) -> float:
        return statistics.median(p[field] for p in good[kind])

    for p in good["serial"]:
        p["sample_s"] = statistics.fmean(p["samples_s"])
        p["norm_cpu_s"] = p["cpu_s"] * reference.REFERENCE_S / p["sample_s"]
    if not trace:
        values = {
            "norm_cpu_s": median("serial", "norm_cpu_s"),
            "setup_s": statistics.median(setup) * reference.REFERENCE_S / median("serial", "sample_s"),
            "peak_rss_mb": median("serial", "rss_mb"),
        }
    else:
        per_pass = [
            tracing.layer_metrics(tracing.load_spans(p["spans_file"]), p["cpu_s"]) for p in good["traced"]
        ]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = median("traced", "cpu_s") - median("serial", "cpu_s")
        wall = median("serial", "wall_s")
        pool = median("jobs2", "wall_s") if "jobs2" in good else 0.0
        speedup = wall / pool if pool else 0.0
        values["pass.wall_s"] = wall
        values["pass.cpu_s"] = median("serial", "cpu_s")
        values["host.sample_ms"] = median("serial", "sample_s") * 1000.0
        values["coloring.pool.wall_s"] = pool
        values["coloring.pool.speedup"] = speedup
        values["coloring.pool.efficiency"] = speedup / POOL_JOBS

    units = _declared_units(trace)
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bookcross" / "__init__.py").is_file():
        print(f"no bookcross sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"run": {**_environment(args.workload, args.seed), **record}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
