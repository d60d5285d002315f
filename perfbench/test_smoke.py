"""The benchmark's own test, on tiny instances (``run.py --smoke``).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracing  # noqa: E402

# Every metric the benchmark was defined to print.  Three are carried
# elsewhere: the serial wall time is pass.wall_s and the jobs=2 wall time is
# coloring.pool.wall_s (both include hypervisor steal, too unsteady for a
# bound), and the error rate is failed / attempted on the result line.
END_TO_END = {"norm_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "pass.wall_s": "s",
    "pass.cpu_s": "s",
    "host.sample_ms": "ms",
    "enumeration.self_s": "s",
    "enumeration.classes": "count",
    "coloring.conflict_graph.self_s": "s",
    "coloring.conflict_graph.calls": "count",
    "coloring.conflict_graph.edges": "count",
    "coloring.clique.self_s": "s",
    "coloring.clique.decided": "count",
    "coloring.clique.decided_ratio": "ratio",
    "coloring.search.self_s": "s",
    "coloring.search.nodes": "count",
    "coloring.search.layouts": "count",
    "coloring.search.budget_exceeded": "count",
    "coloring.check_layout.p50_ms": "ms",
    "coloring.check_layout.p99_ms": "ms",
    "coloring.verify.layouts_checked": "count",
    "coloring.pool.wall_s": "s",
    "coloring.pool.speedup": "x",
    "coloring.pool.efficiency": "ratio",
    "constructions.self_s": "s",
    "constructions.calls": "count",
    "constructions.edges": "count",
    "drawings.count_crossings.self_s": "s",
    "drawings.count_crossings.calls": "count",
    "drawings.count_crossings.edges": "count",
    "drawings.count_crossings.ns_per_edge": "ns",
    "oracle.self_s": "s",
    "oracle.nodes": "count",
    "oracle.calls": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def _run(workload: str, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert printed == declared
    assert (PER_LAYER if trace else END_TO_END).items() <= printed.items()
    run = json.loads(record_line)["run"]
    assert run["seed"] == 7 and run["workload"] == workload
    assert {"nproc", "cpu", "python", "numpy", "commit"} <= set(run)
    serial = [p for p in run["passes"] if p["kind"] == "serial"]
    assert serial and all(p["samples_s"] for p in serial)


def test_coloring_counts_on_smoke_instances():
    result = json.loads(_run("prove", 1).stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["coloring.verify.layouts_checked"] == 10  # K_{4,5}
    assert values["coloring.check_layout.samples"] == 10
    assert values["coloring.conflict_graph.calls"] == 10
    assert values["coloring.clique.decided"] + values["coloring.search.layouts"] == 10


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("prove", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_times_are_scaled_by_the_reference_samples():
    run, result = (json.loads(line) for line in _run("drawings", 0).stdout.strip().splitlines()[-2:])
    serial = [p for p in run["run"]["passes"] if p["kind"] == "serial"]
    sample = [statistics.fmean(p["samples_s"]) for p in serial]
    scaled = [p["cpu_s"] * reference.REFERENCE_S / s for p, s in zip(serial, sample)]
    setup = statistics.median(run["run"]["setup_s"])
    metrics = result["metrics"]
    assert len(run["run"]["setup_s"]) >= 5
    assert metrics["norm_cpu_s"]["value"] == pytest.approx(statistics.median(scaled))
    assert metrics["setup_s"]["value"] == pytest.approx(setup * reference.REFERENCE_S / statistics.median(sample))


def test_sampler_times_the_reference_and_stops():
    with reference.Sampler() as sampler:
        deadline = time.perf_counter() + 4 * reference.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    taken = len(sampler.samples)
    time.sleep(2 * reference.INTERVAL_S)
    assert taken >= 2 and len(sampler.samples) == taken
    assert all(s > 0 for s in sampler.samples)


def test_self_time_subtracts_direct_children():
    def span(id_, parent, name, layer, start, end, **counts):
        return {"id": id_, "parent": parent, "name": name, "layer": layer, "start": start, "end": end, **counts}

    spans = [
        span(0, None, "is_k_colorable", "coloring.search", 0.0, 10.0, k=2, status="colorable", nodes=5),
        span(1, 0, "find_clique", "coloring.clique", 1.0, 4.0, size=2),
        span(2, None, "is_k_colorable", "coloring.search", 10.0, 11.0, k=2, status="not_colorable", nodes=0),
        span(3, 2, "find_clique", "coloring.clique", 10.0, 10.5, size=3),
    ]
    metrics = tracing.layer_metrics(spans, pass_cpu_s=12.0)
    assert metrics["coloring.search.self_s"] == pytest.approx(7.0 + 0.5)
    assert metrics["coloring.clique.self_s"] == pytest.approx(3.5)
    assert metrics["coloring.clique.decided"] == 1
    assert metrics["coloring.clique.decided_ratio"] == 0.5
    assert metrics["coloring.search.layouts"] == 1
    assert metrics["coloring.search.nodes"] == 5
    assert metrics["trace.uncovered_s"] == pytest.approx(1.0)
