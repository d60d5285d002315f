"""One benchmark pass in a fresh interpreter; started by run.py.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass WORKLOAD SEED JOBS SMOKE REF [SPANS_FILE]

``setup`` imports bookcross and exits; run.py takes the CPU time of the
whole process.  ``pass`` builds the workload's items from the seed, runs and
checks them, and prints one JSON line: the wall and CPU time (user + system)
of this process from the first call to the last checked result, peak RSS,
and the number of checks attempted and failed.  With REF=1 it also takes
reference samples (``reference.py``) during the pass, reports their CPU
times, and leaves them out of the pass's times.  With SPANS_FILE the layer
entry points are traced and the spans are written there when the pass ends.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import bookcross  # noqa: E402

if Path(bookcross.__file__).resolve().parent != SRC / "bookcross":
    sys.exit(f"imported bookcross from {bookcross.__file__}, not from {SRC}")


def run_pass(workload: str, seed: int, jobs: int, smoke: bool, ref: bool, spans_file: str | None) -> dict:
    # Imported here so that ``setup`` imports bookcross and nothing else.
    import contextlib
    import resource
    import time
    import traceback

    import reference
    import tracing
    import workloads

    items = workloads.build(workload, seed, jobs, smoke)
    sampler = reference.Sampler() if ref else contextlib.nullcontext()
    tracer = None
    if spans_file:
        tracer = tracing.Tracer(f"{workload}-{seed}-{Path(spans_file).stem}")
        tracing.install(tracer)
    failed = 0
    errors: list[str] = []
    start, cpu_start = time.perf_counter(), time.process_time()
    with sampler:
        for index, item in enumerate(items):
            error = None
            try:
                ok = item()
            except Exception:  # a raising check is a failed check, not a crash
                ok = False
                error = traceback.format_exc(limit=3)
            if not ok:
                failed += 1
                errors.append(error or f"item {index} of {workload} (seed {seed}) gave a wrong answer")
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    samples = sampler.samples if ref else []
    if tracer is not None:
        tracer.dump(spans_file)
    return {
        "wall_s": wall - sum(samples),
        "cpu_s": cpu - sum(samples),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples_s": samples,
        "attempted": len(items),
        "failed": failed,
        "errors": errors[:5],
    }


if __name__ == "__main__":
    if sys.argv[1] == "pass":
        import json

        workload, seed, jobs = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
        smoke, ref = sys.argv[5] == "1", sys.argv[6] == "1"
        spans = sys.argv[7] if len(sys.argv) > 7 else None
        print(json.dumps(run_pass(workload, seed, jobs, smoke, ref, spans)))
