"""Repeat the benchmark over seeds; record each metric's median and spread.

    python3 perfbench/baseline.py --runs 10 --trace 0 --out perfbench/baseline.json
    python3 perfbench/baseline.py --runs 10 --trace 0 --first-seed 11 --section trace0_repeat \
        --out perfbench/baseline.json
    python3 perfbench/baseline.py --runs 5 --trace 1 --out perfbench/baseline.json

For every workload in BENCHMARK.json (or those given with --workloads) it
runs ``run.py`` once per seed, seeds first-seed .. first-seed+runs-1, and
stores per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
Results merge into --out under --section ("trace0" or "trace1" by default),
so the two modes and repeated sets can be recorded separately.  It prints
each run with its duration and, per end-to-end metric, whether the spread is
within a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--section", help='key in --out; default "trace0" or "trace1"')
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict[str, dict] = {}
    environment = None
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            began = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - began
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed} failed: {done.stderr.strip()}", file=sys.stderr)
                return 1
            record, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
            environment = environment or {k: record[k] for k in ("nproc", "cpu", "python", "numpy", "commit")}
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            shown = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
            print(f"{workload} seed {seed} ({took:.1f} s): {shown}", flush=True)
        table[workload] = {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}
        for name, row in table[workload].items():
            verdict = ""
            if name in bounds:
                verdict = "steady" if row["spread"] < bounds[name] / 3 else f"NOT below a third of {bounds[name]}"
            print(f"  {workload:9} {name:40} median {row['median']:.4f}  spread {row['spread']:.4f}  {verdict}")

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        section = doc.setdefault(args.section or f"trace{args.trace}", {})
        section.update(table)
        doc["environment"] = environment
        doc["run_seconds"] = spec["run_seconds"]
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
