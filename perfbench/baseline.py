"""Run the benchmark over several seeds and summarise each metric.

For every workload and seed this runs ``perfbench/run.py`` once (as its
own process, one at a time), then reports per end-to-end metric the
median over seeds and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``; the same
summary, under ``recorded``, for the numbers runs record without gating
(the issue-level names behind the generic gated metrics, and the ones
too noisy to gate).

    python3 perfbench/baseline.py --seeds 1-10                # all workloads
    python3 perfbench/baseline.py --seeds 101-105 --workloads serve_novel
    python3 perfbench/baseline.py --seeds 1-10 --write perfbench/BASELINE.json
    python3 perfbench/baseline.py --seeds 1 --trace --write perfbench/BASELINE.json

``--write`` merges into an existing file: end-to-end runs fill each
workload's ``metrics``, traced runs (``--trace``) its ``per_layer``;
``--into second_set`` puts an end-to-end summary under that key of each
workload instead, next to the first set.
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


def _seeds(text: str):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _summary(values):
    return {"median": statistics.median(values), "spread": spread(values), "values": values}


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    line["elapsed_s"] = elapsed
    line["record"] = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8")
    )
    return line


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", action="store_true", help="traced runs (per-layer metrics)")
    parser.add_argument("--write", help="merge the summary as JSON into this path")
    parser.add_argument("--into", help="key of each workload's entry to hold the summary")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    if args.write and Path(args.write).exists():
        summary = json.loads(Path(args.write).read_text(encoding="utf-8"))
    for workload in args.workloads:
        entry = summary["workloads"].setdefault(workload, {})
        if args.into:
            entry = entry.setdefault(args.into, {})
        runs = []
        for seed in _seeds(args.seeds):
            line = run_once(workload, seed, spec["run_seconds"], int(args.trace))
            runs.append(line)
            shown = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
            print(
                f"{workload} seed {seed}: correct={line['correct']} "
                f"failed={line['failed']}/{line['attempted']} "
                f"{line['elapsed_s']:.1f}s {shown}",
                flush=True,
            )
        summary["machine"] = line["record"]["machine"]
        if args.trace:
            entry["per_layer"] = {
                "seed": seed,
                "correct": line["correct"],
                "metrics": {name: m["value"] for name, m in line["metrics"].items()},
            }
            continue
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "bound": bounds[name],
                **_summary(values),
            }
            print(
                f"  {name:16s} median {metrics[name]['median']:.5g} "
                f"spread {metrics[name]['spread']:.3f} (bound {bounds[name]})"
            )
        recorded = {}
        for name in runs[0]["record"]["extra"].get("recorded", {}):
            values = [r["record"]["extra"]["recorded"][name] for r in runs]
            if len(values) > 1:
                recorded[name] = _summary(values)
                print(
                    f"  {name:16s} median {recorded[name]['median']:.5g} "
                    f"spread {recorded[name]['spread']:.3f} (recorded, not gated)"
                )
        entry.update(
            {
                "seeds": args.seeds,
                "metrics": metrics,
                "recorded": recorded,
                "all_correct": all(r["correct"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "run_wall_s": [r["elapsed_s"] for r in runs],
            }
        )
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
