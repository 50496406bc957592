"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_novel --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` next to this directory; nothing is
installed.  The run writes its full record (machine, phases, checks,
metrics) to ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json`` and,
when traced, the spans as a Chrome trace-event file
``perfbench/out/trace-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("serve_novel", "serve_hot_rw", "fit_em", "lake_refresh")


def _require_program() -> None:
    """Put the program's source on the path and, before numpy loads, give
    BLAS one thread unless the environment chose a count: with a
    multi-threaded BLAS, one core busy with other work stalls every BLAS
    call (README.md, "Noise")."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}; nothing to run\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")


def _earlier_fits(seed: int, tiny: bool):
    """Fits recorded by earlier fit_em runs of ``seed`` in this checkout."""
    fits = []
    for path in sorted(OUT.glob(f"fit_em-seed{seed}-trace*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["extra"].get("tiny") == tiny:
            fits += record["extra"]["reps"]
    return fits


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns ``(result line, full record)``."""
    import harness
    import workloads

    OUT.mkdir(exist_ok=True)
    if workload in workloads.SERVE:
        outcome = workloads.run_serve(workload, seed, seconds, trace, tiny)
    elif workload == "fit_em":
        outcome = workloads.run_fit_em(seed, seconds, trace, tiny, _earlier_fits(seed, tiny))
    else:
        workdir = OUT / f"lake-{os.getpid()}"
        try:
            outcome = workloads.run_lake_refresh(seed, seconds, trace, tiny, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in outcome.metrics.items()
    }
    line = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": harness.machine(),
        "phases": [phase.record() for phase in outcome.phases],
        "checks": {"passed": not outcome.failures, "failures": outcome.failures},
        "metrics": metrics,
        "extra": {**outcome.extra, "tiny": tiny},
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if outcome.tracer is not None:
        trace_path = OUT / f"trace-{workload}-seed{seed}.json"
        outcome.tracer.write_chrome_trace(trace_path, outcome.trace_origin)
        record["chrome_trace"] = str(trace_path.relative_to(ROOT))
    harness.write_json(OUT / f"{stem}.json", record)
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# machine: {json.dumps(record['machine'], sort_keys=True)}")
    for phase in record["phases"]:
        print(f"# phase: {json.dumps(phase, sort_keys=True, default=float)}")
    for failure in record["checks"]["failures"]:
        print(f"# CHECK FAILED: {failure}")
    for name, metric in line["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in record["extra"].get("recorded", {}).items():
        print(f"# {name} (recorded, not gated) = {value:.6g}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
