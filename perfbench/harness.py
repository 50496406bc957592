"""Load generation, timing statistics and the run record.

All load comes from this one process, on at most ``clients()`` threads.
An open-loop phase sends each operation at its scheduled (Poisson) due
time whether or not earlier ones finished, and times it from that due
time, so a stall also counts against the operations queued behind it;
how late the generator itself ran is reported separately.  A
closed-loop phase has each client send its next operation when the
previous one returns, and measures capacity.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import platform
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

#: Environment variables that set BLAS / OpenMP thread counts.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def clients() -> int:
    """Client threads: one per core, at most 4."""
    return max(1, min(os.cpu_count() or 1, 4))


@dataclass
class Phase:
    """Outcome of one load phase."""

    name: str
    kinds: List[str] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    lateness_s: List[float] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)
    wall_s: float = 0.0
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.ok)

    def latencies(self, kind: str) -> np.ndarray:
        """Latencies of the successful operations of ``kind``."""
        return np.asarray(
            [lat for k, lat, ok in zip(self.kinds, self.latency_s, self.ok) if k == kind and ok]
        )

    def record(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "attempted": self.attempted,
            "failed": self.failed,
            "wall_s": self.wall_s,
            "errors": dict(self.errors),
        }
        for kind in sorted(set(self.kinds)):
            lat = self.latencies(kind)
            out[kind] = {
                "completed": int(lat.size),
                "p50_ms": float(np.percentile(lat, 50)) * 1e3 if lat.size else None,
                "p99_ms": float(np.percentile(lat, 99)) * 1e3 if lat.size else None,
                "beyond_p99": int(np.sum(lat > np.percentile(lat, 99))) if lat.size else 0,
            }
        if self.lateness_s:
            late = np.asarray(self.lateness_s)
            out["generator_lateness_ms"] = {
                "p50": float(np.percentile(late, 50)) * 1e3,
                "max": float(late.max()) * 1e3,
            }
        return out


def _run_clients(body: Callable[[], None], count: int) -> List[int]:
    threads = [threading.Thread(target=body, name=f"perfbench-client-{i}") for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [thread.ident for thread in threads]


def _execute(execute: Callable[[Any], None], op: Any, phase: Phase, lock: threading.Lock) -> bool:
    try:
        execute(op)
        return True
    except Exception as exc:  # a failed operation is counted, not fatal
        with lock:
            key = type(exc).__name__
            phase.errors[key] = phase.errors.get(key, 0) + 1
        return False


def open_loop(
    name: str,
    execute: Callable[[Any], None],
    ops: Sequence[Any],
    kind: Callable[[Any], str],
    rate: float,
    rng: np.random.Generator,
    threads: Optional[List[int]] = None,
) -> Phase:
    """Send every op in ``ops`` at Poisson ``rate``/s (open loop)."""
    count = len(ops)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    phase = Phase(name)
    latency = [0.0] * count
    lateness = [0.0] * count
    ok = [False] * count
    lock = threading.Lock()
    cursor = itertools.count()
    start = time.perf_counter() + 0.01
    due = (start + offsets[:count]).tolist()

    def client() -> None:
        while True:
            i = next(cursor)
            if i >= count:
                return
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            ok[i] = _execute(execute, ops[i], phase, lock)
            latency[i] = time.perf_counter() - due[i]
            lateness[i] = sent - due[i]

    idents = _run_clients(client, clients())
    phase.wall_s = time.perf_counter() - start
    phase.kinds = [kind(op) for op in ops]
    phase.latency_s, phase.lateness_s, phase.ok = latency, lateness, ok
    if threads is not None:
        threads.extend(idents)
    return phase


def closed_loop(
    name: str,
    execute: Callable[[Any], None],
    ops: Sequence[Any],
    kind: Callable[[Any], str],
    seconds: Optional[float],
    threads: Optional[List[int]] = None,
) -> Phase:
    """Each client sends its next op when the last returns, until
    ``seconds`` pass or ``ops`` run out."""
    phase = Phase(name)
    lock = threading.Lock()
    cursor = itertools.count()
    done: List[tuple] = []
    start = time.perf_counter()
    stop = float("inf") if seconds is None else start + seconds

    def client() -> None:
        while time.perf_counter() < stop:
            i = next(cursor)
            if i >= len(ops):
                return
            sent = time.perf_counter()
            success = _execute(execute, ops[i], phase, lock)
            done.append((i, time.perf_counter() - sent, success))

    idents = _run_clients(client, clients())
    phase.wall_s = time.perf_counter() - start
    done.sort()
    phase.kinds = [kind(ops[i]) for i, _, _ in done]
    phase.latency_s = [lat for _, lat, _ in done]
    phase.ok = [success for _, _, success in done]
    if threads is not None:
        threads.extend(idents)
    return phase


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def timed(fn: Callable[[], Any]) -> tuple:
    """``(result, seconds)`` of one call.  Garbage is collected first,
    untimed, so a call does not pay for the cycles its predecessors left."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def machine() -> Dict[str, Any]:
    """What the numbers were measured on."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas_info.get('name', '?')} {blas_info.get('version', '')}".strip()
    except TypeError:  # numpy < 1.26 has no mode="dicts"
        pass
    return {
        "nproc": os.cpu_count(),
        "clients": clients(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "blas": blas,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }


def write_json(path, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=float)
