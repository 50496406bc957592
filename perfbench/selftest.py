"""Self-test of the benchmark at tiny scale (about two minutes).

Checks three things:

1. every untraced run emits every end-to-end metric, none of them 0, and
   each traced run every per-layer metric, with the unit
   ``BENCHMARK.json`` declares;
2. per-layer self times on any one thread sum to no more than the traced
   window's wall time;
3. each correctness check fails when handed a perturbed result (a
   swapped top-k id, a changed score, a missing record, a changed
   ranking row, an F1 that does not repeat or does not beat predicting
   every pair a match, a wrong recompute count).

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run as runner

TINY_SECONDS = 2.0


class SelfTest:
    def __init__(self) -> None:
        self.failures = []

    def expect(self, condition: bool, what: str) -> None:
        print(f"{'ok  ' if condition else 'FAIL'} {what}")
        if not condition:
            self.failures.append(what)


def _declared():
    spec = json.loads((runner.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def check_metrics(test: SelfTest) -> None:
    end_to_end, per_layer, names = _declared()
    test.expect(names == list(runner.WORKLOADS), "BENCHMARK.json names the four workloads")
    for workload in runner.WORKLOADS:
        line, record = runner.run(workload, 7, TINY_SECONDS, trace=False, tiny=True)
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        test.expect(got == end_to_end, f"{workload}: every end-to-end metric with its unit ({sorted(got)})")
        test.expect(
            all(m["value"] > 0 for m in line["metrics"].values()),
            f"{workload}: no end-to-end metric reads 0",
        )
        test.expect(line["correct"], f"{workload}: untraced run passes its checks {record['checks']}")
        test.expect(line["attempted"] >= 1, f"{workload}: attempted >= 1")
        line, record = runner.run(workload, 7, TINY_SECONDS, trace=True, tiny=True)
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        test.expect(got == per_layer, f"{workload}: every per-layer metric with its unit")
        test.expect(line["correct"], f"{workload}: traced run passes its checks {record['checks']}")
        trace_file = runner.ROOT / record["chrome_trace"]
        events = json.loads(trace_file.read_text(encoding="utf-8"))["traceEvents"]
        test.expect(len(events) > 0, f"{workload}: Chrome trace written ({len(events)} events)")
        coverage = line["metrics"]["trace.coverage"]["value"]
        test.expect(0.5 < coverage <= 1.0 + 1e-9, f"{workload}: trace.coverage {coverage:.3f} in (0.5, 1]")


def check_self_times(test: SelfTest) -> None:
    import time

    import workloads
    from tracer import self_times

    for workload in ("serve_hot_rw", "fit_em"):
        start = time.perf_counter()
        if workload == "fit_em":
            outcome = workloads.run_fit_em(7, TINY_SECONDS, True, True)
        else:
            outcome = workloads.run_serve(workload, 7, TINY_SECONDS, True, True)
        spans = outcome.tracer.spans
        window = max(s.end for s in spans) - min(s.start for s in spans)
        own = self_times(spans)
        per_thread = {}
        for span in spans:
            per_thread[span.thread] = per_thread.get(span.thread, 0.0) + own[span.sid]
        worst = max(per_thread.values())
        test.expect(
            all(value >= -1e-9 for value in own.values()),
            f"{workload}: no negative self time",
        )
        test.expect(
            worst <= window + 1e-6,
            f"{workload}: per-thread self times {worst:.3f}s <= traced wall {window:.3f}s",
        )
        test.expect(time.perf_counter() - start < 120, f"{workload}: traced tiny run is quick")


def check_checks(test: SelfTest) -> None:
    import numpy as np

    import checks
    import workloads

    # Top-k: a real served result passes, and fails once perturbed.
    env = workloads._ServeEnv(workloads.SERVE["serve_novel"], 7, TINY_SECONDS, tiny=True)
    test.expect(env.check() == [], "serve check passes on the real result")
    store = env.frontend.service.store
    live = env.frontend.service.live_texts()
    query = env.check_reads[0]
    ids, scores = env.frontend.search([query], k=workloads.K)
    ref_ids, ref_scores = checks.exact_topk(
        store.embed_batch([query], cache=False),
        store.embed_batch(live),
        store.ids_for(live, assign=False),
        env.mean,
        workloads.K,
    )
    test.expect(not checks.topk_failures(ids, scores, ref_ids, ref_scores, [query]), "top-k matches")
    swapped = ids.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]
    test.expect(bool(checks.topk_failures(swapped, scores, ref_ids, ref_scores, [query])), "swapped top-k id fails")
    nudged = scores.copy()
    nudged[0, 3] += 1e-6
    test.expect(bool(checks.topk_failures(ids, nudged, ref_ids, ref_scores, [query])), "changed top-k score fails")
    # Live index: one record missing or one extra fails.
    test.expect(not checks.live_index_failures(live, len(live), live), "live index matches")
    test.expect(bool(checks.live_index_failures(live[1:], len(live) - 1, live)), "missing record fails")
    test.expect(bool(checks.live_index_failures(live, len(live), live[1:])), "extra record fails")
    # Determinism.
    test.expect(not checks.repeat_failures("f1", [0.5, 0.5]), "repeated F1 passes")
    test.expect(bool(checks.repeat_failures("f1", [0.5, 0.5 + 1e-12])), "F1 off by 1e-12 fails")
    test.expect(bool(checks.repeat_failures("fp", ["ab", "ac"])), "changed fingerprint fails")
    test.expect(not checks.floor_failures("f1", 0.5, 0.19), "F1 above the all-match floor passes")
    test.expect(bool(checks.floor_failures("f1", 0.19, 0.19)), "F1 at the all-match floor fails")
    # Lake: a real refresh ranking passes, and fails once a row changes.
    workdir = runner.OUT / "selftest-lake"
    try:
        lake, mutated, names, tokenizer, session = workloads._lake_setup(7, tiny=True)
        cycle = workloads._lake_cycle(lake, mutated, session, workdir)
        ranking = cycle["task"].predict()
        test.expect(workloads._lake_check(cycle, mutated, names) == [], "lake check passes")
        test.expect(not checks.ranking_failures(ranking, list(ranking)), "identical ranking passes")
        swapped = list(ranking)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        test.expect(bool(checks.ranking_failures(swapped, ranking)), "swapped ranking rows fail")
        changed = list(ranking)
        changed[2] = dataclasses.replace(changed[2], score=np.nextafter(changed[2].score, 2.0))
        test.expect(bool(checks.ranking_failures(changed, ranking)), "last-bit score change fails")
        test.expect(bool(checks.count_failures("computed", 11.0, 12.0)), "wrong recompute count fails")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    runner._require_program()
    test = SelfTest()
    check_checks(test)
    check_self_times(test)
    check_metrics(test)
    print(f"\n{'PASSED' if not test.failures else f'{len(test.failures)} FAILED'}")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
