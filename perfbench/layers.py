"""Which public functions the traced run wraps, and the per-layer metrics
computed from their spans.

Span names follow ``<layer>.<operation>``; the metric names and units
are those of ``BENCHMARK.json``'s ``per_layer`` list (the self-test
checks that a traced run emits exactly those).  Every traced run reports
every metric: a layer a workload never enters reads 0 calls and 0 ms.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

import numpy as np

from tracer import RequestText, Span, Tracer, self_times, union_length

def _counter_hook(*counters: str):
    """Hook recording the change of ``self.<counter>`` over the call."""

    def hook(args, kwargs):
        owner = args[0]
        before = [getattr(owner, name) for name in counters]

        def after(result, attrs):
            for name, value in zip(counters, before):
                attrs[name] = getattr(owner, name) - value

        return after

    return hook


def _batch_hook(args, kwargs):
    texts = args[1]
    rids = sorted({t.rid for t in texts if isinstance(t, RequestText)})

    def after(result, attrs):
        attrs["texts"] = len(texts)
        attrs["rids"] = rids

    return after


def _texts_hook(args, kwargs):
    count = len(args[1])

    def after(result, attrs):
        attrs["texts"] = count

    return after


def _lake_fit_hook(args, kwargs):
    def after(task, attrs):
        if task is None:
            return
        stats = task.evaluate()
        attrs["computed"] = stats["profiles_computed"]
        attrs["reused"] = stats["profiles_reused"]
        attrs["candidates"] = stats["num_candidates"]

    return after


def _install(tracer: Tracer) -> None:
    import repro.serve.sharding as sharding
    from repro.api.session import SudowoodoSession
    from repro.api.tasks import MatchTask
    from repro.core.blocker import Blocker
    from repro.core.encoder import SudowoodoEncoder
    from repro.core.matcher import PairwiseMatcher, finetune_matcher
    from repro.core.pseudo_label import generate_pseudo_labels
    from repro.discovery.lake import (
        LakeIndex,
        ProfileStore,
        column_fingerprint,
        rank_lake_candidates,
    )
    from repro.discovery.tasks import LakeDiscoveryTask
    from repro.nn.optim import Optimizer
    from repro.nn.tensor import Tensor
    from repro.serve.backends import ExactBackend
    from repro.serve.frontend import ServiceFrontend
    from repro.serve.sketch import ContainmentSketch
    from repro.serve.store import EmbeddingStore
    from repro.serve.vecstore import MemmapVectorStore
    from repro.text.lm_pretrain import mlm_warm_start
    from repro.text.tokenizer import Tokenizer
    from repro.train.data import TokenCache
    from repro.train.engine import StepProgram

    # serve.frontend: each search is one request; its texts carry the
    # request id into whichever batch serves them.
    search = tracer.wrap(ServiceFrontend.search, "frontend.search")
    request_ids = itertools.count(1)

    def tagged_search(self, texts, *args, **kwargs):
        rid = next(request_ids)
        tagged = []
        for text in texts:
            item = RequestText(text)
            item.rid = rid
            tagged.append(item)
        with tracer.request(rid):
            return search(self, tagged, *args, **kwargs)

    tracer.replace(ServiceFrontend, "search", tagged_search)
    tracer.patch_method(ServiceFrontend, "upsert_records", "frontend.upsert")
    tracer.patch_method(ServiceFrontend, "delete_records", "frontend.delete")
    # serve.sharding
    tracer.patch_method(
        sharding.ShardedMatchService, "search_batch", "service.search_batch", _batch_hook
    )
    tracer.patch_method(sharding.ShardedMatchService, "upsert_records", "service.upsert")
    tracer.patch_method(sharding.ShardedMatchService, "delete_records", "service.delete")
    tracer.patch_method(sharding.ShardedBackend, "query", "sharding.query")
    tracer.patch_pool(sharding, "_shard_pool")
    # serve.backends
    tracer.patch_method(ExactBackend, "query", "backends.query")
    tracer.patch_method(ExactBackend, "add", "backends.add")
    tracer.patch_method(ExactBackend, "remove", "backends.remove")
    # serve.store
    tracer.patch_method(
        EmbeddingStore, "embed_batch", "store.embed_batch", _counter_hook("hits", "misses")
    )
    # core.encoder
    tracer.patch_method(SudowoodoEncoder, "embed_items", "encoder.embed_items", _texts_hook)
    tracer.patch_method(SudowoodoEncoder, "encode_tokens_inference", "encoder.forward")
    tracer.patch_method(
        TokenCache, "encode_batch", "encoder.tokenize", _counter_hook("hits", "misses")
    )
    tracer.patch_method(Tokenizer, "encode_batch", "encoder.tokenize")
    # train
    tracer.patch_overrides(StepProgram, "prepare", "train.prepare")
    tracer.patch_overrides(StepProgram, "loss", "train.forward")
    tracer.patch_method(Tensor, "backward", "train.backward")
    tracer.patch_overrides(Optimizer, "step", "train.optimizer")
    tracer.patch_function(mlm_warm_start, "pretrain.mlm_warm_start")
    # core task stages and the session entry points (the root spans)
    tracer.patch_method(SudowoodoSession, "pretrain", "session.pretrain")
    tracer.patch_method(SudowoodoSession, "embed", "session.embed")
    tracer.patch_method(MatchTask, "fit", "task.fit")
    tracer.patch_method(MatchTask, "evaluate", "task.evaluate")
    tracer.patch_method(Blocker, "candidates", "blocker.candidates")
    tracer.patch_function(generate_pseudo_labels, "pseudo_label.generate")
    tracer.patch_function(finetune_matcher, "matcher.finetune")
    tracer.patch_method(PairwiseMatcher, "predict_proba", "matcher.predict")
    # discovery.lake / serve.sketch / serve.vecstore
    tracer.patch_method(LakeDiscoveryTask, "fit", "task.fit", _lake_fit_hook)
    tracer.patch_function(column_fingerprint, "lake.fingerprint")
    tracer.patch_method(ContainmentSketch, "from_values", "lake.sketch")
    tracer.patch_method(ContainmentSketch, "intersection_many", "sketch.containment")
    tracer.patch_method(ContainmentSketch, "containment_many", "sketch.containment")
    tracer.patch_method(ProfileStore, "put_many", "lake.store_put")
    tracer.patch_method(ProfileStore, "flush", "lake.store_flush")
    tracer.patch_method(MemmapVectorStore, "append", "vecstore.append")
    tracer.patch_method(LakeIndex, "update", "lake.index_update")
    tracer.patch_function(rank_lake_candidates, "lake.rank")


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced layer for the duration of the block."""
    try:
        _install(tracer)
        yield tracer
    finally:
        tracer.unpatch()


def _percentile_ms(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def _has_ancestor(span: Span, name: str, index: Dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        ancestor = index[parent]
        if ancestor.name == name:
            return True
        parent = ancestor.parent
    return False


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(
    spans: List[Span],
    client_threads: Sequence[int],
    wall_s: float,
    overhead_frac: float,
) -> Dict[str, float]:
    """Every per-layer metric from one traced window.

    ``client_threads`` are the threads that drove the workload and
    ``wall_s`` the window's length: coverage is the share of
    ``wall_s`` x clients that root spans on those threads cover.
    ``overhead_frac`` is traced / untraced wall of the same work, minus 1.
    """
    index = {span.sid: span for span in spans}
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def total(name: str, scale: float = 1e3) -> float:
        return sum(span.duration for span in named(name)) * scale

    def self_total(name: str) -> float:
        return sum(own[span.sid] for span in named(name)) * 1e3

    def attr_sum(items: List[Span], key: str) -> float:
        return float(sum(span.attrs.get(key, 0) for span in items))

    requests = {span.rid: span for span in named("frontend.search")}
    waits = []
    served = set()
    for batch in sorted(named("service.search_batch"), key=lambda s: s.start):
        for rid in batch.attrs.get("rids", []):
            if rid in requests and rid not in served:
                served.add(rid)
                waits.append(batch.start - requests[rid].start)
    batches = named("service.search_batch")

    fanout = 0.0
    children: Dict[int, List[Span]] = {}
    for span in named("backends.query"):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    for span in named("sharding.query"):
        slowest = max((c.duration for c in children.get(span.sid, [])), default=0.0)
        fanout += span.duration - slowest

    embed_tokenize = [
        span
        for span in named("encoder.tokenize")
        if _has_ancestor(span, "encoder.embed_items", index)
    ]
    stores = named("store.embed_batch")
    lake_fits = [span for span in named("task.fit") if "computed" in span.attrs]

    clients = set(client_threads)
    roots: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is None and span.thread in clients:
            roots.setdefault(span.thread, []).append((span.start, span.end))
    covered = sum(union_length(intervals) for intervals in roots.values())
    coverage = covered / (wall_s * max(len(clients), 1)) if wall_s > 0 else 0.0

    values = {
        "frontend.requests": float(len(requests)),
        "frontend.failed": float(sum(span.failed for span in requests.values())),
        "frontend.queue_wait_ms.p50": _percentile_ms(waits, 50),
        "frontend.queue_wait_ms.p99": _percentile_ms(waits, 99),
        "frontend.batch_size.mean": (
            attr_sum(batches, "texts") / len(batches) if batches else 0.0
        ),
        "store.embed_calls": float(len(stores)),
        "store.embed_self_ms": self_total("store.embed_batch"),
        "store.hit_ratio": _ratio(attr_sum(stores, "hits"), attr_sum(stores, "misses")),
        "encoder.texts": attr_sum(named("encoder.embed_items"), "texts"),
        "encoder.tokenize_ms": sum(span.duration for span in embed_tokenize) * 1e3,
        "encoder.forward_ms": total("encoder.forward"),
        "encoder.token_cache_hit_ratio": _ratio(
            attr_sum(embed_tokenize, "hits"), attr_sum(embed_tokenize, "misses")
        ),
        "sharding.query_ms": total("sharding.query"),
        "sharding.fanout_overhead_ms": fanout * 1e3,
        "service.upsert_ms": self_total("service.upsert"),
        "service.delete_ms": self_total("service.delete"),
        "backends.query_calls": float(len(named("backends.query"))),
        "backends.query_ms": total("backends.query"),
        "backends.add_ms": total("backends.add"),
        "backends.remove_ms": total("backends.remove"),
        "train.steps": float(len(named("train.optimizer"))),
        "train.prepare_ms": total("train.prepare"),
        "train.forward_ms": total("train.forward"),
        "train.backward_ms": total("train.backward"),
        "train.optimizer_ms": total("train.optimizer"),
        "pretrain.mlm_warm_start_s": total("pretrain.mlm_warm_start", 1.0),
        "blocker.candidates_ms": total("blocker.candidates"),
        "pseudo_label.ms": total("pseudo_label.generate"),
        "matcher.finetune_s": total("matcher.finetune", 1.0),
        "matcher.predict_ms": total("matcher.predict"),
        "lake.fingerprint_ms": total("lake.fingerprint"),
        "lake.sketch_ms": total("lake.sketch"),
        "lake.embed_ms": total("session.embed"),
        "lake.profiles_computed": attr_sum(lake_fits, "computed"),
        "lake.profiles_reused": attr_sum(lake_fits, "reused"),
        "lake.store_put_ms": total("lake.store_put"),
        "lake.store_flush_ms": total("lake.store_flush"),
        "lake.index_update_ms": total("lake.index_update"),
        "lake.rank_ms": total("lake.rank"),
        "sketch.containment_ms": total("sketch.containment"),
        "lake.candidates": attr_sum(lake_fits, "candidates"),
        "trace.coverage": coverage,
        "trace.overhead_frac": overhead_frac,
    }
    return values

