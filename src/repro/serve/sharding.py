"""Sharded, thread-safe serving: partitioned ANN shards + query coalescing.

One ANN index stops scaling long before the encoder does: a 10M-record
corpus does not fit one brute-force scan, and one mutable index cannot
serve concurrent readers and writers without locking.  This module adds
the two scale levers on top of the PR 1/2 serving stack:

* :class:`ShardedBackend` — an :class:`~repro.serve.backends.ANNBackend`
  that hash-partitions record ids across ``num_shards`` inner backends
  (any of exact / LSH / HNSW), guards each shard with a
  :class:`ReadWriteLock`, fans queries out to all shards on a thread
  pool, and merges per-shard top-k into global top-k.  Because every id
  lives in exactly one shard, the merged result is the true global
  top-k (no duplicates, no misses) for exact inner backends.
* :class:`QueryCoalescer` — a leader/follower micro-batcher: concurrent
  ``search()`` callers are collected for up to ``window_ms`` (or until
  ``max_batch`` queries are queued) and served by **one** batched
  encoder + backend call.  Batched encoding is ~2.5x faster per record
  than one-at-a-time (``bench_serve_throughput``), which makes
  coalescing the single biggest multi-threaded throughput lever.
* :class:`ShardedMatchService` — a drop-in, thread-safe
  :class:`~repro.serve.service.MatchService`: the embedding store and
  index metadata are mutex-guarded, cross-shard ``upsert_records`` /
  ``delete_records`` are atomic with respect to concurrent ``search``
  (writers take every affected shard's write lock before touching any
  shard), and all ``search`` traffic flows through the coalescer.

``SudowoodoConfig(num_shards=4)`` routes the whole stack here:
``build_backend`` wraps the configured backend in a
:class:`ShardedBackend` (so ``Blocker`` and ``MatchService`` shard
transparently) and ``SudowoodoSession.serve()`` returns a
:class:`ShardedMatchService` with that many shards.

>>> config = SudowoodoConfig(num_shards=4, ann_backend="exact")
>>> service = ShardedMatchService(encoder, config=config)
>>> service.index_records(corpus)          # partitioned across 4 shards
>>> ids, scores = service.search(queries)  # coalesced + fanned out
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.config import SudowoodoConfig
from ..core.encoder import SudowoodoEncoder
from .backends import (
    ANNBackend,
    _check_ids_vectors,
    _check_remove_ids,
    build_backend,
)
from .service import MatchService
from .store import EmbeddingStore, _normalize_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (matcher imports serve)
    from ..core.matcher import PairwiseMatcher


# ----------------------------------------------------------------------
# Locking
# ----------------------------------------------------------------------
class ReadWriteLock:
    """A writer-preferring readers/writer lock.

    Any number of readers may hold the lock concurrently; writers get
    exclusive access.  Waiting writers block *new* readers (preference),
    so a steady query stream cannot starve index mutations.  Not
    reentrant — a thread must not re-acquire a lock it already holds.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@contextmanager
def _all_locked(locks: Sequence[ReadWriteLock], write: bool) -> Iterator[None]:
    """Hold every lock simultaneously (always in index order, so two
    cross-shard operations can never deadlock against each other)."""
    held: List[ReadWriteLock] = []
    try:
        for lock in locks:
            if write:
                lock.acquire_write()
            else:
                lock.acquire_read()
            held.append(lock)
        yield
    finally:
        for lock in reversed(held):
            if write:
                lock.release_write()
            else:
                lock.release_read()


# ----------------------------------------------------------------------
# Shard routing
# ----------------------------------------------------------------------
_KNUTH_MIX = 2654435761  # 2**32 / golden ratio (Fibonacci hashing)

_pool_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None


def _shard_pool() -> ThreadPoolExecutor:
    """Process-wide fan-out pool shared by every sharded backend.

    Shard queries are short numpy calls that release the GIL, so one
    right-sized pool beats per-backend pools (tests construct dozens of
    backends; each private pool would leak idle threads)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=min(32, (os.cpu_count() or 2)),
                thread_name_prefix="repro-shard",
            )
        return _pool


def shard_assignments(ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Stable hash partition of non-negative record ids onto shards.

    Fibonacci (Knuth multiplicative) hashing: structured id sequences —
    the store hands them out consecutively — still spread evenly, and
    the assignment is a pure function of the id, so every consumer
    (add, remove, query merge) agrees on where a record lives.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mixed = (ids * _KNUTH_MIX) & 0xFFFFFFFF
    return mixed % num_shards


class ShardedBackend(ANNBackend):
    """Hash-partitioned fan-out over ``num_shards`` inner ANN backends.

    Each record id is owned by exactly one shard
    (:func:`shard_assignments`), so per-shard top-k results are disjoint
    and the merge — sort the union of per-shard candidates by score —
    yields the global top-k whenever the inner backends do (always for
    ``exact``; at their usual recall for LSH / HNSW).  For ``exact``,
    results are identical to a single backend whenever top-k boundary
    scores are distinct at float64 resolution — effectively always for
    real embeddings.  The one caveat: when *bit-identical duplicate
    vectors* tie at the boundary, both paths pick deterministically
    (score desc, id asc), but BLAS may round the duplicates' scores
    differently in different shard shapes, so which duplicates win can
    differ from the single backend across shard boundaries.

    Thread safety: every shard carries a :class:`ReadWriteLock`.
    Queries hold all read locks for the duration of the fan-out, and
    mutations hold all write locks — validating the batch under them,
    *before* touching any shard — so a concurrent reader observes each
    cross-shard ``add`` / ``remove`` either completely or not at all,
    and a batch with an unknown id fails atomically.

    Parameters
    ----------
    factory:
        Zero-argument callable building one inner backend (e.g.
        ``lambda: ExactBackend()``).  Shards must be homogeneous.
    num_shards:
        Number of partitions; queries fan out across all of them on a
        shared thread pool.
    """

    def __init__(self, factory: Callable[[], ANNBackend], num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._shards: List[ANNBackend] = [factory() for _ in range(num_shards)]
        self.num_shards = num_shards
        self.supports_updates = all(s.supports_updates for s in self._shards)
        self.name = f"sharded-{self._shards[0].name}"
        self._locks = [ReadWriteLock() for _ in range(num_shards)]
        self._live_ids: set = set()
        self._built = False

    def __len__(self) -> int:
        with _all_locked(self._locks, write=False):
            return sum(len(shard) for shard in self._shards)

    # -- helpers --------------------------------------------------------
    def _group_by_shard(self, ids: np.ndarray) -> Dict[int, np.ndarray]:
        """Map shard index -> positions (into ``ids``) routed there."""
        owners = shard_assignments(ids, self.num_shards)
        return {
            int(shard): np.flatnonzero(owners == shard)
            for shard in np.unique(owners)
        }

    # -- ANNBackend protocol --------------------------------------------
    # Every mutation takes ALL write locks and validates under them:
    # checking _built / _live_ids outside the locked region would let a
    # concurrent mutation invalidate the check between test and patch,
    # re-creating exactly the torn cross-shard state the validation
    # exists to prevent.
    def _build_locked(self, vectors: np.ndarray) -> None:
        """Rebuild every shard; caller holds all write locks."""
        ids = np.arange(vectors.shape[0], dtype=np.int64)
        groups = self._group_by_shard(ids) if ids.size else {}
        for shard_index, shard in enumerate(self._shards):
            shard.build(np.zeros((0, vectors.shape[1])))
            rows = groups.get(shard_index)
            if rows is not None and rows.size:
                shard.add(ids[rows], vectors[rows])
        self._live_ids = set(ids.tolist())
        self._built = True

    def build(self, vectors: np.ndarray) -> "ShardedBackend":
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("expected (N, dim) vectors")
        with _all_locked(self._locks, write=True):
            self._build_locked(vectors)
        return self

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> "ShardedBackend":
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("expected (N, dim) vectors")
        id_array = _check_ids_vectors(ids, vectors)
        groups = self._group_by_shard(id_array) if id_array.size else {}
        with _all_locked(self._locks, write=True):
            if not self._built:
                self._build_locked(np.zeros((0, vectors.shape[1])))
            for shard_index, rows in groups.items():
                self._shards[shard_index].add(id_array[rows], vectors[rows])
            self._live_ids.update(id_array.tolist())
        return self

    def remove(self, ids: Sequence[int]) -> "ShardedBackend":
        id_array = _check_remove_ids(ids)
        groups = self._group_by_shard(id_array) if id_array.size else {}
        with _all_locked(self._locks, write=True):
            if not self._built:
                raise RuntimeError(
                    f"{self.name} backend: call build() before remove()"
                )
            # Validate the whole batch before touching any shard — a
            # KeyError halfway through would leave a torn cross-shard
            # state.
            missing = [int(i) for i in id_array if int(i) not in self._live_ids]
            if missing:
                raise KeyError(f"unknown record ids: {missing}")
            for shard_index, rows in groups.items():
                self._shards[shard_index].remove(id_array[rows])
            self._live_ids.difference_update(id_array.tolist())
        return self

    def rebuild(self) -> "ShardedBackend":
        with _all_locked(self._locks, write=True):
            if not self._built:
                raise RuntimeError(
                    f"{self.name} backend: call build() before rebuild()"
                )
            for shard in self._shards:
                shard.rebuild()
        return self

    def query(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        queries = np.asarray(queries, dtype=np.float64)
        # All read locks for the whole fan-out: the merged answer is a
        # consistent cross-shard snapshot (readers share the locks, so
        # queries still run concurrently with each other).
        with _all_locked(self._locks, write=False):
            if not self._built:
                raise RuntimeError(
                    f"{self.name} backend: call build() before query()"
                )
            if self.num_shards == 1:
                return self._shards[0].query(queries, k)
            futures = [
                _shard_pool().submit(shard.query, queries, k)
                for shard in self._shards
            ]
            results = [future.result() for future in futures]
        return _merge_topk(results, k)

    def shard_sizes(self) -> List[int]:
        """Live record count per shard (one consistent snapshot)."""
        with _all_locked(self._locks, write=False):
            return [len(shard) for shard in self._shards]


def _merge_topk(
    results: Sequence[Tuple[np.ndarray, np.ndarray]], k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(ids, scores)`` top-k blocks into global top-k.

    Ids are disjoint across shards, so the merge is a pure sort: per
    row, order the union by descending score (ties broken by ascending
    id — the store assigns ids in insertion order, matching the
    insertion-order tie-break of a single exact backend) and keep the
    first ``k``.  ``-1`` padding carries ``-inf`` scores and naturally
    sinks to the back.
    """
    all_ids = np.concatenate([ids for ids, _ in results], axis=1)
    all_scores = np.concatenate([scores for _, scores in results], axis=1)
    order = np.lexsort((all_ids, -all_scores), axis=-1)[:, :k]
    return (
        np.take_along_axis(all_ids, order, axis=1),
        np.take_along_axis(all_scores, order, axis=1),
    )


# ----------------------------------------------------------------------
# Query coalescing
# ----------------------------------------------------------------------
class _CoalesceRequest:
    __slots__ = ("texts", "k", "done", "result", "error")

    def __init__(self, texts: List[str], k: int) -> None:
        self.texts = texts
        self.k = k
        self.done = threading.Event()
        self.result: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.error: Optional[BaseException] = None


class QueryCoalescer:
    """Leader/follower micro-batcher for concurrent search traffic.

    The first caller to find no batch in flight becomes the *leader*: it
    waits up to ``window_ms`` for followers (cut short as soon as
    ``max_batch`` queries are queued), then drains the queue in
    ``max_batch``-sized chunks — each chunk is **one**
    ``run_batch(texts, k)`` call over the concatenated queries, with k
    the chunk's maximum — handing each caller its own row slice,
    trimmed to its own ``k``.  Leadership is released only once the
    queue is empty, so followers are never stranded.  A single request
    carrying more than ``max_batch`` texts runs alone as one oversized
    chunk (requests are never split).  Followers block on an event.

    Errors are delivered **per request**: when a multi-request chunk
    raises, each member is retried alone (counted in
    ``stats()["isolations"]``) so one poisoned query fails only its own
    caller instead of the whole batch; a request that fails alone
    re-raises in its caller only.

    With ``window_ms == 0`` the leader drains immediately: no latency is
    added, and only requests that arrived while a batch was in flight
    are coalesced.
    """

    def __init__(
        self,
        run_batch: Callable[[List[str], int], Tuple[np.ndarray, np.ndarray]],
        window_ms: float = 2.0,
        max_batch: int = 64,
        metrics=None,
    ) -> None:
        if window_ms < 0:
            raise ValueError("window_ms must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self._run_batch = run_batch
        self.window_ms = window_ms
        self.max_batch = max_batch
        #: Optional :class:`~repro.serve.metrics.MetricsRegistry`; when
        #: bound, per-batch sizes stream into the ``coalesce.batch_size``
        #: histogram alongside the plain counters below.
        self.metrics = metrics
        self._lock = threading.Lock()
        self._pending: List[_CoalesceRequest] = []
        self._full = threading.Event()
        self._leader_active = False
        # Counters for throughput reporting (mutated under self._lock).
        self.requests = 0
        self.batches = 0
        self.batched_queries = 0
        self.isolations = 0

    def stats(self) -> Dict[str, float]:
        """Coalescing counters: requests, batches, mean queries/batch,
        and how many failed chunks were isolated into per-request runs."""
        with self._lock:
            return {
                "requests": float(self.requests),
                "batches": float(self.batches),
                "mean_batch_size": (
                    self.batched_queries / self.batches if self.batches else 0.0
                ),
                "isolations": float(self.isolations),
            }

    def submit(
        self, texts: Sequence[str], k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Answer one search request through the shared batch."""
        request = _CoalesceRequest(list(texts), k)
        with self._lock:
            self.requests += 1
            self._pending.append(request)
            is_leader = not self._leader_active
            if is_leader:
                self._leader_active = True
            # Checked by leaders too: a request already carrying
            # max_batch texts must not idle out the window for nothing.
            if sum(len(r.texts) for r in self._pending) >= self.max_batch:
                self._full.set()  # cut the window short
        if not is_leader:
            request.done.wait()
        else:
            if self.window_ms > 0 and not self._full.is_set():
                self._full.wait(timeout=self.window_ms / 1000.0)
            # Drain in max_batch-sized chunks until the queue is empty;
            # leadership is only released once nothing is pending, so a
            # follower can never be stranded without a leader.
            while True:
                with self._lock:
                    batch: List[_CoalesceRequest] = []
                    taken = 0
                    while self._pending and (
                        not batch
                        or taken + len(self._pending[0].texts) <= self.max_batch
                    ):
                        queued = self._pending.pop(0)
                        batch.append(queued)
                        taken += len(queued.texts)
                    if not self._pending:
                        self._full.clear()
                    if not batch:
                        self._leader_active = False
                        break
                    self.batches += 1
                    self.batched_queries += taken
                self._execute(batch)
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result

    def _execute(self, batch: List[_CoalesceRequest]) -> None:
        """Run one batch and deliver per-request results (or errors).

        Never raises: the leader keeps draining later chunks even when
        one batch fails, and every caller — leader included — re-raises
        from its own request's ``error`` slot.  A failing multi-request
        chunk is split and retried one request at a time, so an error
        tied to a single poisoned query reaches only that query's caller
        while its batch-mates still get answers.
        """
        try:
            all_texts = [text for r in batch for text in r.texts]
            max_k = max(r.k for r in batch)
            ids, scores = self._run_batch(all_texts, max_k)
        except BaseException as exc:
            if len(batch) == 1:  # already isolated: deliver as-is
                batch[0].error = exc
                batch[0].done.set()
                return
            with self._lock:
                self.isolations += 1
            if self.metrics is not None:
                self.metrics.counter("coalesce.isolations").increment()
            for r in batch:
                try:
                    solo_ids, solo_scores = self._run_batch(r.texts, r.k)
                except BaseException as solo_exc:
                    r.error = solo_exc
                else:
                    r.result = (
                        solo_ids[:, : r.k],
                        solo_scores[:, : r.k],
                    )
                r.done.set()
            return
        if self.metrics is not None:
            self.metrics.histogram(
                "coalesce.batch_size", lowest=1.0, highest=1e5, growth=1.05
            ).record(len(all_texts))
        start = 0
        for r in batch:
            stop = start + len(r.texts)
            r.result = (ids[start:stop, : r.k], scores[start:stop, : r.k])
            r.done.set()
            start = stop


# ----------------------------------------------------------------------
# The sharded service
# ----------------------------------------------------------------------
class ShardedMatchService(MatchService):
    """A thread-safe, sharded :class:`MatchService` for concurrent traffic.

    Behaviour is identical to the base service — for the exact backend,
    provably so: ``search`` returns the same ids for any shard count —
    but the live index is partitioned across ``config.num_shards``
    backends (via :class:`ShardedBackend`, built by ``build_backend``),
    mutations are atomic across shards, and concurrent ``search``
    callers are micro-batched by a :class:`QueryCoalescer` into single
    batched encoder + backend calls.

    Locking model (acquisition order prevents deadlock):

    1. ``_mutation_lock`` — serializes index mutations
       (``index_records`` / ``upsert_records`` / ``delete_records`` /
       ``rebuild_index``) against each other.
    2. ``_store_lock`` — guards the (not thread-safe)
       :class:`EmbeddingStore`, the encoder behind it, and index
       metadata; held for the embed step of searches / ``block`` /
       ``embed_batch``, by mutations, and for the whole of
       ``match_pairs`` (the matcher drives the shared encoder).
    3. per-shard :class:`ReadWriteLock`\\ s — inside
       :class:`ShardedBackend`; queries share read locks, mutations take
       write locks of every affected shard at once.

    ``num_shards`` / ``coalesce_window_ms`` / ``max_coalesce_batch``
    default to the config's values and may be overridden per service.
    """

    def __init__(
        self,
        encoder: SudowoodoEncoder,
        config: Optional[SudowoodoConfig] = None,
        store: Optional[EmbeddingStore] = None,
        matcher: Optional["PairwiseMatcher"] = None,
        num_shards: Optional[int] = None,
        coalesce_window_ms: Optional[float] = None,
        max_coalesce_batch: Optional[int] = None,
        metrics=None,
    ) -> None:
        super().__init__(encoder, config=config, store=store, matcher=matcher)
        overrides = {}
        if num_shards is not None:
            overrides["num_shards"] = num_shards
        if coalesce_window_ms is not None:
            overrides["coalesce_window_ms"] = coalesce_window_ms
        if max_coalesce_batch is not None:
            overrides["max_coalesce_batch"] = max_coalesce_batch
        if overrides:
            # replace() copies, so a config shared with other components
            # is never mutated by per-service overrides.
            self.config = replace(self.config, **overrides)
        if self.config.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = self.config.num_shards
        self._mutation_lock = threading.RLock()
        # The store's own reentrant mutex, not a private one: services
        # sharing one store (e.g. two session.serve() calls on the same
        # session) must serialize on the same lock, and holding it
        # across embed + metadata keeps both consistent.
        self._store_lock = self.store.lock
        self._coalescer = QueryCoalescer(
            self._search_batch,
            window_ms=self.config.coalesce_window_ms,
            max_batch=self.config.max_coalesce_batch,
            metrics=metrics,
        )

    def _build_live_backend(self) -> ANNBackend:
        # sharded=True even for num_shards == 1: a single-shard service
        # still needs the ReadWriteLock-guarded wrapper, or searches
        # would race mutations inside a raw backend.
        return build_backend(self.config, sharded=True)

    # -- mutations (serialized, atomic across shards) -------------------
    def index_records(
        self, texts: Sequence[str], center: bool = True
    ) -> np.ndarray:
        with self._mutation_lock, self._store_lock:
            # _build_live_backend() returns a ShardedBackend, so the
            # parent's rebuild logic partitions transparently.
            return super().index_records(texts, center=center)

    def upsert_records(self, texts: Sequence[str]) -> np.ndarray:
        with self._mutation_lock:
            if self._live_backend is None:
                return self.index_records(texts)
            with self._store_lock:
                ids, raw = self.store.upsert_batch(texts)
                vectors = _normalize_rows(raw - self._index_mean)
                unique_ids, first_rows = np.unique(ids, return_index=True)
                # Texts first: any id a concurrent search can return must
                # already resolve through record_text().
                for record_id, row in zip(
                    unique_ids.tolist(), first_rows.tolist()
                ):
                    self._live_texts[record_id] = texts[row]
            self._live_backend.add(unique_ids, vectors[first_rows])
            return ids

    def delete_records(self, texts: Sequence[str]) -> np.ndarray:
        with self._mutation_lock, self._store_lock:
            return super().delete_records(texts)

    def rebuild_index(self) -> "ShardedMatchService":
        with self._mutation_lock:
            super().rebuild_index()
        return self

    # -- queries (coalesced) --------------------------------------------
    def search(
        self, texts: Sequence[str], k: int = 10
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k neighbours, served through the micro-batch coalescer.

        Results are identical to :meth:`MatchService.search` (queries in
        one coalesced batch are answered at the maximum requested ``k``
        and each caller's rows are trimmed back to its own ``k``, which
        is exact for prefix-stable backends such as ``exact``).
        """
        if self._live_backend is None:
            raise RuntimeError("no live index; call index_records() first")
        return self._coalescer.submit(texts, k)

    def search_batch(
        self, texts: Sequence[str], k: int = 10
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Serve one already-formed batch, bypassing the coalescer.

        The hook for callers that batch *upstream* — notably
        :class:`~repro.serve.frontend.ServiceFrontend`'s request broker,
        whose deadline-aware batches must not queue a second time behind
        the coalescer window.  Thread-safe like :meth:`search`; per-call
        semantics are identical to :meth:`MatchService.search`.
        """
        return self._search_batch(list(texts), k)

    def live_texts(self) -> List[str]:
        """The live corpus in ascending record-id order (a snapshot
        consistent with concurrent mutations — the blue/green reindex
        reads its corpus through this)."""
        with self._store_lock:
            return [text for _, text in sorted(self._live_texts.items())]

    def _search_batch(
        self, texts: List[str], k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One coalesced batch: single encode, single fan-out query."""
        with self._store_lock:
            # Snapshot backend and mean together: index_records() swaps
            # both under this lock, and pairing the old backend with the
            # new frozen mean would silently skew every score.
            backend = self._live_backend
            mean = self._index_mean
            if backend is None:
                raise RuntimeError("no live index; call index_records() first")
            raw = self.store.embed_batch(texts, cache=False)
        vectors = _normalize_rows(raw - mean)
        return backend.query(vectors, k)

    def coalesce_stats(self) -> Dict[str, float]:
        """Coalescer counters (requests, batches, mean batch size)."""
        return self._coalescer.stats()

    # -- inherited batch APIs, made safe for concurrent callers ---------
    # The EmbeddingStore (and the encoder behind it) is not thread-safe,
    # so every inherited entry point that touches it must hold the store
    # mutex — otherwise "drop-in thread-safe" would only cover the
    # streaming APIs.  block() needs no override: the base method embeds
    # through this locked embed_batch and runs its backend build/query
    # on local data, so a long blocking request only stalls searches
    # during its embed phase.
    def embed_batch(self, texts, normalize: bool = True) -> np.ndarray:
        with self._store_lock:
            return super().embed_batch(texts, normalize=normalize)

    def match_pairs(self, pairs, batch_size=None) -> np.ndarray:
        # Fully serialized: the matcher drives the shared encoder, whose
        # forward pass (global no_grad flag, train/eval toggling) is not
        # safe to interleave with the coalescer's embeds.
        with self._store_lock:
            return super().match_pairs(pairs, batch_size=batch_size)

    def stats(self) -> dict:
        with self._store_lock:
            return super().stats()
