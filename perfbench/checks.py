"""Correctness checks, run outside the timed region of every run.

Each check returns a list of human-readable failures (empty when the
program's output is right); ``selftest.py`` feeds each one a perturbed
result to show it can fail.
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np


def _normalize(matrix: np.ndarray) -> np.ndarray:
    norms = np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)
    return matrix / norms


def exact_topk(
    query_raw: np.ndarray,
    corpus_raw: np.ndarray,
    corpus_ids: np.ndarray,
    mean: np.ndarray,
    k: int,
) -> tuple:
    """Reference top-k: cosine of centred, normalized rows, ordered by
    score descending then id ascending.

    Rows are centred and normalized in the store's precision (as the
    service does before indexing), then scored in float64.
    """
    queries = _normalize(query_raw - mean).astype(np.float64)
    corpus = _normalize(corpus_raw - mean).astype(np.float64)
    sims = _normalize(queries) @ _normalize(corpus).T
    ids = np.broadcast_to(np.asarray(corpus_ids, dtype=np.int64), sims.shape)
    order = np.lexsort((ids, -sims), axis=-1)[:, :k]
    return np.take_along_axis(ids, order, axis=1), np.take_along_axis(sims, order, axis=1)


def topk_failures(
    got_ids: np.ndarray,
    got_scores: np.ndarray,
    want_ids: np.ndarray,
    want_scores: np.ndarray,
    labels: Sequence[str],
) -> List[str]:
    """Served top-k rows that differ from the reference: any id out of
    place (ties must come in ascending-id order), or a score off by more
    than float64 round-off."""
    failures = []
    for row, label in enumerate(labels):
        if not np.array_equal(got_ids[row], want_ids[row]):
            failures.append(
                f"top-k ids for {label!r}: served {got_ids[row].tolist()} "
                f"!= exact {want_ids[row].tolist()}"
            )
        elif not np.allclose(got_scores[row], want_scores[row], rtol=0, atol=1e-9):
            failures.append(f"top-k scores for {label!r} differ from exact scores")
    return failures


def live_index_failures(
    live_texts: Sequence[str], index_size: int, expected: Sequence[str]
) -> List[str]:
    """The live index must hold exactly the expected records."""
    failures = []
    live, want = set(live_texts), set(expected)
    if len(live_texts) != len(live):
        failures.append(f"live index holds {len(live_texts) - len(live)} duplicate records")
    if live != want:
        failures.append(
            f"live index differs from corpus + upserts - deletes: "
            f"{len(live - want)} unexpected, {len(want - live)} missing"
        )
    if index_size != len(want):
        failures.append(f"index_size {index_size} != expected {len(want)}")
    return failures


def repeat_failures(name: str, values: Sequence[Any]) -> List[str]:
    """Values that must repeat exactly (same seed, same code)."""
    if any(value != values[0] for value in values[1:]):
        return [f"{name} did not repeat across runs of one seed: {list(values)}"]
    return []


def ranking_failures(batched: Sequence[Any], reference: Sequence[Any]) -> List[str]:
    """Two rankings must be byte-identical (exact float reprs included)."""
    if repr(list(batched)) != repr(list(reference)):
        rows = sum(a != b for a, b in zip(batched, reference))
        return [
            f"refresh ranking differs from the pairwise scorer "
            f"({len(batched)} vs {len(reference)} rows, {rows} differ)"
        ]
    return []


def floor_failures(name: str, got: float, floor: float) -> List[str]:
    """``got`` must exceed ``floor``."""
    if not got > floor:
        return [f"{name}: {got} <= {floor}"]
    return []


def count_failures(name: str, got: float, want: float) -> List[str]:
    if got != want:
        return [f"{name}: {got} != expected {want}"]
    return []

