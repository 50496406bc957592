"""Cell serialization for Sudowoodo error correction (Section V-A).

The paper's EC scheme serializes a cell together with its row context;
the ``clean`` session task (:class:`repro.api.tasks.CleanTask`) pairs each
serialized cell with its serialized candidate corrections.  This module
holds the serialization and the unlabeled pre-training corpus built
from it.
"""

from __future__ import annotations

from typing import List, Optional

from ..data.generators.cleaning import CleaningDataset
from ..data.records import serialize_cell_context_free, serialize_row_contextual
from .candidates import CandidateGenerator


def context_schema(
    dataset: CleaningDataset, attribute: str, context_attributes: int = 4
) -> List[str]:
    """The serialized attribute window for ``attribute``.

    The paper's contextual scheme serializes the whole row; at CPU scale
    we trim to the target attribute plus its FD determinants and a few
    leading attributes (the same role the LM's 512-token truncation plays
    at full scale).
    """
    window: List[str] = []
    for determinant, dependents in dataset.dependencies.items():
        if attribute in dependents and determinant not in window:
            window.append(determinant)
    if attribute not in window:
        window.append(attribute)
    for other in dataset.schema:
        if len(window) >= context_attributes + 1:
            break
        if other not in window:
            window.append(other)
    # Keep schema order for determinism.
    return [a for a in dataset.schema if a in window]


def serialize_cell(
    dataset: CleaningDataset,
    row: int,
    attribute: str,
    value: str,
    serialization: str = "contextual",
    context_attributes: int = 4,
) -> str:
    """Serialize one (cell, candidate value) in the paper's EC scheme."""
    if serialization == "context_free":
        return serialize_cell_context_free(attribute, value)
    return serialize_row_contextual(
        dataset.dirty[row],
        context_schema(dataset, attribute, context_attributes),
        attribute,
        value,
    )


def cleaning_corpus(
    dataset: CleaningDataset,
    generator: Optional[CandidateGenerator] = None,
    serialization: str = "contextual",
    context_attributes: int = 4,
    include_candidates: bool = True,
) -> List[str]:
    """Unlabeled EC pre-training corpus: every serialized cell plus its
    top candidate corrections — what a :class:`repro.api.SudowoodoSession`
    should pre-train on before fitting the ``clean`` task.

    ``include_candidates=False`` returns only the table's cells (one text
    per ``(row, attribute)``) — the corpus a live serving index holds.
    """
    if include_candidates:
        generator = generator or CandidateGenerator().fit(dataset)
    corpus: List[str] = []
    for row in range(len(dataset.dirty)):
        for attribute in dataset.schema:
            value = dataset.dirty[row].get(attribute)
            corpus.append(
                serialize_cell(
                    dataset, row, attribute, value, serialization, context_attributes
                )
            )
            if not include_candidates:
                continue
            for candidate in generator.candidates(row, attribute)[:3]:
                if candidate != value:
                    corpus.append(
                        serialize_cell(
                            dataset,
                            row,
                            attribute,
                            candidate,
                            serialization,
                            context_attributes,
                        )
                    )
    return corpus

