"""Data cleaning: candidate tools, EC cell serialization, Raha/Baran
baselines (the Sudowoodo corrector is the ``clean`` session task)."""

from .baselines import (
    BaranCorrector,
    CleaningReport,
    RahaDetector,
    run_perfect_ed_baran,
    run_raha_baran,
)
from .candidates import (
    CandidateGenerator,
    CandidateStats,
    DependencyTool,
    FormatTool,
    TypoTool,
    ValueFrequencyTool,
)
from .cleaner import cleaning_corpus, serialize_cell

__all__ = [
    "BaranCorrector",
    "CandidateGenerator",
    "CandidateStats",
    "CleaningReport",
    "DependencyTool",
    "FormatTool",
    "RahaDetector",
    "TypoTool",
    "ValueFrequencyTool",
    "cleaning_corpus",
    "run_perfect_ed_baran",
    "run_raha_baran",
    "serialize_cell",
]
