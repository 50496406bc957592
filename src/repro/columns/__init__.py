"""Semantic type discovery (Section V-B): clustering of matched columns
and the Sherlock/Sato baselines (column matching itself is the
``column_match`` session task)."""

from .baselines import (
    CLASSIFIER_FACTORIES,
    SatoFeaturizer,
    SherlockFeaturizer,
    evaluate_feature_baseline,
    pair_features,
)
from .clustering import (
    ClusterReport,
    cluster_columns,
    cluster_purity,
    discover_types,
    find_subtype_clusters,
)

__all__ = [
    "CLASSIFIER_FACTORIES",
    "ClusterReport",
    "SatoFeaturizer",
    "SherlockFeaturizer",
    "cluster_columns",
    "cluster_purity",
    "discover_types",
    "evaluate_feature_baseline",
    "find_subtype_clusters",
    "pair_features",
]
