"""Extra integration tests: auto-DA matching, concat head, LSH blocking."""

import numpy as np
import pytest

from repro import SudowoodoConfig, SudowoodoSession
from repro.data.generators import load_em_benchmark
from repro.text import LSHIndex


def tiny_config(**overrides):
    defaults = dict(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=40,
        vocab_size=600,
        pretrain_epochs=1,
        pretrain_batch_size=8,
        finetune_epochs=2,
        finetune_batch_size=8,
        num_clusters=3,
        corpus_cap=48,
        multiplier=2,
        mlm_warm_start_epochs=0,
        blocking_k=3,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


@pytest.fixture(scope="module")
def dataset():
    return load_em_benchmark("DA", scale=0.02, max_table_size=40)


def pretrained_session(config, dataset):
    session = SudowoodoSession(config)
    session.pretrain(dataset.all_items())
    return session


class TestAutoDAPipeline:
    def test_full_pipeline_with_auto_operator(self, dataset):
        session = pretrained_session(tiny_config(da_operator="auto"), dataset)
        report = session.task("match").fit(dataset, label_budget=20).report()
        assert 0.0 <= report.f1 <= 1.0
        assert session.pretrain_result.operator_weights is not None


class TestConcatHeadPipeline:
    def test_pipeline_with_ditto_style_head(self, dataset):
        session = pretrained_session(tiny_config(seed=1), dataset)
        task = session.task("match").fit(dataset, label_budget=20, head="concat")
        assert task.matcher.head == "concat"
        # Pinned from the seeded run; F1/precision/recall are ratios of
        # counts, so any change to the fit path shows up exactly.
        assert task.evaluate("test") == {
            "precision": 0.18181818181818182,
            "recall": 0.8571428571428571,
            "f1": 0.30000000000000004,
        }


class TestLSHBlockingIntegration:
    def test_lsh_over_learned_embeddings(self, dataset):
        """LSH retrieval over the blocker's embedding space approximates
        the exact kNN candidates."""
        session = pretrained_session(tiny_config(seed=2), dataset)
        blocker = session.task("block").fit(dataset).blocker
        index = LSHIndex(
            dim=blocker.vectors_b.shape[1], num_tables=12, num_bits=4, seed=0
        ).build(blocker.vectors_b)
        recall = index.recall_against_exact(blocker.vectors_a[:20], k=3)
        assert recall > 0.5

    def test_lsh_candidates_contain_matches(self, dataset):
        session = pretrained_session(tiny_config(seed=2), dataset)
        blocker = session.task("block").fit(dataset).blocker
        index = LSHIndex(
            dim=blocker.vectors_b.shape[1], num_tables=16, num_bits=3, seed=1
        ).build(blocker.vectors_b)
        indices, _ = index.query_batch(blocker.vectors_a, k=10)
        candidate_pairs = {
            (a, int(b))
            for a in range(indices.shape[0])
            for b in indices[a]
            if b >= 0
        }
        retained = sum(1 for m in dataset.matches if m in candidate_pairs)
        assert retained / max(1, len(dataset.matches)) > 0.3


class TestPositiveRatioPlumbing:
    def test_pseudo_positive_fraction_shrinks_positives(self, dataset):
        generous = pretrained_session(
            tiny_config(pseudo_positive_fraction=1.0), dataset
        ).task("match").fit(dataset, label_budget=20)
        conservative = pretrained_session(
            tiny_config(pseudo_positive_fraction=0.3), dataset
        ).task("match").fit(dataset, label_budget=20)
        assert len(conservative._pseudo.positives) <= len(generous._pseudo.positives)
