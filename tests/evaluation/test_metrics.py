"""Unit and property tests for the IRS metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.evaluation.evaluator import PathScores
from repro.evaluation.metrics import (
    hit_ratio_at_k,
    increase_of_interest,
    increment_of_rank,
    log_perplexity,
    mean_reciprocal_rank,
    success_rate,
)
from repro.evaluation.protocol import PathRecord
from repro.utils.exceptions import ConfigurationError


def _record(history, objective, path):
    return PathRecord(user_index=0, history=tuple(history), objective=objective, path=tuple(path))


class _UniformEvaluator:
    """Fake evaluator with a constant distribution (for metric algebra tests)."""

    def __init__(self, vocab_size=10):
        self.vocab_size = vocab_size

    def log_probability(self, item, sequence):
        return float(np.log(1.0 / self.vocab_size))

    def rank(self, item, sequence):
        return 5

    def path_log_probabilities(self, history, path):
        return [self.log_probability(i, history) for i in path]

    def score_paths(self, paths):
        """The batched evaluator interface, assembled from the scalar fakes above."""
        scores = []
        for history, path, objective in paths:
            prefixes = [list(history) + list(path[:k]) for k in range(len(path) + 1)]
            scores.append(
                PathScores(
                    objective_log_probs=tuple(self.log_probability(objective, p) for p in prefixes),
                    objective_ranks=tuple(self.rank(objective, p) for p in prefixes),
                    item_log_probs=tuple(self.path_log_probabilities(history, path)),
                )
            )
        return scores


class _SequenceAwareEvaluator(_UniformEvaluator):
    """Fake evaluator whose objective probability grows with sequence length."""

    def log_probability(self, item, sequence):
        return float(np.log(min(0.9, 0.05 * (1 + len(sequence)))))

    def rank(self, item, sequence):
        return max(1, 10 - len(sequence))


class TestSuccessRate:
    def test_counts_paths_containing_objective(self):
        records = [
            _record([1], 5, [2, 5]),
            _record([1], 6, [2, 3]),
            _record([1], 7, [7]),
            _record([1], 8, []),
        ]
        assert success_rate(records) == pytest.approx(0.5)

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigurationError):
            success_rate([])

    @given(st.lists(st.booleans(), min_size=1, max_size=50))
    def test_property_matches_fraction(self, reached_flags):
        records = [
            _record([1], 99, [99] if reached else [1]) for reached in reached_flags
        ]
        assert success_rate(records) == pytest.approx(sum(reached_flags) / len(reached_flags))


class TestInterestAndRank:
    def test_uniform_evaluator_gives_zero_change(self):
        records = [_record([1, 2], 5, [3, 4])]
        evaluator = _UniformEvaluator()
        assert increase_of_interest(records, evaluator) == pytest.approx(0.0)
        assert increment_of_rank(records, evaluator) == pytest.approx(0.0)

    def test_growing_interest_is_positive(self):
        records = [_record([1, 2], 5, [3, 4, 6])]
        evaluator = _SequenceAwareEvaluator()
        assert increase_of_interest(records, evaluator) > 0
        assert increment_of_rank(records, evaluator) > 0

    def test_rank_improvement_sign_convention(self):
        """IoR is positive when the rank number decreases (objective climbs)."""

        class _Worsening(_UniformEvaluator):
            def rank(self, item, sequence):
                return 2 + len(sequence)

        assert increment_of_rank([_record([1], 5, [2, 3])], _Worsening()) < 0


class TestLogPerplexity:
    def test_matches_mean_negative_log_probability(self):
        evaluator = _UniformEvaluator(vocab_size=4)
        records = [_record([1], 5, [2, 3])]
        assert log_perplexity(records, evaluator) == pytest.approx(np.log(4.0))

    def test_empty_paths_are_skipped(self):
        evaluator = _UniformEvaluator(vocab_size=4)
        records = [_record([1], 5, []), _record([1], 5, [2])]
        assert log_perplexity(records, evaluator) == pytest.approx(np.log(4.0))

    def test_all_paths_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            log_perplexity([_record([1], 5, [])], _UniformEvaluator())

    def test_lower_is_smoother(self, markov_evaluator, tiny_split):
        """A path of frequent transitions scores lower PPL than a random path."""
        sequence = tiny_split.train[0].items
        history, smooth_path = list(sequence[:4]), list(sequence[4:9])
        rng = np.random.default_rng(0)
        random_path = list(rng.integers(1, tiny_split.corpus.vocab.size, size=len(smooth_path)))
        smooth = log_perplexity([_record(history, 1, smooth_path)], markov_evaluator)
        rough = log_perplexity([_record(history, 1, random_path)], markov_evaluator)
        assert smooth < rough


class TestRankingMetrics:
    def test_hit_ratio(self):
        assert hit_ratio_at_k([1, 5, 21, 40], k=20) == pytest.approx(0.5)

    def test_mrr(self):
        assert mean_reciprocal_rank([1, 2, 4]) == pytest.approx((1 + 0.5 + 0.25) / 3)

    def test_empty_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            hit_ratio_at_k([])
        with pytest.raises(ConfigurationError):
            mean_reciprocal_rank([])

    @given(st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=100))
    def test_property_bounds(self, ranks):
        assert 0.0 <= hit_ratio_at_k(ranks, k=20) <= 1.0
        assert 0.0 < mean_reciprocal_rank(ranks) <= 1.0

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=50))
    def test_property_hr_monotone_in_k(self, ranks):
        assert hit_ratio_at_k(ranks, k=5) <= hit_ratio_at_k(ranks, k=20) <= hit_ratio_at_k(ranks, k=50)
