"""The batched IRS evaluator against the per-prefix scalar formulas.

``IRSEvaluator.score_paths`` scores every prefix of every record in chunked
``score_next_batch`` calls.  IoI, IoR, log(PPL), the scalar evaluator terms
and Figure 9's stepwise series must equal what one scalar forward per
(record, prefix, term) computed before batching.
"""

import numpy as np
import pytest

from repro.data.padding import PAD_INDEX
from repro.evaluation import evaluator as evaluator_module
from repro.evaluation.evaluator import IRSEvaluator
from repro.evaluation.metrics import (
    increase_of_interest,
    increment_of_rank,
    irs_metrics,
    log_perplexity,
    success_rate,
)
from repro.evaluation.protocol import IRSEvaluationProtocol, PathRecord
from repro.models.base import SequentialRecommender, next_item_probabilities
from repro.models.gru4rec import GRU4Rec
from repro.models.markov import MarkovChainRecommender


# ---------------------------------------------------------------------- #
# The scalar formulas as computed before batching (one forward per term)
# ---------------------------------------------------------------------- #
def _scalar_log_probability(model, item, sequence):
    scores = np.asarray(model.score_next(list(sequence)), dtype=np.float64).copy()
    scores[PAD_INDEX] = -np.inf
    shifted = scores - np.max(scores[np.isfinite(scores)])
    exp = np.where(np.isfinite(shifted), np.exp(shifted), 0.0)
    return float(np.log(max((exp / exp.sum())[item], 1e-12)))


def _scalar_rank(model, item, sequence):
    scores = np.asarray(model.score_next(list(sequence)), dtype=np.float64).copy()
    scores[PAD_INDEX] = -np.inf
    return int(np.sum(scores > scores[item])) + 1


def _scalar_terms(model, record):
    history, path, objective = list(record.history), list(record.path), record.objective
    ioi = _scalar_log_probability(model, objective, history + path) - _scalar_log_probability(
        model, objective, history
    )
    ior = _scalar_rank(model, objective, history) - _scalar_rank(model, objective, history + path)
    items = [
        _scalar_log_probability(model, item, history + path[:k]) for k, item in enumerate(path)
    ]
    objectives = [
        _scalar_log_probability(model, objective, history + path[:k])
        for k in range(len(path) + 1)
    ]
    return ioi, ior, items, objectives


@pytest.fixture(scope="module", params=["markov", "gru4rec"])
def evaluator(request, tiny_split):
    if request.param == "markov":
        model = MarkovChainRecommender()
    else:
        model = GRU4Rec(
            embedding_dim=12, hidden_size=12, epochs=1, max_sequence_length=16, seed=0
        )
    return IRSEvaluator(model.fit(tiny_split))


@pytest.fixture(scope="module")
def records(tiny_split):
    rng = np.random.default_rng(5)
    vocab_size = tiny_split.corpus.vocab.size
    records = []
    for index, sequence in enumerate(tiny_split.train[:12]):
        history = tuple(int(i) for i in sequence.items[: index % 5])  # includes an empty history
        length = [0, 1, 3, 7, 20][index % 5]  # includes empty paths and long ones
        path = tuple(int(i) for i in rng.integers(1, vocab_size, size=length))
        objective = int(rng.integers(1, vocab_size))
        if index % 4 == 0 and path:
            path = path[:-1] + (objective,)
        records.append(
            PathRecord(user_index=index, history=history, objective=objective, path=path)
        )
    return records


class TestScorePaths:
    def test_terms_match_scalar_formulas(self, evaluator, records):
        scores = evaluator.score_paths([(r.history, r.path, r.objective) for r in records])
        assert len(scores) == len(records)
        for record, score in zip(records, scores):
            ioi, ior, items, objectives = _scalar_terms(evaluator.model, record)
            assert len(score.item_log_probs) == len(record.path)
            assert len(score.objective_log_probs) == len(record.path) + 1
            assert score.increase_of_interest == pytest.approx(ioi, abs=1e-12)
            assert score.increment_of_rank == ior
            np.testing.assert_allclose(score.item_log_probs, items, rtol=0, atol=1e-12)
            np.testing.assert_allclose(score.objective_log_probs, objectives, rtol=0, atol=1e-12)

    def test_metrics_match_scalar_formulas(self, evaluator, records):
        terms = [_scalar_terms(evaluator.model, record) for record in records]
        expected_ioi = float(np.mean([t[0] for t in terms]))
        expected_ior = float(np.mean([t[1] for t in terms]))
        expected_ppl = float(np.mean([-np.mean(t[2]) for t in terms if t[2]]))
        assert increase_of_interest(records, evaluator) == pytest.approx(expected_ioi, abs=1e-12)
        assert increment_of_rank(records, evaluator) == pytest.approx(expected_ior, abs=1e-12)
        assert log_perplexity(records, evaluator) == pytest.approx(expected_ppl, abs=1e-12)
        assert irs_metrics(records, evaluator) == {
            "success": success_rate(records),
            "increase_of_interest": increase_of_interest(records, evaluator),
            "increment_of_rank": increment_of_rank(records, evaluator),
            "log_ppl": log_perplexity(records, evaluator),
        }

    def test_empty_paths_have_zero_change(self, evaluator, records):
        empty = [record for record in records if not record.path]
        assert empty
        for score in evaluator.score_paths([(r.history, r.path, r.objective) for r in empty]):
            assert score.item_log_probs == ()
            assert score.increase_of_interest == 0.0
            assert score.increment_of_rank == 0

    def test_scalar_entry_points_are_batch_of_one(self, evaluator, records):
        for record in records[:6]:
            sequence = list(record.history) + list(record.path)
            assert evaluator.log_probability(record.objective, sequence) == pytest.approx(
                _scalar_log_probability(evaluator.model, record.objective, sequence), abs=1e-12
            )
            assert evaluator.rank(record.objective, sequence) == _scalar_rank(
                evaluator.model, record.objective, sequence
            )
            _, _, items, objectives = _scalar_terms(evaluator.model, record)
            np.testing.assert_allclose(
                evaluator.path_log_probabilities(record.history, record.path),
                items, rtol=0, atol=1e-12,
            )
            values = evaluator.objective_log_probabilities(
                record.history, record.path, record.objective
            )
            np.testing.assert_allclose(values, objectives, rtol=0, atol=1e-12)

    def test_chunking_does_not_change_answers(self, evaluator, records, monkeypatch):
        triples = [(r.history, r.path, r.objective) for r in records]
        whole = evaluator.score_paths(triples)
        monkeypatch.setattr(evaluator_module, "SCORE_CHUNK_ROWS", 3)
        chunked = evaluator.score_paths(triples)
        for a, b in zip(whole, chunked):
            assert a.objective_ranks == b.objective_ranks
            np.testing.assert_allclose(a.objective_log_probs, b.objective_log_probs, atol=1e-12)
            np.testing.assert_allclose(a.item_log_probs, b.item_log_probs, atol=1e-12)

    def test_no_records(self, evaluator):
        assert evaluator.score_paths([]) == []


class TestStepwiseProbabilities:
    def test_series_equal_scalar_loop(self, evaluator, records, tiny_split):
        protocol = IRSEvaluationProtocol(
            tiny_split, evaluator, max_length=20, max_instances=5, num_workers=1
        )
        for exclude in (True, False):
            series = protocol.stepwise_probabilities(records, exclude_early_success=exclude)
            kept = [
                r for r in records
                if r.path and not (exclude and r.reached and len(r.path) < protocol.max_length)
            ]
            steps = max(len(r.path) for r in kept)
            objective_sums, item_sums, counts = np.zeros(steps), np.zeros(steps), np.zeros(steps)
            for record in kept:
                _, _, items, objectives = _scalar_terms(evaluator.model, record)
                for step in range(len(record.path)):
                    objective_sums[step] += objectives[step]
                    item_sums[step] += items[step]
                    counts[step] += 1
            counts[counts == 0] = 1
            np.testing.assert_allclose(series["objective"], objective_sums / counts, atol=1e-12)
            np.testing.assert_allclose(series["item"], item_sums / counts, atol=1e-12)


class _NoFiniteScores(SequentialRecommender):
    name = "no-finite"

    def __init__(self, corpus):
        super().__init__()
        self.corpus = corpus

    def fit(self, split):
        return self

    def score_next(self, history, user_index=None):
        return np.full(self.vocab_size, -np.inf)


class TestSharedSoftmax:
    def test_no_finite_score_is_uniform_over_real_items(self, tiny_split):
        """Regression: the fallback used to be unreachable (``max`` of an empty
        array raised) and would have put mass on padding."""
        model = _NoFiniteScores(tiny_split.corpus)
        probabilities = model.probabilities([1, 2])
        vocab_size = tiny_split.corpus.vocab.size
        assert probabilities[PAD_INDEX] == 0.0
        np.testing.assert_allclose(probabilities[1:], 1.0 / (vocab_size - 1))
        assert probabilities.sum() == pytest.approx(1.0)
        evaluator = IRSEvaluator(model)
        expected = float(np.log(1.0 / (vocab_size - 1)))
        assert evaluator.log_probability(3, [1, 2]) == pytest.approx(expected)
        [score] = evaluator.score_paths([([1], [4, 5], 3)])
        np.testing.assert_allclose(score.item_log_probs, [expected, expected])

    def test_rows_are_independent(self):
        scores = np.array(
            [[-np.inf, 1.0, 2.0, 3.0], [-np.inf] * 4, [5.0, -np.inf, 0.0, np.nan]]
        )
        before = scores.copy()
        probabilities = next_item_probabilities(scores)
        np.testing.assert_array_equal(scores, before)  # input untouched
        assert probabilities[:, PAD_INDEX].tolist() == [0.0, 0.0, 0.0]
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
        np.testing.assert_allclose(probabilities[1], [0.0, 1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(probabilities[2], [0.0, 0.0, 1.0, 0.0])

    def test_single_row_is_the_model_distribution(self, fitted_markov):
        history = [1, 2, 3]
        expected = next_item_probabilities(fitted_markov.score_next(history))[0]
        assert np.array_equal(fitted_markov.probabilities(history), expected)
