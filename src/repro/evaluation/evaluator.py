"""The IRS Evaluator (§IV-B3).

Because influence paths contain sequence-item interactions that never occur
in the logged dataset, the paper trains an independent next-item recommender
(the best of GRU4Rec / Caser / SASRec / BERT4Rec on the next-item task) and
uses its softmax distribution as ``P(i | s)`` when computing IoI, IoR and
PPL.  :class:`IRSEvaluator` wraps any fitted
:class:`~repro.models.base.SequentialRecommender` for this purpose and
:func:`select_evaluator` reproduces the Table II model-selection step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.padding import PAD_INDEX
from repro.data.splitting import DatasetSplit
from repro.models.base import SequentialRecommender, next_item_probabilities
from repro.utils.exceptions import ConfigurationError
from repro.utils.logging import get_logger

__all__ = ["IRSEvaluator", "PathScores", "EvaluatorSelection", "select_evaluator"]

_LOGGER = get_logger("evaluation.evaluator")


#: prefix rows per evaluator forward; bounds the ``(rows, vocab)`` score
#: matrix one :meth:`IRSEvaluator.score_paths` chunk materialises
SCORE_CHUNK_ROWS = 256


@dataclass(frozen=True)
class PathScores:
    """Evaluator terms of one influence path ``s_p`` from history ``s_h``.

    Index ``k`` of the objective series conditions on ``s_h ⊕ i_<k`` (so
    index 0 is the bare history and index ``len(path)`` the whole path);
    ``item_log_probs[k]`` is ``log P(i_k | s_h ⊕ i_<k)``.
    """

    objective_log_probs: tuple[float, ...]
    objective_ranks: tuple[int, ...]
    item_log_probs: tuple[float, ...]

    @property
    def increase_of_interest(self) -> float:
        """``log P(i_t | s_h ⊕ s_p) - log P(i_t | s_h)`` (one term of Eq. 12)."""
        return self.objective_log_probs[-1] - self.objective_log_probs[0]

    @property
    def increment_of_rank(self) -> int:
        """Rank improvement of the objective over the path (one term of Eq. 13)."""
        return -(self.objective_ranks[-1] - self.objective_ranks[0])


class IRSEvaluator:
    """Probability oracle ``P(i | s)`` backed by a trained next-item model."""

    def __init__(self, model: SequentialRecommender) -> None:
        if model.corpus is None:
            raise ConfigurationError("the evaluator backbone must be fitted first")
        self.model = model

    @property
    def name(self) -> str:
        """Name of the underlying recommender."""
        return self.model.name

    # ------------------------------------------------------------------ #
    def score_paths(
        self, paths: Sequence[tuple[Sequence[int], Sequence[int], int]]
    ) -> list[PathScores]:
        """Score many ``(history, path, objective)`` triples in batched forwards.

        The ``len(path) + 1`` prefixes ``s_h ⊕ i_<k`` of every triple are
        scored together through the backbone's ``score_next_batch``, in
        chunks of :data:`SCORE_CHUNK_ROWS` rows; each prefix row yields the
        objective's log-probability and rank and the next path item's
        log-probability.  Every IoI / IoR / log-PPL term reads this one path.
        """
        sequences: list[list[int]] = []
        objectives: list[int] = []
        items: list[int] = []
        for history, path, objective in paths:
            full = [int(item) for item in history] + [int(item) for item in path]
            start = len(full) - len(path)
            sequences.extend(full[: start + k] for k in range(len(path) + 1))
            objectives.extend([int(objective)] * (len(path) + 1))
            items.extend(full[start:] + [PAD_INDEX])
        objective_log_probs = np.empty(len(sequences))
        objective_ranks = np.empty(len(sequences), dtype=np.int64)
        item_log_probs = np.empty(len(sequences))
        for start in range(0, len(sequences), SCORE_CHUNK_ROWS):
            stop = min(start + SCORE_CHUNK_ROWS, len(sequences))
            scores = self.model.score_next_batch(sequences[start:stop])
            log_probs = np.log(np.maximum(next_item_probabilities(scores), 1e-12))
            scores[:, PAD_INDEX] = -np.inf
            rows = np.arange(stop - start)
            targets = np.asarray(objectives[start:stop], dtype=np.int64)
            objective_log_probs[start:stop] = log_probs[rows, targets]
            objective_ranks[start:stop] = (
                scores > scores[rows, targets][:, None]
            ).sum(axis=1) + 1
            item_log_probs[start:stop] = log_probs[rows, items[start:stop]]
        results: list[PathScores] = []
        offset = 0
        for _history, path, _objective in paths:
            stop = offset + len(path) + 1
            results.append(
                PathScores(
                    objective_log_probs=tuple(objective_log_probs[offset:stop].tolist()),
                    objective_ranks=tuple(objective_ranks[offset:stop].tolist()),
                    item_log_probs=tuple(item_log_probs[offset : stop - 1].tolist()),
                )
            )
            offset = stop
        return results

    def probability(self, item: int, sequence: Sequence[int]) -> float:
        """``P(item | sequence)`` under the evaluator's softmax distribution."""
        probabilities = self.model.probabilities(list(sequence))
        return float(probabilities[item])

    def log_probability(self, item: int, sequence: Sequence[int]) -> float:
        """``log P(item | sequence)`` (clamped away from zero)."""
        return self.score_paths([(sequence, (), item)])[0].objective_log_probs[0]

    def rank(self, item: int, sequence: Sequence[int]) -> int:
        """1-based rank of ``item`` given ``sequence``."""
        return self.score_paths([(sequence, (), item)])[0].objective_ranks[0]

    def distribution(self, sequence: Sequence[int]) -> np.ndarray:
        """The full next-item distribution ``D(s)`` (Eq. 17)."""
        return self.model.probabilities(list(sequence))

    # ------------------------------------------------------------------ #
    def path_log_probabilities(
        self, history: Sequence[int], path: Sequence[int]
    ) -> list[float]:
        """``log P(i_k | s_h ⊕ i_<k)`` for every step ``k`` of the path."""
        # No objective here: padding stands in and its terms are discarded.
        return list(self.score_paths([(history, path, PAD_INDEX)])[0].item_log_probs)

    def objective_log_probabilities(
        self, history: Sequence[int], path: Sequence[int], objective: int
    ) -> list[float]:
        """``log P(i_t | s_h ⊕ i_<k)`` before each step (and after the last).

        Returns ``len(path) + 1`` values: index 0 is the probability given the
        bare history, index ``k`` the probability after ``k`` path items.
        """
        return list(self.score_paths([(history, path, objective)])[0].objective_log_probs)


@dataclass(frozen=True)
class EvaluatorSelection:
    """Result of the Table II evaluator-selection step."""

    evaluator: IRSEvaluator
    scores: dict[str, dict[str, float]]

    def best_name(self) -> str:
        """Name of the selected (best HR@20) candidate."""
        return self.evaluator.name


def select_evaluator(
    candidates: dict[str, SequentialRecommender],
    split: DatasetSplit,
    fit: bool = True,
) -> EvaluatorSelection:
    """Fit every candidate, score them on the next-item task, keep the best.

    The paper selects by HR@20 (with MRR as tie-breaker); BERT4Rec wins on
    both datasets (Table II).
    """
    from repro.evaluation.nextitem import evaluate_next_item

    if not candidates:
        raise ConfigurationError("select_evaluator needs at least one candidate")
    scores: dict[str, dict[str, float]] = {}
    best_name, best_key = None, (-np.inf, -np.inf)
    for name, model in candidates.items():
        if fit:
            model.fit(split)
        result = evaluate_next_item(model, split)
        scores[name] = {"hr@20": result.hit_ratio, "mrr": result.mrr}
        _LOGGER.info("evaluator candidate %s: HR@20=%.4f MRR=%.4f", name, result.hit_ratio, result.mrr)
        key = (result.hit_ratio, result.mrr)
        if key > best_key:
            best_key, best_name = key, name
    assert best_name is not None
    return EvaluatorSelection(evaluator=IRSEvaluator(candidates[best_name]), scores=scores)
