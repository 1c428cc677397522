"""Evaluation metrics (§IV-B2).

The IRS metrics operate on *path records*: for each test user we have the
history ``s_h``, the sampled objective ``i_t`` and the generated influence
path ``s_p``.  All probability terms ``P(i | s)`` come from one batched
:meth:`~repro.evaluation.evaluator.IRSEvaluator.score_paths` pass.

* ``SR_M`` — fraction of paths that reach the objective within ``M`` steps (Eq. 11).
* ``IoI_M`` — average increase of ``log P(i_t | ·)`` after the path (Eq. 12).
* ``IoR_M`` — average decrease of the objective's rank after the path (Eq. 13).
* ``log(PPL)`` — average negative log-likelihood of path items, i.e. how
  natural the path is (Eq. 14; lower is smoother).
* ``HR@K`` / ``MRR`` — classic next-item metrics (Eq. 18) used for the
  evaluator selection (Table II) and the Table IV comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluation.evaluator import IRSEvaluator, PathScores
    from repro.evaluation.protocol import PathRecord

__all__ = [
    "success_rate",
    "increase_of_interest",
    "increment_of_rank",
    "log_perplexity",
    "irs_metrics",
    "hit_ratio_at_k",
    "mean_reciprocal_rank",
]


def _require_records(records: Sequence["PathRecord"]) -> None:
    if not records:
        raise ConfigurationError("no path records to evaluate")


def success_rate(records: Sequence["PathRecord"]) -> float:
    """``SR_M``: fraction of influence paths containing the objective item."""
    _require_records(records)
    hits = sum(1 for record in records if record.objective in record.path)
    return hits / len(records)


def _path_scores(
    records: Sequence["PathRecord"], evaluator: "IRSEvaluator"
) -> "list[PathScores]":
    _require_records(records)
    return evaluator.score_paths(
        [(record.history, record.path, record.objective) for record in records]
    )


def _mean_ioi(scores: Sequence["PathScores"]) -> float:
    return float(np.mean([score.increase_of_interest for score in scores]))


def _mean_ior(scores: Sequence["PathScores"]) -> float:
    return float(np.mean([score.increment_of_rank for score in scores]))


def _mean_log_ppl(scores: Sequence["PathScores"]) -> float:
    per_path = [-float(np.mean(score.item_log_probs)) for score in scores if score.item_log_probs]
    if not per_path:
        raise ConfigurationError("all influence paths are empty; cannot compute PPL")
    return float(np.mean(per_path))


def increase_of_interest(records: Sequence["PathRecord"], evaluator: "IRSEvaluator") -> float:
    """``IoI_M``: mean change of ``log P(i_t | s_h ⊕ s_p) - log P(i_t | s_h)``."""
    return _mean_ioi(_path_scores(records, evaluator))


def increment_of_rank(records: Sequence["PathRecord"], evaluator: "IRSEvaluator") -> float:
    """``IoR_M``: mean rank improvement of the objective after the path.

    Positive values mean the objective climbed the ranking (closer to 1).
    """
    return _mean_ior(_path_scores(records, evaluator))


def log_perplexity(records: Sequence["PathRecord"], evaluator: "IRSEvaluator") -> float:
    """``log(PPL)``: average negative log-likelihood per path item (Eq. 14).

    Lower values mean the path items are more acceptable to the (simulated)
    user at each step.  Empty paths are skipped.
    """
    return _mean_log_ppl(_path_scores(records, evaluator))


def irs_metrics(
    records: Sequence["PathRecord"], evaluator: "IRSEvaluator"
) -> dict[str, float]:
    """SR, IoI, IoR and log(PPL) of ``records`` from one batched evaluator pass."""
    scores = _path_scores(records, evaluator)
    return {
        "success": success_rate(records),
        "increase_of_interest": _mean_ioi(scores),
        "increment_of_rank": _mean_ior(scores),
        "log_ppl": _mean_log_ppl(scores),
    }


def hit_ratio_at_k(ranks: Sequence[int], k: int = 20) -> float:
    """``HR@K``: fraction of instances whose target ranks within the top ``k``."""
    if not ranks:
        raise ConfigurationError("no ranks provided")
    hits = sum(1 for rank in ranks if rank <= k)
    return hits / len(ranks)


def mean_reciprocal_rank(ranks: Sequence[int]) -> float:
    """``MRR``: mean of ``1 / rank`` over all instances."""
    if not ranks:
        raise ConfigurationError("no ranks provided")
    return float(np.mean([1.0 / rank for rank in ranks]))
