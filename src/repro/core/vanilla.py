"""Vanilla influential adaptation: repeat the backbone's top recommendation.

This is the "Vanilla" block of Table III: the original (user-oriented)
recommender generates the path by repeatedly recommending the item with the
highest ``P(i | s)``, with no awareness of the objective item.  It reaches
the objective only by accident, which is exactly the point of the comparison.
"""

from __future__ import annotations

from repro.core.base import BackboneAdaptation, influential_registry
from repro.models.base import SequentialRecommender

__all__ = ["VanillaInfluential"]


@influential_registry.register("vanilla")
class VanillaInfluential(BackboneAdaptation):
    """Objective-agnostic path generation with an unmodified backbone."""

    def __init__(
        self,
        backbone: SequentialRecommender,
        allow_repeats: bool = False,
        fit_backbone: bool = True,
    ) -> None:
        super().__init__(backbone, allow_repeats=allow_repeats, fit_backbone=fit_backbone)
        self.name = f"Vanilla-{backbone.name}"

    def _choose(self, objective: int, candidates: list[int]) -> int:
        return candidates[0]
