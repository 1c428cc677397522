"""Rec2Inf: adapting an existing recommender with greedy search (§III-C).

At each step the backbone recommender produces its top-``k`` candidates for
the current sequence (history ⊕ path so far); the candidate closest to the
objective item (by genre or embedding distance) is greedily appended to the
influence path.  With ``k=1`` this degenerates to the vanilla backbone; with
``k = |I|`` it can jump straight to the objective.  ``k`` therefore controls
the aggressiveness degree studied in Figure 7.
"""

from __future__ import annotations

from repro.core.base import BackboneAdaptation, influential_registry
from repro.core.distance import ItemDistance
from repro.data.splitting import DatasetSplit
from repro.models.base import SequentialRecommender
from repro.utils.exceptions import ConfigurationError

__all__ = ["Rec2Inf"]


@influential_registry.register("rec2inf")
class Rec2Inf(BackboneAdaptation):
    """Greedy objective-aware re-ranking on top of any sequential recommender.

    Parameters
    ----------
    backbone:
        Any :class:`~repro.models.base.SequentialRecommender`; it is fitted
        inside :meth:`fit` unless ``fit_backbone=False``.
    distance:
        An :class:`~repro.core.distance.ItemDistance`; if ``None``,
        :meth:`fit` builds one from the corpus genre matrix (when available)
        or from co-occurrence embeddings.
    candidate_k:
        Size of the backbone's candidate set (``k = 50`` in the paper).
    allow_repeats:
        If False (default) items already in the history or path are excluded
        from the candidate set, preventing degenerate loops.
    """

    def __init__(
        self,
        backbone: SequentialRecommender,
        distance: ItemDistance | None = None,
        candidate_k: int = 50,
        allow_repeats: bool = False,
        fit_backbone: bool = True,
    ) -> None:
        super().__init__(backbone, allow_repeats=allow_repeats, fit_backbone=fit_backbone)
        if candidate_k <= 0:
            raise ConfigurationError(f"candidate_k must be positive, got {candidate_k}")
        self.distance = distance
        self.candidate_k = candidate_k
        self.name = f"Rec2Inf-{backbone.name}"

    # ------------------------------------------------------------------ #
    def fit(self, split: DatasetSplit) -> "Rec2Inf":
        super().fit(split)
        if self.distance is None:
            self.distance = self._default_distance(split)
        return self

    def _default_distance(self, split: DatasetSplit) -> ItemDistance:
        corpus = split.corpus
        if corpus.item_genre_matrix is not None:
            return ItemDistance.from_genres(corpus)
        from repro.embeddings.cooccurrence import CooccurrenceEmbedding

        embedding = CooccurrenceEmbedding(embedding_dim=32).fit(corpus)
        return ItemDistance.from_embeddings(embedding.vectors)

    # ------------------------------------------------------------------ #
    def _choose(self, objective: int, candidates: list[int]) -> int:
        assert self.distance is not None
        if objective in candidates:
            # Zero distance to itself: with a large enough candidate set the
            # greedy re-ranking recommends the objective directly (§IV-D3).
            return objective
        return self.distance.closest_to(objective, candidates)
