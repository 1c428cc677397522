"""Common interface for influential recommenders and Algorithm 1."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from repro.data.interactions import SequenceCorpus
from repro.data.splitting import DatasetSplit
from repro.utils.batch import broadcast_user_indices, check_batch_lengths
from repro.utils.exceptions import ConfigurationError, NotFittedError
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.models.base import SequentialRecommender

__all__ = ["InfluentialRecommender", "BackboneAdaptation", "influential_registry"]

#: Registry mapping framework names ("irn", "rec2inf", "pf2inf", ...) to classes.
influential_registry: Registry["InfluentialRecommender"] = Registry("influential recommender")


class InfluentialRecommender(abc.ABC):
    """A recommender that leads a user toward a given objective item.

    The central operation is :meth:`next_step` — the recommender function
    ``F(s_h, i_t, s_p)`` of Algorithm 1 — which proposes the next path item
    given the user's history, the objective and the path generated so far.
    :meth:`generate_path` runs the full Algorithm 1 loop.
    """

    #: human-readable name used in result tables
    name: str = "influential"

    def __init__(self) -> None:
        self.corpus: SequenceCorpus | None = None

    @abc.abstractmethod
    def fit(self, split: DatasetSplit) -> "InfluentialRecommender":
        """Train (or index) the recommender on the training split."""

    @abc.abstractmethod
    def next_step(
        self,
        history: Sequence[int],
        objective: int,
        path_so_far: Sequence[int],
        user_index: int | None = None,
    ) -> int | None:
        """Return the next path item, or ``None`` if no item can be proposed."""

    # ------------------------------------------------------------------ #
    def generate_path(
        self,
        history: Sequence[int],
        objective: int,
        user_index: int | None = None,
        max_length: int = 20,
    ) -> list[int]:
        """Run Algorithm 1: recommend path items until the objective or ``max_length``."""
        from repro.core.influence_path import generate_influence_path

        return generate_influence_path(
            self, history, objective, user_index=user_index, max_length=max_length
        )

    def generate_paths_batch(
        self,
        histories: Sequence[Sequence[int]],
        objectives: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
        max_length: int = 20,
    ) -> list[list[int]]:
        """Run Algorithm 1 for a batch of ``(history, objective)`` instances.

        The default implementation simply loops :meth:`generate_path`;
        recommenders with batched scoring (IRN, the beam planner, the
        backbone adaptations below) override it to fuse all instances that
        share a step index into single model forwards.  The evaluation
        protocol always calls this entry point.
        """
        check_batch_lengths(len(histories), objectives=objectives)
        users = broadcast_user_indices(len(histories), user_indices)
        return [
            self.generate_path(history, objective, user_index=user, max_length=max_length)
            for history, objective, user in zip(histories, objectives, users)
        ]

    def _require_fitted(self) -> SequenceCorpus:
        if self.corpus is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self.corpus


class BackboneAdaptation(InfluentialRecommender):
    """An influential recommender that picks each path item from a sequential
    backbone's top-``candidate_k`` next items (Rec2Inf, vanilla).

    One Algorithm 1 step for many instances is :meth:`next_steps`: one
    ``backbone.top_k_batch`` call (a single ``score_next_batch`` forward),
    then a per-row pick among the ranked candidates.
    :meth:`next_step` is its batch-of-1 case and :meth:`generate_paths_batch`
    drives it in lockstep over every still-live instance, so a batch of
    rollouts costs one backbone forward per step index.
    """

    #: size of the backbone candidate set of one step
    candidate_k: int = 1

    def __init__(
        self,
        backbone: "SequentialRecommender",
        allow_repeats: bool = False,
        fit_backbone: bool = True,
    ) -> None:
        super().__init__()
        self.backbone = backbone
        self.allow_repeats = allow_repeats
        self.fit_backbone = fit_backbone

    def fit(self, split: DatasetSplit) -> "BackboneAdaptation":
        self.corpus = split.corpus
        if self.fit_backbone:
            self.backbone.fit(split)
        elif self.backbone.corpus is None:
            raise ConfigurationError("backbone is not fitted and fit_backbone=False")
        return self

    @abc.abstractmethod
    def _choose(self, objective: int, candidates: list[int]) -> int:
        """Pick the path item among the backbone's ranked ``candidates``."""

    # ------------------------------------------------------------------ #
    def next_steps(
        self,
        sequences: Sequence[Sequence[int]],
        objectives: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
    ) -> "list[int | None]":
        """The next path item of every ``s_h ⊕ s_p`` in ``sequences``.

        Candidates are the backbone's ``candidate_k`` best finite-scored
        items in stable score order, without already-seen items unless
        ``allow_repeats``; ``None`` marks a row with no candidate left.
        """
        self._require_fitted()
        check_batch_lengths(len(sequences), objectives=objectives)
        candidates = self.backbone.top_k_batch(
            sequences,
            self.candidate_k,
            user_indices,
            excludes=None if self.allow_repeats else sequences,
        )
        return [
            self._choose(int(objective), ranked) if ranked else None
            for objective, ranked in zip(objectives, candidates)
        ]

    def next_step(
        self,
        history: Sequence[int],
        objective: int,
        path_so_far: Sequence[int],
        user_index: int | None = None,
    ) -> int | None:
        return self.next_steps([list(history) + list(path_so_far)], [objective], [user_index])[0]

    def generate_paths_batch(
        self,
        histories: Sequence[Sequence[int]],
        objectives: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
        max_length: int = 20,
    ) -> list[list[int]]:
        """Algorithm 1 for every instance, stepped in lockstep through :meth:`next_steps`."""
        if max_length <= 0:
            raise ConfigurationError(f"max_length must be positive, got {max_length}")
        check_batch_lengths(len(histories), objectives=objectives)
        users = broadcast_user_indices(len(histories), user_indices)
        objectives = [int(objective) for objective in objectives]
        sequences = [list(history) for history in histories]
        paths: list[list[int]] = [[] for _ in histories]
        live = list(range(len(histories)))
        while live:
            items = self.next_steps(
                [sequences[i] for i in live],
                [objectives[i] for i in live],
                [users[i] for i in live],
            )
            still_live = []
            for index, item in zip(live, items):
                if item is None:
                    continue
                paths[index].append(item)
                sequences[index].append(item)
                if item != objectives[index] and len(paths[index]) < max_length:
                    still_live.append(index)
            live = still_live
        return paths
