"""Common interface and training loop for sequential recommenders."""

from __future__ import annotations

import abc
import time
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from repro.data.batching import SequenceBatch, iterate_batches
from repro.data.interactions import SequenceCorpus
from repro.data.padding import PAD_INDEX
from repro.data.splitting import DatasetSplit
from repro.nn.layers import Module
from repro.nn.optim import Adam, ReduceLROnPlateau, clip_grad_norm
from repro.nn.tensor import Tensor, no_grad
from repro.utils.batch import broadcast_user_indices, check_batch_lengths
from repro.utils.exceptions import NotFittedError
from repro.utils.logging import get_logger
from repro.utils.registry import Registry
from repro.utils.rng import as_rng

__all__ = [
    "SequentialRecommender",
    "NeuralSequentialRecommender",
    "model_registry",
    "next_item_probabilities",
]

_LOGGER = get_logger("models")

#: Registry mapping lower-case model names (``"sasrec"``, ``"pop"``, ...) to classes.
model_registry: Registry["SequentialRecommender"] = Registry("recommender model")


def next_item_probabilities(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of ``(batch, vocab)`` next-item scores.

    Padding always gets probability 0 and non-finite scores get 0.  A row
    with no finite score at all is spread uniformly over the real items.
    Returns a new array; ``scores`` is left untouched.
    """
    scores = np.array(scores, dtype=np.float64, ndmin=2)
    scores[:, PAD_INDEX] = -np.inf
    finite = np.isfinite(scores)
    peak = np.where(finite, scores, -np.inf).max(axis=1, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    exp = np.where(finite, np.exp(scores - peak), 0.0)
    total = exp.sum(axis=1, keepdims=True)
    empty = total[:, 0] <= 0
    if empty.any():
        exp[empty] = 1.0
        exp[empty, PAD_INDEX] = 0.0
        total[empty] = max(scores.shape[1] - 1, 1)
    return exp / total


class SequentialRecommender(abc.ABC):
    """Interface shared by every next-item recommender in the package.

    A fitted model scores every item in the vocabulary given a user's item
    history; the padding index always receives ``-inf``.  Higher score means
    "more likely to be consumed next".
    """

    #: short human-readable name used in result tables
    name: str = "base"

    def __init__(self) -> None:
        self.corpus: SequenceCorpus | None = None

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def fit(self, split: DatasetSplit) -> "SequentialRecommender":
        """Train on the training sub-sequences of ``split``."""

    @abc.abstractmethod
    def score_next(self, history: Sequence[int], user_index: int | None = None) -> np.ndarray:
        """Return a score for every vocabulary index given ``history``."""

    def score_next_batch(
        self,
        histories: Sequence[Sequence[int]],
        user_indices: "Sequence[int | None] | None" = None,
    ) -> np.ndarray:
        """Score many histories at once, returning a ``(batch, vocab)`` array.

        The default implementation loops :meth:`score_next`; the neural
        models (:class:`NeuralSequentialRecommender`, IRN) override it with
        batched network forwards.
        """
        users = broadcast_user_indices(len(histories), user_indices)
        if not histories:
            return np.zeros((0, self.vocab_size), dtype=np.float64)
        return np.stack(
            [
                np.asarray(self.score_next(history, user), dtype=np.float64)
                for history, user in zip(histories, users)
            ]
        )

    # ------------------------------------------------------------------ #
    def _require_fitted(self) -> SequenceCorpus:
        if self.corpus is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self.corpus

    @property
    def vocab_size(self) -> int:
        """Size of the item vocabulary (including padding index 0)."""
        return self._require_fitted().vocab.size

    def probabilities(
        self, history: Sequence[int], user_index: int | None = None
    ) -> np.ndarray:
        """Softmax-normalised next-item distribution (padding has probability 0)."""
        return next_item_probabilities(self.score_next(history, user_index))[0]

    def log_probability(
        self, history: Sequence[int], item: int, user_index: int | None = None
    ) -> float:
        """``log P(item | history)`` under the model's softmax distribution."""
        probs = self.probabilities(history, user_index)
        return float(np.log(max(probs[item], 1e-12)))

    def rank_of(
        self, history: Sequence[int], item: int, user_index: int | None = None
    ) -> int:
        """1-based rank of ``item`` among all items (1 = top recommendation)."""
        return self.rank_of_batch([history], [item], [user_index])[0]

    def rank_of_batch(
        self,
        histories: Sequence[Sequence[int]],
        items: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
    ) -> list[int]:
        """1-based ranks of ``items[b]`` given ``histories[b]``, batched.

        Shares one :meth:`score_next_batch` call across the whole batch and
        vectorises the rank computation (evaluation hot path for Tables II/IV).
        """
        check_batch_lengths(len(histories), items=items)
        if not histories:
            return []
        scores = self.score_next_batch(histories, user_indices)
        scores[:, PAD_INDEX] = -np.inf
        batch = np.arange(len(histories))
        targets = scores[batch, np.asarray(list(items), dtype=np.int64)]
        return [int(rank) for rank in (scores > targets[:, None]).sum(axis=1) + 1]

    def top_k(
        self,
        history: Sequence[int],
        k: int,
        user_index: int | None = None,
        exclude: Sequence[int] = (),
    ) -> list[int]:
        """Indices of the ``k`` highest-scoring items, excluding ``exclude``."""
        return self.top_k_batch([history], k, [user_index], [list(exclude)])[0]

    def top_k_batch(
        self,
        histories: Sequence[Sequence[int]],
        k: int,
        user_indices: "Sequence[int | None] | None" = None,
        excludes: "Sequence[Sequence[int]] | None" = None,
    ) -> list[list[int]]:
        """:meth:`top_k` of every history from one :meth:`score_next_batch` call.

        Row ``b`` ranks the finite-scored items not in ``excludes[b]`` in
        stable score order (ties keep index order), at most ``k`` of them.
        """
        scores = self.score_next_batch(histories, user_indices)
        scores[:, PAD_INDEX] = -np.inf
        if excludes is not None:
            check_batch_lengths(len(histories), excludes=excludes)
            lengths = [len(exclude) for exclude in excludes]
            columns = np.fromiter(chain.from_iterable(excludes), dtype=np.int64, count=sum(lengths))
            scores[np.repeat(np.arange(len(histories)), lengths), columns] = -np.inf
        counts = np.minimum(np.isfinite(scores).sum(axis=1), k)
        order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        return [order[row, :count].tolist() for row, count in enumerate(counts)]

    def recommend_next(
        self,
        history: Sequence[int],
        user_index: int | None = None,
        exclude: Sequence[int] = (),
    ) -> int:
        """Single top recommendation (used by the vanilla IRS adaptation)."""
        return self.top_k(history, 1, user_index=user_index, exclude=exclude)[0]


class NeuralSequentialRecommender(SequentialRecommender):
    """Shared mini-batch training loop for the autograd-based models.

    Subclasses implement :meth:`_build` (construct the network once the corpus
    is known), :meth:`_loss` (loss on one padded batch) and
    :meth:`score_next_batch`; :meth:`score_next` is its batch-of-1 case.
    """

    def __init__(
        self,
        epochs: int = 10,
        batch_size: int = 64,
        learning_rate: float = 1e-3,
        weight_decay: float = 0.0,
        max_sequence_length: int = 50,
        grad_clip: float = 5.0,
        padding_scheme: str = "pre",
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.max_sequence_length = max_sequence_length
        self.grad_clip = grad_clip
        self.padding_scheme = padding_scheme
        self.seed = seed
        self.module: Module | None = None
        self.training_history: list[dict[str, float]] = []
        self._fit_generation = 0

    @property
    def fit_generation(self) -> int:
        """Monotonic counter bumped by every (re)train / weight load.

        Downstream caches keyed on this model's outputs (the beam planner's
        :class:`~repro.cache.memo.PlanCache`) compare it to detect retrains
        and invalidate themselves.
        """
        return self._fit_generation

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _build(self, corpus: SequenceCorpus, rng: np.random.Generator) -> Module:
        """Construct and return the underlying network."""

    @abc.abstractmethod
    def _loss(self, batch: SequenceBatch, rng: np.random.Generator) -> Tensor:
        """Compute the training loss for one batch."""

    @abc.abstractmethod
    def score_next_batch(
        self,
        histories: Sequence[Sequence[int]],
        user_indices: "Sequence[int | None] | None" = None,
    ) -> np.ndarray:
        """Score many histories in batched network forwards, ``(batch, vocab)``."""

    def score_next(self, history: Sequence[int], user_index: int | None = None) -> np.ndarray:
        return self.score_next_batch([history], [user_index])[0]

    def _score_ragged(
        self,
        rows: Sequence[Sequence[int]],
        forward: "Callable[[np.ndarray, np.ndarray], np.ndarray]",
    ) -> np.ndarray:
        """Score ragged token rows with one no-grad forward per row length.

        ``forward(items, index)`` maps an ``(n, length)`` block of equal-length
        rows (``index`` holds their positions in ``rows``) to ``(n, vocab)``
        scores.  Rows are never padded, so each row's scores are those of a
        lone forward on it.  Padding is masked to ``-inf``.
        """
        self._require_fitted()
        assert self.module is not None
        scores = np.empty((len(rows), self.vocab_size), dtype=np.float64)
        groups: dict[int, list[int]] = {}
        for position, row in enumerate(rows):
            groups.setdefault(len(row), []).append(position)
        with no_grad():
            for positions in groups.values():
                index = np.asarray(positions, dtype=np.int64)
                items = np.asarray([rows[i] for i in positions], dtype=np.int64)
                scores[index] = forward(items, index)
        scores[:, PAD_INDEX] = -np.inf
        return scores

    # ------------------------------------------------------------------ #
    def fit(self, split: DatasetSplit) -> "NeuralSequentialRecommender":
        rng = as_rng(self.seed)
        self.corpus = split.corpus
        self.module = self._build(split.corpus, rng)
        optimizer = Adam(
            self.module.parameters(), lr=self.learning_rate, weight_decay=self.weight_decay
        )
        scheduler = ReduceLROnPlateau(optimizer, factor=0.5, patience=1)
        self.training_history = []

        for epoch in range(self.epochs):
            start = time.time()
            self.module.train()
            epoch_loss = 0.0
            num_batches = 0
            for batch in iterate_batches(
                split.train,
                self.batch_size,
                shuffle=True,
                scheme=self.padding_scheme,
                length=None,
                seed=rng,
            ):
                batch = self._truncate(batch)
                optimizer.zero_grad()
                loss = self._loss(batch, rng)
                loss.backward()
                if self.grad_clip:
                    clip_grad_norm(self.module.parameters(), self.grad_clip)
                optimizer.step()
                epoch_loss += loss.item()
                num_batches += 1
            train_loss = epoch_loss / max(num_batches, 1)

            validation_loss = self._validation_loss(split, rng)
            scheduler.step(validation_loss if validation_loss is not None else train_loss)
            record = {
                "epoch": epoch + 1,
                "train_loss": train_loss,
                "validation_loss": validation_loss if validation_loss is not None else float("nan"),
                "lr": optimizer.lr,
                "seconds": time.time() - start,
            }
            self.training_history.append(record)
            _LOGGER.info(
                "%s epoch %d/%d train %.4f val %s (%.1fs)",
                self.name,
                epoch + 1,
                self.epochs,
                train_loss,
                f"{validation_loss:.4f}" if validation_loss is not None else "n/a",
                record["seconds"],
            )
        self.module.eval()
        self._fit_generation += 1
        return self

    def _truncate(self, batch: SequenceBatch) -> SequenceBatch:
        """Clip overly long batches to ``max_sequence_length`` (keep the most recent)."""
        if batch.max_length <= self.max_sequence_length:
            return batch
        if self.padding_scheme == "pre":
            items = batch.items[:, -self.max_sequence_length :]
        else:
            items = batch.items[:, : self.max_sequence_length]
        lengths = np.minimum(batch.lengths, self.max_sequence_length)
        return SequenceBatch(items=items, users=batch.users, lengths=lengths)

    def _validation_loss(self, split: DatasetSplit, rng: np.random.Generator) -> float | None:
        if not split.validation:
            return None
        self.module.eval()
        total, batches = 0.0, 0
        with no_grad():
            for batch in iterate_batches(
                split.validation,
                self.batch_size,
                shuffle=False,
                scheme=self.padding_scheme,
                seed=rng,
            ):
                batch = self._truncate(batch)
                total += self._loss(batch, rng).item()
                batches += 1
        self.module.train()
        return total / max(batches, 1)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save_weights(self, path: str) -> None:
        """Save the trained network parameters to ``path`` (``.npz``).

        Only the weights are stored; re-creating the model requires the same
        constructor arguments and corpus (see :meth:`warm_start`).
        """
        from repro.nn.serialization import save_module

        if self.module is None:
            raise NotFittedError(f"{type(self).__name__} has no trained weights to save")
        save_module(self.module, path)

    def warm_start(self, split: DatasetSplit, path: str) -> "NeuralSequentialRecommender":
        """Rebuild the network for ``split`` and load weights saved earlier.

        This skips training entirely: the corpus must have the same
        vocabulary/user universe as the one the weights were trained on
        (mismatched shapes raise a descriptive error from the checkpoint
        loader).  Returns ``self`` so it chains like :meth:`fit`.
        """
        from repro.nn.serialization import load_module

        rng = as_rng(self.seed)
        self.corpus = split.corpus
        self.module = self._build(split.corpus, rng)
        load_module(self.module, path)
        self.module.eval()
        self.training_history = []
        self._fit_generation += 1
        return self
