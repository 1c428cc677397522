"""Caser: convolutional sequence embedding recommendation (Tang & Wang, 2018).

The last ``L`` items are embedded into an ``L x d`` "image"; horizontal
filters of heights {2, ..., L} capture union-level sequential patterns and
vertical filters capture point-level (weighted-sum) patterns.  The pooled
features, optionally concatenated with a user embedding, feed a two-layer
MLP that scores every item.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.batching import SequenceBatch
from repro.data.interactions import SequenceCorpus
from repro.data.padding import PAD_INDEX, pre_pad
from repro.models._sequence_utils import clip_history
from repro.models.base import NeuralSequentialRecommender, model_registry
from repro.nn import functional as F
from repro.nn.conv import Conv2d
from repro.nn.layers import Dropout, Embedding, Linear, Module, ModuleList
from repro.nn.tensor import Tensor, concatenate
from repro.utils.batch import broadcast_user_indices
from repro.utils.rng import spawn_rng

__all__ = ["Caser"]


class _CaserModule(Module):
    """Convolutional scorer over the last ``window`` items."""

    def __init__(
        self,
        vocab_size: int,
        num_users: int,
        embedding_dim: int,
        window: int,
        num_horizontal: int,
        num_vertical: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        rngs = spawn_rng(rng, 6)
        self.window = window
        self.embedding_dim = embedding_dim
        self.item_embedding = Embedding(vocab_size, embedding_dim, padding_idx=0, rng=rngs[0])
        self.user_embedding = Embedding(num_users, embedding_dim, rng=rngs[1])
        heights = [h for h in range(2, window + 1)]
        self.horizontal = ModuleList(
            [Conv2d(1, num_horizontal, (height, embedding_dim), rng=rngs[2]) for height in heights]
        )
        self.vertical = Conv2d(1, num_vertical, (window, 1), rng=rngs[3])
        feature_dim = num_horizontal * len(heights) + num_vertical * embedding_dim
        self.hidden = Linear(feature_dim, embedding_dim, rng=rngs[4])
        self.dropout = Dropout(dropout, rng=rngs[5])
        self.output = Linear(2 * embedding_dim, vocab_size, rng=rngs[4])

    def forward(self, windows: np.ndarray, users: np.ndarray) -> Tensor:
        batch = windows.shape[0]
        embedded = self.item_embedding(windows)  # (batch, window, d)
        image = embedded.reshape(batch, 1, self.window, self.embedding_dim)

        features = []
        for conv in self.horizontal:
            # (batch, filters, window-h+1, 1) -> max over the temporal axis
            activated = conv(image).relu()
            pooled = activated.max(axis=2)  # (batch, filters, 1)
            features.append(pooled.reshape(batch, -1))
        vertical = self.vertical(image).relu()  # (batch, filters, 1, d)
        features.append(vertical.reshape(batch, -1))

        convolution = concatenate(features, axis=1)
        hidden = self.dropout(self.hidden(convolution).relu())
        user_vectors = self.user_embedding(users)
        combined = concatenate([hidden, user_vectors], axis=1)
        return self.output(combined)


@model_registry.register("caser")
class Caser(NeuralSequentialRecommender):
    """CNN-based next-item recommender."""

    name = "Caser"

    def __init__(
        self,
        embedding_dim: int = 32,
        window: int = 5,
        num_horizontal: int = 8,
        num_vertical: int = 2,
        dropout: float = 0.1,
        targets_per_sequence: int = 6,
        epochs: int = 8,
        batch_size: int = 64,
        learning_rate: float = 3e-3,
        max_sequence_length: int = 40,
        seed: int = 0,
    ) -> None:
        super().__init__(
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            max_sequence_length=max_sequence_length,
            seed=seed,
        )
        self.embedding_dim = embedding_dim
        self.window = window
        self.num_horizontal = num_horizontal
        self.num_vertical = num_vertical
        self.dropout = dropout
        self.targets_per_sequence = targets_per_sequence

    def _build(self, corpus: SequenceCorpus, rng: np.random.Generator) -> Module:
        return _CaserModule(
            vocab_size=corpus.vocab.size,
            num_users=corpus.num_users,
            embedding_dim=self.embedding_dim,
            window=self.window,
            num_horizontal=self.num_horizontal,
            num_vertical=self.num_vertical,
            dropout=self.dropout,
            rng=rng,
        )

    def _loss(self, batch: SequenceBatch, rng: np.random.Generator) -> Tensor:
        windows, users, targets = self._training_windows(batch, rng)
        logits = self.module(windows, users)
        return F.cross_entropy(logits, targets, ignore_index=PAD_INDEX)

    def _training_windows(
        self, batch: SequenceBatch, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample (window -> next item) training examples from a padded batch."""
        windows: list[list[int]] = []
        users: list[int] = []
        targets: list[int] = []
        for row, user in zip(batch.items, batch.users):
            items = [int(i) for i in row if i != PAD_INDEX]
            if len(items) < 2:
                continue
            candidate_positions = list(range(1, len(items)))
            if len(candidate_positions) > self.targets_per_sequence:
                chosen = rng.choice(
                    candidate_positions, size=self.targets_per_sequence, replace=False
                )
            else:
                chosen = candidate_positions
            for position in chosen:
                history = items[max(0, position - self.window) : position]
                windows.append(pre_pad(history, self.window))
                users.append(int(user))
                targets.append(items[position])
        if not windows:
            # Degenerate batch (all sequences length 1): emit one dummy example.
            windows.append([PAD_INDEX] * self.window)
            users.append(int(batch.users[0]))
            targets.append(PAD_INDEX)
        return (
            np.asarray(windows, dtype=np.int64),
            np.asarray(users, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
        )

    def score_next_batch(
        self,
        histories: Sequence[Sequence[int]],
        user_indices: "Sequence[int | None] | None" = None,
    ) -> np.ndarray:
        # Every window is pre-padded to ``window`` items, exactly as a lone
        # row is, so all rows share one forward.
        rows = [pre_pad(clip_history(history, self.window), self.window) for history in histories]
        users = broadcast_user_indices(len(rows), user_indices)
        users = np.asarray([0 if user is None else user for user in users], dtype=np.int64)
        return self._score_ragged(
            rows, lambda windows, index: self.module(windows, users[index]).data
        )
