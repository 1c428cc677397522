"""GRU4Rec: RNN-based sequential recommendation (Hidasi & Karatzoglou, 2018).

Architecture: item embedding -> single-layer GRU -> softmax over items.
Trained with next-item cross entropy on the training sub-sequences.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.batching import SequenceBatch
from repro.data.interactions import SequenceCorpus
from repro.models._sequence_utils import clip_history, shifted_inputs_and_targets
from repro.models.base import NeuralSequentialRecommender, model_registry
from repro.nn import functional as F
from repro.nn.layers import Dropout, Embedding, Linear, Module
from repro.nn.rnn import GRU
from repro.nn.tensor import Tensor
from repro.utils.rng import spawn_rng

__all__ = ["GRU4Rec"]


class _GRU4RecModule(Module):
    """Embedding + GRU + output projection."""

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        hidden_size: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        rngs = spawn_rng(rng, 3)
        self.item_embedding = Embedding(vocab_size, embedding_dim, padding_idx=0, rng=rngs[0])
        self.gru = GRU(embedding_dim, hidden_size, rng=rngs[1])
        self.dropout = Dropout(dropout, rng=rngs[2])
        self.output = Linear(hidden_size, vocab_size, rng=rngs[2])

    def forward(self, items: np.ndarray) -> Tensor:
        embedded = self.dropout(self.item_embedding(items))
        hidden_states, _ = self.gru(embedded)
        return self.output(hidden_states)

    def score_last(self, items: np.ndarray) -> np.ndarray:
        """Next-item logits read at the final position only, ``(batch, vocab)``."""
        _, final = self.gru(self.dropout(self.item_embedding(items)))
        return self.output(final).data


@model_registry.register("gru4rec")
class GRU4Rec(NeuralSequentialRecommender):
    """RNN-based next-item recommender."""

    name = "GRU4Rec"

    def __init__(
        self,
        embedding_dim: int = 32,
        hidden_size: int = 48,
        dropout: float = 0.1,
        epochs: int = 8,
        batch_size: int = 64,
        learning_rate: float = 5e-3,
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
        self.hidden_size = hidden_size
        self.dropout = dropout

    def _build(self, corpus: SequenceCorpus, rng: np.random.Generator) -> Module:
        return _GRU4RecModule(
            vocab_size=corpus.vocab.size,
            embedding_dim=self.embedding_dim,
            hidden_size=self.hidden_size,
            dropout=self.dropout,
            rng=rng,
        )

    def _loss(self, batch: SequenceBatch, rng: np.random.Generator) -> Tensor:
        inputs, targets = shifted_inputs_and_targets(batch.items)
        logits = self.module(inputs)
        return F.cross_entropy(logits, targets, ignore_index=0)

    def score_next_batch(
        self,
        histories: Sequence[Sequence[int]],
        user_indices: "Sequence[int | None] | None" = None,
    ) -> np.ndarray:
        rows = [clip_history(history, self.max_sequence_length) or [0] for history in histories]
        return self._score_ragged(rows, lambda items, _index: self.module.score_last(items))
