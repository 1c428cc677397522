"""Batched next-item scorers of the neural models and their no-grad kernels.

``score_next_batch`` groups ragged rows by clipped length, so every row must
score as a lone 1-row forward through the autograd graph path would (the
pre-batching scalar scorer), and ``score_next`` is its batch-of-1 case.
"""

import numpy as np
import pytest

from repro.data.padding import PAD_INDEX, pre_pad
from repro.models._sequence_utils import clip_history
from repro.models.bert4rec import Bert4Rec
from repro.models.caser import Caser
from repro.models.gru4rec import GRU4Rec
from repro.models.sasrec import SASRec
from repro.nn.conv import Conv2d
from repro.nn.rnn import GRU
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad


def _tiny_kwargs():
    return dict(embedding_dim=12, epochs=1, batch_size=32, max_sequence_length=16, seed=0)


@pytest.fixture(scope="module", params=["gru4rec", "sasrec", "caser", "bert4rec"])
def fitted_model(request, tiny_split):
    factories = {
        "gru4rec": lambda: GRU4Rec(hidden_size=12, **_tiny_kwargs()),
        "sasrec": lambda: SASRec(num_heads=2, num_layers=1, **_tiny_kwargs()),
        "caser": lambda: Caser(window=4, num_horizontal=4, num_vertical=1, **_tiny_kwargs()),
        "bert4rec": lambda: Bert4Rec(num_heads=2, num_layers=1, **_tiny_kwargs()),
    }
    return factories[request.param]().fit(tiny_split)


def _graph_path_scores(model, history, user_index):
    """One row through the autograd graph path, built as the scalar scorer did."""
    assert is_grad_enabled()
    if isinstance(model, Caser):
        window = np.asarray([pre_pad(clip_history(history, model.window), model.window)])
        user = np.asarray([0 if user_index is None else user_index])
        scores = model.module(window, user).data[0].copy()
    elif isinstance(model, Bert4Rec):
        row = clip_history(history, model.max_sequence_length - 1) + [model.module.mask_token]
        scores = model.module(np.asarray([row])).data[0, -1].copy()
    else:
        row = clip_history(history, model.max_sequence_length) or [0]
        scores = model.module(np.asarray([row])).data[0, -1].copy()
    scores[PAD_INDEX] = -np.inf
    return scores


def _ragged_batch(vocab_size):
    rng = np.random.default_rng(7)
    lengths = [0, 1, 2, 3, 5, 16, 17, 30, 2, 0, 30, 9]
    histories = [[int(i) for i in rng.integers(1, vocab_size, size=n)] for n in lengths]
    users = [int(u) if u >= 0 else None for u in rng.integers(-1, 10, size=len(lengths))]
    return histories, users


class TestScoreNextBatch:
    def test_ragged_rows_match_one_row_graph_path(self, fitted_model, tiny_split):
        histories, users = _ragged_batch(tiny_split.corpus.vocab.size)
        batch = fitted_model.score_next_batch(histories, users)
        assert batch.shape == (len(histories), tiny_split.corpus.vocab.size)
        for row, (history, user) in enumerate(zip(histories, users)):
            expected = _graph_path_scores(fitted_model, history, user)
            assert batch[row, PAD_INDEX] == -np.inf
            np.testing.assert_allclose(batch[row, 1:], expected[1:], rtol=0, atol=1e-12)

    def test_score_next_is_the_batch_of_one_row(self, fitted_model, tiny_split):
        histories, users = _ragged_batch(tiny_split.corpus.vocab.size)
        for history, user in zip(histories, users):
            single = fitted_model.score_next(history, user)
            batch = fitted_model.score_next_batch([history], [user])
            assert np.array_equal(single, batch[0])

    def test_row_order_and_duplicates_do_not_change_answers(self, fitted_model, tiny_split):
        histories, users = _ragged_batch(tiny_split.corpus.vocab.size)
        forward = fitted_model.score_next_batch(histories, users)
        backward = fitted_model.score_next_batch(histories[::-1] * 2, users[::-1] * 2)
        np.testing.assert_allclose(backward[: len(histories)][::-1], forward, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            backward[: len(histories)], backward[len(histories) :], rtol=0, atol=1e-12
        )

    def test_empty_batch(self, fitted_model, tiny_split):
        assert fitted_model.score_next_batch([]).shape == (0, tiny_split.corpus.vocab.size)

    def test_grad_mode_is_restored(self, fitted_model):
        fitted_model.score_next_batch([[1, 2, 3]])
        assert is_grad_enabled()


def _random_shapes(seed, count):
    rng = np.random.default_rng(seed)
    for trial in range(count):
        yield trial, rng


class TestNoGradKernels:
    def test_conv2d_no_grad_branch_is_bitwise_equal(self):
        for trial, rng in _random_shapes(0, 120):
            batch, channels = int(rng.integers(1, 6)), int(rng.integers(1, 3))
            height, width = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            kernel = (int(rng.integers(1, height + 1)), int(rng.integers(1, width + 1)))
            conv = Conv2d(channels, int(rng.integers(1, 5)), kernel, rng=trial)
            conv.bias.data[:] = rng.normal(size=conv.bias.data.shape)
            image = Tensor(rng.normal(size=(batch, channels, height, width)))
            graph = conv(image).data
            with no_grad():
                fused = conv(image).data
            assert fused.shape == graph.shape
            assert np.array_equal(fused, graph), (batch, channels, height, width, kernel)

    def test_gru_no_grad_branch_is_bitwise_equal(self):
        for trial, rng in _random_shapes(1, 60):
            batch, length = int(rng.integers(1, 6)), int(rng.integers(1, 10))
            input_size, hidden_size = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            gru = GRU(input_size, hidden_size, rng=trial)
            x = Tensor(rng.normal(size=(batch, length, input_size)))
            initial = Tensor(rng.normal(size=(batch, hidden_size))) if trial % 2 else None
            graph_outputs, graph_final = gru(x, initial)
            with no_grad():
                fused_outputs, fused_final = gru(x, initial)
            assert np.array_equal(fused_outputs.data, graph_outputs.data)
            assert np.array_equal(fused_final.data, graph_final.data)
