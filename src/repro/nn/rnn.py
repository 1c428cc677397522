"""Gated recurrent units (the backbone of GRU4Rec).

The implementation follows Cho et al. (2014):

.. math::

    r_t &= \\sigma(W_r x_t + U_r h_{t-1} + b_r) \\\\
    z_t &= \\sigma(W_z x_t + U_z h_{t-1} + b_z) \\\\
    n_t &= \\tanh(W_n x_t + r_t \\odot (U_n h_{t-1}) + b_n) \\\\
    h_t &= (1 - z_t) \\odot n_t + z_t \\odot h_{t-1}
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor, is_grad_enabled, stack
from repro.utils.rng import as_rng, spawn_rng

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """A single GRU step mapping ``(x_t, h_{t-1}) -> h_t``."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        rng = as_rng(rng)
        rngs = spawn_rng(rng, 6)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.reset_x = Linear(input_size, hidden_size, rng=rngs[0])
        self.reset_h = Linear(hidden_size, hidden_size, bias=False, rng=rngs[1])
        self.update_x = Linear(input_size, hidden_size, rng=rngs[2])
        self.update_h = Linear(hidden_size, hidden_size, bias=False, rng=rngs[3])
        self.candidate_x = Linear(input_size, hidden_size, rng=rngs[4])
        self.candidate_h = Linear(hidden_size, hidden_size, bias=False, rng=rngs[5])

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        reset = (self.reset_x(x) + self.reset_h(hidden)).sigmoid()
        update = (self.update_x(x) + self.update_h(hidden)).sigmoid()
        candidate = (self.candidate_x(x) + reset * self.candidate_h(hidden)).tanh()
        return (1.0 - update) * candidate + update * hidden


class GRU(Module):
    """A (single-layer) GRU over a batched sequence.

    Input has shape ``(batch, length, input_size)``; the output is the
    sequence of hidden states ``(batch, length, hidden_size)`` plus the final
    hidden state ``(batch, hidden_size)``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.cell = GRUCell(input_size, hidden_size, rng=rng)

    def forward(self, x: Tensor, hidden: Tensor | None = None) -> tuple[Tensor, Tensor]:
        batch, length, _ = x.shape
        if hidden is None:
            hidden = Tensor(np.zeros((batch, self.hidden_size)))
        if not is_grad_enabled():
            return self._forward_inference(x.data, hidden.data)
        outputs = []
        for step in range(length):
            hidden = self.cell(x[:, step, :], hidden)
            outputs.append(hidden)
        return stack(outputs, axis=1), hidden

    def _forward_inference(
        self, x: np.ndarray, hidden: np.ndarray
    ) -> tuple[Tensor, Tensor]:
        """Fused inference path on raw ndarrays (bitwise-equal to the graph path).

        Every step issues the same GEMMs on the same operand views and the
        same ufuncs in the same order as :meth:`GRUCell.forward` under
        :func:`~repro.nn.functional.linear`'s no-grad branch, without the
        per-op ``Tensor`` wrappers and backward closures.
        """
        cell = self.cell
        reset_x, update_x, candidate_x = (
            (layer.weight.data.T, layer.bias.data)
            for layer in (cell.reset_x, cell.update_x, cell.candidate_x)
        )
        reset_h, update_h, candidate_h = (
            layer.weight.data.T for layer in (cell.reset_h, cell.update_h, cell.candidate_h)
        )
        outputs = []
        for step in range(x.shape[1]):
            x_t = x[:, step, :]
            reset = np.matmul(x_t, reset_x[0])
            reset += reset_x[1]
            reset = reset + np.matmul(hidden, reset_h)
            reset = 1.0 / (1.0 + np.exp(-reset))
            update = np.matmul(x_t, update_x[0])
            update += update_x[1]
            update = update + np.matmul(hidden, update_h)
            update = 1.0 / (1.0 + np.exp(-update))
            candidate = np.matmul(x_t, candidate_x[0])
            candidate += candidate_x[1]
            candidate = np.tanh(candidate + reset * np.matmul(hidden, candidate_h))
            hidden = (1.0 - update) * candidate + update * hidden
            outputs.append(hidden)
        return Tensor(np.stack(outputs, axis=1)), Tensor(hidden)
