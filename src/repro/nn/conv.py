"""Convolution layers (the backbone of Caser).

Caser applies *horizontal* filters spanning a few consecutive items across
the full embedding dimension and *vertical* filters spanning the whole
sequence for a single embedding dimension.  Both are expressible with a plain
2-D convolution over the ``(length, embedding)`` "image", which is what
:class:`Conv2d` provides (implemented with im2col + matmul so it runs on the
autograd engine).
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor, concatenate, is_grad_enabled
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import as_rng

__all__ = ["Conv2d"]


class Conv2d(Module):
    """2-D convolution with stride 1 and no padding (valid convolution).

    Input shape ``(batch, in_channels, height, width)``; output shape
    ``(batch, out_channels, height - kh + 1, width - kw + 1)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: tuple[int, int],
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        rng = as_rng(rng)
        if len(kernel_size) != 2:
            raise ConfigurationError("kernel_size must be a (height, width) pair")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = tuple(kernel_size)
        kh, kw = self.kernel_size
        self.weight = Parameter(
            init.xavier_uniform((out_channels, in_channels, kh, kw), rng)
        )
        self.bias = Parameter(init.zeros((out_channels,)))

    def forward(self, x: Tensor) -> Tensor:
        batch, channels, height, width = x.shape
        kh, kw = self.kernel_size
        if channels != self.in_channels:
            raise ConfigurationError(
                f"expected {self.in_channels} input channels, got {channels}"
            )
        if height < kh or width < kw:
            raise ConfigurationError(
                f"input ({height}x{width}) smaller than kernel ({kh}x{kw})"
            )
        out_h = height - kh + 1
        out_w = width - kw + 1

        if not is_grad_enabled():
            # Fused inference path: one strided window view materialised in
            # the layout of the concatenated patches below, then the same
            # transpose/reshape, GEMM and bias add (bitwise-equal output:
            # matching layouts keep NumPy on the same matmul kernel), without
            # the kh * kw slice/reshape/concatenate graph nodes.
            windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
            patches = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(
                batch, channels, kh * kw, out_h, out_w
            )
            columns = patches.transpose(0, 3, 4, 1, 2).reshape(
                batch, out_h, out_w, channels * kh * kw
            )
            kernel = self.weight.data.reshape(self.out_channels, channels * kh * kw)
            result = np.matmul(columns, kernel.T) + self.bias.data
            return Tensor(result.transpose(0, 3, 1, 2))

        # im2col: gather every (kh, kw) patch as a row, as a single advanced
        # index so the gradient flows through Tensor.__getitem__.
        patch_rows = []
        for dh in range(kh):
            for dw in range(kw):
                patch = x[:, :, dh : dh + out_h, dw : dw + out_w]
                patch_rows.append(patch.reshape(batch, channels, 1, out_h, out_w))
        # (batch, channels, kh*kw, out_h, out_w)
        patches = concatenate(patch_rows, axis=2)
        # -> (batch, out_h, out_w, channels * kh * kw)
        columns = patches.transpose(0, 3, 4, 1, 2).reshape(
            batch, out_h, out_w, channels * kh * kw
        )
        kernel = self.weight.reshape(self.out_channels, channels * kh * kw)
        # (batch, out_h, out_w, out_channels)
        result = columns.matmul(kernel.transpose()) + self.bias
        return result.transpose(0, 3, 1, 2)
