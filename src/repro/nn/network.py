"""Sequential network container, batch-norm folding and the frozen forward."""

from __future__ import annotations

import copy

import numpy as np

from repro.dtypes import resolve_dtype
from repro.nn.layers import AvgPool1d, BatchNorm1d, Conv1d, Flatten, Layer, ReLU


class Sequential:
    """A plain feed-forward stack of layers.

    The container exposes the same ``forward`` / ``backward`` protocol as
    the layers, plus convenience accessors used by the optimizers
    (``parameters`` / ``gradients``), the quantizer and the complexity
    counters.
    """

    def __init__(self, layers: list[Layer] | None = None) -> None:
        self.layers: list[Layer] = list(layers) if layers else []

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer and return ``self`` (chainable)."""
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    # ------------------------------------------------------------- compute
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the input through every layer in order."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate through every layer in reverse order."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # ---------------------------------------------------------- parameters
    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for layer in self.layers:
            layer.zero_grad()

    def parameters(self) -> list[tuple[str, dict[str, np.ndarray]]]:
        """Per-layer parameter dictionaries, keyed by a unique layer name."""
        return [(f"layer{i}_{type(layer).__name__}", layer.params) for i, layer in enumerate(self.layers)]

    def gradients(self) -> list[tuple[str, dict[str, np.ndarray]]]:
        """Per-layer gradient dictionaries, aligned with :meth:`parameters`."""
        return [(f"layer{i}_{type(layer).__name__}", layer.grads) for i, layer in enumerate(self.layers)]

    @property
    def n_parameters(self) -> int:
        """Total number of trainable parameters."""
        return int(sum(layer.n_parameters for layer in self.layers))

    # -------------------------------------------------------- (de)serialize
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of every parameter array (copied)."""
        state = {}
        for name, params in self.parameters():
            for key, value in params.items():
                state[f"{name}.{key}"] = value.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters previously produced by :meth:`state_dict`."""
        for name, params in self.parameters():
            for key in params:
                full = f"{name}.{key}"
                if full not in state:
                    raise KeyError(f"missing parameter {full} in state dict")
                if state[full].shape != params[key].shape:
                    raise ValueError(
                        f"shape mismatch for {full}: "
                        f"{state[full].shape} vs {params[key].shape}"
                    )
                params[key][...] = state[full]

    # --------------------------------------------------------------- dtype
    def to_dtype(self, dtype) -> "Sequential":
        """Convert every layer's parameters and buffers to ``dtype`` in place.

        Threads the runtime dtype through the whole stack (weights,
        biases, batch-norm running statistics, gradient buffers); the
        inference scratch arrays are per call and take the input's
        dtype.  Returns ``self`` (chainable).
        """
        for layer in self.layers:
            layer.to_dtype(dtype)
        return self

    @property
    def dtype(self) -> np.dtype:
        """The floating dtype of the stack's parameterized layers.

        Defined as the dtype of the first layer (``to_dtype`` keeps all
        layers consistent); an empty network reports the default float.
        """
        return self.layers[0].dtype if self.layers else resolve_dtype(None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"


def _strip_runtime_buffers(layer: Layer) -> Layer:
    """Drop backward caches from a copied layer.

    The folded network is inference-only: carrying a deep copy of the
    source layers' training caches (im2col tensors, batch-norm and
    dropout masks) would pin a full training batch's activations for
    the frozen network's lifetime.
    """
    if hasattr(layer, "_cache"):
        layer._cache = {} if isinstance(layer._cache, dict) else None
    if hasattr(layer, "_mask"):
        layer._mask = None
    return layer


def _fold_conv_bn(conv: Conv1d, bn: BatchNorm1d) -> Conv1d:
    """One convolution equivalent to ``conv`` followed by ``bn`` (eval mode).

    Batch-norm in evaluation mode is a per-channel affine transform
    ``y = gamma * (x - mean) / sqrt(var + eps) + beta``; scaling the
    convolution kernel per output channel and adjusting the bias absorbs
    it exactly (up to one floating-point rounding per weight).
    """
    fused = _strip_runtime_buffers(copy.deepcopy(conv))
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    scale = bn.params["gamma"] * inv_std
    fused.params["weight"] = conv.params["weight"] * scale[:, None, None]
    bias = conv.params["bias"] if conv.use_bias else 0.0
    fused.use_bias = True
    fused.params["bias"] = (bias - bn.running_mean) * scale + bn.params["beta"]
    fused.zero_grad()
    fused.bn_folded = True
    return fused


def fold_batchnorm(network: Sequential, dtype=None) -> Sequential:
    """Inference copy of ``network`` with batch norm folded into convolutions.

    Every ``Conv1d`` immediately followed by a ``BatchNorm1d`` is
    replaced by a single fused convolution; other layers are deep-copied
    unchanged (a batch norm *not* preceded by a convolution keeps running
    in evaluation mode).  The result is an inference-only network for
    **frozen** weights: it shares nothing with the original, so training
    the original afterwards requires folding again.  Folded outputs match
    the unfolded evaluation forward to floating-point rounding — see the
    tolerance equivalence policy in :mod:`repro.core.runtime` for how the
    runtime accounts for that.

    The ops counter keeps charging the folded normalizations
    (:mod:`repro.nn.ops_count` reads :attr:`Conv1d.bn_folded`), so energy
    modelling reports the same MAC count for folded and reference
    networks.

    ``dtype`` (optional) converts the folded copy — weights, biases and
    any remaining batch-norm buffers — to the given floating dtype, e.g.
    ``fold_batchnorm(net, dtype="float32")`` for a pure-float32 frozen
    network.  Folding arithmetic runs in the source network's dtype and
    the fold result is cast once at the end, so the float32 weights are
    the correctly-rounded float64 fold.  ``None`` keeps the source dtype.
    """
    layers: list[Layer] = []
    source = network.layers
    i = 0
    while i < len(source):
        layer = source[i]
        nxt = source[i + 1] if i + 1 < len(source) else None
        if isinstance(layer, Conv1d) and isinstance(nxt, BatchNorm1d):
            layers.append(_fold_conv_bn(layer, nxt))
            i += 2
        else:
            layers.append(_strip_runtime_buffers(copy.deepcopy(layer)))
            i += 1
    folded = Sequential(layers)
    if dtype is not None:
        folded.to_dtype(resolve_dtype(dtype))
    return folded


def forward_frozen(network: Sequential, x: np.ndarray) -> np.ndarray:  # hot-path
    """Inference forward of a frozen network, channel-major end to end.

    ``x`` is a batch-major ``(batch, channels, length)`` input.  It is
    viewed as ``(channels, batch, length)`` once, and the activations
    stay in that layout through every convolution: each
    :class:`~repro.nn.layers.Conv1d` multiplies the whole batch at once
    (:meth:`~repro.nn.layers.Conv1d.forward_channel_major`), a ReLU
    clamps the fresh GEMM output in place, and average pooling works on
    the time axis, which is last in both layouts.  :class:`Flatten`
    returns to batch-major ``(batch, features)`` rows for the dense
    head, whose inference forward is row by row.  Any other layer runs
    its own batch-major inference forward; a 3-D result returns to
    channel-major, a 2-D one (e.g. global pooling) stays as rows.

    Bit for bit this equals ``network.forward(x, training=False)``, and
    each output row is independent of the batch it was computed in, so
    a one-window call and a 241-window chunk agree exactly.
    """
    x = np.asarray(x)
    batch = x.shape[0]
    out = x.transpose(1, 0, 2)
    owned = False  # whether ``out`` is scratch of this call, not the input
    for layer in network.layers:  # loop-ok: per layer, not per window
        if isinstance(layer, ReLU):
            out = np.maximum(out, 0, out=out if owned else None)
        elif out.ndim == 3 and isinstance(layer, Conv1d):
            out = layer.forward_channel_major(out)
        elif out.ndim == 3 and isinstance(layer, AvgPool1d):
            out = layer.forward(out)
        elif out.ndim == 3 and isinstance(layer, Flatten):
            out = out.transpose(1, 0, 2).reshape(batch, out.shape[0] * out.shape[2])
        elif out.ndim == 3:
            out = layer.forward(out.transpose(1, 0, 2))
            if out.ndim == 3:
                out = out.transpose(1, 0, 2)
        else:
            out = layer.forward(out)
        owned = not np.may_share_memory(out, x)
    if out.ndim == 3:
        return out.transpose(1, 0, 2)
    return out
