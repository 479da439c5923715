"""Factorized convolution layers and the reference forward pass.

A decomposition of a reshaped kernel turns one dense conv2d into a short
chain of cheap layers:

* CP block: 1x1 (S->R), depthwise DxD with R groups, 1x1 (R->T);
* hybrid block: 1x1 (S->R1), the CP block of the core (R1->R2), 1x1
  (R2->T);
* SVD block (1x1 kernels only): 1x1 (S->R), 1x1 (R->T).

The chain computes exactly the convolution with the kernel the model
reconstructs, which is what the equivalence tests assert.
:func:`block_factors` reads the CP factors back from the layers,
:func:`block_basis` writes the block's kernel in their column spaces and
:func:`block_metrics` derives the metrics a block file records.  The
reference forward pass is a direct evaluation of the convolution sum with
zero padding, one GEMM per kernel tap: the tap's (H'W', S) window rows times
its (S, T) weights.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cpd import CPModel, intensity, sensitivity
from .tensorops import reconstruct_cp, restore_kernel

__all__ = [
    "ConvSpec",
    "LayerDescriptor",
    "conv2d_reference",
    "layer_forward",
    "compose_forward",
    "emit_cpd_block",
    "emit_tkd_cpd_block",
    "emit_svd_block",
    "block_factors",
    "block_to_kernel",
    "block_basis",
    "block_metrics",
    "count_params_flops",
]


@dataclass
class ConvSpec:
    """Shape metadata of one convolution layer."""

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    pad: int = 0
    bias: np.ndarray | None = None

    def __post_init__(self):
        if self.kernel_size < 1 or self.stride < 1 or self.pad < 0:
            raise ValueError("kernel_size and stride must be >= 1, pad >= 0")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.out_channels,):
                raise ValueError("bias must have one entry per output channel")


@dataclass
class LayerDescriptor:
    """One conv2d layer: weights shaped (out, in/groups, k_h, k_w)."""

    in_channels: int
    out_channels: int
    kernel: tuple
    weights: np.ndarray
    groups: int = 1
    stride: int = 1
    pad: int = 0
    bias: np.ndarray | None = None

    def __post_init__(self):
        if self.groups < 1 or self.stride < 1 or self.pad < 0:
            raise ValueError("groups and stride must be >= 1, pad >= 0")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError("channel counts must be divisible by groups")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        expected = (
            self.out_channels,
            self.in_channels // self.groups,
            self.kernel[0],
            self.kernel[1],
        )
        if self.weights.shape != expected:
            raise ValueError(
                f"weights shape {self.weights.shape} != expected {expected}"
            )
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.out_channels,):
                raise ValueError("bias must have one entry per output channel")

    def param_count(self):
        n = self.weights.size
        if self.bias is not None:
            n += self.bias.size
        return n


def _out_hw(h, w, kh, kw, stride, pad):
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(
            f"kernel {kh}x{kw} with stride {stride}, pad {pad} does not fit "
            f"a {h}x{w} input"
        )
    return ho, wo


def _tap_windows(x, kh, kw, stride, pad):
    """Yield ``((i, j), window)`` per kernel tap: the strided (H', W', C)
    window that tap (i, j) multiplies, a view of one zero-padded copy of the
    (H, W, C) input (of the input itself when `pad` is 0)."""
    h, w, c = x.shape
    ho, wo = _out_hw(h, w, kh, kw, stride, pad)
    if pad:
        padded = np.zeros((h + 2 * pad, w + 2 * pad, c))
        padded[pad:-pad, pad:-pad] = x
        x = padded
    for i in range(kh):
        for j in range(kw):
            yield (i, j), x[i : i + (ho - 1) * stride + 1 : stride,
                            j : j + (wo - 1) * stride + 1 : stride]


def conv2d_reference(x, spec, kernel):
    """Reference conv2d: output[h', w', t] = sum over taps and channels of
    kernel[i, j, s, t] * x at the strided, zero-padded tap position.

    x is (H, W, S); kernel is (D, D, S, T); output is (H', W', T) with
    ``H' = (H + 2*pad - D) // stride + 1``.
    """
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError("input must be (H, W, S)")
    if kernel.ndim != 4:
        raise ValueError("kernel must be (D, D, S, T)")
    d = spec.kernel_size
    if kernel.shape[:2] != (d, d):
        raise ValueError(f"kernel spatial shape {kernel.shape[:2]} != ({d}, {d})")
    if kernel.shape[2] != spec.in_channels or x.shape[2] != spec.in_channels:
        raise ValueError("input-channel mismatch between x, kernel and spec")
    if kernel.shape[3] != spec.out_channels:
        raise ValueError("output-channel mismatch between kernel and spec")
    ho, wo = _out_hw(x.shape[0], x.shape[1], d, d, spec.stride, spec.pad)
    out = 0.0
    # one GEMM per tap: the (H'W', S) window rows times the (S, T) tap
    for tap, window in _tap_windows(x, d, d, spec.stride, spec.pad):
        out += window.reshape(ho * wo, -1) @ kernel[tap]
    out = out.reshape(ho, wo, spec.out_channels)
    if spec.bias is not None:
        out = out + spec.bias
    return out


def layer_forward(x, layer):
    """Apply one :class:`LayerDescriptor` to an (H, W, C) input.

    Each tap is one batched GEMM over the groups: the (groups, H'W',
    C/groups) window times the (groups, C/groups, out/groups) weights.  A
    depthwise layer (one input and one output channel per group) scales
    each tap's (H', W', C) window by its per-channel weights instead,
    where the GEMMs would be C products of a column with a 1x1 matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[2] != layer.in_channels:
        raise ValueError(
            f"layer expects {layer.in_channels} channels, got {x.shape[2]}"
        )
    g = layer.groups
    ho, wo = _out_hw(x.shape[0], x.shape[1], *layer.kernel, layer.stride, layer.pad)
    windows = _tap_windows(x, *layer.kernel, layer.stride, layer.pad)
    out = 0.0
    if g == layer.in_channels == layer.out_channels:
        taps = np.transpose(layer.weights[:, 0], (1, 2, 0))  # (kh, kw, C)
        for tap, window in windows:
            out += window * taps[tap]
    else:
        # (out, in/g, kh, kw) -> (kh, kw, g, in/g, out/g)
        taps = np.transpose(
            layer.weights.reshape(g, -1, *layer.weights.shape[1:]), (3, 4, 0, 2, 1)
        )
        for tap, window in windows:
            out += window.reshape(ho * wo, g, -1).transpose(1, 0, 2) @ taps[tap]
        out = out.transpose(1, 0, 2).reshape(ho, wo, layer.out_channels)
    if layer.bias is not None:
        out = out + layer.bias
    return out


def _check_chain(layers):
    """ValueError unless each layer takes the channels the one before emits."""
    for i, (prev, layer) in enumerate(zip(layers, layers[1:])):
        if prev.out_channels != layer.in_channels:
            raise ValueError(
                f"broken chain: layer {i} emits {prev.out_channels} "
                f"channels, layer {i + 1} expects {layer.in_channels}"
            )


def compose_forward(layers, x):
    """Run an input through a chain of layer descriptors."""
    _check_chain(layers)
    out = x
    for layer in layers:
        out = layer_forward(out, layer)
    return out


def _pointwise(matrix, in_channels, out_channels, bias=None, stride=1, pad=0):
    """1x1 layer with weights[o, i] = matrix[o, i]."""
    return LayerDescriptor(
        in_channels=in_channels,
        out_channels=out_channels,
        kernel=(1, 1),
        weights=np.asarray(matrix, dtype=np.float64)[:, :, None, None],
        stride=stride,
        pad=pad,
        bias=bias,
    )


def emit_cpd_block(model, spec):
    """Three-layer CP realization of a conv layer.

    Layer order: 1x1 S->R from B, depthwise DxD (groups=R, stride and pad
    of the original layer) from A, 1x1 R->T from C; the original bias
    rides on the last layer.  Depthwise filter r is column r of A, whose
    row ``i*D + j`` is tap (i, j) as in
    :func:`~convfactor.tensorops.reshape_kernel`.
    """
    d = spec.kernel_size
    if model.shape != (d * d, spec.in_channels, spec.out_channels):
        raise ValueError(
            f"model shape {model.shape} does not match spec "
            f"({d * d}, {spec.in_channels}, {spec.out_channels})"
        )
    a, b, c = model.A, model.B, model.C
    r = model.rank
    depthwise = LayerDescriptor(
        in_channels=r,
        out_channels=r,
        kernel=(d, d),
        weights=a.T.reshape(r, 1, d, d),
        groups=r,
        stride=spec.stride,
        pad=spec.pad,
    )
    return [
        _pointwise(b.T, spec.in_channels, r),
        depthwise,
        _pointwise(c, r, spec.out_channels, bias=spec.bias),
    ]


def emit_tkd_cpd_block(model, spec):
    """Five-layer hybrid realization: 1x1 S->R1 from U, the CP block of the
    core (R1->R2), 1x1 R2->T from V with the original bias.

    Exact at any ranks; when the CP rank is below both multilinear ranks
    the merged CP block (:func:`convfactor.hybrid.to_equivalent_cp`) is
    smaller.
    """
    r1, r2, _ = model.ranks
    core = ConvSpec(r1, r2, spec.kernel_size, stride=spec.stride, pad=spec.pad)
    return [
        _pointwise(model.U.T, spec.in_channels, r1),
        *emit_cpd_block(model.core_cp, core),
        _pointwise(model.V, r2, spec.out_channels, bias=spec.bias),
    ]


def emit_svd_block(model, spec):
    """Two 1x1 layers from the truncated SVD of a 1x1 kernel, held as the
    CP model :func:`convfactor.pipeline.fit` builds: singular values in A
    (1 x R), right singular vectors in B (S x R), left ones in C (T x R).

    The square roots of the singular values are split between the two
    layers.  The stride and pad go on the first layer, the bias on the last.
    """
    if spec.kernel_size != 1:
        raise ValueError("svd blocks require a 1x1 kernel")
    if model.shape != (1, spec.in_channels, spec.out_channels):
        raise ValueError(f"model shape {model.shape} does not match spec")
    root = np.sqrt(model.A[0])
    return [
        _pointwise((model.B * root).T, spec.in_channels, model.rank,
                   stride=spec.stride, pad=spec.pad),
        _pointwise(model.C * root, model.rank, spec.out_channels, bias=spec.bias),
    ]


def block_factors(layers, kind):
    """CP factors of an emitted block, the inverse of the three emitters.

    ``cpd``: (A, B, C) from the depthwise and the two 1x1 layers;
    ``tkd-cpd``: the equivalent CP ``(A, U B, V C)`` of the hybrid;
    ``svd``: ``(ones((1, R)), W1', W2)`` from the two 1x1 weight matrices.
    """
    def matrix(layer):
        return layer.weights[:, :, 0, 0]

    if kind == "cpd":
        w1, wd, w3 = layers
        a = wd.weights.reshape(wd.out_channels, -1).T  # row i*D + j: tap (i, j)
        return CPModel(a, matrix(w1).T, matrix(w3))
    if kind == "tkd-cpd":
        u, *core, v = layers
        m = block_factors(core, "cpd")
        return CPModel(m.A, matrix(u).T @ m.B, matrix(v) @ m.C)
    if kind == "svd":
        w1, w2 = layers
        return CPModel(np.ones((1, w1.out_channels)), matrix(w1).T, matrix(w2))
    raise ValueError(f"unknown block kind {kind!r}")


def block_to_kernel(layers, kind):
    """Dense (D, D, S, T) kernel equivalent to an emitted block."""
    m = block_factors(layers, kind)
    return restore_kernel(reconstruct_cp(m.A, m.B, m.C), math.isqrt(m.shape[0]))


def block_basis(layers, kind):
    """The block's kernel in the column spaces of its factors.

    With ``(A, B, C) = block_factors(layers, kind)``, ``B = Q_B R_B`` and
    ``C = Q_C R_C`` (thin QR), returns ``(Q_B, G, Q_C)``: orthonormal Q_B
    (S, k1) and Q_C (T, k2) and the (D, D, k1, k2) core
    ``G[i, j] = R_B diag(A[i*D + j]) R_Cᵀ``, where ``k1 = min(S, R)`` and
    ``k2 = min(T, R)``.  The block's kernel is exactly ``G ×₃ Q_B ×₄ Q_C``,
    so a conv with it is ``conv(x @ Q_B, G) @ Q_Cᵀ`` and no (D, D, S, T)
    array is formed.
    """
    m = block_factors(layers, kind)
    q_b, r_b = np.linalg.qr(m.B)
    q_c, r_c = np.linalg.qr(m.C)
    core = restore_kernel(reconstruct_cp(m.A, r_b, r_c), math.isqrt(m.shape[0]))
    return q_b, core, q_c


def block_metrics(layers, kind, input_hw):
    """The metrics ``block.json`` records next to ``rel_error``: the
    sensitivity and intensity of the block's :func:`block_factors`, and its
    parameters and FLOPs on an `input_hw` input."""
    params, flops = count_params_flops(layers, input_hw)
    shipped = block_factors(layers, kind)
    return {
        "sensitivity": float(sensitivity(shipped)),
        "intensity": float(intensity(shipped)),
        "params": int(params),
        "flops": int(flops),
        "input_hw": list(input_hw),
    }


def count_params_flops(layers, input_hw):
    """Exact parameter count and forward FLOPs of a layer chain.

    FLOPs count a multiply-add as 2 operations:
    ``2 * H' * W' * (in/groups) * k_h * k_w * out`` per layer.
    """
    _check_chain(layers)
    h, w = input_hw
    params = 0
    flops = 0
    for layer in layers:
        kh, kw = layer.kernel
        h, w = _out_hw(h, w, kh, kw, layer.stride, layer.pad)
        params += layer.param_count()
        flops += (
            2 * h * w * (layer.in_channels // layer.groups) * kh * kw
            * layer.out_channels
        )
    return params, flops
