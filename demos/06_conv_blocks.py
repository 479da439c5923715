"""Replacing one dense convolution with a chain of cheap layers.

A rank-R CP model of the reshaped kernel turns a D x D convolution over
S -> T channels into 1x1 -> depthwise DxD -> 1x1.  The chain computes the
convolution with the reconstructed kernel exactly, so for an accurate
decomposition it reproduces the original layer.
"""

import numpy as np

from convfactor import (
    ConvSpec,
    compose_forward,
    conv2d_reference,
    count_params_flops,
    cpd_als,
    emit_cpd_block,
    reconstruct_cp,
    reshape_kernel,
    restore_kernel,
)

rng = np.random.default_rng(5)

D, S, T, R = 3, 32, 32, 12
kernel4 = restore_kernel(
    reconstruct_cp(
        rng.standard_normal((D * D, R)),
        rng.standard_normal((S, R)),
        rng.standard_normal((T, R)),
    ),
    D,
)
spec = ConvSpec(S, T, D, stride=1, pad=1, bias=rng.standard_normal(T))

dense_params = kernel4.size + T
fit = cpd_als(reshape_kernel(kernel4), R, seed=0)
model, rel = fit.model, fit.rel_error
layers = emit_cpd_block(model, spec)
params, flops = count_params_flops(layers, (28, 28))
base_flops = 2 * 28 * 28 * S * D * D * T

print(f"dense layer : {dense_params} params, {base_flops} flops on 28x28")
print(f"CP block    : {params} params, {flops} flops "
      f"({dense_params / params:.2f}x fewer params, "
      f"{base_flops / flops:.2f}x fewer flops)")
print(f"fit quality : rel_error = {rel:.2e}\n")

print("layer chain:")
for i, layer in enumerate(layers):
    kh, kw = layer.kernel
    print(f"  {i}: {layer.in_channels:3d} -> {layer.out_channels:3d} "
          f"{kh}x{kw} groups={layer.groups} stride={layer.stride} "
          f"pad={layer.pad} weights={layer.weights.size}")

x = rng.standard_normal((28, 28, S))
dense_out = conv2d_reference(x, spec, kernel4)
chain_out = compose_forward(layers, x)
print(f"\nmax |dense - chain| on a random input: "
      f"{np.max(np.abs(dense_out - chain_out)):.2e}")
