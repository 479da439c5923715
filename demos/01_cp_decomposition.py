"""CP decomposition of a reshaped convolution kernel by ALS.

A D x D x S x T kernel is treated as an order-3 tensor of shape
(D^2, S, T) and approximated by a sum of R rank-1 tensors.  This script
builds a kernel with known rank, recovers it, and shows how the error
falls with the rank.
"""

import numpy as np

from convfactor import cpd_als, reconstruct_cp, reshape_kernel, restore_kernel

rng = np.random.default_rng(0)

D, S, T, TRUE_RANK = 3, 16, 12, 5
kernel3 = reconstruct_cp(
    rng.standard_normal((D * D, TRUE_RANK)),
    rng.standard_normal((S, TRUE_RANK)),
    rng.standard_normal((T, TRUE_RANK)),
)
kernel4 = restore_kernel(kernel3, D)
print(f"kernel: {kernel4.shape} with exact CP rank {TRUE_RANK}")
print(f"order-3 view for decomposition: {reshape_kernel(kernel4).shape}\n")

# every fit runs the same ALS: 3 restarts (the first from the SVD of each
# unfolding) of at most 1000 sweeps; the seed picks the random restarts
print("rank   rel_error      sweeps")
for rank in (2, 3, 4, 5, 6):
    res = cpd_als(kernel3, rank, seed=0)
    print(f"{rank:4d}   {res.rel_error:.6e}  {res.n_iters:5d}")

res = cpd_als(kernel3, TRUE_RANK, seed=0)
model = res.model
magnitudes = np.prod([np.linalg.norm(f, axis=0) for f in (model.A, model.B, model.C)],
                     axis=0)
print(f"\nat the true rank the components come back balanced and sorted:")
print(f"  magnitudes ||a|| ||b|| ||c||: {magnitudes.round(3)}")
print(f"  per-sweep error is non-increasing: "
      f"{all(np.diff(res.rel_errors) <= 1e-12)}")
