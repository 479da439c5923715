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

# every fit runs the same ALS: restart 0 from the SVD of each unfolding,
# and two random restarts (picked by the seed) only when restart 0 ran to
# its 1000-sweep cap or its error rose on the way; "stop" says why the
# returned restart ended: "tol" (converged), "cap", or "bound" (a fit with
# an error bound, cpd_als(..., delta=...), stops once inside it)
print("rank   rel_error      sweeps  stop")
for rank in (2, 3, 4, 5, 6):
    res = cpd_als(kernel3, rank, seed=0)
    print(f"{rank:4d}   {res.rel_error:.6e}  {res.n_iters:5d}  {res.stop}")

bounded = cpd_als(kernel3, 4, seed=0, delta=0.2 * np.linalg.norm(kernel3))
print(f"\nrank 4 within 20% of the kernel norm: rel_error {bounded.rel_error:.4f} "
      f"after {bounded.n_iters} sweeps (stop: {bounded.stop})")

res = cpd_als(kernel3, TRUE_RANK, seed=0)
model = res.model
magnitudes = np.prod([np.linalg.norm(f, axis=0) for f in (model.A, model.B, model.C)],
                     axis=0)
print(f"\nat the true rank the components come back balanced and sorted:")
print(f"  magnitudes ||a|| ||b|| ||c||: {magnitudes.round(3)}")
print(f"  per-sweep error is non-increasing: "
      f"{all(np.diff(res.rel_errors) <= 1e-12)}")
