"""Error-preserving correction of a degenerate CP model.

Starting from a decomposition with two canceling components whose norms
are ~100x the data, the correction minimizes sensitivity subject to
keeping the approximation error within its original value.  The trace
shows the error pinned at the bound while sensitivity collapses.
"""

import numpy as np

from convfactor import CPModel, epc_correct, intensity, sensitivity

rng = np.random.default_rng(2)

dims = (9, 12, 10)
vecs = [rng.standard_normal(n) for n in dims]
a, b, c = [v / np.linalg.norm(v) for v in vecs]
noise = rng.standard_normal(dims)
noise /= np.linalg.norm(noise)
tensor = np.einsum("i,j,k->ijk", a, b, c) + 0.01 * noise

eps = 0.005  # component scale ~ 1/(2*eps) = 100
start = CPModel(
    np.stack([(1 + eps) / (2 * eps) * a, -(1 - eps) / (2 * eps) * a], axis=1),
    np.stack([b, b], axis=1),
    np.stack([c, c], axis=1),
)
err0 = np.linalg.norm(tensor - start.to_tensor())
print(f"start: error {err0:.4e}, sensitivity {sensitivity(start):.4e}, "
      f"intensity {intensity(start):.4e}")

corrected, trace = epc_correct(tensor, start, delta=err0)

print("\nsweep   error         sensitivity")
for i, rec in enumerate(trace):
    print(f"{i:5d}   {rec['error']:.6e}  {rec['ss']:.6e}")

err1 = np.linalg.norm(tensor - corrected.to_tensor())
print(f"\ncorrected: error {err1:.4e} (bound {err0:.4e}), "
      f"sensitivity {sensitivity(corrected):.4e}, "
      f"intensity {intensity(corrected):.4e}")
print(f"sensitivity reduced {sensitivity(start) / sensitivity(corrected):.0f}x "
      f"with the error preserved")
