"""The hybrid pipeline: Tucker-2 compression around a corrected CP core.

A total error budget splits between the Tucker stage and the CP fit of
the core; orthonormal Tucker factors make the two stage errors add like
orthogonal components.  When the CP rank undercuts both multilinear
ranks the five-layer form should be merged back into a plain CP block.
"""

import numpy as np

from convfactor import (
    core_closed_form,
    reconstruct_cp,
    should_merge,
    tkd_cpd_epc,
    to_equivalent_cp,
)

rng = np.random.default_rng(4)

# structured kernel tensor: multilinear ranks (4, 4), core rank 5, 5% noise
d2, s, t = 9, 24, 20
core = reconstruct_cp(
    rng.standard_normal((d2, 5)),
    rng.standard_normal((4, 5)),
    rng.standard_normal((4, 5)),
)
u, _ = np.linalg.qr(rng.standard_normal((s, 4)))
v, _ = np.linalg.qr(rng.standard_normal((t, 4)))
tensor = u @ core @ v.T
bump = rng.standard_normal(tensor.shape)
tensor += 0.05 * np.linalg.norm(tensor) * bump / np.linalg.norm(bump)
norm = np.linalg.norm(tensor)

budget = 0.2 * norm
model = tkd_cpd_epc(tensor, budget, rank=5, theta=0.5)
print(f"budget 0.2||t||, theta=0.5 -> ranks (R1, R2, R) = {model.ranks}")

g = core_closed_form(tensor, model.U, model.V)
tkd_recon = model.U @ g @ model.V.T
err_tkd2 = np.sum((tensor - tkd_recon) ** 2)
err_core2 = np.sum((g - model.core_cp.to_tensor()) ** 2)
err_total2 = np.sum((tensor - model.to_tensor()) ** 2)
print(f"stage errors: tkd {np.sqrt(err_tkd2)/norm:.4f}, "
      f"core {np.sqrt(err_core2)/norm:.4f}, total {np.sqrt(err_total2)/norm:.4f}")
print(f"Pythagorean gap |total^2 - tkd^2 - core^2| / ||t||^2 = "
      f"{abs(err_total2 - err_tkd2 - err_core2) / norm**2:.2e}\n")

print(f"five-layer parameter count: {model.param_count()}")
flat = to_equivalent_cp(model)
print(f"merged three-layer count:   {flat.A.size + flat.B.size + flat.C.size}")
print(f"merge recommended for ranks {model.ranks}: {should_merge(model.ranks)}")
print(f"(merging is exact: reconstruction gap "
      f"{np.max(np.abs(flat.to_tensor() - model.to_tensor())):.2e})")
