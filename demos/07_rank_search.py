"""Binary search for the smallest acceptable decomposition rank.

The evaluator scores each candidate rank (here, with no command given:
the deterministic approximation-error proxy) and the search bisects for
the smallest rank whose score is within the threshold, using a
logarithmic number of evaluations.
"""

import numpy as np

from convfactor import Evaluator, binary_search_rank, reconstruct_cp

rng = np.random.default_rng(6)

TRUE_RANK = 6
tensor = reconstruct_cp(
    rng.standard_normal((9, TRUE_RANK)),
    rng.standard_normal((14, TRUE_RANK)),
    rng.standard_normal((12, TRUE_RANK)),
)

evaluator = Evaluator(eps=1e-8)
result = binary_search_rank(tensor, "cpd", evaluator, 1, 16)

print(f"true rank {TRUE_RANK}, search over [1, 16] with eps = {evaluator.eps}")
print(f"found rank {result.rank} (score {result.score:.2e}, met={result.met}) "
      f"in {result.n_evals} evaluations\n")

print("visited ranks and their scores:")
for rank in sorted(result.scores):
    marker = "<- chosen" if rank == result.rank else ""
    print(f"  R={rank:2d}  score={result.scores[rank]:.6e} {marker}")

loose = binary_search_rank(tensor, "cpd", Evaluator(eps=0.3), 1, 16)
print(f"\nwith a loose threshold (0.3) the search settles on rank {loose.rank}: "
      f"score {loose.score:.3f}")
