"""Binary search for the smallest rank meeting a quality threshold.

The quality score of a candidate rank comes from an evaluator: either the
built-in approximation-error proxy (the relative Frobenius error that
``decompose`` delivers at that rank, deterministic for a fixed seed) or an
external command that receives an emitted block descriptor and the
original kernel file and prints a score.  Scores are assumed
non-increasing in rank; with a non-monotone evaluator the search still
terminates but the result is only a heuristic.
"""

import math
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import fileio
# not used here: the benchmark's span tracer (benchmarks/tracing.py) wraps these names
from .cpd import cpd_als  # noqa: F401
from .epc import epc_correct  # noqa: F401
from .pipeline import decompose_to_block, fit
from .tensorops import _finite_norm

__all__ = [
    "Evaluator",
    "EvaluatorError",
    "RankSearchResult",
    "binary_search_rank",
    "approx_error_proxy",
]


class EvaluatorError(RuntimeError):
    """External evaluator broke its contract (bad exit or output)."""

    def __init__(self, message, captured=None):
        super().__init__(message)
        self.captured = captured


@dataclass
class Evaluator:
    """Scoring hook for the rank search.

    A rank qualifies when its score is at most `eps`, which must be
    positive and finite.  Without a `command` (None or "") the score is
    :func:`approx_error_proxy`; otherwise `command` is invoked as
    ``command <block.json> <kernel.kten>`` and prints one finite decimal
    score.
    """

    eps: float = 1e-3
    command: str | None = None

    def __post_init__(self):
        if not 0 < self.eps < math.inf:  # rejects NaN
            raise ValueError("eps must be positive and finite")


@dataclass
class RankSearchResult:
    rank: int
    score: float
    met: bool
    n_evals: int
    scores: dict = field(repr=False, default_factory=dict)


def _search_ranks(tensor, method, ranks):
    """The hybrid's multilinear ranks, held fixed so that the CP rank is the
    only variable: ``ranks`` if given, else the full (S, T)."""
    if method == "tkd-cpd-epc" and ranks is None:
        return tuple(np.shape(tensor)[1:])
    return ranks


def approx_error_proxy(tensor, method, rank, seed=0, ranks=None):
    """Relative error ``decompose`` delivers for `method` at `rank` (fixed seed).

    A desk-scale stand-in for a task-level quality drop: the error of
    :func:`convfactor.pipeline.fit` with the same seed, EPC
    error-preserving.  For the hybrid method the multilinear ranks are
    fixed (``ranks``, defaulting to the full (S, T)).
    """
    _, report = fit(tensor, method, rank, seed=seed,
                    ranks=_search_ranks(tensor, method, ranks))
    return report["rel_error"]


def _external_score(command, rank, tensor, method, seed, ranks, kernel_path, conv_spec):
    """Emit a block for `rank` into a scratch dir and run the command."""
    workdir = tempfile.mkdtemp(prefix="convfactor-ranksearch-")
    try:
        block, _ = decompose_to_block(tensor, method, rank, conv_spec, seed=seed,
                                      ranks=ranks)
        block_path = fileio.write_block(workdir, block)
        try:
            proc = subprocess.run(
                [*command.split(), str(block_path), str(kernel_path)],
                capture_output=True,
                text=True,
            )
        except OSError as e:  # a missing or non-executable program
            raise EvaluatorError(f"evaluator could not be started: {e}") from None
        if proc.returncode != 0:
            raise EvaluatorError(
                f"evaluator exited with status {proc.returncode}",
                captured=proc.stderr or proc.stdout,
            )
        try:
            score = float(proc.stdout.strip().split()[-1])
        except (ValueError, IndexError):
            score = math.nan
        if not math.isfinite(score):
            raise EvaluatorError(
                "evaluator printed no finite decimal score", captured=proc.stdout)
        return score
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def binary_search_rank(tensor, method, evaluator, r_min, r_max=None, seed=0,
                       ranks=None, kernel_path=None, conv_spec=None):
    """Smallest rank in [r_min, r_max] whose score is <= evaluator.eps.

    `r_max` defaults to the largest CP rank the searched (D^2, R1, R2)
    tensor can need, ``min(D^2 R1, D^2 R2, R1 R2)``, with (R1, R2) the
    hybrid's fixed multilinear ranks, else (S, T).  Uses bisection with
    memoized scores, so the evaluator runs at most
    ``ceil(log2(r_max - r_min + 1)) + 1`` times.  If no rank qualifies the
    result carries ``met=False`` and ``rank=r_max``.  `tensor` is checked
    once, and every evaluation gets the checked pair.
    """
    checked = _finite_norm(tensor)
    ranks = _search_ranks(checked.tensor, method, ranks)
    if r_max is None:
        d2, s, t = checked.tensor.shape
        r1, r2 = ranks or (s, t)
        r_max = min(d2 * r1, d2 * r2, r1 * r2)
    if r_min < 1 or r_min > r_max:
        raise ValueError(f"need 1 <= r_min <= r_max, got [{r_min}, {r_max}]")
    if evaluator.command and (kernel_path is None or conv_spec is None):
        raise ValueError("an evaluator command needs kernel_path and conv_spec")

    scores = {}

    def score(rank):
        if rank not in scores:
            if evaluator.command:
                scores[rank] = _external_score(
                    evaluator.command, rank, checked, method, seed, ranks,
                    kernel_path, conv_spec,
                )
            else:
                scores[rank] = approx_error_proxy(checked, method, rank, seed=seed,
                                                  ranks=ranks)
        return scores[rank]

    lo, hi = r_min, r_max
    while lo < hi:
        mid = (lo + hi) // 2
        if score(mid) <= evaluator.eps:
            hi = mid
        else:
            lo = mid + 1
    final = float(score(lo))
    met = bool(final <= evaluator.eps)
    budget = math.ceil(math.log2(r_max - r_min + 1)) + 1 if r_max > r_min else 2
    assert len(scores) <= budget, "evaluation budget exceeded"
    return RankSearchResult(int(lo), final, met, len(scores), scores)
