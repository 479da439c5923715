"""Command-line interface.

Subcommands: ``decompose`` (factorize a kernel file into a block
directory), ``rank-search`` (binary search for the smallest acceptable
rank) and ``verify`` (check a block against its source kernel).

Exit codes: 0 success, 1 infeasible bound, usage error or invalid
argument value (a rank too large to allocate, an ``--eps`` that is not
positive and finite, or a kernel norm out of range or overflowing
included), invalid method/shape combination or an output that cannot be
written, 2 malformed or inconsistent input files (NaN or inf in a kernel,
and a block's weights or bias with NaN or inf or a norm outside the
kernel norm range, included), 3
external evaluator contract violations (an evaluator must print one
finite decimal score).  The commands raise; :func:`main` alone maps an
exception to its exit code.  Every command checks a kernel by one norm
over the whole kernel: only a norm that is not finite makes
``np.isfinite`` scan it, to tell exit 2 from exit 1.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import fileio
from .convblocks import ConvSpec, _out_hw, block_basis, block_factors, block_metrics
from .convblocks import compose_forward, conv2d_reference
# not used here: the benchmark's span tracer (benchmarks/tracing.py) wraps this name
from .convblocks import block_to_kernel  # noqa: F401
from .cpd import rel_error
from .errors import TensorFileError
from .pipeline import METHODS, decompose_to_block
from .ranksearch import Evaluator, EvaluatorError, binary_search_rank
from .tensorops import _finite_norm, reshape_kernel

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_BADFILE = 2
EXIT_EVALUATOR = 3


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_pair(text, what):
    try:
        a, b = (int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be two comma-separated ints")
    return a, b


def _differs(value, recorded):
    """True when a recomputed metric disagrees with its recorded value.

    An integer must be recorded as an equal JSON integer, a float within
    1e-8 + 1e-6 relative; a missing, non-numeric or non-finite one never agrees.
    """
    if type(recorded) not in (int, float):
        return True
    if type(value) is int:
        return type(recorded) is not int or value != recorded
    try:
        recorded = float(recorded)
    except OverflowError:  # an integer beyond the float range
        return True
    return not (math.isfinite(recorded)
                and abs(value - recorded) <= 1e-8 + 1e-6 * max(recorded, 1e-30))


def _check_kernel_shape(path, shape):
    if len(shape) != 4 or shape[0] != shape[1]:
        raise TensorFileError(
            f"{path}: expected a D x D x S x T kernel, got shape {shape}")


def _finite(path, check, kernel):
    """`check()`, a check that takes the kernel's norm in one pass and raises
    ValueError when that norm is not finite, or is out of range.  Only a
    failed check calls `kernel()`, which draws the kernel's taps again, for
    ``np.isfinite`` to tell a non-finite entry (TensorFileError, exit 2) from
    a norm that overflows (ValueError, exit 1)."""
    try:
        return check()
    except ValueError:
        if not all(np.isfinite(tap).all() for tap in kernel()):
            raise TensorFileError(
                f"{path}: kernel contains non-finite values") from None
        raise


def _kernel_taps(path, shape):
    """The kernel file's (S, T) taps as float64, drawn one at a time, once
    its shape is checked to be `shape`."""
    found, taps = fileio.read_tensor_matrices(path)
    _check_kernel_shape(path, found)
    if found != shape:
        raise TensorFileError(f"{path}: kernel shape {found}, the block's spec {shape}")
    return (tap.astype(np.float64, copy=False) for tap in taps)


def _load_tensor_and_spec(args):
    """The ``--input`` kernel as a checked (D^2, S, T) tensor, the
    ``_Checked`` pair of :func:`~convfactor.tensorops._finite_norm`, and its
    ConvSpec."""
    kernel = fileio.read_tensor(args.input)
    _check_kernel_shape(args.input, kernel.shape)
    tensor = reshape_kernel(kernel)
    checked = _finite(args.input, lambda: _finite_norm(tensor), lambda: tensor)
    d, _, s, t = kernel.shape
    spec = ConvSpec(in_channels=s, out_channels=t, kernel_size=d,
                    stride=args.stride, pad=args.pad)
    return checked, spec


def cmd_decompose(args):
    tensor, spec = _load_tensor_and_spec(args)
    block, report = decompose_to_block(
        tensor,
        args.method,
        args.rank,
        spec,
        seed=args.seed,
        ranks=args.ranks,
        theta=args.theta,
        delta_rel=args.delta,
        input_hw=args.hw,
    )
    path = fileio.write_block(args.out, block)
    print(f"wrote {path}")
    print(f"method={report['method']} rank={report['rank']}", end="")
    if "ranks" in report:
        print(f" ranks={report['ranks']} merged={report['merged']}", end="")
    print()
    m = block.metrics
    if "before" in report:
        for label, d in (("before", report["before"]), ("after ", m)):
            print(f"{label} EPC: rel_error={d['rel_error']:.6e} "
                  f"ss={d['sensitivity']:.6e} sn={d['intensity']:.6e}")
    print(
        f"rel_error={m['rel_error']:.6e} ss={m['sensitivity']:.6e} "
        f"sn={m['intensity']:.6e} params={m['params']} flops={m['flops']}"
    )
    return EXIT_OK


def cmd_rank_search(args):
    # ValueError for a bad --eps or --evaluator, before any file is read
    evaluator = Evaluator(eps=args.eps, command=args.evaluator)
    checked, spec = _load_tensor_and_spec(args)
    result = binary_search_rank(
        checked,
        args.method,
        evaluator,
        args.rmin,
        args.rmax,
        seed=args.seed,
        ranks=args.ranks,
        kernel_path=args.input,
        conv_spec=spec,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "rank": result.rank,
                    "score": result.score,
                    "met": result.met,
                    "evaluations": result.n_evals,
                    "floor": result.floor,
                    "eps": args.eps,
                }
            )
        )
    else:
        print(
            f"rank={result.rank} score={result.score:.6e} "
            f"evaluations={result.n_evals} met={result.met}"
        )
    return EXIT_OK


def cmd_verify(args):
    """Check a block against its source kernel.

    Recomputes every recorded metric, ``rel_error`` from the kernel's taps
    read one at a time, then compares the layer chain with the block's conv
    on `--trials` random `--hw` inputs.  The reference conv runs in the
    block's factor basis (:func:`~convfactor.convblocks.block_basis`):
    ``conv2d_reference(x @ Q_B, G) @ Q_Cᵀ + bias``.  So no kernel-sized
    array is held: neither the kernel read nor the kernel the block
    realizes.  A trial fails when the chain's output deviates from the
    reference by more than 1e-8 of its norm.  A chain whose output size at
    `--hw` is not the block conv's fails before any trial.
    """
    # ValueError for a negative --trials or --seed, before any file is read
    if args.trials < 0:
        raise ValueError("trials must be >= 0")
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    block = fileio.read_block(args.block)
    spec = block.spec
    h, w = args.hw
    # ValueError for an --hw the layer chain cannot take, before the kernel is read
    chain_hw = args.hw
    for layer in block.layers:
        chain_hw = _out_hw(*chain_hw, *layer.kernel, layer.stride, layer.pad)
    d = spec.kernel_size
    conv_hw = _out_hw(h, w, d, d, spec.stride, spec.pad)
    shape = (d, d, spec.in_channels, spec.out_channels)
    taps = _kernel_taps(args.input, shape)
    factors = block_factors(block.layers, block.kind)
    # the norm rel_error sums is the kernel's one check, as in decompose
    rel = _finite(args.input, lambda: rel_error(taps, factors),
                  lambda: _kernel_taps(args.input, shape))
    metrics = block_metrics(block.layers, block.kind, block.metrics["input_hw"])
    recorded = block.metrics.get("rel_error")
    shown = f"{recorded:.6e}" if type(recorded) is float else recorded
    print(f"rel_error: recomputed {rel:.6e}, recorded {shown}")
    failures = [
        f"{key} mismatch: recomputed {value}, recorded {block.metrics.get(key)}"
        for key, value in {"rel_error": rel, **metrics}.items()
        if key != "input_hw" and _differs(value, block.metrics.get(key))
    ]

    if chain_hw != conv_hw:
        failures.append(
            f"layer chain output {chain_hw[0]}x{chain_hw[1]} on a {h}x{w} input, "
            f"the block's conv {conv_hw[0]}x{conv_hw[1]}"
        )
    else:
        q_b, core, q_c = block_basis(block.layers, block.kind)
        core_spec = ConvSpec(q_b.shape[1], q_c.shape[1], d, stride=spec.stride,
                             pad=spec.pad)
        bias = block.layers[-1].bias
        max_dev = 0.0
        rng = np.random.default_rng(args.seed)
        for _ in range(args.trials):
            x = rng.standard_normal((h, w, spec.in_channels))
            ref = conv2d_reference(x @ q_b, core_spec, core) @ q_c.T
            if bias is not None:
                ref += bias
            got = compose_forward(block.layers, x)
            size = max(float(np.linalg.norm(ref)), 1e-300)  # a zero reference too
            max_dev = max(max_dev, float(np.linalg.norm(got - ref)) / size)
        print(f"trials: {args.trials}, max forward deviation: {max_dev:.6e}")
        if args.trials and max_dev > 1e-8:
            failures.append(f"forward deviation {max_dev:.3e} exceeds 1e-8")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    print("verify: " + ("OK" if not failures else "FAILED"))
    return EXIT_OK if not failures else EXIT_INFEASIBLE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as an invalid argument
    value does, where argparse exits 2, the code of a malformed file."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INFEASIBLE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="convfactor",
        description="Factorize convolution kernels into stable low-rank blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments decompose and rank-search share
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--input", required=True,
                     help="kernel tensor file (D x D x S x T)")
    fit.add_argument("--method", required=True, choices=METHODS)
    fit.add_argument("--ranks", type=lambda s: _parse_pair(s, "--ranks"),
                     default=None, help="fixed multilinear ranks R1,R2")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--stride", type=int, default=1)
    fit.add_argument("--pad", type=int, default=0)

    p = sub.add_parser("decompose", parents=[fit],
                       help="factorize a kernel file into a block")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--theta", type=float, default=None,
                   help="the Tucker stage's budget share (free ranks; default 0.5)")
    p.add_argument("--delta", type=float, default=None,
                   help="error bound as a fraction of the kernel norm")
    p.add_argument("--hw", type=lambda s: _parse_pair(s, "--hw"), default=(56, 56),
                   help="input H,W used for the FLOPs metric")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("rank-search", parents=[fit],
                       help="find the smallest acceptable rank")
    p.add_argument("--eps", type=float, required=True,
                   help="score threshold the chosen rank must meet")
    p.add_argument("--evaluator", default=None,
                   help="external command scoring (block.json, kernel.kten)")
    p.add_argument("--rmin", type=int, default=1)
    p.add_argument("--rmax", type=int, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_rank_search)

    p = sub.add_parser("verify", help="check a block against its source kernel")
    p.add_argument("--block", required=True, help="block.json path")
    p.add_argument("--input", required=True, help="original kernel tensor file")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hw", type=lambda s: _parse_pair(s, "--hw"), default=(16, 16),
                   help="input H,W for the forward trials")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvaluatorError as e:
        code = _fail(EXIT_EVALUATOR, e)
        if e.captured:
            print(f"captured output:\n{e.captured}", file=sys.stderr)
        return code
    except TensorFileError as e:
        return _fail(EXIT_BADFILE, e)
    # InfeasibleBoundError is a ValueError; a MemoryError is an array too large
    # to allocate, as a huge --rank or --rmax asks for
    except (ValueError, OSError, MemoryError) as e:
        return _fail(EXIT_INFEASIBLE, e)


if __name__ == "__main__":
    sys.exit(main())
