"""Command-line interface.

Subcommands: ``decompose`` (factorize a kernel file into a block
directory), ``rank-search`` (binary search for the smallest acceptable
rank) and ``verify`` (check a block against its source kernel).

Exit codes: 0 success, 1 infeasible bound, invalid argument value or
invalid method/shape combination, 2 malformed or inconsistent input
files, 3 external evaluator contract violations.
"""

import argparse
import json
import sys

import numpy as np

from . import fileio
from .convblocks import ConvSpec, compose_forward, conv2d_reference, count_params_flops
from .convblocks import block_to_kernel
from .errors import TensorFileError
from .pipeline import METHODS, decompose_to_block
from .ranksearch import Evaluator, EvaluatorError, binary_search_rank
from .tensorops import reshape_kernel

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


def _load_kernel(path):
    kernel = fileio.read_tensor(path).astype(np.float64, copy=False)
    if kernel.ndim != 4 or kernel.shape[0] != kernel.shape[1]:
        raise TensorFileError(
            f"{path}: expected a D x D x S x T kernel, got shape {kernel.shape}"
        )
    if not np.isfinite(kernel).all():
        raise TensorFileError(f"{path}: kernel contains non-finite values")
    return kernel


def cmd_decompose(args):
    try:
        kernel = _load_kernel(args.input)
    except TensorFileError as e:
        return _fail(EXIT_BADFILE, e)
    tensor = reshape_kernel(kernel)
    try:
        spec = ConvSpec(
            in_channels=kernel.shape[2],
            out_channels=kernel.shape[3],
            kernel_size=kernel.shape[0],
            stride=args.stride,
            pad=args.pad,
        )
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
    except ValueError as e:  # InfeasibleBoundError is one
        return _fail(EXIT_INFEASIBLE, e)
    path = fileio.write_block(args.out, block)
    print(f"wrote {path}")
    print(f"method={report['method']} rank={report['rank']}", end="")
    if "ranks" in report:
        print(f" ranks={report['ranks']} merged={report['merged']}", end="")
    print()
    if "before" in report:
        b, a = report["before"], report["after"]
        print(
            f"before EPC: rel_error={b['rel_error']:.6e} "
            f"ss={b['sensitivity']:.6e} sn={b['intensity']:.6e}"
        )
        print(
            f"after  EPC: rel_error={a['rel_error']:.6e} "
            f"ss={a['sensitivity']:.6e} sn={a['intensity']:.6e}"
        )
    m = block.metrics
    print(
        f"rel_error={m['rel_error']:.6e} ss={m['sensitivity']:.6e} "
        f"sn={m['intensity']:.6e} params={m['params']} flops={m['flops']}"
    )
    return EXIT_OK


def cmd_rank_search(args):
    try:
        kernel = _load_kernel(args.input)
    except TensorFileError as e:
        return _fail(EXIT_BADFILE, e)
    tensor = reshape_kernel(kernel)
    d2, s, t = tensor.shape
    r_min = args.rmin
    r_max = args.rmax if args.rmax is not None else min(d2 * s, d2 * t, s * t)
    kind = "external-command" if args.evaluator else "approx-error"
    try:
        evaluator = Evaluator(kind=kind, eps=args.eps, command=args.evaluator)
        spec = ConvSpec(
            in_channels=s, out_channels=t, kernel_size=kernel.shape[0],
            stride=args.stride, pad=args.pad,
        )
        result = binary_search_rank(
            tensor,
            args.method,
            evaluator,
            r_min,
            r_max,
            seed=args.seed,
            ranks=args.ranks,
            theta=args.theta,
            kernel_path=args.input,
            conv_spec=spec,
        )
    except EvaluatorError as e:
        print(f"error: {e}", file=sys.stderr)
        if e.captured:
            print(f"captured output:\n{e.captured}", file=sys.stderr)
        return EXIT_EVALUATOR
    except ValueError as e:  # InfeasibleBoundError is one
        return _fail(EXIT_INFEASIBLE, e)
    if args.json:
        print(
            json.dumps(
                {
                    "rank": result.rank,
                    "score": result.score,
                    "met": result.met,
                    "evaluations": result.n_evals,
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
    try:
        block = fileio.read_block(args.block)
        kernel = _load_kernel(args.input)
    except TensorFileError as e:
        return _fail(EXIT_BADFILE, e)

    try:
        params, flops = count_params_flops(
            block.layers, block.metrics.get("input_hw", (56, 56))
        )
        equivalent = block_to_kernel(block.layers, block.kind)
    except ValueError as e:
        return _fail(EXIT_BADFILE, e)
    if equivalent.shape != kernel.shape:
        return _fail(
            EXIT_BADFILE,
            f"block realizes kernel shape {equivalent.shape}, "
            f"input has {kernel.shape}",
        )

    failures = []
    if params != block.metrics.get("params"):
        failures.append(
            f"params mismatch: recomputed {params}, recorded "
            f"{block.metrics.get('params')}"
        )
    if flops != block.metrics.get("flops"):
        failures.append(
            f"flops mismatch: recomputed {flops}, recorded "
            f"{block.metrics.get('flops')}"
        )

    norm_k = np.linalg.norm(kernel)
    rel = float(np.linalg.norm(equivalent - kernel) / norm_k) if norm_k else 0.0
    recorded = block.metrics.get("rel_error", 0.0)
    print(f"rel_error: recomputed {rel:.6e}, recorded {recorded:.6e}")
    if abs(rel - recorded) > 1e-8 + 1e-6 * max(recorded, 1e-30):
        failures.append("reconstruction error inconsistent with recorded rel_error")

    spec = block.spec
    bias = block.layers[-1].bias
    ref_spec = ConvSpec(
        in_channels=spec.in_channels,
        out_channels=spec.out_channels,
        kernel_size=spec.kernel_size,
        stride=spec.stride,
        pad=spec.pad,
        bias=bias,
    )
    h, w = args.hw
    max_dev = 0.0
    try:  # a negative --seed, or an --hw the kernel does not fit
        rng = np.random.default_rng(args.seed)
        for _ in range(args.trials):
            x = rng.standard_normal((h, w, spec.in_channels))
            ref = conv2d_reference(x, ref_spec, equivalent)
            got = compose_forward(block.layers, x)
            dev = float(np.linalg.norm(got - ref) / (1.0 + np.linalg.norm(x)))
            max_dev = max(max_dev, dev)
    except ValueError as e:
        return _fail(EXIT_INFEASIBLE, e)
    print(f"trials: {args.trials}, max forward deviation: {max_dev:.6e}")
    if args.trials and max_dev > 1e-8:
        failures.append(f"forward deviation {max_dev:.3e} exceeds 1e-8")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    print("verify: " + ("OK" if not failures else "FAILED"))
    return EXIT_OK if not failures else EXIT_INFEASIBLE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convfactor",
        description="Factorize convolution kernels into stable low-rank blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="factorize a kernel file into a block")
    p.add_argument("--input", required=True, help="kernel tensor file (D x D x S x T)")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--ranks", type=lambda s: _parse_pair(s, "--ranks"),
                   default=None, help="fixed multilinear ranks R1,R2")
    p.add_argument("--delta", type=float, default=None,
                   help="error bound as a fraction of the kernel norm")
    p.add_argument("--theta", type=float, default=0.5,
                   help="share of the squared budget for the Tucker stage")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--pad", type=int, default=0)
    p.add_argument("--hw", type=lambda s: _parse_pair(s, "--hw"), default=(56, 56),
                   help="input H,W used for the FLOPs metric")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("rank-search", help="find the smallest acceptable rank")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--eps", type=float, required=True,
                   help="score threshold the chosen rank must meet")
    p.add_argument("--evaluator", default=None,
                   help="external command scoring (block.json, kernel.kten)")
    p.add_argument("--rmin", type=int, default=1)
    p.add_argument("--rmax", type=int, default=None)
    p.add_argument("--ranks", type=lambda s: _parse_pair(s, "--ranks"), default=None)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--pad", type=int, default=0)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
