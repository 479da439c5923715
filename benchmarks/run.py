"""convfactor benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload cpd-epc-128 --seed 1 --seconds 25 --trace 0

Set-up generates the workload's kernels from the seed as KTEN files, in a
fresh interpreter that also imports the package; it runs SETUP_REPEATS
times and ``setup_s`` is the median.  Then a fresh worker process drives
``convfactor.cli.main`` over the job list for ``--seconds`` (see
worker.py) with every BLAS/OpenMP pool pinned to one thread.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass, each in its own process, checks that they
agree, and reports the per-layer metrics.  Every metric is printed by name
with its unit, then the last line is the JSON result.  See README.md.
"""

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# the run must end within 180 s; leave room for reporting and clean-up
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(BENCH_DIR), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, deadline):
    """Run a Python child to completion; returns its wall time in seconds."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out: {argv[0]}") from None
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return seconds


def setup(workload, seed, kernel_dir, deadline):
    """Generate the kernels SETUP_REPEATS times; returns the median seconds."""
    times = [
        run_child([str(BENCH_DIR / "kernels.py"), "--workload", workload,
                   "--seed", str(seed), "--out", str(kernel_dir)],
                  deadline)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(times)


def run_worker(workload, kernel_dir, work_dir, seconds, trace, deadline):
    result_path = work_dir / f"result-trace{trace}.json"
    run_child([str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--kernels", str(kernel_dir), "--work", str(work_dir),
               "--seconds", str(seconds), "--trace", str(trace),
               "--result", str(result_path)], deadline)
    with open(result_path) as fh:
        return json.load(fh)


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def check_passes(passes, problems):
    """Every pass must reproduce the first pass's outcome exactly."""
    first = passes[0]["outcome"]
    for i, p in enumerate(passes[1:], start=1):
        if p["outcome"] != first:
            problems.append(f"pass {i} outcome differs from pass 0")
    for p in passes:
        problems.extend(p["problems"])


def measure(args, kernel_dir, work_dir, deadline):
    """Returns (metrics {name: (value, unit)}, attempted, failed, problems)."""
    problems = []
    if not args.trace:
        res = run_worker(args.workload, kernel_dir, work_dir, args.seconds, 0,
                         deadline)
        passes = res["passes"]
        check_passes(passes, problems)
        quality = passes[0]["quality"]
        delivered = quality.pop("delivered_rel_error")
        for name, value in quality.items():
            if value is None:
                problems.append(f"{name}: nothing to measure (a job failed)")
        if delivered:
            print("rel_error delivered at the searched rank (not in rel_error_max): "
                  + ", ".join(f"{e:.6g}" for e in delivered))
        metrics = {
            "wall_s": (statistics.median(p["seconds"] for p in passes), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "rel_error_max": (quality["rel_error_max"] or 0.0, "1"),
            "sensitivity_gmean": (quality["sensitivity_gmean"] or 0.0, "1"),
            "params_ratio": (quality["params_ratio"] or 0.0, "1"),
        }
        print(f"passes: {len(passes)}, wall_s per pass: "
              + ", ".join(f"{p['seconds']:.3f}" for p in passes))
    else:
        plain = run_worker(args.workload, kernel_dir, work_dir, 0, 0, deadline)
        traced = run_worker(args.workload, kernel_dir, work_dir, 0, 1, deadline)
        passes = plain["passes"] + traced["passes"]
        check_passes(passes, problems)
        problems.extend(traced["trace_problems"])
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["trace_overhead"] = (
            traced["passes"][0]["seconds"] / plain["passes"][0]["seconds"], "1")
        # only the latest traced run of each workload is kept
        spans = work_dir.parent / f"spans-{args.workload}.json"
        shutil.copyfile(work_dir / "spans.json", spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return metrics, attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="convfactor benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the job list repeats (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "convfactor" / "cli.py").is_file():
        print(f"error: no convfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work_dir = BENCH_DIR / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    kernel_dir = work_dir / "kernels"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setup_s = setup(args.workload, args.seed, kernel_dir, deadline)
        metrics, attempted, failed, problems = measure(
            args, kernel_dir, work_dir, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"), **metrics}

    print("environment: " + json.dumps(environment()))
    for problem in problems:
        print(f"FAIL: {problem}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_ratio {failed / max(attempted, 1):.6g})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
