"""Run one workload's job list through ``convfactor.cli.main`` in-process.

One client, one job at a time (a closed loop).  Passes over the job list
repeat until ``--seconds`` have elapsed; a pass that has started is
finished, and there is always at least one.  Each job writes into a fresh
output directory and every CLI result is checked.  The outcome of every
pass (per-job exit codes and quality figures) and its time are written as
JSON to ``--result``.  With ``--trace 1`` the layers are wrapped with
spans (see ``tracing.py``) and the per-layer metrics are added.

Usage (from the benchmark's run.py, which sets PYTHONPATH and the thread
counts)::

    python3 worker.py --workload W --kernels DIR --work DIR --seconds S \
        --trace 0 --result FILE
"""

import os

# pin BLAS and OpenMP to one thread before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# relative slack on "rel_error <= delta": verify prints 7 significant digits
DELTA_RTOL = 1e-6


def call_cli(cli, argv):
    """Run ``cli.main(argv)``; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejects an argument list
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a crash of the run
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Pass:
    """One pass over a job list: runs each job, checks it, records the outcome."""

    def __init__(self, cli, workload, kernel_dir, out_dir):
        self.cli = cli
        self.workload = workload
        self.kernel_dir = kernel_dir
        self.out_dir = out_dir
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outcome = []

    def _run(self, argv):
        code, out, err, seconds = call_cli(self.cli, argv)
        self.seconds += seconds
        self.attempted += 1
        return code, out, err

    def _fail(self, job_index, what, err=""):
        self.failed += 1
        self.problems.append(f"job {job_index}: {what} {err.strip()[-400:]}".strip())

    def run(self):
        for index, job in enumerate(self.workload["jobs"]):
            kernel = os.path.join(self.kernel_dir, f"{job['kernel']}.kten")
            if job["kind"] == "rank-search":
                self.outcome.append(self._rank_search(index, job, kernel))
            else:
                self.outcome.append(self._decompose(index, job, kernel))

    def _rank_search(self, index, job, kernel):
        code, out, err = self._run(["rank-search", "--input", kernel, *job["args"]])
        record = {"job": index, "code": code}
        if code != 0:
            self._fail(index, f"rank-search exited {code}", err)
            return record
        try:
            found = json.loads(out.strip().splitlines()[-1])
            record.update(rank=found["rank"], score=found["score"],
                          met=found["met"], evaluations=found["evaluations"])
        except (IndexError, ValueError, KeyError, TypeError):
            self._fail(index, "rank-search printed no JSON result", out)
            return record
        if not (record["met"] is True and record["score"] <= job["eps"]):
            self._fail(index, f"rank-search missed eps: {found}")
        return record

    def _decompose(self, index, job, kernel):
        record = {"job": index}
        args = list(job["args"])
        if "rank_from" in job:
            rank = self.outcome[job["rank_from"]].get("rank")
            if rank is None:
                self.attempted += 2
                self._fail(index, "no rank to decompose at: the search failed")
                self._fail(index, "verify skipped")
                return record
            args += ["--rank", str(rank)]
        # a fresh directory per job: a failed decompose must not leave verify
        # an older block.json to check
        out_dir = os.path.join(self.out_dir, f"job{index}")
        shutil.rmtree(out_dir, ignore_errors=True)
        code, out, err = self._run(
            ["decompose", "--input", kernel, *args, "--out", out_dir])
        record["code"] = code
        block_path = os.path.join(out_dir, "block.json")
        if code != 0 or not os.path.isfile(block_path):
            self.attempted += 1
            self._fail(index, f"decompose exited {code}", err)
            self._fail(index, "verify skipped")
            return record
        with open(block_path) as fh:
            metrics = json.load(fh)["metrics"]
        record.update(recorded_rel_error=metrics["rel_error"],
                      sensitivity=metrics["sensitivity"], params=metrics["params"],
                      flops=metrics["flops"])

        code, out, err = self._run(
            ["verify", "--block", block_path, "--input", kernel, *job["verify"]])
        record["verify_code"] = code
        if code != 0 or "verify: OK" not in out:
            self._fail(index, f"verify exited {code}", out + err)
            return record
        for line in out.splitlines():
            if line.startswith("rel_error: recomputed "):
                record["rel_error"] = float(line.split()[2].rstrip(","))
        if "rel_error" not in record:
            self._fail(index, "verify printed no recomputed rel_error", out)
        elif "delta" in job and \
                record["rel_error"] > job["delta"] * (1 + DELTA_RTOL):
            self._fail(index, f"rel_error {record['rel_error']} exceeds "
                              f"delta {job['delta']}")
        return record


def quality(workload, outcome):
    """End-to-end quality metrics of one pass (None where nothing was emitted).

    A search's error is its score at the chosen rank; a block's is the error
    ``verify`` recomputed.  A block built at a searched rank is kept out of
    ``rel_error_max`` and listed in ``delivered_rel_error`` (see README.md).
    """
    errors, delivered, log_ss, params, dense = [], [], [], 0, 0
    for job, record in zip(workload["jobs"], outcome):
        if "score" in record:
            errors.append(record["score"])
        if "rel_error" in record:
            (delivered if "rank_from" in job else errors).append(record["rel_error"])
            log_ss.append(math.log(record["sensitivity"]))
            spec = next(k for k in workload["kernels"] if k["name"] == job["kernel"])
            params += record["params"]
            dense += spec["d"] ** 2 * spec["channels"] ** 2
    return {
        "rel_error_max": max(errors) if errors else None,
        "sensitivity_gmean": math.exp(sum(log_ss) / len(log_ss)) if log_ss else None,
        "params_ratio": params / dense if dense else None,
        "delivered_rel_error": delivered,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="run one workload's job list")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--kernels", required=True, help="directory of KTEN inputs")
    parser.add_argument("--work", required=True, help="directory for job outputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    from convfactor import cli

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        run = Pass(cli, workload, args.kernels,
                   os.path.join(args.work, f"pass{len(passes)}"))
        root = tracer.open("pass") if tracer else None
        try:
            run.run()
        finally:
            if root is not None:
                tracer.close(root)
        passes.append({"seconds": run.seconds, "attempted": run.attempted,
                       "failed": run.failed, "problems": run.problems,
                       "outcome": run.outcome,
                       "quality": quality(workload, run.outcome)})
        shutil.rmtree(run.out_dir, ignore_errors=True)

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.dump(os.path.join(args.work, "spans.json"))
        result["trace_problems"] = tracer.problems()
        result["layers"] = layer_metrics(tracer.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
