"""Seeded synthetic conv kernels for the benchmark, written as KTEN files.

Two families, both built in the order-3 layout (D*D, S, T) and stored as
D x D x S x T kernels:

* ``cp``: a CP model of rank R with unit-norm Gaussian factors (optionally
  orthonormal in the two channel modes) and weights decaying geometrically
  (``decay**r``), plus Gaussian noise;
* ``tucker2``: orthonormal U (S x R1) and V (T x R2) around a CP core
  (D*D x R1 x R2) of the ``cp`` family, plus Gaussian noise.

Noise is scaled to a fixed share of the clean kernel's Frobenius norm.  The
generator does not use the package under test: the program sees only the
files.  ``run.py`` runs it with ``src/`` on PYTHONPATH, because set-up also
times the package's import; ``python3 kernels.py --help`` shows the options.
"""

import argparse
import importlib
import json
import os

import numpy as np

MAGIC = b"KTEN1\n"


def write_kten(path, array):
    """Write a float64 array in the KTEN1 format (magic, JSON header, payload)."""
    array = np.ascontiguousarray(array, dtype="<f8")
    header = json.dumps({"dtype": "f64", "shape": list(array.shape), "order": "C"})
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC + header.encode() + b"\n" + array.tobytes())
    os.replace(tmp, path)


def _unit_columns(rng, rows, cols):
    m = rng.standard_normal((rows, cols))
    return m / np.linalg.norm(m, axis=0)


def cp_tensor(rng, dims, rank, decay, orthogonal=False):
    """Order-3 CP tensor with unit factor columns and weights decay**r.

    With ``orthogonal`` the two channel factors get orthonormal columns, so
    fits below the true rank converge alike whatever the seed.
    """
    a, b, c = (_unit_columns(rng, n, rank) for n in dims)
    if orthogonal:
        b, c = np.linalg.qr(b)[0], np.linalg.qr(c)[0]
    weights = decay ** np.arange(rank)
    return np.einsum("ir,jr,kr->ijk", a * weights, b, c)


def tucker2_tensor(rng, d2, s, t, ranks, core_rank, decay):
    """Tucker-2 tensor: a CP core of shape (d2, R1, R2) times U and V."""
    r1, r2 = ranks
    core = cp_tensor(rng, (d2, r1, r2), core_rank, decay)
    u, _ = np.linalg.qr(rng.standard_normal((s, r1)))
    v, _ = np.linalg.qr(rng.standard_normal((t, r2)))
    return u @ core @ v.T


def make_kernel(spec, seed):
    """D x D x S x T kernel for one kernel spec (a dict, see workloads.py)."""
    rng = np.random.default_rng(seed)
    d, s, t = spec["d"], spec["channels"], spec["channels"]
    if spec["family"] == "cp":
        clean = cp_tensor(rng, (d * d, s, t), spec["rank"], spec["decay"],
                          spec.get("orthogonal", False))
    elif spec["family"] == "tucker2":
        clean = tucker2_tensor(
            rng, d * d, s, t, spec["ranks"], spec["rank"], spec["decay"]
        )
    else:
        raise ValueError(f"unknown kernel family {spec['family']!r}")
    noise = rng.standard_normal(clean.shape)
    clean += noise * (spec["noise"] * np.linalg.norm(clean) / np.linalg.norm(noise))
    # inverse of the package's reshape_kernel: spatial index i + j*D
    return clean.reshape(d, d, s, t).transpose(1, 0, 2, 3)


def write_kernels(kernel_specs, seed, out_dir):
    """Generate every kernel of a workload and write it as <name>.kten."""
    os.makedirs(out_dir, exist_ok=True)
    for index, spec in enumerate(kernel_specs):
        kernel = make_kernel(spec, (seed, index))
        write_kten(os.path.join(out_dir, f"{spec['name']}.kten"), kernel)


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the KTEN files")
    args = parser.parse_args(argv)
    # unused here, imported so that the timed set-up includes the package's
    # import cost
    importlib.import_module("convfactor.cli")
    write_kernels(WORKLOADS[args.workload]["kernels"], args.seed, args.out)


if __name__ == "__main__":
    main()
