"""Workload definitions: the kernels each workload generates and its job list.

A kernel spec is a dict read by :func:`kernels.make_kernel`.  A job is one
CLI operation (or a ``decompose`` plus the ``verify`` of the block it
wrote); ``args`` are appended to the subcommand, and the runner adds
``--input`` and ``--out``.  A ``decompose`` job with ``rank_from`` takes its
``--rank`` from the rank an earlier ``rank-search`` job of the same pass chose.
"""

WORKLOADS = {
    "cpd-epc-128": {
        "why": (
            "ResNet layer2 CP path: ALS runs to its 1000-sweep cap in 3 restarts, "
            "then EPC under a 10% bound, so cpd, khatri_rao and epc do the work"
        ),
        "kernels": [
            {"name": "k0", "family": "cp", "d": 3, "channels": 128, "rank": 64,
             "decay": 0.9, "noise": 0.05},
        ],
        "jobs": [
            # a 10% bound rather than the error-preserving mode: see README.md
            {"kind": "decompose", "kernel": "k0", "delta": 0.1,
             "args": ["--method", "cpd-epc", "--rank", "32", "--delta", "0.1",
                      "--pad", "1"],
             "verify": ["--hw", "28,28"]},
        ],
    },
    "tkd-512": {
        "why": (
            "hybrid path for the widest layers: Tucker-2 Gram/eigen steps, 19 MB "
            "reads and 512-channel verify dominate; CP/EPC run on a small core"
        ),
        "kernels": [
            {"name": "t0", "family": "tucker2", "d": 3, "channels": 512,
             "ranks": [32, 32], "rank": 12, "decay": 0.9, "noise": 0.01},
            # CP core rank 12 fitted at rank 16: with a core of rank 16, 3 of 40
            # seeds failed (random-init core ALS missed the core budget)
            {"name": "t1", "family": "tucker2", "d": 3, "channels": 512,
             "ranks": [48, 48], "rank": 12, "decay": 0.9, "noise": 0.02},
        ],
        "jobs": [
            {"kind": "decompose", "kernel": "t0", "delta": 0.05,
             "args": ["--method", "tkd-cpd-epc", "--rank", "12", "--delta", "0.05",
                      "--pad", "1"],
             "verify": ["--hw", "14,14"]},
            {"kind": "decompose", "kernel": "t1", "delta": 0.08,
             "args": ["--method", "tkd-cpd-epc", "--rank", "16", "--delta", "0.08",
                      "--pad", "1"],
             "verify": ["--hw", "14,14"]},
        ],
    },
    "rank-search-64": {
        "why": (
            "many short ALS fits at varying ranks with the mixed init, some "
            "converging, some capped; the only workload using ranksearch and its proxy"
        ),
        "kernels": [
            {"name": "r0", "family": "cp", "d": 3, "channels": 64, "rank": 24,
             "decay": 0.9, "noise": 0.02, "orthogonal": True},
            {"name": "r1", "family": "cp", "d": 3, "channels": 64, "rank": 24,
             "decay": 0.9, "noise": 0.02, "orthogonal": True},
        ],
        "jobs": [
            {"kind": "rank-search", "kernel": "r0", "eps": 0.05,
             "args": ["--method", "cpd-epc", "--eps", "0.05", "--rmax", "32",
                      "--json"]},
            {"kind": "rank-search", "kernel": "r1", "eps": 0.05,
             "args": ["--method", "cpd", "--eps", "0.05", "--rmax", "32", "--json"]},
            # compress at the rank the search chose, as a user would; this block
            # is what sensitivity_gmean and params_ratio measure here
            {"kind": "decompose", "kernel": "r0", "rank_from": 0,
             "args": ["--method", "cpd-epc", "--pad", "1"], "verify": []},
        ],
    },
}
