"""Generate the benchmark's workload configs from stated parameters.

    python3 bench/workloads.py --seed 7 --out DIR [--workload NAME]

writes ``DIR/<workload>/<config>.json`` for every workload (or one).  The
output is a pure function of the seed: the same seed gives byte-identical
files.  The seed only sets each config's master seed; the laws, collections
and sizes below are fixed, so every seed exercises the same work.  The
program sees nothing but these files.

Laws:

* ``canonical``: X uniform on {(1,0), (-1,0), (2,1), (-2,-1)}, Y = x1 + eps,
  eps a fair +-1 coin (8 atoms); maps A = x1 and B = x2.
* ``hypercube(d, support)``: X uniform on {-1, +1}^d, Y = sum of the support
  coordinates + eps, eps a fair +-1 coin (2^(d+1) atoms, weight 2^-(d+1)).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys

# Sizes of every workload.  Changing any of them changes the benchmark.
MC_DELTA = 0.1
MC_TRIALS = 500                 # >= 50 / delta, the CLI's floor for quantiles
MC_N_GRID = [2000, 20000]
PATHWISE_N = 300
PATHWISE_TRIALS = 400

BL_DIM = 8
BL_SUPPORT = (0, 1)
BL_SPARSITY = 2
BL_N = 40000
BL_DELTA = 0.1
BL_TRIALS = 1000

BSS_DIM = 10
BSS_SPARSITY = 3
BSS_N_GRID = [40, 100, 250]
BSS_TRIALS = 60
BSS_DELTA = 0.1

WORKLOADS = ("mc_canonical", "bounds_localize", "bss_wide")


def derived_seed(seed: int, *labels: str) -> int:
    """A 31-bit master seed for one config, fixed by (bench seed, labels)."""
    digest = hashlib.sha256(":".join([str(int(seed)), *labels]).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def canonical_law() -> dict:
    points = [(1.0, 0.0), (-1.0, 0.0), (2.0, 1.0), (-2.0, -1.0)]
    atoms = [
        {"x": list(p), "y": p[0] + eps, "w": 0.125}
        for p in points
        for eps in (1.0, -1.0)
    ]
    return {"kind": "discrete", "atoms": atoms}


def hypercube_law(d: int, support) -> dict:
    w = 0.5 ** (d + 1)
    atoms = []
    for x in itertools.product((-1.0, 1.0), repeat=d):
        signal = sum(x[j] for j in support)
        for eps in (1.0, -1.0):
            atoms.append({"x": list(x), "y": signal + eps, "w": w})
    return {"kind": "discrete", "atoms": atoms}


def configs(workload: str, seed: int) -> dict[str, dict]:
    """The configs of one workload, keyed by file stem."""
    if workload == "mc_canonical":
        law = canonical_law()
        coll = {"kind": "explicit", "entries": [{"id": "A", "coords": [0]}, {"id": "B", "coords": [1]}]}
        return {
            "quantiles": {
                "seed": derived_seed(seed, workload, "quantiles"),
                "law": law,
                "collection": coll,
                "params": {"n_grid": MC_N_GRID, "delta": MC_DELTA, "trials": MC_TRIALS},
            },
            "pathwise": {
                "seed": derived_seed(seed, workload, "pathwise"),
                "law": law,
                "collection": coll,
                "params": {"n": PATHWISE_N, "trials": PATHWISE_TRIALS},
            },
        }
    if workload == "bounds_localize":
        return {
            "bounds_localize": {
                "seed": derived_seed(seed, workload),
                "law": hypercube_law(BL_DIM, BL_SUPPORT),
                "collection": {"kind": "subsets", "dim": BL_DIM, "sparsity": BL_SPARSITY},
                "params": {"n": BL_N, "delta": BL_DELTA, "trials": BL_TRIALS},
            }
        }
    if workload == "bss_wide":
        w_true = [1.0 if j < BSS_SPARSITY else 0.0 for j in range(BSS_DIM)]
        return {
            "bss": {
                "seed": derived_seed(seed, workload),
                "params": {
                    "design": "discrete",
                    "d": BSS_DIM,
                    "s": BSS_SPARSITY,
                    "w_true": w_true,
                    "noise_std": 1.0,
                    "n_grid": BSS_N_GRID,
                    "trials": BSS_TRIALS,
                    "delta": BSS_DELTA,
                    "check_threshold": False,
                },
            }
        }
    raise ValueError(f"unknown workload {workload!r}")


def config_paths(workload: str, out_dir: str) -> dict[str, str]:
    """Where ``write_configs`` puts a workload's configs: stem -> path.

    The first entry is the config that set-up loads.
    """
    return {stem: os.path.join(out_dir, f"{stem}.json") for stem in configs(workload, 0)}


def write_configs(workload: str, seed: int, out_dir: str) -> dict[str, str]:
    """Write one workload's configs under out_dir; returns stem -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = config_paths(workload, out_dir)
    for stem, cfg in configs(workload, seed).items():
        with open(paths[stem], "w") as f:
            json.dump(cfg, f, sort_keys=True)
            f.write("\n")
    return paths


def operations(workload: str, cfg_paths: dict[str, str], out_root: str) -> list[tuple[str, list[str]]]:
    """One round of a workload: (operation name, argv for ``unionerm.cli.main``).

    Each operation writes into its own directory ``out_root/<name>``.
    """
    if workload == "mc_canonical":
        plan = [("quantiles", "quantiles", ["montecarlo", "quantiles"]),
                ("pathwise", "pathwise", ["montecarlo", "pathwise"])]
    elif workload == "bounds_localize":
        plan = [("bounds", "bounds_localize", ["bounds"]),
                ("localize", "bounds_localize", ["localize"])]
    elif workload == "bss_wide":
        plan = [("bss", "bss", ["montecarlo", "bss"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        (name, ["--config", cfg_paths[stem], "--out", os.path.join(out_root, name), *command])
        for name, stem, command in plan
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", choices=WORKLOADS)
    args = parser.parse_args(argv)
    for w in [args.workload] if args.workload else WORKLOADS:
        for path in write_configs(w, args.seed, os.path.join(args.out, w)).values():
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
