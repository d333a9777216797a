"""Self-test of the benchmark's checkers.

    python3 bench/selftest.py [--workload NAME]

Run from the root of the source tree.  For each workload it generates the
configs, builds the set-up profile once, runs one round of the CLI
commands, and requires the checkers to accept those outputs.  Then it
corrupts one output field at a time in a copy (a perturbed gap, a negative
excess, a flipped membership, ...) and requires the checkers to reject each
copy.  It also checks that config generation is deterministic and that a
round whose output differs from the warm-up counts as failed.  Exits 0 when
every case behaves as expected.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

os.environ.update(run.THREAD_ENV)  # before numpy is first imported

import checks  # noqa: E402
import rounds  # noqa: E402


def edit_json(path: str, fn) -> None:
    with open(path) as f:
        data = json.load(f)
    fn(data)
    with open(path, "w") as f:
        json.dump(data, f)


def edit_csv(path: str, fn) -> None:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    fn(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def _set(d: dict, path: list, value) -> None:
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


def _scale_excess(rows: list, factor: float) -> None:
    for r in rows[1:]:
        r[2] = repr(float(r[2]) * factor)
        r[3] = repr(float(r[3]) * factor)


def _break_pathwise(rows: list) -> None:
    row = next(r for r in rows[1:] if float(r[4]) < 1.0 and float(r[2]) < 1.0)
    row[7] = "1.0"  # estimation error far above 0.5 G^2/n / (1 - lam_plus)^2


def _swap_column(rows: list, col: int, i: int, j: int) -> None:
    rows[i][col], rows[j][col] = rows[j][col], rows[i][col]


def _low_recovery(rows: list) -> None:
    trials = workloads.BSS_TRIALS
    hits = int(0.85 * trials)
    lo, hi = checks.clopper_pearson(hits, trials)
    rows[-1][1:4] = [repr(hits / trials), repr(lo), repr(hi)]


def _far_a_n(rows: list) -> None:
    rows[-1][4] = repr(0.5 + 10.0 * float(rows[-1][5]))


def _drop_optimum(trace: dict) -> None:
    trace["sets"][-1] = [t for t in trace["sets"][-1] if t != "(0, 1)"]


def _add_far_index(trace: dict) -> None:
    # (6, 7) misses both support coordinates: gap 1, above every threshold here
    trace["sets"][1].append("(6, 7)")


def _flip_membership(trace: dict) -> None:
    trace["membership"]["(2, 3)"][0] = not trace["membership"]["(2, 3)"][0]


# (workload, description, file under the work dir, edit)
CORRUPTIONS = [
    ("mc_canonical", "perturbed profile gap", "profile.json",
     lambda p: edit_json(p, lambda d: _set(d, ["gaps", "B"], 0.25 + 1e-6))),
    ("mc_canonical", "negative excess", "out/quantiles/trials_quantiles.csv",
     lambda p: edit_csv(p, lambda rows: _set(rows, [1, 2], "-0.001"))),
    ("mc_canonical", "excess quantile off the chi2 limit", "out/quantiles/trials_quantiles.csv",
     lambda p: edit_csv(p, lambda rows: _scale_excess(rows, 3.0))),
    ("mc_canonical", "perturbed pathwise gap", "out/pathwise/pathwise.csv",
     lambda p: edit_csv(p, lambda rows: _set(rows, [1, 6], repr(float(rows[1][6]) + 0.01)))),
    ("mc_canonical", "pathwise inequality violated", "out/pathwise/pathwise.csv",
     lambda p: edit_csv(p, _break_pathwise)),
    ("bounds_localize", "perturbed profile gap", "profile.json",
     lambda p: edit_json(p, lambda d: _set(d, ["gaps", "(0, 2)"], 0.0))),
    ("bounds_localize", "quartic supremum below 1", "out/bounds/bounds.json",
     lambda p: edit_json(p, lambda d: _set(d, ["quad_form_var_sup", "value"], 0.9999))),
    ("bounds_localize", "covariance deviation off s - 1", "out/bounds/bounds.json",
     lambda p: edit_json(p, lambda d: _set(d, ["cov_dev_lambda_max", "value"], 1.001))),
    ("bounds_localize", "threshold increasing in delta", "out/bounds/thresholds.csv",
     lambda p: edit_csv(p, lambda rows: _swap_column(rows, 2, 3, 4))),
    ("bounds_localize", "flipped membership", "out/localize/trace.json",
     lambda p: edit_json(p, _flip_membership)),
    ("bounds_localize", "optimal index dropped", "out/localize/trace.json",
     lambda p: edit_json(p, _drop_optimum)),
    ("bounds_localize", "set is not the sublevel set", "out/localize/trace.json",
     lambda p: edit_json(p, _add_far_index)),
    ("bss_wide", "perturbed profile gap", "profile.json",
     lambda p: edit_json(p, lambda d: _set(d, ["gaps", "(0, 1, 3)"], 0.0))),
    ("bss_wide", "wrong support", "out/bss/verdict_bss.json",
     lambda p: edit_json(p, lambda d: _set(d, ["support"], [0, 1, 3]))),
    ("bss_wide", "perturbed gamma", "out/bss/verdict_bss.json",
     lambda p: edit_json(p, lambda d: _set(d, ["gamma"], 0.45))),
    ("bss_wide", "recovery interval below 0.9", "out/bss/bss.csv",
     lambda p: edit_csv(p, _low_recovery)),
    ("bss_wide", "a_n far from 1/2", "out/bss/bss.csv",
     lambda p: edit_csv(p, _far_a_n)),
]


def n_errors(workload: str, work: str) -> int:
    profile_errs, op_errs = checks.check_workload(workload, work)
    return len(profile_errs) + sum(len(e) for e in op_errs.values())


def produce(root: str, workload: str, work: str, cli) -> None:
    """One set-up (for the profile dump) and one round of the workload."""
    shutil.rmtree(work, ignore_errors=True)
    cfg_paths = workloads.write_configs(workload, 0, os.path.join(work, "configs"))
    rounds.run_setup_probe(root, workload, next(iter(cfg_paths.values())), os.path.join(work, "profile.json"), 120.0)
    _, codes = rounds.run_round(cli, workloads.operations(workload, cfg_paths, os.path.join(work, "out")))
    if any(codes):
        raise SystemExit(f"{workload}: CLI exit codes {codes}")


def test_generation_is_deterministic(base: str) -> bool:
    ok = True
    for w in workloads.WORKLOADS:
        pa = workloads.write_configs(w, 5, os.path.join(base, "gen_a", w))
        pb = workloads.write_configs(w, 5, os.path.join(base, "gen_b", w))
        for stem in pa:
            with open(pa[stem], "rb") as fa, open(pb[stem], "rb") as fb:
                ok = ok and fa.read() == fb.read()
        other = workloads.configs(w, 6)
        ok = ok and all(other[s]["seed"] != workloads.configs(w, 5)[s]["seed"] for s in other)
    return ok


def test_changed_round_output_fails() -> bool:
    result = {
        "operations": ["op"],
        "rounds": [{"codes": [0], "digests": {"op": {"f": "1"}}},
                   {"codes": [0], "digests": {"op": {"f": "1"}}},
                   {"codes": [0], "digests": {"op": {"f": "2"}}},
                   {"codes": [4], "digests": {"op": {"f": "1"}}}],
    }
    attempted, failed, _ = run.count_failures(result, {"op": []})
    return (attempted, failed) == (4, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    root = os.getcwd()
    cli, _ = rounds.import_program(root)
    base = os.path.join(root, ".bench_out", "selftest")
    results = [
        ("config generation is deterministic", test_generation_is_deterministic(base)),
        ("a round with changed output is failed", test_changed_round_output_fails()),
    ]
    for w in [args.workload] if args.workload else workloads.WORKLOADS:
        work = os.path.join(base, w)
        produce(root, w, work, cli)
        results.append((f"{w}: checkers accept the program's outputs", n_errors(w, work) == 0))
        for cw, desc, rel, edit in CORRUPTIONS:
            if cw != w:
                continue
            copy = work + ".corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(work, copy)
            edit(os.path.join(copy, rel))
            results.append((f"{w}: rejects {desc}", n_errors(w, copy) > 0))
            shutil.rmtree(copy)
    for desc, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {desc}")
    failed = sum(not ok for _, ok in results)
    print(f"{len(results) - failed}/{len(results)} self-test cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
