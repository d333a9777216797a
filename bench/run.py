"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/unionerm`` must exist).  One run:

1. writes the workload's configs for the seed (``bench/workloads.py``);
2. runs the rounds in one child process (``bench/rounds.py``), which also
   times set-ups in fresh interpreters (``bench/setup_probe.py``) spread
   over the same window; each set-up dumps the profile for the checkers;
3. checks the warm-up round's outputs (``bench/checks.py``) and that every
   later round reproduced them byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  An operation is one
CLI command; it fails on a nonzero exit code, a failed output check, or
output that differs from the warm-up round's.  Scratch files go to
``.bench_out/<workload>/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEADLINE_S = 170.0
# One BLAS thread: the rounds are a single closed loop, and threaded BLAS on
# tiny matrices only adds scheduling noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child(args: list[str], env: dict, deadline: float) -> None:
    """Run a Python child to completion within the deadline.

    Its stdout is captured and dropped, so that the result stays the last
    line of ours.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before starting {args[0]}")
    try:
        proc = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"{args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}")


def count_failures(result: dict, op_errs: dict[str, list[str]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every operation of every round."""
    rounds = result["rounds"]
    reference = rounds[0]["digests"]
    attempted = failed = 0
    messages = []
    for i, rnd in enumerate(rounds):
        for op, code in zip(result["operations"], rnd["codes"]):
            attempted += 1
            why = None
            if code != 0:
                why = f"exit code {code}"
            elif op_errs[op]:
                why = "; ".join(op_errs[op])
            elif rnd["digests"][op] != reference[op]:
                why = "output differs from the warm-up round"
            if why:
                failed += 1
                messages.append(f"round {i} {op}: {why}")
    return attempted, failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="unionerm benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "unionerm", "cli.py")):
        print(f"error: {root} has no src/unionerm; run from the root of the source tree", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_out", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    workloads.write_configs(args.workload, args.seed, os.path.join(work, "configs"))
    env = {**os.environ, **THREAD_ENV}

    result_path = os.path.join(work, "rounds.json")
    try:
        child(
            [os.path.join(HERE, "rounds.py"), "--root", root, "--workload", args.workload, "--work", work,
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", result_path,
             "--deadline", str(deadline - time.monotonic() - 5.0)],
            env,
            deadline,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(result_path) as f:
        result = json.load(f)

    import checks  # imports scipy; kept out of the timed children

    profile_errs, op_errs = checks.check_workload(args.workload, work)
    attempted, failed, messages = count_failures(result, op_errs)
    for msg in profile_errs + messages[:10]:
        print(f"check failed: {msg}", file=sys.stderr)

    timed = [r["seconds"] for r in result["rounds"] if r["kind"] == "timed"]
    setup_s = statistics.median(result["setup_s"])
    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(result["layers"].items())
        }
    else:
        values = {"setup_s": setup_s, "round_s": statistics.median(timed), "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(
        f"{args.workload} seed={args.seed}: {len(timed)} timed rounds, "
        f"round_s median {statistics.median(timed):.4f} (min {min(timed):.4f}, max {max(timed):.4f}), "
        f"setup_s {setup_s:.4f}, {attempted} operations, {failed} failed",
        file=sys.stderr,
    )
    print(json.dumps({"correct": not profile_errs, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
