"""Run one workload's rounds and set-ups, and write their timings.

    python3 bench/rounds.py --root ROOT --workload NAME --work DIR \
        --seconds S --trace 0|1 --result PATH

A round runs the workload's CLI commands one after another through
``unionerm.cli.main`` in this process (a closed loop with a single client).
The first round is an untimed warm-up, which also compiles the package's
bytecode.  Timed rounds then run for ``--seconds``; SETUP_REPEATS set-ups in
fresh interpreters (``setup_probe.py``) are spread evenly over the same
window, so that set-up and round times sample the same stretch of host load.
After every round, outside the timed region, the files each command wrote
are hashed, so the caller can check that every round reproduced the
warm-up's outputs byte for byte.

With ``--trace 1`` untraced and traced rounds alternate in pairs; the traced
rounds give the per-layer figures and the difference of the two medians is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5


def digest_tree(path: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as f:
                out[os.path.relpath(full, path)] = hashlib.sha256(f.read()).hexdigest()
    return out


def run_round(cli, ops, tracer=None, round_index=0) -> tuple[float, list[int]]:
    """Run every operation once; returns (wall seconds, exit codes).

    Under a tracer, the spans of one operation share the id
    ``(round index, operation name)``.
    """
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        for name, argv in ops:
            if tracer is not None:
                tracer.op = (round_index, name)
            codes.append(cli.main(list(argv)))
        elapsed = time.perf_counter() - start
    return elapsed, codes


def run_setup_probe(root: str, workload: str, config: str, dump: str, timeout: float) -> float:
    """One set-up in a fresh interpreter; returns its own timing of itself."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), "--root", root, "--workload", workload,
         "--config", config, "--dump", dump],
        stdout=subprocess.PIPE, text=True, timeout=timeout, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_program(root: str):
    """Import the package from ROOT/src, never from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import unionerm
    from unionerm import bounds, cli, erm, experiments, localization, model, population, processes, svgplot

    if not os.path.abspath(unionerm.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported unionerm from {unionerm.__file__}, not from {src}")
    modules = {
        "bounds": bounds, "cli": cli, "erm": erm, "experiments": experiments,
        "localization": localization, "model": model, "population": population,
        "processes": processes, "svgplot": svgplot,
    }
    return cli, modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--deadline", type=float, required=True, help="seconds this process may take")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.deadline

    sys.path.insert(0, HERE)
    import workloads

    cli, modules = import_program(args.root)
    cfg_paths = workloads.config_paths(args.workload, os.path.join(args.work, "configs"))
    ops = workloads.operations(args.workload, cfg_paths, os.path.join(args.work, "out"))
    names = [name for name, _ in ops]

    rounds = []  # one dict per round, warm-up first
    setups = []

    def record(kind: str, elapsed: float, codes: list[int]) -> None:
        rounds.append({
            "kind": kind,
            "seconds": elapsed,
            "codes": codes,
            "digests": {name: digest_tree(os.path.join(args.work, "out", name)) for name in names},
        })

    record("warmup", *run_round(cli, ops))

    tracer = None
    layer_rounds = []
    if args.trace:
        from spans import Tracer

        tracer = Tracer(modules)

    def traced_round() -> None:
        tracer.reset_round()
        tracer.install()
        try:
            elapsed, codes = run_round(cli, ops, tracer, len(rounds))
        finally:
            tracer.uninstall()
        layer_rounds.append(tracer.round_metrics())
        record("traced", elapsed, codes)

    def setups_due() -> bool:
        elapsed = time.perf_counter() - start
        return len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS

    start = time.perf_counter()
    pair = 0
    while True:
        while setups_due():
            setups.append(run_setup_probe(
                args.root, args.workload, next(iter(cfg_paths.values())),
                os.path.join(args.work, "profile.json"), deadline - time.monotonic(),
            ))
        if tracer is None:
            record("timed", *run_round(cli, ops))
        else:
            # alternate which side of the pair runs first
            if pair % 2:
                traced_round()
            record("timed", *run_round(cli, ops))
            if not pair % 2:
                traced_round()
            pair += 1
        if time.perf_counter() - start >= args.seconds and len(setups) == SETUP_REPEATS:
            break

    result = {
        "operations": names,
        "rounds": rounds,
        "setup_s": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = {
            key: (statistics.median if key.endswith("_s") else statistics.median_low)(r[key] for r in layer_rounds)
            for key in layer_rounds[0]
        }
        timed = [r["seconds"] for r in rounds if r["kind"] == "timed"]
        traced = [r["seconds"] for r in rounds if r["kind"] == "traced"]
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(timed)
        drawn = layers["processes.count_rows_drawn"]
        layers["processes.count_rows_distinct_share"] = (
            layers["processes.count_rows_distinct"] / drawn if drawn else 1.0
        )
        result["layers"] = layers
        tracer.write(os.path.join(args.work, "trace.json"), {"workload": args.workload, "layers": layers})
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
