"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py --root ROOT --workload NAME --config PATH [--dump PATH]

Set-up is everything a fresh process needs before its first command can do
work: import ``unionerm``, load and schema-validate the config, and build
the law, the collection and the exact population profile (which runs
``model.validate_collection``).  Prints ``{"setup_s": seconds}``; with
``--dump`` also writes the profile's optimal set, optimal risk and per-index
gaps (ids formatted as the CLI formats them) for the output checkers.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--dump")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    from unionerm import cli, experiments, model, population

    cfg = cli.load_config(args.config)
    if args.workload == "bss_wide":
        # `montecarlo bss` builds its instance from the params, like this
        p = cfg["params"]
        law = experiments.bss_instance(p["design"], p["d"], p["w_true"], p["noise_std"])
        collection = model.subset_collection(p["d"], p["s"])
    else:
        law = cli.build_law(cfg)
        collection = cli.build_collection(cfg)
    prof = population.profile(law, collection)
    elapsed = time.perf_counter() - START

    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(
                {
                    "r_star": prof.r_star,
                    "t_star": [str(t) for t in prof.t_star],
                    "gamma": prof.gamma,
                    "gaps": {str(t): prof.gap(t) for t in prof.indices()},
                },
                f,
                indent=1,
                sort_keys=True,
            )
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
