"""Command-line front end.

Subcommands:

* ``profile``     — exact population profile of (law, collection)
* ``bounds``      — full constant/threshold/bound report (JSON + CSV grid)
* ``localize``    — localization-set trace (JSON + table + SVG)
* ``montecarlo``  — Monte Carlo verdicts: ``quantiles``, ``consistency``,
                    ``validity``, ``pathwise``, ``bss``

Configs are JSON documents checked against ``CONFIG_SCHEMA`` before any
computation; the master seed is mandatory (there is no wall-clock default).
A valid config passes a plain structural check that accepts only configs
the schema accepts; jsonschema is loaded only for a config that fails it,
to word the error (or to accept a valid config the check is too strict for).
All outputs are deterministic functions of (config, seed overrides) and are
written atomically (temp file + rename).

Exit codes: 0 success, 2 config error, 3 degenerate model, 4 insufficient
trials, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import experiments, localization, svgplot
from .bounds import (
    compute_bound_inputs,
    resolve_explicit_threshold,
    single_class_threshold_value,
    thresholds_and_bounds,
)
from .model import (
    DegenerateFeatureError,
    DiscreteLaw,
    DuplicateClassError,
    FeatureCollection,
    FeatureEntry,
    subset_collection,
)
from .population import profile as build_profile

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_TRIALS = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config schema and builders
# ---------------------------------------------------------------------------

_NUMBER = {"type": "number"}
_LAW_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"const": "discrete"},
        "atoms": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["x", "y", "w"],
                "properties": {
                    "x": {"type": "array", "items": _NUMBER, "minItems": 1},
                    "y": _NUMBER,
                    "w": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
    },
    "required": ["kind", "atoms"],
}
_COLLECTION_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "kind": {"const": "explicit"},
                "entries": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["id"],
                        "properties": {
                            "id": {},
                            "coords": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                            "matrix": {"type": "array"},
                            "offset": {"type": "array", "items": _NUMBER},
                        },
                    },
                },
            },
            "required": ["kind", "entries"],
        },
        {
            "properties": {
                "kind": {"const": "subsets"},
                "dim": {"type": "integer", "minimum": 1},
                "sparsity": {"type": "integer", "minimum": 1},
            },
            "required": ["kind", "dim", "sparsity"],
        },
    ],
}
# _plain_config restates these rules for valid configs: a tightened rule (a new
# bound, enum or type) must be mirrored there; test_plain_config_check_is_sound guards it.
CONFIG_SCHEMA = {
    "type": "object",
    "required": ["seed"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "law": _LAW_SCHEMA,
        "collection": _COLLECTION_SCHEMA,
        "params": {"type": "object"},
    },
}


def _plain_atoms(cfg) -> bool:
    """True when law.atoms is a list of dicts whose x are equal-length non-empty
    lists of finite numbers and whose y and w > 0 are finite numbers: every such
    list passes the atom schema, so it need not be walked atom by atom."""
    try:
        atoms = cfg["law"]["atoms"]
        rows = [[a["w"], a["y"], *a["x"]] for a in atoms if type(a) is dict and type(a["x"]) is list]
        if len(rows) != len(atoms) or not {type(c) for row in rows for c in row} <= {int, float}:
            return False
        table = np.array(rows, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):
        return False
    return table.ndim == 2 and table.shape[1] > 2 and bool(np.isfinite(table).all() and (table[:, 0] > 0).all())


def _plain_entry(e) -> bool:
    """True when e is an explicit entry that the entry schema accepts."""
    return (
        type(e) is dict
        and "id" in e
        and all(type(e[k]) is list for k in ("coords", "matrix", "offset") if k in e)
        and all(type(c) is int and c >= 0 for c in e.get("coords", ()))
        and all(type(v) in (int, float) for v in e.get("offset", ()))
    )


def _plain_collection(coll) -> bool:
    """True when coll is a plain ``subsets`` or ``explicit`` collection: the
    kinds differ, so exactly one ``oneOf`` branch of the schema matches."""
    if type(coll) is not dict:
        return False
    if coll.get("kind") == "subsets":
        return all(type(coll.get(k)) is int and coll[k] >= 1 for k in ("dim", "sparsity"))
    entries = coll.get("entries")
    return coll.get("kind") == "explicit" and type(entries) is list and len(entries) > 0 and all(map(_plain_entry, entries))


def _plain_config(cfg) -> bool:
    """A structural check of ``CONFIG_SCHEMA`` in plain Python.

    Sound, not complete: every config it accepts the schema accepts, but it
    asks for exact types (an int seed, not 1.0) and for finite atoms with
    equal-length x, so a few schema-valid configs fail it and go to the
    full validator.
    """
    if type(cfg) is not dict or type(cfg.get("seed")) is not int or cfg["seed"] < 0:
        return False
    if "params" in cfg and type(cfg["params"]) is not dict:
        return False
    if "law" in cfg and not (type(cfg["law"]) is dict and cfg["law"].get("kind") == "discrete" and _plain_atoms(cfg)):
        return False
    return "collection" not in cfg or _plain_collection(cfg["collection"])


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not _plain_config(cfg):
        from jsonschema import Draft202012Validator  # lazy: a config that passes the plain check never loads it
        from jsonschema.exceptions import best_match

        exc = best_match(Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg))
        if exc is not None:
            raise ConfigError(f"config field {exc.json_path}: {exc.message}") from exc
    return cfg


def build_law(cfg: dict):
    if "law" not in cfg:
        raise ConfigError("config field $.law: required for this command")
    atoms = cfg["law"]["atoms"]
    xs = np.array([a["x"] for a in atoms], dtype=float)
    ys = np.array([a["y"] for a in atoms], dtype=float)
    ws = np.array([a["w"] for a in atoms], dtype=float)
    try:
        return DiscreteLaw(xs=xs, ys=ys, weights=ws)
    except ValueError as exc:
        raise ConfigError(f"config field $.law: {exc}") from exc


def _entry_from_json(spec: dict) -> FeatureEntry:
    idx = spec["id"]
    if isinstance(idx, list):
        idx = tuple(idx)
    if "coords" in spec:
        coords = tuple(int(c) for c in spec["coords"])
        return FeatureEntry(index=idx, dim=len(coords), fn=(lambda x, c=list(coords): x[:, c]), coords=coords)
    if "matrix" in spec:
        mat = np.array(spec["matrix"], dtype=float)  # (dim, p)
        off = np.array(spec.get("offset", np.zeros(mat.shape[0])), dtype=float)
        return FeatureEntry(index=idx, dim=mat.shape[0], fn=(lambda x, m=mat, o=off: x @ m.T + o))
    raise ConfigError(f"config field $.collection: entry {idx!r} needs coords or matrix")


def build_collection(cfg: dict) -> FeatureCollection:
    if "collection" not in cfg:
        raise ConfigError("config field $.collection: required for this command")
    coll = cfg["collection"]
    if coll["kind"] == "subsets":
        return subset_collection(coll["dim"], coll["sparsity"])
    try:
        return FeatureCollection([_entry_from_json(e) for e in coll["entries"]])
    except ValueError as exc:
        raise ConfigError(f"config field $.collection: {exc}") from exc


def _profile_of(cfg: dict):
    return build_profile(build_law(cfg), build_collection(cfg))


def _param(cfg: dict, name: str, default=None, required: bool = False):
    params = cfg.get("params", {})
    if name in params:
        return params[name]
    if required:
        raise ConfigError(f"config field $.params.{name}: required for this command")
    return default


# ---------------------------------------------------------------------------
# Atomic writers
# ---------------------------------------------------------------------------

def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload) -> None:
    # json.dumps writes a NamedTuple (the result carriers) as a bare list and never
    # calls _json_default for it: convert one by hand (``._asdict()``) first.
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_csv(path: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _write_text(path, buf.getvalue())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_profile(cfg: dict, out: str) -> int:
    prof = _profile_of(cfg)
    payload = {
        "r_star": prof.r_star,
        "t_star": [str(t) for t in prof.t_star],
        "gamma": prof.gamma if math.isfinite(prof.gamma) else "inf",
        "mixed_dims": prof.mixed_dims,
        "indices": {
            str(t): {
                "dim": prof.records[t].dim,
                "approx_risk": prof.records[t].approx_risk,
                "gap": prof.gap(t),
                "grad_second_moment": prof.grad_second_moment(t),
                "w_star": prof.w_star(t).tolist(),
                "optimal": t in prof.t_star,
            }
            for t in prof.indices()
        },
    }
    write_json(os.path.join(out, "profile.json"), payload)
    lines = [
        f"{'index':<16}{'dim':>4}{'approx_risk':>16}{'gap':>16}{'grad_2nd_mom':>14}  optimal",
    ]
    for t in prof.indices():
        gap = prof.gap(t)
        lines.append(
            f"{str(t):<16}{prof.records[t].dim:>4}{prof.records[t].approx_risk:>16.10g}"
            f"{gap:>16.10g}{prof.grad_second_moment(t):>14.8g}  {'*' if t in prof.t_star else ''}"
        )
    gamma_txt = "inf" if not math.isfinite(prof.gamma) else f"{prof.gamma:.10g}"
    lines.append(f"optimal risk = {prof.r_star:.10g}; optimal set = "
                 f"{{{', '.join(str(t) for t in prof.t_star)}}}; gap = {gamma_txt}")
    if prof.mixed_dims:
        lines.append("note: the collection mixes feature dimensions")
    _write_text(os.path.join(out, "profile.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_bounds(cfg: dict, out: str, trials_override: int | None) -> int:
    prof = _profile_of(cfg)
    n = int(_param(cfg, "n", required=True))
    delta = float(_param(cfg, "delta", 0.1))
    k = int(_param(cfg, "k", 1))
    trials = int(trials_override or _param(cfg, "trials", 4000))
    seed = int(cfg["seed"])
    inputs = compute_bound_inputs(prof, n, trials=trials, seed=seed)
    report = thresholds_and_bounds(prof, inputs, n, delta, k=k)
    write_json(os.path.join(out, "bounds.json"), report.to_json_dict())
    cols = ("single_class_threshold", "explicit_threshold", "expected_sup_threshold",
            "single_class_excess_bound", "explicit_excess_bound", "expected_sup_excess_bound")
    rows = []
    for dval in _param(cfg, "delta_grid", [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]):
        r = thresholds_and_bounds(prof, inputs, n, float(dval), k=k)
        rows.append([dval] + [getattr(r, c).value for c in cols])
    write_csv(os.path.join(out, "thresholds.csv"), ["delta", *cols], rows)
    print(f"wrote bounds.json and thresholds.csv (n={n}, delta={delta}, k={k})")
    return EXIT_OK


def cmd_localize(cfg: dict, out: str, trials_override: int | None) -> int:
    prof = _profile_of(cfg)
    n = int(_param(cfg, "n", required=True))
    delta = float(_param(cfg, "delta", 0.1))
    trials = int(trials_override or _param(cfg, "trials", 4000))
    seed = int(cfg["seed"])
    source = _param(cfg, "complexity", "explicit")
    if source == "explicit":
        cx = localization.ClosedFormComplexity(prof, n, trials=trials, seed=seed)
    elif source == "expected_sup":
        cx = localization.ExpectedSupComplexity(prof, n, trials=trials, seed=seed)
    else:
        raise ConfigError("config field $.params.complexity: must be 'explicit' or 'expected_sup'")
    k_param = _param(cfg, "k")
    if k_param is None:
        k, bound, trace = localization.choose_k(n, delta, prof, cx)
        k_max = 1 + len(prof.suboptimal())
        sweep = [localization.iterate(n, delta, kk, prof, cx).final_bound for kk in range(1, k_max + 1)]
        _write_text(os.path.join(out, "localize_ksweep.svg"), svgplot.line_chart(
            list(range(1, k_max + 1)),
            {"final bound": sweep},
            "excess bound vs iteration count",
            "k",
            "bound",
        ))
    else:
        k = int(k_param)
        trace = localization.iterate(n, delta, k, prof, cx)
        bound = trace.final_bound
    payload = {
        "n": n,
        "delta": delta,
        "k": k,
        "complexity": source,
        "sets": [[str(t) for t in s] for s in trace.sets],
        "set_sizes": [len(s) for s in trace.sets],
        "thresholds": list(trace.thresholds),
        "fixed_point_at": trace.fixed_point_at,
        "final_bound": bound,
        "membership": {
            str(t): [t in s for s in trace.sets] for t in prof.indices()
        },
    }
    write_json(os.path.join(out, "trace.json"), payload)
    lines = [f"{'step':>4}{'|S|':>5}  threshold"]
    lines.append(f"{0:>4}{len(trace.sets[0]):>5}  -")
    for j, thr in enumerate(trace.thresholds):
        lines.append(f"{j + 1:>4}{len(trace.sets[j + 1]):>5}  {thr:.6g}")
    lines.append(f"final bound = {bound:.6g} (k = {k})")
    _write_text(os.path.join(out, "trace.txt"), "\n".join(lines) + "\n")
    steps = list(range(len(trace.sets)))
    _write_text(os.path.join(out, "localize.svg"), svgplot.line_chart(
        steps,
        {
            "set size": [len(s) for s in trace.sets],
            "threshold": [float("nan")] + list(trace.thresholds),
        },
        "localization trace",
        "step",
        "size / threshold",
    ))
    print("\n".join(lines))
    return EXIT_OK


def _mc_quantiles(cfg, out, law, collection, prof, trials):
    n_grid = [int(v) for v in _param(cfg, "n_grid", required=True)]
    delta = float(_param(cfg, "delta", 0.1))
    draws = int(_param(cfg, "draws", max(trials, 10_000)))
    seed = int(cfg["seed"])
    if trials < 50 / delta:
        raise experiments.InsufficientTrialsError(
            f"{trials} trials cannot resolve the {1 - delta:.3f} quantile"
        )
    z_minus, z_plus = experiments.sample_gaussian_limit(prof, draws, seed)
    rows = []
    batches = {}
    for i, n in enumerate(n_grid):
        batch = experiments.run_trials(law, collection, n, trials, experiments._grid_seed(seed, i), prof)
        batches[n] = batch
        q = experiments.estimate_quantile(batch.n_excess, 1 - delta)
        rows.append([n, q.estimate, q.ci_lo, q.ci_hi])
    final = batches[n_grid[-1]]
    verdict = experiments.quantile_sandwich_check(final, z_minus, z_plus, delta)
    write_csv(
        os.path.join(out, "trials_quantiles.csv"),
        ["trial", "t_hat", "n_excess", "n_excess_oracle", "singular"],
        [
            [i, str(final.t_hat[i]), final.n_excess[i], final.n_excess_oracle[i], int(final.singular[i])]
            for i in range(final.trials)
        ],
    )
    clauses = [
        {"id": "c7_sandwich", "pass": verdict["pass"], "value": verdict["excess_quantile"].estimate},
    ]
    if "ks_limit" in verdict:
        ks, threshold = verdict["ks_limit"], verdict["ks_limit_threshold"]
        clauses.append({"id": "c7_ks_limit", "pass": ks <= threshold, "value": ks, "threshold": threshold,
                        "alpha": experiments.KS_ALPHA})
        clauses.append({"id": "c7_ks_oracle", "pass": verdict["ks_oracle"] <= 0.05, "value": verdict["ks_oracle"]})
    payload = {
        "delta": delta,
        "n_grid": n_grid,
        "quantiles": rows,
        "half_min_quantile": verdict["half_min_quantile"],
        "half_max_quantile": verdict["half_max_quantile"],
        "clauses": clauses,
        "pass": all(c["pass"] for c in clauses),
    }
    write_json(os.path.join(out, "verdict_quantiles.json"), payload)
    _write_text(os.path.join(out, "quantiles.svg"), svgplot.line_chart(
        n_grid,
        {
            "n * quantile(excess)": [r[1] for r in rows],
            "half limit quantile (upper)": [verdict["half_max_quantile"]] * len(n_grid),
            "half limit quantile (lower)": [verdict["half_min_quantile"]] * len(n_grid),
        },
        f"excess quantile vs n (level {1 - delta:g})",
        "n",
        "n * quantile",
    ))
    return payload


def _mc_consistency(cfg, out, law, collection, prof, trials):
    n_grid = [int(v) for v in _param(cfg, "n_grid", required=True)]
    seed = int(cfg["seed"])
    rows = experiments.consistency_curve(law, collection, n_grid, trials, seed, prof)
    write_csv(
        os.path.join(out, "consistency.csv"),
        ["n", "p_miss", "se", "ci_lo", "ci_hi", "trials"],
        [[r["n"], r["p_miss"], r["se"], r["ci_lo"], r["ci_hi"], r["trials"]] for r in rows],
    )
    final = rows[-1]
    clauses = [
        {"id": "c6_final_leq_first", "pass": final["p_miss"] <= rows[0]["p_miss"] + 2 * (final["se"] + rows[0]["se"]), "value": final["p_miss"]},
    ]
    payload = {"rows": rows, "clauses": clauses, "pass": all(c["pass"] for c in clauses)}
    write_json(os.path.join(out, "verdict_consistency.json"), payload)
    _write_text(os.path.join(out, "consistency.svg"), svgplot.line_chart(
        [r["n"] for r in rows],
        {"P(suboptimal index)": [r["p_miss"] for r in rows]},
        "selection consistency",
        "n",
        "miss probability",
    ))
    return payload


def _mc_validity(cfg, out, law, collection, prof, trials):
    delta = float(_param(cfg, "delta", 0.1))
    bound_kind = _param(cfg, "bound", "explicit")
    k = _param(cfg, "k")
    seed = int(cfg["seed"])
    n_grid = _param(cfg, "n_grid")
    if n_grid is None:
        if bound_kind == "single_class":
            inputs = compute_bound_inputs(prof, 1000, trials=2000, seed=seed)
            thr = single_class_threshold_value(
                inputs.cov_dev_lambda_max.value, inputs.quad_form_var_sup.value, collection.max_dim, delta
            )
            n_grid = [int(math.ceil(thr))]
        else:
            n_grid = [resolve_explicit_threshold(prof, delta, trials=2000, seed=seed)]
    n_grid = [int(v) for v in n_grid]
    result = experiments.bound_validity_sweep(
        law, collection, delta, n_grid, trials, seed, prof,
        bound_kind=bound_kind, k=None if k is None else int(k),
    )
    write_csv(
        os.path.join(out, "validity.csv"),
        ["n", "k", "threshold", "above_threshold", "bound", "violations", "rate", "allowed", "pass"],
        [
            [r["n"], r["k"], r["threshold"], int(r["above_threshold"]), r["bound"], r["violations"], r["rate"], r["allowed"], int(r["pass"])]
            for r in result["rows"]
        ],
    )
    clauses = [
        {"id": "c8_validity", "pass": result["pass"], "value": max(r["rate"] for r in result["rows"])}
    ]
    payload = {**result, "clauses": clauses}
    write_json(os.path.join(out, "verdict_validity.json"), payload)
    _write_text(os.path.join(out, "validity.svg"), svgplot.bar_chart(
        [str(r["n"]) for r in result["rows"]],
        [r["rate"] for r in result["rows"]],
        f"violation rate (allowed {delta:g} + 2 SE)",
        "n",
        "rate",
    ))
    return payload


def _mc_pathwise(cfg, out, law, collection, prof, trials):
    n = int(_param(cfg, "n", required=True))
    slack = float(_param(cfg, "slack", 1e-8))
    seed = int(cfg["seed"])
    batch = experiments.run_trials(law, collection, n, trials, seed, prof, snapshots=True)
    res = experiments.pathwise_master_check(batch, prof, slack=slack)
    write_csv(
        os.path.join(out, "pathwise.csv"),
        ["trial", "t_hat", "lam_plus", "lam_minus", "delta_plus", "g_sq_hat", "gap_hat", "est_err_hat"],
        [
            [i, str(batch.t_hat[i]), batch.lam_plus[i], batch.lam_minus[i], batch.delta_plus[i],
             batch.g_sq_hat[i], batch.gap_hat[i], batch.est_err_hat[i]]
            for i in range(batch.trials)
        ],
    )
    payload = {
        "n": n,
        "trials": trials,
        "checked": res.checked,
        "excluded": res.excluded,
        "violations": res.violations,
        "worst_slack": res.worst_slack,
        "clauses": [{"id": "c9_pathwise", "pass": res.ok, "value": res.violations}],
        "pass": res.ok,
    }
    write_json(os.path.join(out, "verdict_pathwise.json"), payload)
    return payload


def _mc_bss(cfg, out, law, collection, prof, trials):
    seed = int(cfg["seed"])
    design = _param(cfg, "design", "discrete")
    d = int(_param(cfg, "d", required=True))
    s = int(_param(cfg, "s", required=True))
    w_true = _param(cfg, "w_true", required=True)
    noise_std = float(_param(cfg, "noise_std", 1.0))
    n_grid = [int(v) for v in _param(cfg, "n_grid", required=True)]
    delta = float(_param(cfg, "delta", 0.1))
    report = experiments.bss_study(
        design, d, s, w_true, noise_std, n_grid, trials, seed, delta=delta,
        check_threshold=bool(_param(cfg, "check_threshold", design == "discrete")),
    )
    write_csv(
        os.path.join(out, "bss.csv"),
        ["n", "recovery", "ci_lo", "ci_hi", "a_n", "a_n_se", "singular_rate"],
        [
            [r["n"], r["recovery"], r["recovery_ci"][0], r["recovery_ci"][1], r["a_n"], r["a_n_se"], r["singular_rate"]]
            for r in report.rows
        ],
    )
    clauses = [
        {"id": "c11_ratio_trend", "pass": report.ratio_nonincreasing, "value": report.rows[-1]["a_n"]},
    ]
    if report.recovery_at_threshold is not None:
        clauses.append(
            {"id": "c11_recovery", "pass": report.recovery_at_threshold >= 1 - delta, "value": report.recovery_at_threshold}
        )
    payload = {
        "design": report.design,
        "d": report.d,
        "s": report.s,
        "support": list(report.support),
        "gamma": report.gamma,
        "n_threshold": report.n_threshold,
        "threshold_k": report.threshold_k,
        "rows": list(report.rows),
        "clauses": clauses,
        "pass": all(c["pass"] for c in clauses),
    }
    write_json(os.path.join(out, "verdict_bss.json"), payload)
    _write_text(os.path.join(out, "bss.svg"), svgplot.line_chart(
        [r["n"] for r in report.rows],
        {
            "recovery": [r["recovery"] for r in report.rows],
            "a_n": [r["a_n"] for r in report.rows],
        },
        "best-subset study",
        "n",
        "recovery / ratio",
    ))
    return payload


_MC_SUBCOMMANDS = {
    "quantiles": _mc_quantiles,
    "consistency": _mc_consistency,
    "validity": _mc_validity,
    "pathwise": _mc_pathwise,
    "bss": _mc_bss,
}

_MC_MIN_TRIALS = {"quantiles": 100, "consistency": 10, "validity": 100, "pathwise": 10, "bss": 10}


def cmd_montecarlo(cfg: dict, out: str, sub: str, trials_override: int | None) -> int:
    trials = int(trials_override or _param(cfg, "trials", 1000))
    if trials < _MC_MIN_TRIALS[sub]:
        raise experiments.InsufficientTrialsError(
            f"subcommand {sub} needs at least {_MC_MIN_TRIALS[sub]} trials, got {trials}"
        )
    prof = None if sub == "bss" else _profile_of(cfg)
    law, collection = (None, None) if prof is None else (prof.law, prof.collection)
    payload = _MC_SUBCOMMANDS[sub](cfg, out, law, collection, prof, trials)
    status = "PASS" if payload.get("pass", True) else "FAIL"
    print(f"montecarlo {sub}: {status}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unionerm", description=__doc__)
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config master seed")
    parser.add_argument("--trials", type=int, default=None, help="override the trial count")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("profile")
    sub.add_parser("bounds")
    sub.add_parser("localize")
    mc = sub.add_parser("montecarlo")
    mc.add_argument("subcommand", choices=sorted(_MC_SUBCOMMANDS))
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "profile":
            return cmd_profile(cfg, args.out)
        if args.command == "bounds":
            return cmd_bounds(cfg, args.out, args.trials)
        if args.command == "localize":
            return cmd_localize(cfg, args.out, args.trials)
        if args.command == "montecarlo":
            return cmd_montecarlo(cfg, args.out, args.subcommand, args.trials)
        raise AssertionError("unreachable")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateFeatureError, DuplicateClassError) as exc:
        print(f"degenerate model: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except experiments.InsufficientTrialsError as exc:
        print(f"insufficient trials: {exc}", file=sys.stderr)
        return EXIT_TRIALS
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
