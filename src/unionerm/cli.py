"""Command-line front end.

Subcommands:

* ``profile``     — exact population profile of (law, collection)
* ``bounds``      — full constant/threshold/bound report (JSON + CSV grid)
* ``localize``    — localization-set trace (JSON + table + SVG)
* ``montecarlo``  — Monte Carlo verdicts: ``quantiles``, ``consistency``,
                    ``validity``, ``pathwise``, ``bss``

Configs are JSON documents that ``check_config`` walks before any
computation: it states every structural rule and, in ``PARAM_RULES``, the
rule of every param a command reads, and names the broken field as
``$.path``.  The master seed is mandatory (there is no wall-clock default).
All outputs are deterministic functions of (config, seed overrides) and are
written as UTF-8, atomically (temp file + rename), with the umask's mode.

Exit codes: 0 success, 2 config error, 3 degenerate model, 4 insufficient
trials, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import experiments, localization, svgplot
from .bounds import compute_bound_inputs, thresholds_and_bounds
from .model import (
    DegenerateFeatureError,
    DiscreteLaw,
    DuplicateClassError,
    FeatureCollection,
    FeatureEntry,
    subset_collection,
)
from .population import profile as build_profile
from .processes import EXPECTED_SUP_MIN_TRIALS

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_TRIALS = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config rules and builders
# ---------------------------------------------------------------------------

def _integer(v) -> bool:
    """A JSON integer: an int, or a float of integral value; never a bool."""
    return type(v) is int or type(v) is float and v.is_integer()


def _number(v) -> bool:
    """A JSON number (NaN and the infinities included); never a bool."""
    return type(v) is int or type(v) is float


def _grid(rule, wanted):
    holds, _, read = rule
    return lambda v: type(v) is list and len(v) > 0 and all(map(holds, v)), wanted, read and (lambda v: [*map(read, v)])


def _one_of(*choices):
    return lambda v: type(v) is str and v in choices, " or ".join(map(repr, choices)), None


_COUNT = (lambda v: _integer(v) and v >= 1, "an integer >= 1", int)
_LEVEL = (lambda v: _number(v) and 0 < v < 1, "a number in (0, 1)", None)

# Every param a command reads, as (holds, wanted, read): check_config rejects a
# value that does not hold, and _param returns read(value) (an integral float
# as an int), or the value itself when read is None.
PARAM_RULES = {
    **dict.fromkeys(("n", "k", "d", "s", "draws"), _COUNT),
    "n_grid": _grid(_COUNT, "a non-empty list of integers >= 1"),
    "trials": (_integer, "an integer", int),  # its floor depends on the command: _trials
    "delta": _LEVEL,
    "delta_grid": _grid(_LEVEL, "a non-empty list of numbers in (0, 1)"),
    "noise_std": (lambda v: _number(v) and 0 < v < math.inf, "a finite number > 0", None),
    "slack": (lambda v: _number(v) and 0 <= v < math.inf, "a finite number >= 0", None),
    "check_threshold": (lambda v: type(v) is bool, "true or false", None),
    "bound": _one_of("explicit", "single_class"),
    "complexity": _one_of("explicit", "expected_sup"),
    "design": _one_of("discrete", "gaussian"),
    "w_true": (lambda v: type(v) is list and all(_number(x) and math.isfinite(x) for x in v), "a list of finite numbers", None),
}


def _seed_error(seed) -> str | None:
    """What breaks the master seed's rule, a JSON integer >= 0, if anything."""
    if not _integer(seed):
        return f"{seed!r} is not of type 'integer'"
    return f"{seed!r} is less than the minimum of 0" if seed < 0 else None


def _config_errors(cfg):
    """(path, message) for every broken config rule.  Below a broken node
    nothing is checked: its own error is shallower, so it is the one named.
    Finite atoms of equal length summing to one are ``DiscreteLaw``'s checks."""
    if type(cfg) is not dict:
        yield (), f"{cfg!r} is not of type 'object'"
        return
    if "seed" not in cfg:
        yield (), "'seed' is a required property"
    elif seed_error := _seed_error(cfg["seed"]):
        yield ("seed",), seed_error
    if "law" in cfg:
        yield from _law_errors(cfg["law"])
    if "collection" in cfg:
        yield from _collection_errors(cfg["collection"])
    params = cfg.get("params", {})
    if type(params) is not dict:
        yield ("params",), f"{params!r} is not of type 'object'"
        return
    for name, value in params.items():  # a param no command reads is free
        if name in PARAM_RULES and not PARAM_RULES[name][0](value):
            yield ("params", name), f"must be {PARAM_RULES[name][1]}, got {value!r}"


def _law_errors(law):
    if type(law) is not dict:
        yield ("law",), f"{law!r} is not of type 'object'"
        return
    for key in ("kind", "atoms"):
        if key not in law:
            yield ("law",), f"{key!r} is a required property"
    if "kind" in law and law["kind"] != "discrete":
        yield ("law", "kind"), "'discrete' was expected"
    atoms = law.get("atoms", [])
    if type(atoms) is not list:
        yield ("law", "atoms"), f"{atoms!r} is not of type 'array'"
        return
    if not atoms and "atoms" in law:
        yield ("law", "atoms"), "[] should be non-empty"
    # one inline chain per atom, as a law may have thousands; a message is formed only for a broken rule
    for i, atom in enumerate(atoms):
        if type(atom) is not dict:
            yield ("law", "atoms", i), f"{atom!r} is not of type 'object'"
            continue
        if "x" not in atom or "y" not in atom or "w" not in atom:
            yield ("law", "atoms", i), f"{next(k for k in 'xyw' if k not in atom)!r} is a required property"
            continue
        x, y, w = atom["x"], atom["y"], atom["w"]
        if type(x) is not list:
            yield ("law", "atoms", i, "x"), f"{x!r} is not of type 'array'"
        elif not x:
            yield ("law", "atoms", i, "x"), "[] should be non-empty"
        for j, v in enumerate(x if type(x) is list else ()):
            if type(v) is not float and type(v) is not int:
                yield ("law", "atoms", i, "x", j), f"{v!r} is not of type 'number'"
        if type(y) is not float and type(y) is not int:
            yield ("law", "atoms", i, "y"), f"{y!r} is not of type 'number'"
        if type(w) is not float and type(w) is not int:
            yield ("law", "atoms", i, "w"), f"{w!r} is not of type 'number'"
        elif w <= 0:  # NaN passes here and fails in DiscreteLaw
            yield ("law", "atoms", i, "w"), f"{w!r} is less than or equal to the minimum of 0"


def _collection_errors(coll):
    """The rules of the collection's ``kind``: ``subsets`` or ``explicit``."""
    if type(coll) is not dict:
        yield ("collection",), f"{coll!r} is not of type 'object'"
        return
    kind, entries = coll.get("kind"), coll.get("entries")
    if "kind" not in coll:
        yield ("collection",), "'kind' is a required property"
    elif kind == "subsets":
        for key in ("dim", "sparsity"):
            if key not in coll:
                yield ("collection",), f"{key!r} is a required property"
            elif not _integer(coll[key]):
                yield ("collection", key), f"{coll[key]!r} is not of type 'integer'"
            elif coll[key] < 1:
                yield ("collection", key), f"{coll[key]!r} is less than the minimum of 1"
    elif kind != "explicit":
        yield ("collection", "kind"), f"{kind!r} is not one of ['explicit', 'subsets']"
    elif "entries" not in coll:
        yield ("collection",), "'entries' is a required property"
    elif type(entries) is not list:
        yield ("collection", "entries"), f"{entries!r} is not of type 'array'"
    elif not entries:
        yield ("collection", "entries"), "[] should be non-empty"
    for i, entry in enumerate(entries if kind == "explicit" and type(entries) is list else ()):
        at = ("collection", "entries", i)
        if type(entry) is not dict:
            yield at, f"{entry!r} is not of type 'object'"
            continue
        if "id" not in entry:
            yield at, "'id' is a required property"
        for key in ("coords", "matrix", "offset"):
            if type(entry.get(key, [])) is not list:
                yield at + (key,), f"{entry[key]!r} is not of type 'array'"
        for j, c in enumerate(entry["coords"] if type(entry.get("coords")) is list else ()):
            if not _integer(c):
                yield at + ("coords", j), f"{c!r} is not of type 'integer'"
            elif c < 0:
                yield at + ("coords", j), f"{c!r} is less than the minimum of 0"
        for j, v in enumerate(entry["offset"] if type(entry.get("offset")) is list else ()):
            if not _number(v):
                yield at + ("offset", j), f"{v!r} is not of type 'number'"


def _relevance(error):
    """Shallower errors first, then later siblings.  A collection error ranks
    as ``$.collection`` itself: its kind is one of two alternatives."""
    path = error[0]
    rank = path[:1] if path[:1] == ("collection",) else path
    return -len(rank), rank


def check_config(cfg) -> None:
    """Raise ConfigError naming the most relevant broken config rule, if any."""
    errors = list(_config_errors(cfg))
    if errors:
        path, message = max(errors, key=_relevance)
        where = "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path)
        raise ConfigError(f"config field ${where}: {message}")


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:  # JSON's encoding, whatever the locale's
            cfg = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    check_config(cfg)
    return cfg


def build_law(cfg: dict):
    if "law" not in cfg:
        raise ConfigError("config field $.law: required for this command")
    atoms = cfg["law"]["atoms"]
    try:  # DiscreteLaw's value checks, and numpy's for x of unequal lengths
        return DiscreteLaw(xs=[a["x"] for a in atoms], ys=[a["y"] for a in atoms], weights=[a["w"] for a in atoms])
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


def build_collection(cfg: dict, law=None) -> FeatureCollection:
    """The config's collection.  An explicit map with no features is a
    config error, and given the ``law`` so is a map that does not fit its
    inputs: a subsets ``dim`` above the input dimension, or an explicit map
    that fails on one input of it."""
    if "collection" not in cfg:
        raise ConfigError("config field $.collection: required for this command")
    coll = cfg["collection"]
    inputs = None if law is None else law.input_dim
    if coll["kind"] == "subsets" and inputs is not None and coll["dim"] > inputs:
        raise ConfigError(f"config field $.collection.dim: {coll['dim']} is more than the law's {inputs} inputs")
    try:
        if coll["kind"] == "subsets":
            return subset_collection(coll["dim"], coll["sparsity"])
        collection = FeatureCollection([_entry_from_json(e) for e in coll["entries"]])
    except ValueError as exc:
        raise ConfigError(f"config field $.collection: {exc}") from exc
    for entry in collection:
        if entry.dim < 1:
            raise ConfigError(f"config field $.collection: map {entry.index!r} has no features")
        try:
            if inputs is not None:
                entry(np.zeros((1, inputs)))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"config field $.collection: map {entry.index!r} does not fit "
                              f"the law's {inputs} inputs: {exc}") from exc
    return collection


def build_profile_of(cfg: dict):
    """The profile of the config's law and collection; drops the parsed atoms from ``cfg`` once the law is built."""
    law = build_law(cfg)
    del cfg["law"]
    return build_profile(law, build_collection(cfg, law))


def _param(cfg: dict, name: str, default=None, required: bool = False):
    """params.<name> as check_config proved it (read by its rule in
    ``PARAM_RULES``), else ``default``."""
    params = cfg.get("params", {})
    if name in params:
        read = PARAM_RULES[name][2]
        return params[name] if read is None else read(params[name])
    if required:
        raise ConfigError(f"config field $.params.{name}: required for this command")
    return default


def _trials(cfg: dict, trials_override: int | None, default: int, minimum: int, what: str) -> int:
    """The trial count (``--trials``, else params.trials, else ``default``);
    below ``minimum`` it is an insufficient-trials error."""
    trials = trials_override if trials_override is not None else _param(cfg, "trials", default)
    if trials < minimum:
        raise experiments.InsufficientTrialsError(f"{what} needs at least {minimum} trials, got {trials}")
    return trials


# ---------------------------------------------------------------------------
# Atomic writers
# ---------------------------------------------------------------------------

_TEMP_NUMBERS = itertools.count()


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through a temp file beside it and a
    rename, so that a reader sees the old file or the new one.  The temp file
    is created with mode 0o666, so the file published gets the umask's mode."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    for n in _TEMP_NUMBERS:  # pid and count name a file no other write holds; a stale one is skipped
        tmp = f"{path}.{os.getpid()}.{n}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass
    try:
        with open(fd, "w", encoding="utf-8", newline="") as f:
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
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _csv_field(value) -> str:
    """The text ``csv.writer`` gives ``value`` in a row of two or more fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, None))
    return buf.getvalue()[:-2]


def _float_reprs(values) -> list[str]:
    """The ``repr`` of each of one or more values as a float64, in one
    ``repr`` of their list (a float's repr never holds ", ")."""
    return repr(np.asarray(values, dtype=np.float64).tolist())[1:-1].split(", ")


def write_csv(path: str, columns: dict) -> None:
    """Write the table ``{header: column}``, columns of one length, as
    ``csv.writer`` writes it row by row: minimal quoting, ``\\n`` line ends.

    The header goes through ``csv.writer``.  Each column is formed as text
    first, and each row is its cells joined with ``,``; a row that joins to
    nothing (a one-column row's empty field) is written ``""``, as csv does:

    * float64 array cells are formed as the ``repr`` of each distinct bit
      pattern across all such columns (per-trial tables repeat many values),
      taken in one ``repr`` of the list of distinct values;
    * a list of floats (a report table's few rows) is formed in one ``repr``
      of the list, with no dedupe: ``np.unique``'s first sort in a process
      pages in ~0.5 MB that a command writing no float64 array never touches;
    * a column of ints and bools (an int or bool array, a ``range``) is
      formed as the ``str`` of each item;
    * any other cell goes through ``csv.writer`` on its own, so its quoting
      stays csv's, once per distinct value in a column of ``str`` cells.

    Any other array goes through ``tolist()``, and an iterator is read into a
    list first."""
    cols = [c.tolist() if isinstance(c, np.ndarray) and c.dtype != np.float64 else c for c in columns.values()]
    floats = [j for j, c in enumerate(cols) if isinstance(c, np.ndarray)]
    for j, c in enumerate(cols):
        if j not in floats:
            c = list(c)
            kinds = set(map(type, c))
            if kinds <= {int, bool}:
                cols[j] = list(map(str, c))
            elif all(issubclass(k, float) for k in kinds):
                cols[j] = _float_reprs(c)
            elif kinds == {str}:  # exact str only: 0.0 == -0.0 and 1 == 1.0 == True as keys
                text = {v: _csv_field(v) for v in set(c)}
                cols[j] = [text[v] for v in c]
            else:
                cols[j] = list(map(_csv_field, c))
    if floats:
        bits, inverse = np.unique(np.concatenate([cols[j] for j in floats]).view(np.int64), return_inverse=True)
        text = iter(np.array(_float_reprs(bits.view(np.float64)), dtype=object)[inverse].tolist())
        for j in floats:
            cols[j] = list(itertools.islice(text, len(cols[j])))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(columns)
    for row in zip(*cols, strict=True):
        buf.write(",".join(row) or '""')
        buf.write("\n")
    _write_text(path, buf.getvalue())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_profile(cfg: dict, out: str) -> int:
    prof = build_profile_of(cfg)
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
    enc = getattr(sys.stdout, "encoding", None) or "utf-8"  # escape the ids stdout cannot encode
    print("\n".join(lines).encode(enc, "backslashreplace").decode(enc))
    return EXIT_OK


def cmd_bounds(cfg: dict, out: str, trials_override: int | None) -> int:
    prof = build_profile_of(cfg)
    n = _param(cfg, "n", required=True)
    delta = _param(cfg, "delta", 0.1)
    k = _param(cfg, "k", 1)
    delta_grid = _param(cfg, "delta_grid", [0.01, 0.02, 0.05, 0.1, 0.2, 0.5])
    trials = _trials(cfg, trials_override, 4000, EXPECTED_SUP_MIN_TRIALS, "command bounds")
    seed = int(cfg["seed"])
    inputs = compute_bound_inputs(prof, n, trials=trials, seed=seed)
    report = thresholds_and_bounds(prof, inputs, n, delta, k=k)
    write_json(os.path.join(out, "bounds.json"), report.to_json_dict())
    cols = ("single_class_threshold", "explicit_threshold", "expected_sup_threshold",
            "single_class_excess_bound", "explicit_excess_bound", "expected_sup_excess_bound")
    grid = [report if dval == delta else thresholds_and_bounds(prof, inputs, n, dval, k=k) for dval in delta_grid]
    write_csv(os.path.join(out, "thresholds.csv"),
              {"delta": delta_grid, **{c: [getattr(r, c).value for r in grid] for c in cols}})
    print(f"wrote bounds.json and thresholds.csv (n={n}, delta={delta}, k={k})")
    return EXIT_OK


def cmd_localize(cfg: dict, out: str, trials_override: int | None) -> int:
    prof = build_profile_of(cfg)
    n = _param(cfg, "n", required=True)
    delta = _param(cfg, "delta", 0.1)
    k = _param(cfg, "k")
    source = _param(cfg, "complexity", "explicit")
    if source == "explicit":
        cx = localization.ClosedFormComplexity(prof, n)  # exact: reads no trials
    else:
        trials = _trials(cfg, trials_override, 4000, EXPECTED_SUP_MIN_TRIALS, f"command localize with complexity {source}")
        cx = localization.ExpectedSupComplexity(prof, n, trials=trials, seed=int(cfg["seed"]))
    if k is None:
        sweep = localization.k_sweep(n, delta, prof, cx)
        k, bound, trace = localization.best_k(sweep)
        _write_text(os.path.join(out, "localize_ksweep.svg"), svgplot.line_chart(
            [tr.k for tr in sweep],
            {"final bound": [tr.final_bound for tr in sweep]},
            "excess bound vs iteration count",
            "k",
            "bound",
        ))
    else:
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
    n_grid = _param(cfg, "n_grid", required=True)
    delta = _param(cfg, "delta", 0.1)
    draws = _param(cfg, "draws", max(trials, 10_000))
    seed = int(cfg["seed"])
    experiments.check_quantile_resolution(trials, draws, delta)
    z_minus, z_plus = experiments.sample_gaussian_limit(prof, draws, seed)
    rows = []
    for i, n in enumerate(n_grid):
        final = experiments.run_trials(law, collection, n, trials, experiments._grid_seed(seed, i), prof)
        q = experiments.estimate_quantile(final.n_excess, 1 - delta)
        rows.append([n, q.estimate, q.ci_lo, q.ci_hi])
    verdict = experiments.quantile_sandwich_check(final, z_minus, z_plus, delta)
    write_csv(os.path.join(out, "trials_quantiles.csv"), {
        "trial": range(final.trials), "t_hat": map(str, final.t_hat), "n_excess": final.n_excess,
        "n_excess_oracle": final.n_excess_oracle, "singular": final.singular.astype(np.int8),
    })
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
    }
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
    return payload, clauses


def _mc_consistency(cfg, out, law, collection, prof, trials):
    n_grid = _param(cfg, "n_grid", required=True)
    seed = int(cfg["seed"])
    rows = experiments.consistency_curve(law, collection, n_grid, trials, seed, prof)
    write_csv(os.path.join(out, "consistency.csv"),
              {c: [r[c] for r in rows] for c in ("n", "p_miss", "se", "ci_lo", "ci_hi", "trials")})
    final = rows[-1]
    clauses = [
        {"id": "c6_final_leq_first", "pass": final["p_miss"] <= rows[0]["p_miss"] + 2 * (final["se"] + rows[0]["se"]), "value": final["p_miss"]},
    ]
    _write_text(os.path.join(out, "consistency.svg"), svgplot.line_chart(
        [r["n"] for r in rows],
        {"P(suboptimal index)": [r["p_miss"] for r in rows]},
        "selection consistency",
        "n",
        "miss probability",
    ))
    return {"rows": rows}, clauses


def _mc_validity(cfg, out, law, collection, prof, trials):
    delta = _param(cfg, "delta", 0.1)
    bound_kind = _param(cfg, "bound", "explicit")
    k = _param(cfg, "k")
    result = experiments.bound_validity_sweep(
        law, collection, delta, _param(cfg, "n_grid"), trials, int(cfg["seed"]), prof, bound_kind=bound_kind, k=k,
    )
    cols = ("n", "k", "threshold", "above_threshold", "bound", "violations", "rate", "allowed", "pass")
    flags = ("above_threshold", "pass")
    write_csv(os.path.join(out, "validity.csv"),
              {c: [int(r[c]) if c in flags else r[c] for r in result["rows"]] for c in cols})
    clauses = [
        {"id": "c8_validity", "pass": result["pass"], "value": max(r["rate"] for r in result["rows"])}
    ]
    _write_text(os.path.join(out, "validity.svg"), svgplot.bar_chart(
        [str(r["n"]) for r in result["rows"]],
        [r["rate"] for r in result["rows"]],
        f"violation rate (allowed {delta:g} + 2 SE)",
        "n",
        "rate",
    ))
    return result, clauses


def _mc_pathwise(cfg, out, law, collection, prof, trials):
    n = _param(cfg, "n", required=True)
    slack = _param(cfg, "slack", 1e-8)
    seed = int(cfg["seed"])
    batch = experiments.run_trials(law, collection, n, trials, seed, prof, snapshots=True)
    res = experiments.pathwise_master_check(batch, prof, slack=slack)
    cols = ("lam_plus", "lam_minus", "delta_plus", "g_sq_hat", "gap_hat", "est_err_hat")
    write_csv(os.path.join(out, "pathwise.csv"),
              {"trial": range(batch.trials), "t_hat": map(str, batch.t_hat), **{c: getattr(batch, c) for c in cols}})
    payload = {
        "n": n,
        "trials": trials,
        "checked": res.checked,
        "excluded": res.excluded,
        "violations": res.violations,
        "worst_slack": res.worst_slack,
    }
    return payload, [{"id": "c9_pathwise", "pass": res.ok, "value": res.violations}]


def _mc_bss(cfg, out, law, collection, prof, trials):
    seed = int(cfg["seed"])
    design = _param(cfg, "design", "discrete")
    d = _param(cfg, "d", required=True)
    s = _param(cfg, "s", required=True)
    w_true = _param(cfg, "w_true", required=True)
    if len(w_true) != d:
        raise ConfigError(f"config field $.params.w_true: must be a list of d = {d} numbers")
    nonzeros = sum(v != 0 for v in w_true)
    if s != nonzeros:
        raise ConfigError(f"config field $.params.s: must be the number of nonzeros of w_true ({nonzeros}), got {s}")
    noise_std = _param(cfg, "noise_std", 1.0)
    n_grid = _param(cfg, "n_grid", required=True)
    delta = _param(cfg, "delta", 0.1)
    if (check := _param(cfg, "check_threshold", design == "discrete")) and design != "discrete":
        raise ConfigError("config field $.params.check_threshold: the recovery threshold needs the discrete design")
    report = experiments.bss_study(design, d, s, w_true, noise_std, n_grid, trials, seed, delta=delta, check_threshold=check)
    rows = report.rows
    write_csv(os.path.join(out, "bss.csv"), {
        "n": [r["n"] for r in rows], "recovery": [r["recovery"] for r in rows],
        "ci_lo": [r["recovery_ci"][0] for r in rows], "ci_hi": [r["recovery_ci"][1] for r in rows],
        **{c: [r[c] for r in rows] for c in ("a_n", "a_n_se", "singular_rate")},
    })
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
    }
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
    return payload, clauses


# each returns (verdict payload, clauses); cmd_montecarlo writes verdict_<sub>.json
_MC_SUBCOMMANDS = {
    "quantiles": _mc_quantiles,
    "consistency": _mc_consistency,
    "validity": _mc_validity,
    "pathwise": _mc_pathwise,
    "bss": _mc_bss,
}

_MC_MIN_TRIALS = {"quantiles": 100, "consistency": 10, "validity": 100, "pathwise": 10, "bss": 10}


def cmd_montecarlo(cfg: dict, out: str, sub: str, trials_override: int | None) -> int:
    trials = _trials(cfg, trials_override, 1000, _MC_MIN_TRIALS[sub], f"subcommand {sub}")
    prof = None if sub == "bss" else build_profile_of(cfg)
    law, collection = (None, None) if prof is None else (prof.law, prof.collection)
    payload, clauses = _MC_SUBCOMMANDS[sub](cfg, out, law, collection, prof, trials)
    ok = all(c["pass"] for c in clauses)
    write_json(os.path.join(out, f"verdict_{sub}.json"), {**payload, "clauses": clauses, "pass": ok})
    print(f"montecarlo {sub}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later ``main`` call:
    it does not depend on the arguments, and parsing does not change it."""
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
            if seed_error := _seed_error(args.seed):
                raise ConfigError(f"--seed: {seed_error}")
            cfg["seed"] = args.seed
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
