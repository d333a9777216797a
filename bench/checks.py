"""Output checkers.  They never import ``unionerm``.

Every expected value is either a closed form of the workload's law or a
property the method must have; the checkers read only the configs the
benchmark generated, the files the CLI wrote and the profile dumped during
set-up.  Each checker returns a list of failure messages (empty: pass).

Closed forms used (eps a fair +-1 coin throughout, so R* = E[eps^2]/2 = 1/2):

* canonical law, maps A = x1, B = x2: w*(A) = 1 with risk 1/2; w*(B) = 2
  with risk (E y^2 - 4 E[x2 y] + 4 E x2^2)/2 = (3.5 - 4 + 2)/2 = 3/4; so
  t* = (A,), gap 1/4.  The whitened gradient of A is -eps x1 / sqrt(E x1^2)
  with variance 1, so n * excess tends to 0.5 * chi2_1.
* hypercube law with support S and unit weights, subset maps t: the
  features are orthonormal, so risk(t) = 1/2 + |S \\ t| / 2 and
  gap(t) = |S \\ t| / 2.  For s = 2 the covariance-deviation matrix
  E[(psi psi^T - I)^2] is exactly I (lambda_max = s - 1 = 1); the quartic
  supremum is 1, attained at v = (1, 1)/sqrt(2) on one block, and
  Var(x^T M x) = 2 sum_{i != j} M_ij^2 <= 1 bounds it above for Rademacher x.
"""

from __future__ import annotations

import ast
import csv
import itertools
import json
import math
import os

from scipy import stats

# Confidence of the order-statistic intervals the Monte Carlo checks use.
# A correct program fails one of them with probability about 1e-6 per run.
STAT_ALPHA = 1e-6
# |a_n - 1/2| may be at most this many of the program's standard errors.
A_N_SE_MULT = 5.0
# quad_form_var_sup must lie in [1 - QUARTIC_TOL, 1 + EXACT_TOL].
QUARTIC_TOL = 1e-6
EXACT_TOL = 1e-9
DEFAULT_DELTA_GRID = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def read_json(path: str):
    with open(path) as f:
        return json.load(f)


def parse_id(text: str):
    """CLI ids are str(index): a tuple of ints for subsets, a name otherwise."""
    return tuple(ast.literal_eval(text)) if text.startswith("(") else text


def close(a: float, b: float, tol: float = EXACT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def order_stat_interval(sorted_x: list[float], level: float, alpha: float = STAT_ALPHA):
    """Distribution-free interval [x_(lo), x_(hi)] for the level-quantile."""
    n = len(sorted_x)
    lo = max(int(stats.binom.ppf(alpha / 2.0, n, level)), 1)
    hi = min(int(stats.binom.ppf(1.0 - alpha / 2.0, n, level)) + 1, n)
    return sorted_x[lo - 1], sorted_x[hi - 1]


def clopper_pearson(k: int, n: int, conf: float = 0.95) -> tuple[float, float]:
    a = 1.0 - conf
    lo = 0.0 if k == 0 else float(stats.beta.ppf(a / 2.0, k, n - k + 1))
    hi = 1.0 if k == n else float(stats.beta.ppf(1.0 - a / 2.0, k + 1, n - k))
    return lo, hi


# ---------------------------------------------------------------------------
# Set-up profiles
# ---------------------------------------------------------------------------

def check_profile(dump: dict, expected_gaps: dict, t_star: list[str]) -> list[str]:
    errs = []
    if dump["t_star"] != t_star:
        errs.append(f"profile t_star {dump['t_star']} != {t_star}")
    if not close(dump["r_star"], 0.5):
        errs.append(f"profile r_star {dump['r_star']!r} != 0.5")
    if set(dump["gaps"]) != set(expected_gaps):
        errs.append(f"profile indices differ: {sorted(set(dump['gaps']) ^ set(expected_gaps))[:5]}")
        return errs
    bad = [t for t, g in expected_gaps.items() if not close(dump["gaps"][t], g)]
    if bad:
        errs.append(f"profile gaps differ from the closed form at {bad[:5]}")
    positive = [g for g in expected_gaps.values() if g > 0]
    if positive and not close(dump["gamma"], min(positive)):
        errs.append(f"profile gamma {dump['gamma']!r} != {min(positive)}")
    return errs


def subset_gaps(d: int, s: int, support) -> dict[str, float]:
    """gap(t) = |support \\ t| / 2 for every size-s subset t of range(d)."""
    return {str(t): 0.5 * len(set(support) - set(t)) for t in itertools.combinations(range(d), s)}


# ---------------------------------------------------------------------------
# mc_canonical
# ---------------------------------------------------------------------------

CANONICAL_GAPS = {"A": 0.0, "B": 0.25}


def check_canonical_profile(dump: dict, cfgs: dict) -> list[str]:
    return check_profile(dump, CANONICAL_GAPS, ["A"])


def check_quantiles(out: str, cfgs: dict) -> list[str]:
    params = cfgs["quantiles"]["params"]
    delta, trials, n_grid = params["delta"], params["trials"], params["n_grid"]
    n = n_grid[-1]
    errs = []
    header, rows = read_csv(os.path.join(out, "trials_quantiles.csv"))
    if header != ["trial", "t_hat", "n_excess", "n_excess_oracle", "singular"]:
        return [f"trials_quantiles.csv header {header}"]
    if [int(r[0]) for r in rows] != list(range(trials)):
        return [f"trials_quantiles.csv has {len(rows)} rows, expected trials 0..{trials - 1}"]
    excess = []
    for r in rows:
        t_hat, ne, no = r[1], float(r[2]), float(r[3])
        excess.append(ne)
        if t_hat not in CANONICAL_GAPS:
            errs.append(f"trial {r[0]}: unknown index {t_hat!r}")
        elif ne < 0.0 or no < 0.0:
            errs.append(f"trial {r[0]}: negative rescaled excess ({ne!r}, {no!r})")
        elif t_hat == "A" and ne != no:
            errs.append(f"trial {r[0]}: selected the oracle index but excess {ne!r} != oracle {no!r}")
        elif ne < n * CANONICAL_GAPS[t_hat] * (1.0 - EXACT_TOL):
            errs.append(f"trial {r[0]}: excess {ne!r} below n * gap({t_hat})")
        if r[4] not in ("0", "1"):
            errs.append(f"trial {r[0]}: singular flag {r[4]!r}")
    if errs:
        return errs[:5]
    xs = sorted(excess)
    target = 0.5 * float(stats.chi2.ppf(1.0 - delta, 1))
    lo, hi = order_stat_interval(xs, 1.0 - delta)
    if not lo <= target <= hi:
        errs.append(f"n={n}: {1 - delta:g}-quantile interval [{lo:.4g}, {hi:.4g}] misses 0.5*chi2_1 quantile {target:.4g}")
    verdict = read_json(os.path.join(out, "verdict_quantiles.json"))
    if [row[0] for row in verdict["quantiles"]] != n_grid:
        errs.append(f"verdict n grid {[row[0] for row in verdict['quantiles']]} != {n_grid}")
    for row in verdict["quantiles"]:
        if not row[2] <= row[1] <= row[3]:
            errs.append(f"n={row[0]}: quantile {row[1]} outside its interval [{row[2]}, {row[3]}]")
    point = xs[min(max(math.ceil(trials * (1.0 - delta)) - 1, 0), trials - 1)]
    if verdict["quantiles"][-1][1] != point:
        errs.append(f"verdict quantile at n={n} {verdict['quantiles'][-1][1]!r} != CSV order statistic {point!r}")
    # the limit law is 0.5 * chi2_1 here, so half_max_quantile is half an
    # order statistic of `draws` chi2_1 samples: F(2 * value) ~ Beta(k, N-k+1)
    draws = params.get("draws", max(trials, 10_000))
    k = math.ceil(draws * (1.0 - delta))
    u = float(stats.chi2.cdf(2.0 * verdict["half_max_quantile"], 1))
    u_lo, u_hi = stats.beta.ppf([STAT_ALPHA / 2, 1 - STAT_ALPHA / 2], k, draws - k + 1)
    if not u_lo <= u <= u_hi:
        errs.append(f"limit quantile {verdict['half_max_quantile']!r} is not a plausible chi2_1 order statistic")
    if verdict["half_min_quantile"] != verdict["half_max_quantile"]:
        errs.append("singleton optimal set but the limit sandwich is not degenerate")
    return errs


def check_pathwise(out: str, cfgs: dict) -> list[str]:
    params = cfgs["pathwise"]["params"]
    n, trials = params["n"], params["trials"]
    slack = params.get("slack", 1e-8)
    header, rows = read_csv(os.path.join(out, "pathwise.csv"))
    if header != ["trial", "t_hat", "lam_plus", "lam_minus", "delta_plus", "g_sq_hat", "gap_hat", "est_err_hat"]:
        return [f"pathwise.csv header {header}"]
    if [int(r[0]) for r in rows] != list(range(trials)):
        return [f"pathwise.csv has {len(rows)} rows, expected trials 0..{trials - 1}"]
    errs = []
    checked = 0
    for r in rows:
        t_hat = r[1]
        lam_p, lam_m, del_p, g_sq, gap, est = map(float, r[2:])
        if t_hat not in CANONICAL_GAPS or not close(gap, CANONICAL_GAPS[t_hat]):
            errs.append(f"trial {r[0]}: gap {gap!r} of {t_hat!r} differs from the closed form")
            continue
        if not (del_p < 1.0 and lam_p < 1.0):
            continue
        checked += 1
        gsq = g_sq / n
        rhs = 0.5 / ((1.0 - del_p) * (1.0 - lam_p)) * gsq
        lo = 0.5 * gsq / (1.0 + lam_m) ** 2
        hi = 0.5 * gsq / (1.0 - lam_p) ** 2
        if gap > rhs + slack or est > hi + slack or est < lo - slack:
            errs.append(f"trial {r[0]}: pathwise inequality fails (gap {gap:.3g} <= {rhs:.3g}, {lo:.3g} <= {est:.3g} <= {hi:.3g})")
    verdict = read_json(os.path.join(out, "verdict_pathwise.json"))
    if (verdict["checked"], verdict["excluded"], verdict["violations"]) != (checked, trials - checked, 0):
        errs.append(
            f"verdict counts (checked, excluded, violations) = "
            f"{(verdict['checked'], verdict['excluded'], verdict['violations'])}, recomputed {(checked, trials - checked, 0)}"
        )
    return errs[:5]


# ---------------------------------------------------------------------------
# bounds_localize
# ---------------------------------------------------------------------------

def _hypercube(cfg: dict) -> tuple[int, int, tuple]:
    """(d, s, support); the support is where E[x_j y] = 1 (0 elsewhere)."""
    coll = cfg["collection"]
    atoms = cfg["law"]["atoms"]
    signal = [sum(a["w"] * a["x"][j] * a["y"] for a in atoms) for j in range(coll["dim"])]
    return coll["dim"], coll["sparsity"], tuple(j for j, c in enumerate(signal) if abs(c) > 0.5)


def check_hypercube_profile(dump: dict, cfgs: dict) -> list[str]:
    d, s, support = _hypercube(cfgs["bounds_localize"])
    return check_profile(dump, subset_gaps(d, s, support), [str(support)])


def check_bounds(out: str, cfgs: dict) -> list[str]:
    cfg = cfgs["bounds_localize"]
    d, s, support = _hypercube(cfg)
    n = cfg["params"]["n"]
    errs = []
    report = read_json(os.path.join(out, "bounds.json"))
    lam_v = report["cov_dev_lambda_max"]["value"]
    if not close(lam_v, s - 1.0):
        errs.append(f"cov_dev_lambda_max {lam_v!r} != s - 1 = {s - 1}")
    quartic = report["quad_form_var_sup"]["value"]
    if not 1.0 - QUARTIC_TOL <= quartic <= 1.0 + EXACT_TOL:
        errs.append(f"quad_form_var_sup {quartic!r} outside [1 - {QUARTIC_TOL:g}, 1 + {EXACT_TOL:g}]")
    sets = [[parse_id(t) for t in sub] for sub in report["explicit_sets"]]
    if sets and (len(sets[0]) != math.comb(d, s) or any(support not in sub for sub in sets)):
        errs.append("explicit localization sets do not start at T or lose the optimal index")
    header, rows = read_csv(os.path.join(out, "thresholds.csv"))
    expected_header = [
        "delta", "single_class_threshold", "explicit_threshold", "expected_sup_threshold",
        "single_class_excess_bound", "explicit_excess_bound", "expected_sup_excess_bound",
    ]
    if header != expected_header:
        return errs + [f"thresholds.csv header {header}"]
    table = [[float(v) for v in r] for r in rows]
    deltas = [r[0] for r in table]
    if deltas != DEFAULT_DELTA_GRID:
        return errs + [f"thresholds.csv delta column {deltas}"]
    for j, name in enumerate(header[1:], start=1):
        col = [r[j] for r in table]
        if not all(math.isfinite(v) and v > 0.0 for v in col):
            errs.append(f"{name}: non-positive or non-finite value in {col}")
        elif any(b > a for a, b in zip(col, col[1:])):
            errs.append(f"{name} increases with delta: {col}")
    # grad second moment of the optimal index is E[eps^2] * s = s (orthonormal features)
    for dval, row in zip(deltas, table):
        single_thr = (512.0 * (s - 1.0) + 6.0) * (1.0 + math.log(s)) + (128.0 * quartic + 11.0) * math.log(2.0 / dval)
        if not close(row[1], single_thr, 1e-9):
            errs.append(f"delta={dval}: single-class threshold {row[1]!r} != closed form {single_thr!r}")
        if not close(row[4], 4.0 * s / (n * dval), 1e-9):
            errs.append(f"delta={dval}: single-class excess bound {row[4]!r} != 4 s/(n delta)")
    return errs[:5]


def check_localize(out: str, cfgs: dict) -> list[str]:
    cfg = cfgs["bounds_localize"]
    d, s, support = _hypercube(cfg)
    gaps = {parse_id(t): g for t, g in subset_gaps(d, s, support).items()}
    trace = read_json(os.path.join(out, "trace.json"))
    errs = []
    if trace["n"] != cfg["params"]["n"] or trace["delta"] != cfg["params"]["delta"]:
        errs.append(f"trace n/delta {trace['n']}/{trace['delta']} differ from the config")
    k = trace["k"]
    if not 1 <= k <= 1 + len(gaps) - 1:
        errs.append(f"k = {k} outside [1, |T|]")
    sets = [[parse_id(t) for t in sub] for sub in trace["sets"]]
    if len(sets) != k + 1 or len(trace["thresholds"]) != k:
        return errs + [f"{len(sets)} sets and {len(trace['thresholds'])} thresholds for k = {k}"]
    if set(sets[0]) != set(gaps):
        errs.append("the first set is not the whole collection")
    for j, thr in enumerate(trace["thresholds"]):
        cur, nxt = set(sets[j]), set(sets[j + 1])
        if not nxt <= cur:
            errs.append(f"step {j + 1}: set is not nested in the previous one")
        if support not in nxt:
            errs.append(f"step {j + 1}: set lost the optimal index {support}")
        ties = {t for t, g in gaps.items() if abs(g - thr) <= 1e-9 * max(1.0, thr)}
        sublevel = {t for t, g in gaps.items() if g <= thr}
        if nxt - ties != sublevel - ties:
            errs.append(f"step {j + 1}: set != {{t : gap(t) <= {thr:.6g}}}")
    if len(sets[1]) >= len(gaps):
        errs.append("the first localized set is not a proper subset of T")
    if trace["set_sizes"] != [len(sub) for sub in sets]:
        errs.append("set_sizes disagree with the sets")
    membership = {parse_id(t): flags for t, flags in trace["membership"].items()}
    if set(membership) != set(gaps):
        errs.append("membership does not list every index")
    else:
        for t, flags in membership.items():
            if flags != [t in set(sub) for sub in sets]:
                errs.append(f"membership of {t} disagrees with the sets")
                break
    if not (math.isfinite(trace["final_bound"]) and trace["final_bound"] > 0.0):
        errs.append(f"final bound {trace['final_bound']!r}")
    return errs[:5]


# ---------------------------------------------------------------------------
# bss_wide
# ---------------------------------------------------------------------------

def _bss_support(params: dict) -> list[int]:
    return [j for j, w in enumerate(params["w_true"]) if w != 0.0]


def check_bss_profile(dump: dict, cfgs: dict) -> list[str]:
    p = cfgs["bss"]["params"]
    support = tuple(_bss_support(p))
    return check_profile(dump, subset_gaps(p["d"], p["s"], support), [str(support)])


def check_bss(out: str, cfgs: dict) -> list[str]:
    p = cfgs["bss"]["params"]
    trials = p["trials"]
    errs = []
    verdict = read_json(os.path.join(out, "verdict_bss.json"))
    if verdict["support"] != _bss_support(p):
        errs.append(f"support {verdict['support']} != {_bss_support(p)}")
    if verdict["gamma"] is None or not close(verdict["gamma"], 0.5):
        errs.append(f"gamma {verdict['gamma']!r} != 1/2")
    header, rows = read_csv(os.path.join(out, "bss.csv"))
    if header != ["n", "recovery", "ci_lo", "ci_hi", "a_n", "a_n_se", "singular_rate"]:
        return errs + [f"bss.csv header {header}"]
    if [int(r[0]) for r in rows] != p["n_grid"]:
        return errs + [f"bss.csv n column {[r[0] for r in rows]} != {p['n_grid']}"]
    for r in rows:
        n = int(r[0])
        rec, ci_lo, ci_hi, a_n, a_se, sing = map(float, r[1:])
        hits = round(rec * trials)
        if abs(hits - rec * trials) > 1e-9 * trials:
            errs.append(f"n={n}: recovery {rec!r} is not a multiple of 1/{trials}")
            continue
        lo, hi = clopper_pearson(hits, trials)
        if not (close(ci_lo, lo, 1e-9) and close(ci_hi, hi, 1e-9)):
            errs.append(f"n={n}: recovery interval [{ci_lo}, {ci_hi}] != Clopper-Pearson [{lo}, {hi}]")
        if not (a_n >= 0.0 and a_se >= 0.0 and 0.0 <= sing <= 1.0):
            errs.append(f"n={n}: a_n {a_n!r}, se {a_se!r}, singular rate {sing!r}")
    last = [float(v) for v in rows[-1][1:]]
    if last[1] < 0.9:
        errs.append(f"n={rows[-1][0]}: recovery lower bound {last[1]!r} < 0.9")
    if abs(last[3] - 0.5) > A_N_SE_MULT * last[4]:
        errs.append(f"n={rows[-1][0]}: a_n {last[3]!r} is more than {A_N_SE_MULT:g} SE ({last[4]:.3g}) from 1/2")
    return errs[:5]


# workload -> (set-up profile checker, {operation name: output checker})
CHECKERS = {
    "mc_canonical": (check_canonical_profile, {"quantiles": check_quantiles, "pathwise": check_pathwise}),
    "bounds_localize": (check_hypercube_profile, {"bounds": check_bounds, "localize": check_localize}),
    "bss_wide": (check_bss_profile, {"bss": check_bss}),
}


def check_workload(workload: str, work: str) -> tuple[list[str], dict[str, list[str]]]:
    """(set-up profile failures, {operation: failures}) for outputs under work."""
    cfg_dir = os.path.join(work, "configs")
    cfgs = {name[:-5]: read_json(os.path.join(cfg_dir, name)) for name in sorted(os.listdir(cfg_dir))}
    profile_check, op_checks = CHECKERS[workload]
    profile_errs = _guarded(profile_check, read_json(os.path.join(work, "profile.json")), cfgs)
    op_errs = {op: _guarded(fn, os.path.join(work, "out", op), cfgs) for op, fn in op_checks.items()}
    return profile_errs, op_errs


def _guarded(fn, *args) -> list[str]:
    """A malformed or missing output is a failed check, not a crash."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError, SyntaxError) as exc:
        return [f"{fn.__name__}: unreadable output ({type(exc).__name__}: {exc})"]
