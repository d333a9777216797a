"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, never calibrated later.
"""

import math

import numpy as np
import pytest

from unionerm import bounds, erm, experiments as ex, localization as loc
from unionerm.model import (
    DiscreteLaw,
    FeatureCollection,
    FeatureEntry,
    GaussianDesignLaw,
    exact_expectation,
    rng_from_seed,
    sample_dataset,
    subset_collection,
)
from unionerm.population import profile as build_profile

from conftest import ACCEPTANCE_LINES, random_instance
from oracles import mc_lambda_max_downward


def _report(cid: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"{cid} failed: {detail}"


# ---------------------------------------------------------------------------
# C1: closed-form constant checks
# ---------------------------------------------------------------------------

def test_criterion_01_closed_form_constants():
    ok1 = bounds.c_factor(1) == 5.0
    thr = bounds.single_class_threshold_value(1.0, 1.0, 1, 0.1)
    ref = 518.0 + 139.0 * math.log(20.0)
    ok2 = abs(thr - ref) <= 1e-9
    mb = bounds.matrix_bernstein_bound(np.array([[0.5]]), np.array([[0.25]]), n=4, d=1)
    ok3 = abs(mb - (math.sqrt(0.5) + 1.0 / 12.0)) <= 1e-12
    _report("C1", ok1 and ok2 and ok3, f"threshold={thr:.6f} bernstein={mb:.8f}")


# ---------------------------------------------------------------------------
# C2: closed-form ERM and excess identities
# ---------------------------------------------------------------------------

def test_criterion_02_erm_identities():
    rng = np.random.default_rng(202)
    checked = 0
    worst = 0.0
    while checked < 100:
        law, coll, prof = random_instance(rng)
        ds = sample_dataset(law, 20 + int(rng.integers(0, 30)), (400, checked))
        for entry in coll:
            t = entry.index
            rec = erm.fit_linear(ds, t, coll, prof)
            if rec.singular:
                continue
            phi = entry(ds.x)
            sigma_n = phi.T @ phi / ds.n
            grad_n = phi.T @ (phi @ prof.w_star(t) - ds.y) / ds.n
            ref_w = prof.w_star(t) - np.linalg.solve(sigma_n, grad_n)
            err_w = np.linalg.norm(rec.weights - ref_w) / max(1.0, np.linalg.norm(ref_w))
            # estimation error two ways: enumerated risk difference vs quadratic form
            risk_w = exact_expectation(
                lambda x, y, e=entry, w=rec.weights: 0.5 * (e(x) @ w - y) ** 2, law
            )
            direct = risk_w - prof.approx_risk(t)
            diff = rec.weights - prof.w_star(t)
            quad = 0.5 * float(diff @ prof.sigma(t) @ diff)
            err_e = abs(direct - quad) / max(1.0, abs(quad))
            worst = max(worst, err_w, err_e)
            checked += 1
            if checked >= 100:
                break
    _report("C2", worst <= 1e-8, f"100 nonsingular trials, worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# C3: finite-class expected-supremum sandwich
# ---------------------------------------------------------------------------

def test_criterion_03_finite_class_sandwich():
    rng = np.random.default_rng(303)
    violations = 0
    for case in range(50):
        m = int(rng.integers(3, 6))
        dim = int(rng.integers(1, 4))
        size = int(rng.integers(1, 17))
        n = int(rng.integers(4, 33))
        xs = rng.normal(size=(m, 1))
        w = rng.uniform(0.2, 1.0, size=m)
        w /= w.sum()
        law = DiscreteLaw(xs=xs, ys=np.zeros(m), weights=w)
        values = [rng.normal(size=(m, dim)) * rng.uniform(0.3, 3.0) for _ in range(size)]
        res = bounds.finite_sup_sandwich(values, law, n=n, trials=10_000, seed=1000 + case)
        if not res.holds(slack_mult=3.0):
            violations += 1
    _report("C3", violations == 0, f"50 random classes, {violations} sandwich violations")


# ---------------------------------------------------------------------------
# C4: matrix concentration expectation bound
# ---------------------------------------------------------------------------

def test_criterion_04_matrix_bernstein_validity():
    rng = np.random.default_rng(404)
    violations = 0
    for case in range(20):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 6))
        atoms = np.stack([(lambda b: b @ b.T)(rng.normal(size=(d, d))) for _ in range(m)])
        w = rng.uniform(0.2, 1.0, size=m)
        w /= w.sum()
        n = int(rng.integers(2, 50))
        mean_z = np.tensordot(w, atoms, axes=(0, 0))
        centered = atoms - mean_z[None]
        v = np.tensordot(w, centered @ centered, axes=(0, 0))
        bound = bounds.matrix_bernstein_bound(mean_z, v, n=n, d=d)
        est, se = mc_lambda_max_downward(atoms, w, n, trials=10_000, seed=2000 + case)
        if est > bound + 3 * se:
            violations += 1
    _report("C4", violations == 0, f"20 random PSD instances, {violations} bound violations")


# ---------------------------------------------------------------------------
# C5: localization map contraction and collapse
# ---------------------------------------------------------------------------

def test_criterion_05_localization_contraction(canonical):
    rng = np.random.default_rng(505)
    nest_ok = True
    for case in range(100):
        law, coll, prof = random_instance(rng)
        n = int(rng.integers(10, 10_000))
        delta = float(rng.uniform(0.01, 0.5))
        k = int(rng.integers(1, 5))
        cx = loc.ClosedFormComplexity(prof, n)
        tr = loc.iterate(n, delta, k, prof, cx)
        star = set(prof.t_star)
        for a, b in zip(tr.sets, tr.sets[1:]):
            nest_ok = nest_ok and set(b) <= set(a) and star <= set(b)
    _, _, prof = canonical
    n0 = loc.collapse_n(prof, 0.1, lambda n: loc.ClosedFormComplexity(prof, n))
    collapse_ok = True
    for n in (n0, 2 * n0):
        tr = loc.iterate(n, 0.1, 1, prof, loc.ClosedFormComplexity(prof, n))
        collapse_ok = collapse_ok and tr.sets[-1] == prof.t_star
    _report("C5", nest_ok and collapse_ok, f"nesting on 100 cases, collapse at n0={n0} and {2 * n0}")


# ---------------------------------------------------------------------------
# C6: selection consistency at moderate n
# ---------------------------------------------------------------------------

def test_criterion_06_consistency(canonical):
    law, coll, prof = canonical
    batch = ex.run_trials(law, coll, 2000, 10_000, 606, prof)
    rate = float(np.mean([t != "A" for t in batch.t_hat]))
    _report("C6", rate <= 0.01, f"miss rate {rate:.4f} at n=2000 over 10^4 trials")


# ---------------------------------------------------------------------------
# C7: distributional limit and benchmark equivalence
# ---------------------------------------------------------------------------

def test_criterion_07_distributional_limit(canonical):
    law, coll, prof = canonical
    trials = 20_000
    batch = ex.run_trials(law, coll, 5000, trials, 707, prof)
    z_minus, z_plus = ex.sample_gaussian_limit(prof, trials, 708)
    ks_limit = ex.ks_statistic(batch.n_excess, 0.5 * z_plus)
    ks_oracle = ex.ks_statistic(batch.n_excess, batch.n_excess_oracle)
    ok = ks_limit <= 0.05 and ks_oracle <= 0.05
    _report("C7", ok, f"KS vs limit {ks_limit:.4f}, KS vs benchmark {ks_oracle:.4f}")


# ---------------------------------------------------------------------------
# C8: bound validity at the computed thresholds
# ---------------------------------------------------------------------------

def test_criterion_08_bound_validity(canonical):
    law, coll, prof = canonical
    delta = 0.1
    trials = 10_000
    se = math.sqrt(delta * (1 - delta) / trials)
    # (a) singleton collection at the single-class threshold
    single = FeatureCollection([FeatureEntry("A", 1, lambda x: x[:, [0]], coords=(0,))])
    prof_a = build_profile(law, single)
    lam_v = bounds.covariance_deviation_lambda_max(prof_a)
    l_val, _ = bounds.quadratic_form_variance_sup(prof_a, seed=80)
    n_a = int(math.ceil(bounds.single_class_threshold_value(lam_v, l_val, 1, delta)))
    bound_a = 4.0 / (n_a * delta) * prof_a.grad_second_moment("A")
    batch_a = ex.run_trials(law, single, n_a, trials, 808, prof_a)
    rate_a = float(np.mean((batch_a.n_excess / n_a > bound_a) | batch_a.singular))
    ok_a = rate_a <= delta + 2 * se
    # (b) two-map collection at the explicit threshold with the chosen k
    n_b = bounds.resolve_explicit_threshold(prof, delta, seed=81)
    cx = loc.ClosedFormComplexity(prof, n_b)
    k_star, bound_b, trace = loc.choose_k(n_b, delta, prof, cx)
    batch_b = ex.run_trials(law, coll, n_b, trials, 809, prof)
    rate_b = float(np.mean((batch_b.n_excess / n_b > bound_b) | batch_b.singular))
    ok_b = rate_b <= delta + 2 * se
    _report(
        "C8",
        ok_a and ok_b,
        f"singleton n={n_a} rate {rate_a:.4f}; explicit n={n_b} k={k_star} rate {rate_b:.4f} "
        f"(allowed {delta + 2 * se:.4f})",
    )


# ---------------------------------------------------------------------------
# C9: pathwise master inequalities
# ---------------------------------------------------------------------------

def test_criterion_09_pathwise_inequalities(canonical):
    law, coll, prof = canonical
    batch = ex.run_trials(law, coll, 500, 1000, 909, prof, snapshots=True)
    res = ex.pathwise_master_check(batch, prof, slack=1e-8)
    _report(
        "C9",
        res.violations == 0,
        f"{res.checked} event trials checked, {res.excluded} excluded, {res.violations} violations",
    )


# ---------------------------------------------------------------------------
# C10: Gaussian-design covariance-deviation constant
# ---------------------------------------------------------------------------

def test_criterion_10_gaussian_design_constant():
    oks = []
    details = []
    for s in (2, 3):
        law = GaussianDesignLaw(cov=np.eye(s), w_true=np.zeros(s), noise_std=1.0)
        coll = subset_collection(s, s)
        est = bounds.covariance_deviation_lambda_max_mc(law, coll, draws=10**6, seed=100 + s)
        oks.append(abs(est - (s + 1)) <= 0.02 * (s + 1))
        details.append(f"s={s}: {est:.4f} vs {s + 1}")
        # intercept construction: exact enumeration lower bound s - 1
        grid = np.array(np.meshgrid(*([[-1.0, 1.0]] * (s - 1)), indexing="ij")).reshape(s - 1, -1).T
        dlaw = DiscreteLaw(
            xs=grid, ys=np.zeros(grid.shape[0]), weights=np.full(grid.shape[0], 1.0 / grid.shape[0])
        )
        dcoll = FeatureCollection(
            [FeatureEntry("t", s, lambda x: np.hstack([np.ones((x.shape[0], 1)), x]))]
        )
        dprof = build_profile(dlaw, dcoll)
        val = bounds.covariance_deviation_lambda_max(dprof)
        oks.append(val >= s - 1 - 1e-12)
        details.append(f"intercept s={s}: {val:.6f} >= {s - 1}")
    _report("C10", all(oks), "; ".join(details))


# ---------------------------------------------------------------------------
# C11: best-subset support recovery and excess trend
# ---------------------------------------------------------------------------

def test_criterion_11_best_subset_recovery():
    report = ex.bss_study(
        "discrete", 4, 2, [1.0, 1.0, 0.0, 0.0], 1.0,
        n_grid=[25, 100, 400, 1600], trials=1000, seed=1111,
        delta=0.1,
    )
    ok_rec = report.recovery_at_threshold is not None and report.recovery_at_threshold >= 0.9
    ok_trend = report.ratio_nonincreasing
    a_seq = [round(r["a_n"], 4) for r in report.rows]
    _report(
        "C11",
        ok_rec and ok_trend,
        f"recovery {report.recovery_at_threshold} at n={report.n_threshold}, a_n sequence {a_seq}",
    )
