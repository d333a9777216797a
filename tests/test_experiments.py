import hashlib
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from unionerm import bounds, erm, experiments as ex
from unionerm.model import (
    CHUNK,
    LIMIT_TAG,
    DiscreteLaw,
    FeatureCollection,
    FeatureEntry,
    GaussianDesignLaw,
    subset_collection,
)
from unionerm.population import excess_risk, profile as build_profile

import oracles
from conftest import canonical_atoms, canonical_collection, canonical_law, random_instance


def test_run_trials_noiseless_realizable_zero_excess(realizable):
    law, coll, prof = realizable
    batch = ex.run_trials(law, coll, 12, 50, 300, prof)
    nonsing = ~batch.singular
    assert np.all(np.abs(batch.n_excess[nonsing]) <= 1e-10)


def test_run_trials_deterministic_hash(canonical):
    law, coll, prof = canonical
    a = ex.run_trials(law, coll, 40, 30, 301, prof)
    b = ex.run_trials(law, coll, 40, 30, 301, prof)
    assert a.batch_hash() == b.batch_hash()
    c = ex.run_trials(law, coll, 40, 30, 302, prof)
    assert a.batch_hash() != c.batch_hash()


def test_run_trials_batches_are_pinned():
    # Literal batch hashes of two runs, so any move of a trial stream, of a
    # chunk's stream derivation or of a fit shows here: the canonical law
    # over three chunks (the last one ragged) with every process value, and
    # a Gaussian design of 120 subset maps.
    law, coll = canonical_law(), canonical_collection()
    batch = ex.run_trials(law, coll, 2000, 600, 2024, build_profile(law, coll), snapshots=True)
    assert batch.batch_hash() == "549e47a68f4deae2206219397bf190e29d1085fedab6ebf14e2f3f6844c45c4f"
    h = hashlib.sha256()
    for field in ("lam_plus", "lam_minus", "delta_plus", "g_sq_hat", "gap_hat", "est_err_hat"):
        h.update(np.ascontiguousarray(getattr(batch, field)).tobytes())
    assert h.hexdigest() == "d6f9cd089375789225c4ac99a7c94c37ad07d7b633c3c8ec8bc2ae24f6da567c"
    design = ex.bss_instance("gaussian", 10, [1.0, 1.0, 1.0] + [0.0] * 7, 1.0)
    batch = ex.run_trials(design, subset_collection(10, 3), 100, 60, 2025)
    assert batch.batch_hash() == "5237806d4c31093866e564b3b0ceff58b06fbf1289d12ddbb0ab718cd5a36c05"


def test_run_trials_rejects_empty_datasets(canonical):
    law, coll, prof = canonical
    for n in (0, -1):
        with pytest.raises(ValueError, match="sample size"):
            ex.run_trials(law, coll, n, 5, 1, prof)


def test_run_trials_rejects_profile_of_another_law_or_collection(canonical):
    # fits read the profile's atom tables while counts are drawn from law
    law, coll, prof = canonical
    with pytest.raises(ValueError, match="this law and collection"):
        ex.run_trials(canonical_law(), coll, 10, 5, 1, prof)
    with pytest.raises(ValueError, match="this law and collection"):
        ex.run_trials(law, canonical_collection(), 10, 5, 1, prof)


def _correlated_design():
    a = np.random.default_rng(42).normal(size=(5, 5))
    return GaussianDesignLaw(cov=a @ a.T / 5 + 0.2 * np.eye(5), w_true=[1.0, -0.5, 0.0, 0.3, 0.0], noise_std=0.8)


def _coordinate_maps(*coords):
    return FeatureCollection(
        [FeatureEntry(c, len(c), lambda x, cols=list(c): x[:, cols], coords=c) for c in coords]
    )


def test_run_trials_prefix_matches_shorter_run():
    # trial i depends on (master seed, i) only, also across a chunk boundary.
    # Non-integer atoms, so no sum is exact by luck; with 8 atoms a (B, m)
    # matrix product rounds a row differently for a 9-row and a 3-row chunk.
    # On a Gaussian design, each trial's Gram and each weight vector's risk.
    xs, ys, ws = canonical_atoms()
    discrete = DiscreteLaw(xs=1.1 * xs, ys=0.7 * ys, weights=ws)
    cases = [
        (discrete, canonical_collection(), ["lam_plus", "lam_minus", "delta_plus", "g_sq_hat", "gap_hat", "est_err_hat"]),
        (_correlated_design(), subset_collection(5, 2), []),
    ]
    k = CHUNK + 3
    for law, coll, process_fields in cases:
        prof = build_profile(law, coll) if process_fields else None
        long = ex.run_trials(law, coll, 25, k + 6, 303, prof, snapshots=bool(process_fields))
        short = ex.run_trials(law, coll, 25, k, 303, prof, snapshots=bool(process_fields))
        assert long.t_hat[:k] == short.t_hat
        for field in ["n_excess", "n_excess_oracle", "singular", *process_fields]:
            assert np.array_equal(getattr(long, field)[:k], getattr(short, field))


def test_run_trials_matches_per_dataset_route(canonical_three):
    # the moment engine against the trial's rows (oracles.trial_dataset) ->
    # erm.solve, trial by trial, with n below the map dimensions so singular
    # fits occur.  On discrete laws excess risks are the profile's and
    # process values the oracle snapshot's; in the last two discrete
    # instances maps share atom columns (coordinate subsets, and a constant
    # map), and at small n atoms go missing.  On a correlated Gaussian design (subsets, and coordinate maps
    # of mixed dimension) excess risks are the design's closed form
    rng = np.random.default_rng(41)
    instances = [random_instance(rng) for _ in range(8)]
    cube, pairs = ex.bss_instance("discrete", 4, [1.0, -1.0, 0.0, 0.0], 1.0), subset_collection(4, 2)
    instances += [(cube, pairs, build_profile(cube, pairs)), canonical_three]
    design = _correlated_design()
    mixed = _coordinate_maps((0,), (1, 3), (0, 2, 4), (2, 3, 4), (4,), (1, 2))
    instances += [(design, subset_collection(5, 2), None), (design, mixed, None)]
    singular_seen = {"discrete": 0, "generative": 0}
    for case, (law, coll, prof) in enumerate(instances):
        if prof is None:
            risks = [law.approx_risk(e) for e in coll]
            t0 = coll.indices()[int(np.argmin(risks))]

            def excess(t, w):
                return law.risk(coll.entry(t), w) - min(risks)
        else:
            t0 = prof.least_optimal_index

            def excess(t, w):
                return excess_risk(t, w, prof)
        drawn = law if prof is None else oracles.merged_law(prof)
        for n in (1, 2, 5, 40):
            batch = ex.run_trials(law, coll, n, 12, 500 + case, prof, snapshots=prof is not None)
            for i in range(12):
                ds = oracles.trial_dataset(drawn, n, 500 + case, i)
                sol = erm.solve(ds, coll, prof)
                assert batch.t_hat[i] == sol.index
                singular = any(r.singular for r in sol.table)
                assert bool(batch.singular[i]) == singular
                singular_seen[law.kind] += singular
                exc = excess(sol.index, sol.weights)
                w0 = sol.table[coll.indices().index(t0)].weights
                ref = {"n_excess": n * exc, "n_excess_oracle": n * excess(t0, w0)}
                if prof is not None:
                    snap = oracles.snapshot(ds, prof)
                    ref.update(
                        lam_plus=snap.lam_plus_scaled,
                        lam_minus=snap.lam_minus_scaled,
                        delta_plus=snap.delta_plus_scaled,
                        g_sq_hat=snap.g[sol.index] ** 2,
                        gap_hat=prof.gap(sol.index),
                        est_err_hat=exc - prof.gap(sol.index),
                    )
                for field, val in ref.items():
                    assert getattr(batch, field)[i] == pytest.approx(val, rel=1e-9, abs=1e-9), field
    assert min(singular_seen.values()) > 0


def test_run_trials_rejects_a_gaussian_design_map_that_is_not_a_coordinate_selection():
    total = FeatureEntry((9,), 1, lambda x: x.sum(axis=1, keepdims=True))
    coll = FeatureCollection([*_coordinate_maps((0,), (1, 2)), total])
    with pytest.raises(ValueError, match="not a coordinate selection"):
        ex.run_trials(_correlated_design(), coll, 10, 5, 1)


def test_run_trials_peak_memory_on_a_wide_law():
    # bss_wide's law: 2048 atoms, |T| = 120 maps of dimension 3.  The moment
    # table is (2048, 185), 3 MB: its build holds little beside it, per-atom
    # arrays per index would hold tens of MB, and a (B, m, d_t) fit temporary
    # per index adds three (B, m) arrays to a chunk's own allocations
    law = ex.bss_instance("discrete", 10, [1.0, 1.0, 1.0] + [0.0] * 7, 1.0)
    coll = subset_collection(10, 3)
    prof = build_profile(law, coll)
    trials = 60
    tracemalloc.start()
    try:
        prof.tables
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for n in (40, 100, 250):
            ex.run_trials(law, coll, n, trials, 8, prof)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(build_peak, peak) < 12e6
    assert build_peak < 1.25 * held
    assert peak - held < 6 * trials * law.support_size * 8


def test_run_trials_chunks_drawn_in_reverse_order_give_its_bytes(canonical, monkeypatch):
    # chunk c reads its own stream only: a batch fitted from the chunks'
    # counts drawn last chunk first (three chunks, the last one ragged) is
    # run_trials' batch byte for byte, every process value included
    law, coll, prof = canonical
    n, trials, master = 40, 2 * CHUNK + 7, 312
    ref = ex.run_trials(law, coll, n, trials, master, prof, snapshots=True)
    sizes = [min(CHUNK, trials - lo) for lo in range(0, trials, CHUNK)]
    rows_law = oracles.merged_law(prof)
    drawn = {c: oracles.chunk_counts(rows_law, n, master, c, sizes[c]) for c in reversed(range(len(sizes)))}
    tables, fed = prof.tables, []
    real = tables.moments

    def moments(counts, size):
        fed.append(counts.shape[0])
        return real(drawn[len(fed) - 1], size)

    monkeypatch.setattr(tables, "moments", moments)
    batch = ex.run_trials(law, coll, n, trials, master, prof, snapshots=True)
    assert fed == sizes
    assert batch.batch_hash() == ref.batch_hash() and batch.t_hat == ref.t_hat
    for field in ("n_excess", "n_excess_oracle", "singular", "lam_plus", "lam_minus", "delta_plus", "g_sq_hat", "gap_hat", "est_err_hat"):
        assert getattr(batch, field).tobytes() == getattr(ref, field).tobytes(), field


def test_run_trials_gaussian_chunks_drawn_in_reverse_order_give_its_bytes(monkeypatch):
    # a Gaussian chunk draws CHUNK trials' variates and keeps the first b, so
    # with the chunk streams read last chunk first (three chunks, the last
    # one ragged), the first trials of each chunk are the bytes of the
    # chunk that read that stream in order
    law, coll = _correlated_design(), subset_collection(5, 2)
    n, trials, master = 12, 2 * CHUNK + 7, 313
    ref = ex.run_trials(law, coll, n, trials, master)
    real = ex.stream
    monkeypatch.setattr(ex, "stream", lambda seed, c, tag: real(seed, 2 - c, tag))
    batch = ex.run_trials(law, coll, n, trials, master)
    for c in range(3):
        got, want = slice(c * CHUNK, c * CHUNK + 7), slice((2 - c) * CHUNK, (2 - c) * CHUNK + 7)
        assert batch.t_hat[got] == ref.t_hat[want]
        for field in ("n_excess", "n_excess_oracle", "singular"):
            assert getattr(batch, field)[got].tobytes() == getattr(ref, field)[want].tobytes(), field


@pytest.mark.parametrize("n", [12, 20])
def test_run_trials_gaussian_oracle_mean_is_the_exact_ols_mean(n):
    # OLS on the true support of a Gaussian design: E[n excess] is
    # sigma^2 s n / (2 (n - s - 1)) at every n > s + 1 (2.25 at n = 12,
    # 1.875 at n = 20 for s = 3, sigma = 1)
    d, s, trials = 8, 3, 20_000
    law = ex.bss_instance("gaussian", d, [1.0] * s + [0.0] * (d - s), 1.0)
    batch = ex.run_trials(law, _coordinate_maps((0, 1, 2), (2, 3, 4)), n, trials, 330)
    exact = 0.5 * s * n / (n - s - 1)
    se = np.std(batch.n_excess_oracle, ddof=1) / math.sqrt(trials)
    assert abs(np.mean(batch.n_excess_oracle) - exact) <= 3 * se


@pytest.mark.parametrize("n", [5, 12, 100])
def test_run_trials_gaussian_excess_has_the_row_route_law(n):
    # two-sample KS at level 0.05 of ERM's n * excess: Bartlett Grams against
    # Grams of law.sample rows (oracles.row_route_excess), n below and above d + 1
    law, coll = _correlated_design(), subset_collection(5, 2)
    rows = oracles.row_route_excess(law, coll, n, 4096, 900 + n)
    batch = ex.run_trials(law, coll, n, 8192, 910 + n)
    assert ex.ks_statistic(batch.n_excess, rows) <= ex.ks_critical_value(8192, 4096)


def test_run_trials_gaussian_noiseless_oracle_excess_is_zero():
    # sigma = 0: L's last diagonal entry is 0, and at every n >= s the
    # support's fit recovers w_true, also below d + 1 rows
    law = GaussianDesignLaw(cov=_correlated_design().cov, w_true=[0.0, 1.0, -2.0, 0.0, 0.5], noise_std=0.0)
    coll = subset_collection(5, 3)
    for n in (3, 4, 6, 40):
        batch = ex.run_trials(law, coll, n, 50, 331)
        assert not batch.singular.any()
        assert np.all(np.abs(batch.n_excess_oracle) <= 1e-12)


def test_run_trials_gaussian_below_s_rows_flags_every_trial():
    law = _correlated_design()
    for n, s in ((1, 2), (2, 3), (3, 4)):
        assert ex.run_trials(law, subset_collection(5, s), n, 40, 332).singular.all()


def test_run_trials_gaussian_cost_does_not_grow_with_n(monkeypatch):
    # a Gaussian chunk is one Gram draw of fixed shape: no law.sample rows,
    # and the same traced peak at n = 10^9 as at n = 250
    def no_rows(self, n, rng):
        raise AssertionError("a trial drew rows")

    monkeypatch.setattr(GaussianDesignLaw, "sample", no_rows)
    law, coll = ex.bss_instance("gaussian", 10, [1.0] * 3 + [0.0] * 7, 1.0), subset_collection(10, 3)
    peaks = []
    for n in (250, 10**9):
        tracemalloc.start()
        try:
            ex.run_trials(law, coll, n, CHUNK, 333)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_run_trials_oracle_record_matches_oracle_solve(canonical):
    law, coll, prof = canonical
    batch = ex.run_trials(law, coll, 30, 5, 304, prof)
    for trial in range(5):
        ds = oracles.trial_dataset(oracles.merged_law(prof), 30, 304, trial)
        osol = oracles.oracle_solve(ds, coll, prof)
        ref = 30 * excess_risk(osol.index, osol.weights, prof)
        assert batch.n_excess_oracle[trial] == pytest.approx(ref, rel=1e-12)


def test_run_trials_consistency_at_moderate_n(canonical):
    law, coll, prof = canonical
    batch = ex.run_trials(law, coll, 2000, 500, 305, prof)
    assert np.mean([t != "A" for t in batch.t_hat]) <= 0.01


def test_consistency_curve_trivial_when_all_optimal(symmetric):
    law, coll, prof = symmetric
    rows = ex.consistency_curve(law, coll, [20, 50], 100, 306, prof)
    assert all(r["p_miss"] == 0.0 for r in rows)


def test_consistency_curve_decreases(canonical):
    law, coll, prof = canonical
    rows = ex.consistency_curve(law, coll, [50, 200, 800, 3200], 500, 307, prof)
    assert rows[-1]["p_miss"] <= rows[0]["p_miss"] + 2 * (rows[0]["se"] + rows[-1]["se"])
    assert rows[-1]["p_miss"] <= 0.01
    assert all("ci_lo" in r and "ci_hi" in r for r in rows)


def test_asymptotic_quantile_relation_singleton(canonical):
    # singleton collection at large n: the rescaled quantile sits between
    # 1/32 and 1 times (grad second moment + 2 lambda_max log(1/delta))
    law, _, _ = canonical
    from unionerm.model import FeatureCollection, FeatureEntry
    from unionerm.population import profile as build_profile

    coll = FeatureCollection([FeatureEntry("A", 1, lambda x: x[:, [0]], coords=(0,))])
    prof = build_profile(law, coll)
    gsm = prof.grad_second_moment("A")
    wh = prof.whitener("A")
    lam = float(np.linalg.eigvalsh(wh @ prof.g_cross("A", "A") @ wh)[-1])
    batch = ex.run_trials(law, coll, 5000, 5000, 330, prof)
    for delta in (0.05, 0.02):
        target = gsm + 2.0 * lam * math.log(1.0 / delta)
        q = ex.estimate_quantile(batch.n_excess, 1.0 - delta)
        assert target / 32.0 <= q.ci_hi
        assert q.ci_lo <= target


def test_consistency_membership_not_identity(symmetric):
    # with two tied optimal maps the chosen index oscillates but stays optimal
    law, coll, prof = symmetric
    batch = ex.run_trials(law, coll, 100, 200, 308, prof)
    star = set(prof.t_star)
    assert all(t in star for t in batch.t_hat)
    assert len(set(batch.t_hat)) == 2  # both optima actually occur


def test_gaussian_limit_singleton_moments(canonical):
    law, coll, prof = canonical
    lim = ex.GaussianLimit(prof)
    z_minus, z_plus = lim.sample(100_000, 309)
    assert np.array_equal(z_minus, z_plus)  # singleton optimal set
    # E||Z||^2 = grad second moment of the optimal map (here 1.0)
    se = z_plus.std(ddof=1) / math.sqrt(z_plus.size)
    assert abs(z_plus.mean() - prof.grad_second_moment("A")) <= 4 * se


def test_gaussian_limit_zero_in_noiseless_case(realizable):
    law, coll, prof = realizable
    z_minus, z_plus = ex.sample_gaussian_limit(prof, 1000, 310)
    assert np.allclose(z_plus, 0.0, atol=1e-12)


def test_gaussian_limit_sample_covariance_matches(symmetric):
    law, coll, prof = symmetric
    # the limit's draws come from the stream (seed, LIMIT_TAG), apart from
    # every dataset stream (seed, trial) of sample_dataset
    lim = ex.GaussianLimit(prof)
    draws = 100_000
    z = oracles.seed_sequence_stream(311, LIMIT_TAG).standard_normal((draws, lim.cov.shape[0])) @ lim._root.T
    norms = np.stack([np.sum(z[:, sl] ** 2, axis=1) for sl in lim.block_slices], axis=1)
    z_minus, z_plus = lim.sample(draws, 311)
    assert np.array_equal(z_minus, norms.min(axis=1)) and np.array_equal(z_plus, norms.max(axis=1))
    emp = z.T @ z / draws
    for i in range(lim.cov.shape[0]):
        for j in range(lim.cov.shape[0]):
            se = 4.0 / math.sqrt(draws)  # crude bound on the entry SE scale
            assert abs(emp[i, j] - lim.cov[i, j]) <= 4 * max(se, 1e-3)


def test_gaussian_limit_minmax_order(symmetric):
    law, coll, prof = symmetric
    z_minus, z_plus = ex.sample_gaussian_limit(prof, 5000, 312)
    assert np.all(z_minus <= z_plus + 1e-15)


def test_quantile_estimator_exponential_closed_form():
    rng = np.random.default_rng(13)
    samples = rng.exponential(scale=2.0, size=100_000)
    q = ex.estimate_quantile(samples, 0.9)
    closed = -2.0 * math.log(0.1)
    assert q.ci_lo <= closed <= q.ci_hi
    assert q.ci_lo <= q.estimate <= q.ci_hi


def test_quantile_estimator_monotone_in_level():
    rng = np.random.default_rng(14)
    samples = rng.normal(size=10_000)
    qs = [ex.estimate_quantile(samples, p).estimate for p in (0.5, 0.8, 0.95)]
    assert qs == sorted(qs)


def test_sandwich_check_insufficient_trials(canonical):
    law, coll, prof = canonical
    batch = ex.run_trials(law, coll, 50, 100, 313, prof)
    with pytest.raises(ex.InsufficientTrialsError):
        ex.quantile_sandwich_check(batch, np.ones(100), np.ones(100), delta=0.01)


def test_sandwich_check_insufficient_limit_draws(canonical):
    # 50 / delta = 100: the trials resolve the median, 99 limit draws do not
    law, coll, prof = canonical
    batch = ex.run_trials(law, coll, 50, 100, 313, prof)
    with pytest.raises(ex.InsufficientTrialsError, match="99 limit draws"):
        ex.quantile_sandwich_check(batch, np.ones(99), np.ones(99), delta=0.5)


def test_sandwich_check_median_inside(canonical):
    law, coll, prof = canonical
    batch = ex.run_trials(law, coll, 2000, 2000, 314, prof)
    z_minus, z_plus = ex.sample_gaussian_limit(prof, 20_000, 315)
    verdict = ex.quantile_sandwich_check(batch, z_minus, z_plus, delta=0.5)
    assert verdict["pass"]


def test_sandwich_check_degenerate_zero_noise(realizable):
    law, coll, prof = realizable
    batch = ex.run_trials(law, coll, 30, 600, 316, prof)
    z_minus, z_plus = ex.sample_gaussian_limit(prof, 5000, 317)
    verdict = ex.quantile_sandwich_check(batch, z_minus, z_plus, delta=0.1)
    assert verdict["half_min_quantile"] == 0.0
    assert verdict["half_max_quantile"] == 0.0
    assert verdict["pass"]


def test_validity_sweep_noiseless_zero_violations(realizable):
    law, coll, prof = realizable
    out = ex.bound_validity_sweep(
        law, coll, 0.1, [60], 300, 318, prof, bound_kind="explicit"
    )
    assert out["rows"][0]["violations"] == 0
    assert out["pass"]


def test_validity_sweep_single_class(canonical):
    law, _, _ = canonical
    from unionerm.model import FeatureCollection, FeatureEntry
    from unionerm.population import profile as build_profile

    coll = FeatureCollection([FeatureEntry("A", 1, lambda x: x[:, [0]], coords=(0,))])
    prof = build_profile(law, coll)
    out = ex.bound_validity_sweep(
        law, coll, 0.1, [400], 1000, 319, prof, bound_kind="single_class"
    )
    row = out["rows"][0]
    assert row["above_threshold"]
    assert row["rate"] <= 0.1 + 2 * math.sqrt(0.1 * 0.9 / 1000)


def test_validity_sweep_reads_l_at_the_command_seed():
    # L of a three-dimensional map comes from a seeded ascent, which settles a
    # few ulps apart at two seeds on this law; every row's threshold reads it
    # at the seed the command's default grid and the bound report use
    rng = np.random.default_rng(0)
    w = rng.uniform(0.2, 1.0, size=40)
    law = DiscreteLaw(xs=rng.normal(size=(40, 4)), ys=rng.normal(size=40), weights=w / w.sum())
    coll = FeatureCollection([FeatureEntry("one", 1, lambda x: x[:, [3]]), FeatureEntry("three", 3, lambda x: x[:, :3])])
    prof = build_profile(law, coll)
    seed, delta, n = 0, 0.1, 50
    l_val, _ = bounds.quadratic_form_variance_sup(prof, seed=seed)
    assert l_val != bounds.quadratic_form_variance_sup(prof, seed=ex._grid_seed(seed, 1000))[0]
    lam_v = bounds.covariance_deviation_lambda_max(prof)
    expected = {
        "single_class": bounds.single_class_threshold_value(lam_v, l_val, 3, delta),
        "explicit": bounds.explicit_threshold_value(
            lam_v, l_val, 3, 2, delta, bounds.class_moments("D", None, prof, n)
        ),
    }
    for kind, threshold in expected.items():
        row = ex.bound_validity_sweep(law, coll, delta, [n], 100, seed, prof, bound_kind=kind)["rows"][0]
        assert row["threshold"] == threshold, kind


def test_validity_sweep_reads_formulas_and_draws_each_count_sample_once(monkeypatch):
    # a row computes its threshold and bound from their formulas, never a whole
    # report; the gap class and A(S) are closed forms, so no row draws a count sample
    from unionerm import processes

    def refuse(*args, **kwargs):
        raise AssertionError("the validity sweep built a bound report")

    monkeypatch.setattr(ex, "compute_bound_inputs", refuse)
    monkeypatch.setattr(ex, "thresholds_and_bounds", refuse)
    keys, real = [], processes.iter_count_batches
    monkeypatch.setattr(
        processes, "iter_count_batches",
        lambda law, n, trials, seed: (keys.append((n, trials, seed)), real(law, n, trials, seed))[1],
    )
    law, coll = canonical_law(), canonical_collection()
    prof = build_profile(law, coll)  # a fresh profile holds no earlier test's count sample
    grid, seed = [50, 400], 7
    for kind in ("explicit", "single_class"):
        ex.bound_validity_sweep(law, coll, 0.5, grid, 100, seed, prof, bound_kind=kind)
        assert keys == [], kind


def test_pathwise_check_noiseless(realizable):
    law, coll, prof = realizable
    batch = ex.run_trials(law, coll, 25, 200, 320, prof, snapshots=True)
    res = ex.pathwise_master_check(batch, prof)
    assert res.violations == 0


def test_pathwise_check_canonical(canonical):
    law, coll, prof = canonical
    batch = ex.run_trials(law, coll, 120, 300, 321, prof, snapshots=True)
    res = ex.pathwise_master_check(batch, prof)
    assert res.violations == 0
    assert res.checked + res.excluded == 300


def test_pathwise_check_noisy_two_dim_map():
    # multi-dimensional map with noise: exercises both eigen directions of
    # the whitened sample covariance in the sandwich inequalities
    from unionerm.model import DiscreteLaw, FeatureCollection, FeatureEntry
    from unionerm.population import profile as build_profile

    xs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    xx = np.repeat(xs, 2, axis=0)
    eps = np.tile([1.0, -1.0], 4)
    law = DiscreteLaw(xs=xx, ys=xx[:, 0] + 0.5 * xx[:, 1] + eps, weights=np.full(8, 1 / 8))
    coll = FeatureCollection(
        [
            FeatureEntry("full", 2, lambda x: x),
            FeatureEntry("x1", 1, lambda x: x[:, [0]]),
        ]
    )
    prof = build_profile(law, coll)
    batch = ex.run_trials(law, coll, 40, 500, 331, prof, snapshots=True)
    res = ex.pathwise_master_check(batch, prof)
    assert res.violations == 0
    assert res.checked > 0


def test_pathwise_check_event_exclusion_counted(canonical):
    law, coll, prof = canonical
    # tiny n makes the event condition fail sometimes; excluded, not violated
    batch = ex.run_trials(law, coll, 2, 300, 322, prof, snapshots=True)
    res = ex.pathwise_master_check(batch, prof)
    assert res.violations == 0
    assert res.excluded > 0


def test_pathwise_check_matches_per_trial_loop(canonical):
    # n = 6 excludes some trials; a negative slack forces violations
    law, coll, prof = canonical
    batch = ex.run_trials(law, coll, 6, 300, 323, prof, snapshots=True)
    seen = 0
    for slack in (1e-8, 0.0, -1e-3, -0.05):
        res = ex.pathwise_master_check(batch, prof, slack=slack)
        ref = oracles.pathwise_master_check(batch, slack)
        assert (res.checked, res.excluded, res.violations, res.worst_slack) == ref
        seen += res.violations
    assert res.excluded > 0 and seen > 0


def test_bss_single_subset_recovers_trivially():
    rep = ex.bss_study("discrete", 2, 2, [1.0, 0.5], 1.0, [40], 50, 323, check_threshold=False)
    assert rep.rows[0]["recovery"] == 1.0


def test_bss_gaussian_trend():
    rep = ex.bss_study(
        "gaussian", 6, 2, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0], 1.0,
        [30, 120, 480], 400, 324, check_threshold=False,
    )
    assert rep.ratio_nonincreasing
    assert rep.rows[-1]["recovery"] >= 0.99


def test_bss_refuses_the_recovery_threshold_on_the_gaussian_design():
    # check_threshold defaults to true; the Gaussian design has no threshold
    with pytest.raises(ValueError, match="discrete design"):
        ex.bss_study("gaussian", 6, 2, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0], 1.0, [30], 10, 324)


def test_bss_rejects_wrong_sparsity():
    with pytest.raises(ValueError):
        ex.bss_study("discrete", 4, 2, [1.0, 0.0, 0.0, 0.0], 1.0, [50], 10, 325)


@pytest.mark.parametrize("trials", [0, 1])
def test_bss_rejects_fewer_than_two_trials(trials):
    # the standard error of a_n takes ddof = 1: one trial would give NaN
    with pytest.raises(ValueError, match="at least 2 trials"):
        ex.bss_study("discrete", 2, 2, [1.0, 0.5], 1.0, [40], trials, 323, check_threshold=False)


def test_recovery_threshold_warns_when_rounds_run_out():
    prof = build_profile(ex.bss_instance("discrete", 4, [1.0, 1.0, 0.0, 0.0], 1.0), subset_collection(4, 2))
    with pytest.warns(RuntimeWarning, match="recovery threshold fixed point not reached in 1 rounds"):
        ex.recovery_threshold(prof, 0.1, max_rounds=1)


def test_binomial_ci_basic():
    lo, hi = ex.binomial_ci(0, 100)
    assert lo == 0.0 and hi < 0.06
    lo, hi = ex.binomial_ci(100, 100)
    assert hi == 1.0 and lo > 0.94
    lo, hi = ex.binomial_ci(50, 100)
    assert lo < 0.5 < hi


@pytest.mark.parametrize("successes, trials", [(2, 1), (101, 100), (-1, 10), (-1, 1)])
def test_binomial_ci_rejects_counts_outside_the_trials(successes, trials):
    with pytest.raises(ValueError, match="successes in \\[0, trials\\]"):
        ex.binomial_ci(successes, trials)


def test_binomial_ci_matches_scipy_beta_ppf():
    from scipy import stats

    for trials in (1, 2, 3, 10, 57, 100, 500, 1000, 10_000):
        for k in sorted({0, 1, 2, trials // 3, trials // 2, trials - 1, trials} & set(range(trials + 1))):
            for conf in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                a = 1.0 - conf
                lo = 0.0 if k == 0 else stats.beta.ppf(a / 2, k, trials - k + 1)
                hi = 1.0 if k == trials else stats.beta.ppf(1 - a / 2, k + 1, trials - k)
                assert ex.binomial_ci(k, trials, conf) == (lo, hi)


def test_estimate_quantile_ci_indices_match_scipy_binom_ppf():
    from scipy import stats

    for n in (2, 3, 5, 10, 37, 100, 400, 500, 1000, 2000, 10_000, 100_000):
        x = np.arange(n, dtype=float)  # value = order-statistic index - 1
        for level in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999):
            for conf in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                a = 1.0 - conf
                lo = min(max(int(stats.binom.ppf(a / 2, n, level)), 1), n)
                hi = min(max(int(stats.binom.ppf(1 - a / 2, n, level)) + 1, 1), n)
                q = ex.estimate_quantile(x, level, conf)
                assert (q.ci_lo, q.ci_hi) == (lo - 1, hi - 1)


def test_binom_ppf_is_the_smallest_index_covering_q_at_cdf_values():
    # q equal to a value of the cdf is where ceil(bdtrik) can land one too high
    from scipy.special import bdtr

    rng = np.random.default_rng(23)
    for _ in range(300):
        n, p = int(rng.integers(1, 5000)), float(rng.uniform(0.001, 0.999))
        k = int(np.clip(round(n * p + 2.0 * rng.normal() * math.sqrt(n * p * (1 - p))), 0, n - 1))
        q = float(bdtr(k, n, p))
        j = ex._binom_ppf(q, n, p)
        assert bdtr(j, n, p) >= q and (j == 0 or bdtr(j - 1, n, p) < q)


def test_binom_ppf_matches_the_scipy_rule_at_random_levels_and_sizes():
    # q = alpha/2 and 1 - alpha/2 as estimate_quantile asks, n up to 10^6,
    # levels in the bulk and within 1e-6 of 0 and of 1
    rng = np.random.default_rng(24)
    for _ in range(1500):
        n = int(np.exp(rng.uniform(0.0, math.log(1e6))))
        edge = 10.0 ** rng.uniform(-6.0, -0.5)
        level = float(rng.choice([edge, 1.0 - edge, rng.uniform(0.01, 0.99)]))
        alpha = 1.0 - float(rng.choice([0.5, 0.8, 0.9, 0.95, 0.99, 0.999]))
        for q in (alpha / 2.0, 1.0 - alpha / 2.0):
            assert ex._binom_ppf(q, n, level) == oracles.scipy_binom_ppf(q, n, level), (q, n, level)


def test_binom_ppf_matches_the_scipy_rule_within_rounding_of_a_cdf_value():
    # q a few n ulps from a cdf value, where only the error bands decide; near
    # 1 with tiny p, scipy's rounding of 1 - p moves its cdf by up to n ulps
    from scipy.special import bdtr

    rng = np.random.default_rng(25)
    for _ in range(300):
        n = int(np.exp(rng.uniform(0.0, math.log(1e5))))
        p = float(rng.choice([10.0 ** rng.uniform(-15.0, -3.0), rng.uniform(0.01, 0.99)]))
        k = int(np.clip(round(n * p + rng.uniform(-6.0, 6.0) * math.sqrt(n * p * (1 - p))), 0, n - 1))
        cdf = float(bdtr(k, n, p))
        for steps in rng.integers(-3 * n - 200, 3 * n + 200, size=4):
            q = cdf + int(steps) * 2.0**-53 * (1.0 if cdf > 0.5 else cdf)
            if 0.0 < q < 1.0:
                assert ex._binom_ppf(q, n, p) == oracles.scipy_binom_ppf(q, n, p), (q, n, p)


def test_workload_quantile_intervals_are_decided_without_scipy(monkeypatch):
    # the sizes `montecarlo quantiles` meets: 500 trials, 10 000 limit draws
    alpha = 1.0 - 0.95
    want = {n: [oracles.scipy_binom_ppf(q, n, 0.9) for q in (alpha / 2.0, 1.0 - alpha / 2.0)] for n in (500, 10_000)}
    for name in ["scipy", *(m for m in sys.modules if m.startswith("scipy."))]:
        monkeypatch.setitem(sys.modules, name, None)  # any scipy import now raises
    for n, (lo, hi) in want.items():
        q = ex.estimate_quantile(np.arange(n, dtype=float), 0.9, 0.95)
        assert (q.ci_lo, q.ci_hi) == (min(max(lo, 1), n) - 1, min(max(hi + 1, 1), n) - 1)


@pytest.mark.parametrize("conf", [-0.2, 0.0, 1.0, 1.5, math.nan])
def test_interval_functions_reject_conf_outside_the_unit_interval(conf):
    msg = re.escape(f"conf must be in (0, 1), got {conf!r}")
    with pytest.raises(ValueError, match=msg):
        ex.estimate_quantile(np.arange(100.0), 0.9, conf)
    with pytest.raises(ValueError, match=msg):
        ex.binomial_ci(5, 10, conf)


def test_ks_constant_is_scipy_kolmogi_at_the_test_level():
    from scipy.special import kolmogi

    assert ex._KS_SURVIVAL_INVERSE == float(kolmogi(ex.KS_ALPHA))


def test_ks_statistic_matches_scipy_ks_2samp():
    from scipy import stats

    rng = np.random.default_rng(21)
    for i in range(300):
        na, nb = rng.integers(1, 400, size=2)
        if i % 3 == 0:  # heavy ties, within and across samples
            a, b = rng.integers(0, 5, na).astype(float), rng.integers(0, 5, nb).astype(float)
        else:
            a, b = rng.normal(size=na), rng.normal(0.1, 1.2, size=nb)
        assert ex.ks_statistic(a, b) == stats.ks_2samp(a, b, method="asymp").statistic


def test_ks_statistic_of_identical_samples_is_positive_zero():
    x = np.random.default_rng(22).normal(size=50)
    d = ex.ks_statistic(x, x.copy())
    assert d == 0.0 and math.copysign(1.0, d) == 1.0
