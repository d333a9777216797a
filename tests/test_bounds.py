import gc
import math
import weakref

import numpy as np
import pytest

from unionerm import bounds, localization, model, processes
from unionerm.experiments import bss_instance
from unionerm.model import (
    CHUNK,
    STACK_ENTRIES,
    DiscreteLaw,
    FeatureCollection,
    FeatureEntry,
    GaussianDesignLaw,
    subset_collection,
)
from unionerm.population import profile

from conftest import bench_law_cases, canonical_law, canonical_three_map_collection, mixed_dim_instance, random_instance
from oracles import (
    covariance_deviation_lambda_max_loop,
    enum_class_moments,
    expected_max_presence,
    quadratic_form_variance_grid,
    quadratic_form_variance_sup_loop,
    single_block_variance_max,
)


# ---------------------------------------------------------------------------
# c_factor
# ---------------------------------------------------------------------------

def test_c_factor_values():
    assert bounds.c_factor(1) == 5.0
    assert bounds.c_factor(math.e**3) == pytest.approx(10.0, rel=1e-12)
    assert bounds.c_factor(2) == pytest.approx(5 * math.sqrt(1 + math.log(2)), rel=1e-12)


def test_c_factor_rejects_zero():
    with pytest.raises(ValueError):
        bounds.c_factor(0)


# ---------------------------------------------------------------------------
# class moments
# ---------------------------------------------------------------------------

def test_grad_class_moments_zero_in_noiseless_case(realizable):
    law, coll, prof = realizable
    mom = bounds.class_moments("G", ["full"], prof, n=4)
    assert mom.sigma_sq == pytest.approx(0.0, abs=1e-20)
    assert mom.r_n == pytest.approx(0.0, abs=1e-10)


def test_gap_class_zero_variance_when_gap_deterministic():
    # two feature maps whose pointwise loss gap is constant on the support
    xs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    law = DiscreteLaw(xs=xs, ys=xs[:, 0], weights=np.full(4, 0.25))
    coll = FeatureCollection(
        [
            FeatureEntry("good", 1, lambda x: x[:, [0]]),
            FeatureEntry("bad", 1, lambda x: x[:, [1]]),
        ]
    )
    prof = profile(law, coll)
    # loss gap = 0.5(w_b x2 - x1)^2 with w_b = 0: constant 0.5 on the sign support
    mom = bounds.class_moments("D", None, prof, n=3)
    assert mom.sigma_sq == pytest.approx(0.0, abs=1e-12)
    assert mom.r_n == pytest.approx(0.0, abs=1e-8)


def test_gap_class_moments_canonical_exact(canonical):
    law, coll, prof = canonical
    mom = bounds.class_moments("D", None, prof, n=4)
    # variance of the normalized loss gap, enumerated per atom:
    # gap values per atom are (0.5 u^2 - u eps) / 0.25 with u = 2 x2 - x1
    w = law.weights
    u = 2 * law.xs[:, 1] - law.xs[:, 0]
    eps = law.ys - law.xs[:, 0]
    f = (0.5 * u**2 - u * eps) / prof.gamma
    assert mom.sigma_sq == pytest.approx(float(w @ (f - 1.0) ** 2), rel=1e-12)


def test_class_moments_empty_class(symmetric):
    _, _, prof = symmetric
    mom = bounds.class_moments("D", None, prof, n=4)
    assert (mom.sigma_sq, mom.r_n) == (0.0, 0.0)


def test_class_moments_exact_mode_matches_mc(canonical):
    # the closed-form r_n against the masked max over a Monte Carlo count sample
    law, coll, prof = canonical
    exact = bounds.class_moments("G", None, prof, n=2)
    chunks = processes.iter_count_batches(law, 2, 1_000_000, 2)
    mean, se = expected_max_presence(chunks, [prof.records[t].grad_sq for t in prof.indices()])
    assert abs(exact.r_n**2 - mean) <= 4 * max(se, 1e-12)


def _assert_class_moments_match_atom_loop(s, kind):
    # the closed-form r_n against E[max] summed over every ordered dataset, n = 1..4
    law, coll, prof = random_instance(np.random.default_rng(s))
    pool = prof.indices() if kind == "G" else prof.suboptimal()
    for n in range(1, 5):
        mom = bounds.class_moments(kind, None, prof, n)
        sigma_sq, r_n = enum_class_moments(prof, kind, pool, n)
        assert mom.sigma_sq == pytest.approx(sigma_sq, rel=1e-12), n
        assert mom.r_n == pytest.approx(r_n, rel=1e-12), n


@pytest.mark.parametrize("s", range(8))
def test_grad_class_exact_moments_match_atom_loop(s):
    _assert_class_moments_match_atom_loop(s, "G")


@pytest.mark.parametrize("s", range(8))
def test_gap_class_exact_moments_match_atom_loop(s):
    _assert_class_moments_match_atom_loop(s, "D")


def test_closed_form_expected_max_stays_in_range_at_huge_n():
    # n = 10^9 with atom weights spanning 12 decades: the result is finite, in
    # the envelope's range, and agrees with the layer-cake form
    # E[max] = min W + sum_k (W_(k) - W_(k+1)) (1 - T_k^n), taken in log space
    rng = np.random.default_rng(12)
    weights = np.logspace(-12, 0, 40)
    weights /= weights.sum()
    values = [rng.uniform(0.0, 5.0, size=40) for _ in range(3)]
    envelope = np.max(values, axis=0)
    ranked = np.argsort(-envelope)
    below = np.cumsum(weights[ranked][::-1])[::-1][1:]  # T_k, k = 1 .. m - 1
    gaps = envelope[ranked][:-1] - envelope[ranked][1:]
    ref = envelope.min() + float(gaps @ -np.expm1(1e9 * np.log(below)))
    for order in (np.arange(40), np.argsort(envelope), ranked):
        r_n = bounds._expected_max_sqrt(weights[order], [v[order] for v in values], 10**9)
        assert math.isfinite(r_n)
        assert math.sqrt(envelope.min()) <= r_n <= math.sqrt(envelope.max())
        assert r_n**2 == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# shared count samples
# ---------------------------------------------------------------------------

def test_bound_report_draws_each_count_stream_once(monkeypatch):
    draws = []
    real = processes.iter_count_batches

    def counting(law, n, trials, seed):
        draws.append((n, trials, seed))
        return real(law, n, trials, seed)

    monkeypatch.setattr(processes, "iter_count_batches", counting)
    prof = profile(canonical_law(), canonical_three_map_collection())
    inputs = bounds.compute_bound_inputs(prof, 60, trials=300, seed=5)
    for delta in (0.01, 0.05, 0.1, 0.5):
        bounds.thresholds_and_bounds(prof, inputs, 60, delta, k=2)
    assert draws == [(60, 300, 5)]


def test_bound_report_builds_each_value_table_once(monkeypatch):
    builds, asks, chunks = [], [], []
    real_moments, real_sup, real_batches = processes.AtomTables.moments, processes.expected_sup, processes.iter_count_batches

    def recording_batches(*args):
        for chunk in real_batches(*args):
            chunks.append(chunk)
            yield chunk

    def counting_moments(self, counts, n):
        builds.append((counts, n))
        return real_moments(self, counts, n)

    def counting_sup(*args, **kwargs):
        asks.append(args[:2])
        return real_sup(*args, **kwargs)

    monkeypatch.setattr(processes.AtomTables, "moments", counting_moments)
    monkeypatch.setattr(processes, "iter_count_batches", recording_batches)
    for module in (bounds, localization):
        monkeypatch.setattr(module, "expected_sup", counting_sup)
    prof = profile(canonical_law(), canonical_three_map_collection())
    trials = 2 * CHUNK + 30  # three chunks
    inputs = bounds.compute_bound_inputs(prof, 60, trials=trials, seed=5)
    for delta in (0.01, 0.05, 0.1, 0.5):
        bounds.thresholds_and_bounds(prof, inputs, 60, delta, k=2)
    assert len(chunks) == 3
    assert len(builds) == len(chunks)
    assert all(counts is chunk and n == 60 for (counts, n), chunk in zip(builds, chunks))
    assert len(asks) > 10  # many subsets, steps and deltas read the one table


def test_reused_count_sample_matches_fresh_profile():
    law, coll = canonical_law(), canonical_three_map_collection()
    shared = profile(law, coll)
    args = dict(trials=500, seed=3)
    asks = [("lambda", None), ("g_sq", ["A", "C"]), ("delta", None), ("g_sq", None)]
    reused = [processes.expected_sup(process, subset, 40, shared, **args) for process, subset in asks]
    fresh = [processes.expected_sup(process, subset, 40, profile(law, coll), **args) for process, subset in asks]
    assert reused == fresh  # exact float equality
    assert shared.tables.table(40, 500, 3) is shared.tables.table(40, 500, 3)


def test_profile_with_count_sample_is_freed_without_cyclic_gc():
    prof = profile(canonical_law(), canonical_three_map_collection())
    prof.tables.table(40, 500, 3)  # a cached table, replaced by a second key
    prof.tables.table(40, 500, 4)
    ref = weakref.ref(prof)
    gc.disable()
    try:
        del prof
        assert ref() is None
    finally:
        gc.enable()


def test_profile_with_value_table_is_freed_without_cyclic_gc():
    prof = profile(canonical_law(), canonical_three_map_collection())
    processes.expected_sup("g_sq", None, 40, prof, trials=500, seed=3)
    ref = weakref.ref(prof)
    gc.disable()
    try:
        del prof
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# finite-class sandwich
# ---------------------------------------------------------------------------

def test_sandwich_symmetric_coin():
    law = DiscreteLaw(xs=np.array([[1.0], [-1.0]]), ys=np.zeros(2), weights=[0.5, 0.5])
    # at n = 1 every dataset gives ||E_n(f)||^2 = 1: the estimate is exact
    res = bounds.finite_sup_sandwich([law.xs[:, 0]], law, n=1, trials=200, seed=0)
    assert res.estimate == pytest.approx(1.0, rel=1e-12)
    assert res.se == 0.0
    assert res.lower == pytest.approx(0.75, rel=1e-12)
    assert res.upper == pytest.approx(30.0, rel=1e-12)
    assert res.lower <= res.estimate <= res.upper


@pytest.mark.parametrize("arg", ["n", "trials"])
def test_sandwich_rejects_an_empty_sample(arg):
    law = DiscreteLaw(xs=np.array([[1.0], [-1.0]]), ys=np.zeros(2), weights=[0.5, 0.5])
    with pytest.raises(ValueError, match=arg):
        bounds.finite_sup_sandwich([law.xs[:, 0]], law, **{"n": 3, "trials": 200, arg: 0})


@pytest.mark.parametrize("trials", [1, 2, processes.EXPECTED_SUP_MIN_TRIALS - 1])
def test_sandwich_refuses_fewer_trials_than_an_expected_supremum(trials):
    # one draw would report a standard error of 0 and give holds() no slack
    law = DiscreteLaw(xs=np.array([[1.0], [-1.0], [3.0]]), ys=np.zeros(3), weights=[0.4, 0.4, 0.2])
    with pytest.raises(ValueError, match=str(processes.EXPECTED_SUP_MIN_TRIALS)):
        bounds.finite_sup_sandwich([law.xs[:, 0]], law, n=3, trials=trials, seed=0)
    res = bounds.finite_sup_sandwich([law.xs[:, 0]], law, n=3, trials=processes.EXPECTED_SUP_MIN_TRIALS, seed=0)
    assert res.se > 0.0


def test_sandwich_zero_class():
    law = DiscreteLaw(xs=np.array([[1.0], [-1.0]]), ys=np.zeros(2), weights=[0.5, 0.5])
    res = bounds.finite_sup_sandwich([np.zeros(2)], law, n=3, trials=200, seed=0)
    assert (res.lower, res.upper, res.estimate) == (0.0, 0.0, 0.0)


def test_sandwich_random_class_holds():
    rng = np.random.default_rng(42)
    xs = rng.normal(size=(3, 1))
    law = DiscreteLaw(xs=xs, ys=np.zeros(3), weights=np.full(3, 1 / 3))
    values = [rng.normal(size=(3, 2)) for _ in range(8)]
    res = bounds.finite_sup_sandwich(values, law, n=16, trials=100_000, seed=3)
    assert res.holds(slack_mult=3.0)


# ---------------------------------------------------------------------------
# matrix concentration
# ---------------------------------------------------------------------------

def test_matrix_bernstein_bernoulli_value():
    val = bounds.matrix_bernstein_bound(np.array([[0.5]]), np.array([[0.25]]), n=4, d=1)
    assert val == pytest.approx(math.sqrt(0.5) + 1.0 / 12.0, abs=1e-12)


def test_matrix_bernstein_degenerate_variance():
    mean = np.array([[2.0]])
    assert bounds.matrix_bernstein_bound(mean, np.zeros((1, 1)), n=9, d=1) == pytest.approx(
        2.0 / 9.0, rel=1e-12
    )


from oracles import mc_lambda_max_downward as _mc_lambda_max_downward


def test_matrix_bernstein_bound_validates_on_random_psd_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        mats = []
        for _ in range(m):
            b = rng.normal(size=(d, d))
            mats.append(b @ b.T)
        atoms = np.stack(mats)
        w = rng.uniform(0.2, 1.0, size=m)
        w /= w.sum()
        n = int(rng.integers(2, 30))
        mean_z = np.tensordot(w, atoms, axes=(0, 0))
        centered = atoms - mean_z[None]
        v = np.tensordot(w, centered @ centered, axes=(0, 0))
        bound = bounds.matrix_bernstein_bound(mean_z, v, n=n, d=d)
        est, se = _mc_lambda_max_downward(atoms, w, n, trials=10_000, seed=int(rng.integers(1 << 30)))
        assert est <= bound + 3 * se


def test_matrix_bernstein_canonical_whitened_blocks(canonical):
    law, coll, prof = canonical
    n = 100
    for t in ("A", "B"):
        psi = coll.entry(t)(law.xs) @ prof.whitener(t)
        atoms = psi[:, :, None] * psi[:, None, :]
        mean_z = np.tensordot(law.weights, atoms, axes=(0, 0))
        centered = atoms - mean_z[None]
        v = np.tensordot(law.weights, centered @ centered, axes=(0, 0))
        bound = bounds.matrix_bernstein_bound(mean_z, v, n=n)
        est, se = _mc_lambda_max_downward(atoms, law.weights, n, trials=10_000, seed=5)
        assert est <= bound + 3 * se


# ---------------------------------------------------------------------------
# covariance-deviation lambda_max
# ---------------------------------------------------------------------------

def test_cov_dev_zero_for_sign_coordinate():
    law = DiscreteLaw(xs=np.array([[1.0], [-1.0]]), ys=np.zeros(2), weights=[0.5, 0.5])
    coll = FeatureCollection([FeatureEntry("t", 1, lambda x: x)])
    prof = profile(law, coll)
    assert bounds.covariance_deviation_lambda_max(prof) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("s", [2, 3])
def test_cov_dev_intercept_lower_bound(s):
    # s-dimensional map with an intercept over a centered orthonormal design
    grid = np.array(np.meshgrid(*([[-1.0, 1.0]] * (s - 1)), indexing="ij")).reshape(s - 1, -1).T
    law = DiscreteLaw(xs=grid, ys=np.zeros(grid.shape[0]), weights=np.full(grid.shape[0], 1.0 / grid.shape[0]))
    coll = FeatureCollection(
        [FeatureEntry("t", s, lambda x: np.hstack([np.ones((x.shape[0], 1)), x]))]
    )
    prof = profile(law, coll)
    val = bounds.covariance_deviation_lambda_max(prof)
    assert val >= s - 1 - 1e-12


@pytest.mark.parametrize("build", list(bench_law_cases()))
def test_cov_dev_equals_the_per_map_loop_on_bench_laws(build):
    prof = profile(*build())
    assert bounds.covariance_deviation_lambda_max(prof) == covariance_deviation_lambda_max_loop(prof)


@pytest.mark.parametrize("entries", [STACK_ENTRIES, 1, 40])
@pytest.mark.parametrize("seed", range(4))
def test_cov_dev_matches_the_per_map_loop_on_mixed_dimensions(monkeypatch, seed, entries):
    # a stack of 1 entry still takes one map; 40 entries take 1 to 4 maps of 10 atoms
    monkeypatch.setattr(model, "STACK_ENTRIES", entries)
    prof = profile(*mixed_dim_instance(np.random.default_rng(seed)))
    ref = covariance_deviation_lambda_max_loop(prof)
    assert bounds.covariance_deviation_lambda_max(prof) == pytest.approx(ref, rel=1e-12)


def test_cov_dev_mc_gaussian_smoke():
    law = GaussianDesignLaw(cov=np.eye(2), w_true=np.zeros(2), noise_std=1.0)
    coll = subset_collection(2, 2)
    est = bounds.covariance_deviation_lambda_max_mc(law, coll, draws=200_000, seed=0)
    assert est == pytest.approx(3.0, rel=0.05)


@pytest.mark.parametrize("draws", [0, -5])
def test_cov_dev_mc_rejects_no_draws(draws):
    # no draw has no estimate: 0.0 would understate every threshold built on it
    law = GaussianDesignLaw(cov=np.eye(2), w_true=np.zeros(2), noise_std=1.0)
    with pytest.raises(ValueError, match="draws"):
        bounds.covariance_deviation_lambda_max_mc(law, subset_collection(2, 2), draws=draws, seed=0)


# ---------------------------------------------------------------------------
# quadratic-form variance supremum
# ---------------------------------------------------------------------------

def test_quartic_sup_zero_for_deterministic_unit_form():
    law = DiscreteLaw(xs=np.array([[1.0], [-1.0]]), ys=np.zeros(2), weights=[0.5, 0.5])
    coll = FeatureCollection([FeatureEntry("t", 1, lambda x: x)])
    prof = profile(law, coll)
    val, tag = bounds.quadratic_form_variance_sup(prof, seed=0)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert tag == "exact"  # a one-dimensional block is a closed form


@pytest.mark.parametrize("d", [4, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quartic_sup_closed_form_on_sign_hypercube(d, seed):
    # X uniform on {-1, +1}^d, Y = x0 + x1 + a +-1 coin, every size-2 subset: L = 1
    w_true = np.zeros(d)
    w_true[:2] = 1.0
    prof = profile(bss_instance("discrete", d, w_true, 1.0), subset_collection(d, 2))
    val, tag = bounds.quadratic_form_variance_sup(prof, seed=seed)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert tag == "exact"  # every block has dimension 2: the seed reaches nothing


def test_quartic_sup_matches_grid_oracle(canonical):
    law, coll, prof = canonical
    val, _ = bounds.quadratic_form_variance_sup(prof, seed=0)
    grid = quadratic_form_variance_grid(law, coll, prof, resolution=1e-3)
    assert val == pytest.approx(grid, abs=1e-3)
    assert val >= grid - 1e-9  # ascent refines the grid maximum


def test_quartic_sup_matches_grid_oracle_dim3():
    rng = np.random.default_rng(23)
    law, coll, prof = None, None, None
    while True:
        law, coll, prof = random_instance(rng, n_maps=2)
        if sum(coll.dims) == 3:
            break
    val, _ = bounds.quadratic_form_variance_sup(prof, seed=1)
    grid = quadratic_form_variance_grid(law, coll, prof, resolution=5e-3)
    assert val >= grid - 1e-9
    assert val == pytest.approx(grid, rel=2e-2, abs=2e-2)


def test_quartic_sup_matches_grid_oracle_on_a_plane_block():
    rng = np.random.default_rng(31)
    while True:
        law, coll, prof = random_instance(rng, n_maps=1)
        if coll.dims == (2,):
            break
    val, tag = bounds.quadratic_form_variance_sup(prof, seed=0)
    grid = quadratic_form_variance_grid(law, coll, prof, resolution=1e-4)
    assert tag == "exact"
    assert val >= grid - 1e-12 * grid
    assert val == pytest.approx(grid, rel=1e-6)


def _plane_grid_max(weights, psi, resolution=1e-4):
    theta = np.arange(0.0, math.pi, resolution)
    q = (psi @ np.stack([np.cos(theta), np.sin(theta)])) ** 2 - 1.0  # (m, angles)
    return float((weights @ q**2).max())


@pytest.mark.parametrize("psi,weights,expected", [
    # (2,0), (0,2), (1,1), (1,-1): G11 = G22, G12 = 0, no first harmonic either: F = 1 everywhere
    ([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0], [1.0, -1.0]], [0.1, 0.1, 0.4, 0.4], 1.0),
    # (2,0), (1,1), (1,-1): the quartic term vanishes, the first harmonic peaks at u = (1, 0)
    ([[2.0, 0.0], [1.0, 1.0], [1.0, -1.0]], [0.2, 0.4, 0.4], 1.8),
], ids=["constant", "first-harmonic-only"])
def test_plane_block_sup_when_the_quartic_drops_degree(psi, weights, expected):
    psi, weights = np.array(psi), np.array(weights)
    sq = psi**2
    beta, gamma = 0.5 * (sq[:, 0] - sq[:, 1]), psi[:, 0] * psi[:, 1]
    assert weights @ beta**2 == weights @ gamma**2 and weights @ (beta * gamma) == 0.0  # c2 = 0 exactly
    val = bounds._pair_block_sups(weights, psi[None])[0]
    assert val == pytest.approx(expected, rel=1e-15)
    assert val >= _plane_grid_max(weights, psi) - 1e-12


def test_quartic_sup_of_a_rotation_invariant_plane_block():
    # three atoms at 120 degrees: whitened, every unit direction has the same
    # variance 1/2, and G11 = G22, G12 = 0 hold only up to rounding
    angles = 2.0 * math.pi * np.arange(3) / 3.0
    xs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    law = DiscreteLaw(xs=xs, ys=np.array([1.0, -0.5, 0.25]), weights=np.full(3, 1.0 / 3.0))
    prof = profile(law, FeatureCollection([FeatureEntry("plane", 2, lambda x: x)]))
    val, tag = bounds.quadratic_form_variance_sup(prof, seed=0)
    assert tag == "exact"
    assert val == pytest.approx(0.5, rel=1e-12)


def test_quartic_sup_dominates_single_block_restriction():
    rng = np.random.default_rng(29)
    for _ in range(5):
        law, coll, prof = random_instance(rng)
        full, _ = bounds.quadratic_form_variance_sup(prof, seed=2)
        single = single_block_variance_max(law, coll, prof)
        assert full >= single - 1e-9


def _quartic_cases():
    for s in range(40):
        yield pytest.param(lambda s=s: random_instance(np.random.default_rng(s))[2], 2, id=f"random-{s}")
    for d in (4, 6):
        w_true = np.zeros(d)
        w_true[:2] = 1.0
        for seed in range(3):
            yield pytest.param(
                lambda d=d, w=w_true: profile(bss_instance("discrete", d, w, 1.0), subset_collection(d, 2)),
                seed,
                id=f"hypercube-{d}-{seed}",
            )

    def mixed():
        rng = np.random.default_rng(7)
        law = DiscreteLaw(xs=rng.normal(size=(9, 4)), ys=rng.normal(size=9), weights=np.full(9, 1 / 9))
        coll = FeatureCollection(
            [FeatureEntry("one", 1, lambda x: x[:, [3]]), FeatureEntry("three", 3, lambda x: x[:, :3])]
        )
        return profile(law, coll)

    yield pytest.param(mixed, 0, id="mixed-1-3")
    zero_law = DiscreteLaw(xs=np.array([[1.0], [-1.0]]), ys=np.zeros(2), weights=[0.5, 0.5])
    yield pytest.param(
        lambda: profile(zero_law, FeatureCollection([FeatureEntry("t", 1, lambda x: x)])), 0, id="two-atom-zero"
    )


@pytest.mark.parametrize("build,seed", list(_quartic_cases()))
def test_quartic_sup_matches_per_block_loop(build, seed):
    # the loop is the whole-vector ascent over every block at once: the
    # single-block sups must match its value and never fall below it
    prof = build()
    val, tag = bounds.quadratic_form_variance_sup(prof, seed=seed)
    ref, ref_tag = quadratic_form_variance_sup_loop(prof, seed=seed)
    assert tag == ("exact" if prof.collection.max_dim <= 2 else ref_tag)
    assert val >= ref - 1e-12 * max(1.0, abs(ref))
    assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("s", range(5))
def test_quartic_sup_invariant_under_atom_split(s):
    # two half-weight copies of every atom give the same law, hence the same L
    law, coll, prof = random_instance(np.random.default_rng(s))
    split = DiscreteLaw(
        xs=np.repeat(law.xs, 2, axis=0), ys=np.repeat(law.ys, 2), weights=np.repeat(law.weights / 2, 2)
    )
    val, tag = bounds.quadratic_form_variance_sup(prof, seed=1)
    split_val, split_tag = bounds.quadratic_form_variance_sup(profile(split, coll), seed=1)
    assert split_tag == tag == "exact"
    assert abs(split_val - val) <= 1e-12 * max(1.0, abs(val))


@pytest.mark.parametrize("n,gap_rows", [(5, "all"), (3500, "some"), (40_000, "none")])
def test_expected_max_closed_form_matches_masked_max(n, gap_rows):
    # the Monte Carlo reference masks every atom a row misses; once every row
    # holds every atom, it is the overall max, which the closed form rounds to
    prof = profile(bss_instance("discrete", 8, [1.0, 1.0] + [0.0] * 6, 1.0), subset_collection(8, 2))
    chunks = list(processes.iter_count_batches(prof.law, n, 1000, 4))
    assert prof.law.support_size == 512
    share = np.mean(np.concatenate([c.min(axis=1) == 0 for c in chunks]))
    assert {"all": share == 1.0, "some": 0.0 < share < 1.0, "none": share == 0.0}[gap_rows]
    recs = prof.records
    grad_w = {t: rec.resid[:, None] * (rec.phi @ rec.whitener) for t, rec in recs.items()}
    loss0 = 0.5 * recs[prof.least_optimal_index].resid ** 2
    for values in (
        [np.sum(grad_w[t] ** 2, axis=1) for t in prof.indices()],
        [((0.5 * recs[t].resid ** 2 - loss0) / prof.gap(t) - 1.0) ** 2 for t in prof.suboptimal()[:3]],
    ):
        got = bounds._expected_max_sqrt(prof.law.weights, values, n)
        root, se = bounds._sqrt_with_se(*expected_max_presence(chunks, values))
        assert abs(got - root) <= 4.0 * se
        if gap_rows == "none":
            assert got == root


# ---------------------------------------------------------------------------
# A(S) and report assembly
# ---------------------------------------------------------------------------

def test_explicit_complexity_empty_and_noiseless(realizable):
    law, coll, prof = realizable
    assert bounds.explicit_complexity([], prof, 10).value == 0.0
    val = bounds.explicit_complexity(["full"], prof, 10)
    assert val.value == pytest.approx(0.0, abs=1e-12)


def test_explicit_complexity_monotone_chains():
    rng = np.random.default_rng(31)
    for _ in range(10):
        law, coll, prof = random_instance(rng, n_maps=4)
        ids = list(prof.indices())
        rng.shuffle(ids)
        chain = [tuple(sorted(ids[:k], key=str)) for k in (1, 2, 4)]
        vals = [bounds.explicit_complexity(s, prof, 25).value for s in chain]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def test_report_formula_example(canonical):
    law, coll, prof = canonical
    # this instance has cov-dev lambda_max = 1 and quartic sup = 1 exactly,
    # d = 1: threshold reduces to 518 + 139 ln 20
    assert bounds.single_class_threshold_value(1.0, 1.0, 1, 0.1) == pytest.approx(
        518 + 139 * math.log(20), rel=1e-12
    )
    inputs = bounds.compute_bound_inputs(prof, 1000, trials=400, seed=0)
    rep = bounds.thresholds_and_bounds(prof, inputs, 1000, 0.1, k=1)
    assert rep.single_class_threshold.value == pytest.approx(518 + 139 * math.log(20), rel=1e-9)


def test_report_noiseless_singleton_complexity_zero(realizable):
    law, coll, prof = realizable
    # optimal class is noiseless: A({t_*}) = 0
    val = bounds.explicit_complexity([prof.least_optimal_index], prof, 100)
    assert val.value == 0.0


def test_report_fields_finite_and_tagged(canonical):
    law, coll, prof = canonical
    inputs = bounds.compute_bound_inputs(prof, 1000, trials=500, seed=1)
    rep = bounds.thresholds_and_bounds(prof, inputs, 1000, 0.1, k=1)
    payload = rep.to_json_dict()
    for name, entry in payload.items():
        if isinstance(entry, dict) and "value" in entry:
            assert np.isfinite(entry["value"]), name
            assert entry["value"] >= 0.0, name
            assert entry["tag"] in ("exact", "estimated", "estimated:ascent", "estimated:ascent-maxiter")
    # A values over the trace lattice are monotone
    sizes_vals = sorted(
        ((k.count(",") + 1 if k != "{}" else 0), v["value"]) for k, v in payload["a_values"].items()
    )
    for (s1, v1), (s2, v2) in zip(sizes_vals, sizes_vals[1:]):
        if s1 <= s2:
            assert v1 <= v2 + 1e-9


def test_report_thresholds_increase_as_delta_shrinks(canonical):
    law, coll, prof = canonical
    inputs = bounds.compute_bound_inputs(prof, 500, trials=400, seed=2)
    reports = [bounds.thresholds_and_bounds(prof, inputs, 500, d, k=1) for d in (0.5, 0.1, 0.02)]
    for a, b in zip(reports, reports[1:]):
        assert b.single_class_threshold.value >= a.single_class_threshold.value
        assert b.explicit_threshold.value >= a.explicit_threshold.value
        assert b.expected_sup_threshold.value >= a.expected_sup_threshold.value


def test_report_missing_constituent_raises(canonical):
    # the error names the first missing field, not a fixed one
    law, coll, prof = canonical
    inputs = bounds.compute_bound_inputs(prof, 200, trials=400, seed=3)
    cases = [
        (("exp_sup_lambda", "exp_sup_delta"), "exp_sup_lambda"),
        (("exp_sup_delta",), "exp_sup_delta"),
        (("gap_class", "exp_sup_delta"), "gap_class"),
    ]
    for missing, named in cases:
        broken = inputs._replace(**dict.fromkeys(missing))
        with pytest.raises(bounds.IncompleteReportError) as err:
            bounds.thresholds_and_bounds(prof, broken, 200, 0.1)
        assert err.value.field_name == named


def test_resolve_explicit_threshold_warns_when_rounds_run_out(canonical):
    _, _, prof = canonical
    with pytest.warns(RuntimeWarning, match="explicit threshold fixed point not reached in 1 rounds"):
        bounds.resolve_explicit_threshold(prof, 0.1, seed=4, rounds=1)


def test_resolve_explicit_threshold_self_consistent(canonical):
    law, coll, prof = canonical
    n = bounds.resolve_explicit_threshold(prof, 0.1, seed=4)
    gap = bounds.class_moments("D", None, prof, n)
    lam_v = bounds.covariance_deviation_lambda_max(prof)
    l_val, _ = bounds.quadratic_form_variance_sup(prof, seed=4)
    thr = bounds.explicit_threshold_value(lam_v, l_val, 1, 2, 0.1, gap)
    assert n >= thr * 0.999
