import gc
import math
import weakref

import numpy as np
import pytest

from unionerm import bounds, processes
from unionerm.model import DiscreteLaw, FeatureCollection, FeatureEntry, GaussianDesignLaw, subset_collection
from unionerm.population import profile

from conftest import canonical_law, canonical_three_map_collection, random_instance


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
    mom = bounds.class_moments("G", ["full"], prof, n=4, trials=200, seed=0)
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
    mom = bounds.class_moments("D", None, prof, n=3, trials=200, seed=0)
    assert mom.sigma_sq == pytest.approx(0.0, abs=1e-12)
    assert mom.r_n == pytest.approx(0.0, abs=1e-8)


def test_gap_class_moments_canonical_exact(canonical):
    law, coll, prof = canonical
    mom = bounds.class_moments("D", None, prof, n=4, trials=500, seed=1)
    # variance of the normalized loss gap, enumerated per atom:
    # gap values per atom are (0.5 u^2 - u eps) / 0.25 with u = 2 x2 - x1
    w = law.weights
    u = 2 * law.xs[:, 1] - law.xs[:, 0]
    eps = law.ys - law.xs[:, 0]
    f = (0.5 * u**2 - u * eps) / prof.gamma
    assert mom.sigma_sq == pytest.approx(float(w @ (f - 1.0) ** 2), rel=1e-12)


def test_class_moments_empty_class(symmetric):
    _, _, prof = symmetric
    mom = bounds.class_moments("D", None, prof, n=4, trials=200, seed=0)
    assert (mom.sigma_sq, mom.r_n) == (0.0, 0.0)


def test_class_moments_exact_mode_matches_mc(canonical):
    law, coll, prof = canonical
    exact = bounds.class_moments("G", None, prof, n=2, mode="exact")
    mc = bounds.class_moments("G", None, prof, n=2, trials=1_000_000, seed=2)
    assert abs(mc.r_n - exact.r_n) <= 4 * max(mc.r_n_se, 1e-12)
    assert exact.sigma_sq == mc.sigma_sq  # both exact by enumeration


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
    inputs = bounds.compute_bound_inputs(prof, 60, trials=300, seed=5, restarts=4)
    for delta in (0.01, 0.05, 0.1, 0.5):
        bounds.thresholds_and_bounds(prof, inputs, 60, delta, k=2)
    assert draws == [(60, 300, 5)]


def test_reused_count_sample_matches_fresh_profile():
    law, coll = canonical_law(), canonical_three_map_collection()
    shared = profile(law, coll)
    args = dict(trials=500, seed=3)
    reused = [
        processes.expected_sup("lambda", None, 40, shared, **args),
        bounds.class_moments("D", None, shared, 40, **args),
        processes.expected_sup("delta", None, 40, shared, **args),
        bounds.class_moments("G", ["A", "C"], shared, 40, **args),
    ]
    fresh = [
        processes.expected_sup("lambda", None, 40, profile(law, coll), **args),
        bounds.class_moments("D", None, profile(law, coll), 40, **args),
        processes.expected_sup("delta", None, 40, profile(law, coll), **args),
        bounds.class_moments("G", ["A", "C"], profile(law, coll), 40, **args),
    ]
    assert reused == fresh  # exact float equality
    assert shared.tables.sample(40, 500, 3, "mc") is shared.tables.sample(40, 500, 3, "mc")


def test_profile_with_count_sample_is_freed_without_cyclic_gc():
    prof = profile(canonical_law(), canonical_three_map_collection())
    bounds.class_moments("G", None, prof, 40, trials=500, seed=3)
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
    res = bounds.finite_sup_sandwich([law.xs[:, 0]], law, n=1, mode="exact")
    assert res.estimate == pytest.approx(1.0, rel=1e-12)
    assert res.lower == pytest.approx(0.75, rel=1e-12)
    assert res.upper == pytest.approx(30.0, rel=1e-12)
    assert res.lower <= res.estimate <= res.upper


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
    assert bounds.covariance_deviation_lambda_max(law, coll, prof) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("s", [2, 3])
def test_cov_dev_intercept_lower_bound(s):
    # s-dimensional map with an intercept over a centered orthonormal design
    grid = np.array(np.meshgrid(*([[-1.0, 1.0]] * (s - 1)), indexing="ij")).reshape(s - 1, -1).T
    law = DiscreteLaw(xs=grid, ys=np.zeros(grid.shape[0]), weights=np.full(grid.shape[0], 1.0 / grid.shape[0]))
    coll = FeatureCollection(
        [FeatureEntry("t", s, lambda x: np.hstack([np.ones((x.shape[0], 1)), x]))]
    )
    prof = profile(law, coll)
    val = bounds.covariance_deviation_lambda_max(law, coll, prof)
    assert val >= s - 1 - 1e-12


def test_cov_dev_mc_gaussian_smoke():
    law = GaussianDesignLaw(cov=np.eye(2), w_true=np.zeros(2), noise_std=1.0)
    coll = subset_collection(2, 2)
    est = bounds.covariance_deviation_lambda_max_mc(law, coll, draws=200_000, seed=0)
    assert est == pytest.approx(3.0, rel=0.05)


# ---------------------------------------------------------------------------
# quadratic-form variance supremum
# ---------------------------------------------------------------------------

def test_quartic_sup_zero_for_deterministic_unit_form():
    law = DiscreteLaw(xs=np.array([[1.0], [-1.0]]), ys=np.zeros(2), weights=[0.5, 0.5])
    coll = FeatureCollection([FeatureEntry("t", 1, lambda x: x)])
    prof = profile(law, coll)
    val, tag = bounds.quadratic_form_variance_sup(law, coll, prof, restarts=8, seed=0)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert tag.startswith("estimated")


def test_quartic_sup_matches_grid_oracle(canonical):
    law, coll, prof = canonical
    val, _ = bounds.quadratic_form_variance_sup(law, coll, prof, restarts=32, seed=0)
    grid = bounds.quadratic_form_variance_grid(law, coll, prof, resolution=1e-3)
    assert val == pytest.approx(grid, abs=1e-3)
    assert val >= grid - 1e-9  # ascent refines the grid maximum


def test_quartic_sup_matches_grid_oracle_dim3():
    rng = np.random.default_rng(23)
    law, coll, prof = None, None, None
    while True:
        law, coll, prof = random_instance(rng, n_maps=2)
        if sum(coll.dims) == 3:
            break
    val, _ = bounds.quadratic_form_variance_sup(law, coll, prof, restarts=32, seed=1)
    grid = bounds.quadratic_form_variance_grid(law, coll, prof, resolution=5e-3)
    assert val >= grid - 1e-9
    assert val == pytest.approx(grid, rel=2e-2, abs=2e-2)


def test_quartic_sup_dominates_single_block_restriction():
    rng = np.random.default_rng(29)
    for _ in range(5):
        law, coll, prof = random_instance(rng)
        full, _ = bounds.quadratic_form_variance_sup(law, coll, prof, restarts=24, seed=2)
        single = bounds.single_block_variance_max(law, coll, prof, seed=2)
        assert full >= single - 1e-9


# ---------------------------------------------------------------------------
# A(S) and report assembly
# ---------------------------------------------------------------------------

def test_explicit_complexity_empty_and_noiseless(realizable):
    law, coll, prof = realizable
    assert bounds.explicit_complexity([], prof, 10).value == 0.0
    val = bounds.explicit_complexity(["full"], prof, 10, trials=200, seed=0)
    assert val.value == pytest.approx(0.0, abs=1e-12)


def test_explicit_complexity_monotone_chains():
    rng = np.random.default_rng(31)
    for _ in range(10):
        law, coll, prof = random_instance(rng, n_maps=4)
        ids = list(prof.indices())
        rng.shuffle(ids)
        chain = [tuple(sorted(ids[:k], key=str)) for k in (1, 2, 4)]
        vals = [bounds.explicit_complexity(s, prof, 25, trials=400, seed=9).value for s in chain]
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
    val = bounds.explicit_complexity([prof.least_optimal_index], prof, 100, trials=200, seed=0)
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
    law, coll, prof = canonical
    inputs = bounds.compute_bound_inputs(prof, 200, trials=400, seed=3)
    broken = bounds.BoundInputs(
        cov_dev_lambda_max=inputs.cov_dev_lambda_max,
        quad_form_var_sup=inputs.quad_form_var_sup,
        gap_class=inputs.gap_class,
        grad_class_full=inputs.grad_class_full,
        exp_sup_lambda=None,
        exp_sup_delta=None,
        trials=inputs.trials,
        seed=inputs.seed,
    )
    with pytest.raises(bounds.IncompleteReportError):
        bounds.thresholds_and_bounds(prof, broken, 200, 0.1)


def test_resolve_explicit_threshold_self_consistent(canonical):
    law, coll, prof = canonical
    n = bounds.resolve_explicit_threshold(prof, 0.1, trials=2000, seed=4)
    gap = bounds.class_moments("D", None, prof, n, trials=2000, seed=4)
    lam_v = bounds.covariance_deviation_lambda_max(law, coll, prof)
    l_val, _ = bounds.quadratic_form_variance_sup(law, coll, prof, seed=4)
    thr = bounds.explicit_threshold_value(lam_v, l_val, 1, 2, 0.1, gap)
    assert n >= thr * 0.999
