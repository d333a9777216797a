import numpy as np
import pytest

from unionerm import localization as loc

from conftest import random_instance


class _FixedComplexity:
    """Complexity source returning a constant, for threshold arithmetic tests."""

    def __init__(self, value):
        self._v = value

    def value(self, subset):
        from unionerm.bounds import TaggedValue

        return TaggedValue(0.0 if not tuple(subset) else self._v, "exact", None)


def test_f_map_vacuous_threshold_returns_everything(canonical_three):
    _, _, prof = canonical_three
    # gaps are {0, 0.25, 1.25}: a huge complexity keeps every index
    out = loc.f_map(prof.indices(), 10, 0.5, prof, _FixedComplexity(1e6))
    assert out == prof.indices()


def test_f_map_small_threshold_returns_optimal_set(canonical_three):
    _, _, prof = canonical_three
    out = loc.f_map(prof.indices(), 10**9, 0.5, prof, _FixedComplexity(1.0))
    assert out == prof.t_star


def test_f_map_middle_sublevel_set(canonical_three):
    _, _, prof = canonical_three
    # choose n so the threshold lands strictly between the two gaps
    gaps = sorted(prof.gap(t) for t in prof.suboptimal())
    assert gaps == pytest.approx([0.25, 1.25])
    cx = _FixedComplexity(1.0)
    # threshold = 2 / (n delta): target 0.5 => n = 8 at delta 0.5
    out = loc.f_map(prof.indices(), 8, 0.5, prof, cx)
    assert out == ("A", "B")
    # enumeration cross-check of the sublevel set at that threshold
    thr = 2.0 / (8 * 0.5) * 1.0
    ref = tuple(t for t in prof.indices() if prof.gap(t) <= thr)
    assert out == ref


def test_f_map_includes_boundary_index(canonical_three):
    _, _, prof = canonical_three
    # threshold exactly at the smaller gap: 2 cx / (n delta) = 0.25
    out = loc.f_map(prof.indices(), 8, 0.5, prof, _FixedComplexity(0.5))
    assert "B" in out


def test_iterate_k1_matches_f_map(canonical_three):
    _, _, prof = canonical_three
    n = 200
    cx = loc.ClosedFormComplexity(prof, n)
    tr = loc.iterate(n, 0.2, 1, prof, cx)
    assert len(tr.sets) == 2
    assert tr.sets[1] == loc.f_map(prof.indices(), n, 0.1, prof, cx)  # delta/2k = 0.1


def test_iterate_nesting_and_optimal_containment_random():
    rng = np.random.default_rng(17)
    for trial in range(100):
        law, coll, prof = random_instance(rng)
        n = int(rng.integers(10, 10_000))
        delta = float(rng.uniform(0.01, 0.5))
        k = int(rng.integers(1, 5))
        tr = loc.iterate(n, delta, k, prof, loc.ClosedFormComplexity(prof, n))
        star = set(prof.t_star)
        for a, b in zip(tr.sets, tr.sets[1:]):
            assert set(b) <= set(a)
            assert star <= set(b)
        assert all(
            t2 <= t1 + 1e-9 for t1, t2 in zip(tr.thresholds, tr.thresholds[1:])
        )


def test_iterate_fixed_point_is_idempotent(canonical_three):
    _, _, prof = canonical_three
    n = 500
    cx = loc.ClosedFormComplexity(prof, n)
    tr = loc.iterate(n, 0.1, 5, prof, cx)
    if tr.fixed_point_at is not None:
        j = tr.fixed_point_at
        for m in range(j + 1, len(tr.sets) - 1):
            assert tr.sets[m + 1] == tr.sets[j + 1]


def test_f_map_from_full_set_equals_restriction_to_previous(canonical_three):
    # the map ranges over the whole collection; because thresholds shrink,
    # selecting from the full collection agrees with restricting to the
    # previous iterate once iteration starts at the full collection
    _, _, prof = canonical_three
    n = 300
    cx = loc.ClosedFormComplexity(prof, n)
    tr = loc.iterate(n, 0.2, 3, prof, cx)
    for j in range(1, len(tr.sets)):
        prev = tr.sets[j - 1]
        full = tr.sets[j]
        restricted = tuple(t for t in full if t in prev)
        assert full == restricted


def test_delta_monotonicity(canonical_three):
    _, _, prof = canonical_three
    n = 400
    cx = loc.ClosedFormComplexity(prof, n)
    small = loc.iterate(n, 0.05, 2, prof, cx)
    large = loc.iterate(n, 0.5, 2, prof, cx)
    for s_small, s_large in zip(small.sets, large.sets):
        assert set(s_large) <= set(s_small)


def test_collapse_n_yields_optimal_set(canonical):
    _, _, prof = canonical
    n0 = loc.collapse_n(prof, 0.1, lambda n: loc.ClosedFormComplexity(prof, n))
    for n in (n0, 2 * n0):
        tr = loc.iterate(n, 0.1, 1, prof, loc.ClosedFormComplexity(prof, n))
        assert tr.sets[-1] == prof.t_star


def test_choose_k_trivial_cases(canonical, symmetric):
    _, _, prof_sym = symmetric
    # every map optimal: k_max = 1, best k = 1
    k, bound, tr = loc.choose_k(10, 0.1, prof_sym, loc.ClosedFormComplexity(prof_sym, 10))
    assert k == 1
    _, _, prof = canonical
    n0 = loc.collapse_n(prof, 0.1, lambda n: loc.ClosedFormComplexity(prof, n))
    k, bound, tr = loc.choose_k(2 * n0, 0.1, prof, loc.ClosedFormComplexity(prof, 2 * n0))
    assert k == 1  # the first step already reaches the optimal set
    assert tr.sets[-1] == prof.t_star


def test_choose_k_exhaustive_argmin(canonical_three):
    _, _, prof = canonical_three
    n = 150
    cx = loc.ClosedFormComplexity(prof, n)
    k_star, bound, _ = loc.choose_k(n, 0.1, prof, cx)
    bounds_by_k = [loc.iterate(n, 0.1, k, prof, cx).final_bound for k in range(1, 4)]
    assert bound == pytest.approx(min(bounds_by_k), rel=1e-12)
    assert bounds_by_k[k_star - 1] == pytest.approx(bound, rel=1e-12)
    first_min = 1 + int(np.argmin(np.round(np.array(bounds_by_k), 15)))
    assert k_star == first_min


def test_expected_sup_complexity_source(canonical):
    _, _, prof = canonical
    n = 200
    cx = loc.ExpectedSupComplexity(prof, n, trials=2000, seed=8)
    tr = loc.iterate(n, 0.1, 2, prof, cx)
    star = set(prof.t_star)
    for s in tr.sets:
        assert star <= set(s)
    # conservative estimate is at least the raw estimate
    from unionerm.processes import expected_sup

    raw, se = expected_sup("g_sq", prof.indices(), n, prof, trials=2000, seed=8)
    assert cx.value(prof.indices()).value == pytest.approx(raw + 3 * se, rel=1e-12)
