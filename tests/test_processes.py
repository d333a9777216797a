import inspect
import statistics
import tracemalloc

import numpy as np
import pytest

from unionerm import bounds, processes
from unionerm.experiments import bss_instance
from unionerm.model import (
    CHUNK,
    Dataset,
    DiscreteLaw,
    FeatureCollection,
    FeatureEntry,
    sample_dataset,
    subset_collection,
)
from unionerm.population import profile
from unionerm.processes import (
    DeltaUndefinedError,
    chunk_mean,
    expected_sup,
    iter_count_batches,
    snapshot,
)

import oracles
from conftest import (
    canonical_atoms,
    canonical_law,
    canonical_three_map_collection,
    mixed_dim_instance,
    random_instance,
    symmetric_law_and_collection,
)
from oracles import delta_process, enum_expected_sup, exact_expected_sup, g_process, lambda_process


def _unit_scalar_instance():
    law = DiscreteLaw(xs=np.array([[1.0]]), ys=np.array([0.0]), weights=np.array([1.0]))
    coll = FeatureCollection([FeatureEntry("t", 1, lambda x: x)])
    return law, coll, profile(law, coll)


def test_lambda_zero_when_empirical_matches_population(canonical):
    law, coll, prof = canonical
    # dataset replaying every atom once has the exact population second moment
    ds = Dataset(x=law.xs, y=law.ys)
    assert lambda_process(ds, "A", prof) == pytest.approx(0.0, abs=1e-10)
    assert lambda_process(ds, "B", prof) == pytest.approx(0.0, abs=1e-10)


def test_lambda_degenerate_point_mass():
    law, coll, prof = _unit_scalar_instance()
    ds = Dataset(x=np.array([[1.0]]), y=np.array([0.0]))
    assert lambda_process(ds, "t", prof) == pytest.approx(0.0, abs=1e-14)


def test_lambda_matches_direct_eigendecomposition(canonical):
    law, coll, prof = canonical
    ds = sample_dataset(law, 20, (200, 0))
    for t in ("A", "B"):
        phi = coll.entry(t)(ds.x)
        wh = prof.whitener(t)
        m = wh @ (phi.T @ phi / ds.n) @ wh
        ref = np.sqrt(ds.n) * np.linalg.eigvalsh(np.eye(len(m)) - m)[-1]
        assert lambda_process(ds, t, prof) == pytest.approx(float(ref), abs=1e-10)


def test_lambda_bounded_by_sqrt_n(canonical):
    law, coll, prof = canonical
    for trial in range(50):
        ds = sample_dataset(law, 7, (201, trial))
        for t in ("A", "B"):
            assert lambda_process(ds, t, prof) <= np.sqrt(ds.n) + 1e-12


def test_lambda_variational_form_certificate(canonical):
    law, coll, prof = canonical
    big = FeatureCollection(list(coll.entries) + [FeatureEntry("C", 2, lambda x: x)])
    prof2 = profile(law, big)
    rng = np.random.default_rng(77)
    ds = sample_dataset(law, 25, (202, 0))
    for t in ("A", "B", "C"):
        entry = big.entry(t)
        psi = entry(ds.x) @ prof2.whitener(t)
        d = entry.dim
        wcov = psi.T @ psi / ds.n
        top = np.linalg.eigh(np.eye(d) - wcov)[1][:, -1]
        probes = rng.normal(size=(200, d))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        probes = np.vstack([probes, top])
        vals = np.sqrt(ds.n) * (1.0 - np.mean((psi @ probes.T) ** 2, axis=0))
        lam = lambda_process(ds, t, prof2)
        assert np.all(vals <= lam + 1e-9)          # every direction is a lower bound
        assert vals.max() == pytest.approx(lam, abs=1e-6)  # attained at the top eigvector


def test_g_zero_in_noiseless_realizable(realizable):
    law, coll, prof = realizable
    for trial in range(10):
        ds = sample_dataset(law, 12, (203, trial))
        assert g_process(ds, "full", prof) == pytest.approx(0.0, abs=1e-12)


def test_g_unit_whitened_gradient():
    # one sample with residual 1 and unit feature: whitened gradient norm 1
    law = DiscreteLaw(xs=np.array([[1.0], [-1.0]]), ys=np.array([1.0, -1.0]), weights=[0.5, 0.5])
    coll = FeatureCollection([FeatureEntry("t", 1, lambda x: x)])
    prof_ = profile(law, coll)
    ds = Dataset(x=np.array([[1.0]]), y=np.array([2.0]))  # residual = w* x - y = -1
    assert g_process(ds, "t", prof_) == pytest.approx(1.0, rel=1e-12)


def test_g_second_moment_matches_population(canonical):
    law, coll, prof = canonical
    est, se = expected_sup("g_sq", ["A"], 1, prof, trials=100_000, seed=4)
    assert abs(est - prof.grad_second_moment("A")) <= 3 * se
    exact = exact_expected_sup(prof, "g_sq", ["A"], 1)
    assert exact == pytest.approx(prof.grad_second_moment("A"), rel=1e-10)


def test_g_invariant_under_feature_rescaling(canonical):
    law, coll, prof = canonical
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = float(rng.normal()) or 1.0
        coll2 = FeatureCollection(
            [
                FeatureEntry("A", 1, lambda x, aa=a: aa * x[:, [0]]),
                FeatureEntry("B", 1, lambda x: x[:, [1]]),
            ]
        )
        prof2 = profile(law, coll2)
        ds = sample_dataset(law, 15, (204, 0))
        assert g_process(ds, "A", prof2) == pytest.approx(g_process(ds, "A", prof), rel=1e-9)


def test_g_invariant_under_matrix_reparameterization(canonical):
    # whitened quantity: replacing a two-dimensional map by a nonsingular
    # linear reimage leaves the gradient-norm process unchanged
    law, _, _ = canonical
    base = FeatureCollection([FeatureEntry("C", 2, lambda x: x)])
    prof1 = profile(law, base)
    rng = np.random.default_rng(37)
    ds = sample_dataset(law, 18, (208, 0))
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        while abs(np.linalg.det(a)) < 0.1:
            a = rng.normal(size=(2, 2))
        coll2 = FeatureCollection([FeatureEntry("C", 2, lambda x, m=a: x @ m.T)])
        prof2 = profile(law, coll2)
        assert g_process(ds, "C", prof2) == pytest.approx(g_process(ds, "C", prof1), rel=1e-9)
        assert lambda_process(ds, "C", prof2) == pytest.approx(
            lambda_process(ds, "C", prof1), rel=1e-9
        )


def test_delta_zero_when_empirical_equals_population(canonical):
    law, coll, prof = canonical
    ds = Dataset(x=law.xs, y=law.ys)  # exact replay of the law
    assert delta_process(ds, "B", "A", prof) == pytest.approx(0.0, abs=1e-10)


def test_delta_rejects_optimal_index(canonical):
    law, coll, prof = canonical
    ds = sample_dataset(law, 5, (205, 0))
    with pytest.raises(DeltaUndefinedError):
        delta_process(ds, "A", "A", prof)


def test_delta_mean_zero(canonical):
    law, coll, prof = canonical
    est, se = expected_sup("delta", ["B"], 8, prof, trials=100_000, seed=6)
    assert abs(est) <= 4 * se


def _count_and_oracle_snapshots(law, prof, n, seed):
    # one draw over the distinct moment rows, as counts and as the dataset of their representative atoms
    rows_law = prof.tables.law
    ds = sample_dataset(rows_law, n, seed)
    counts = oracles.atom_counts(rows_law, ds.x, ds.y)[None]
    return snapshot(counts, n, prof), oracles.snapshot(ds, prof), ds


def test_snapshot_consistency(canonical):
    law, coll, prof = canonical
    count_snap, snap, ds = _count_and_oracle_snapshots(law, prof, 30, (206, 0))
    assert snap.lam["A"] == pytest.approx(lambda_process(ds, "A", prof))
    assert snap.g["B"] == pytest.approx(g_process(ds, "B", prof))
    assert snap.delta["B"] == pytest.approx(delta_process(ds, "B", "A", prof))
    assert snap.sup_g_sq == pytest.approx(max(snap.g["A"] ** 2, snap.g["B"] ** 2))
    assert snap.lam_plus_scaled == pytest.approx(max(snap.lam.values()) / np.sqrt(ds.n))
    # the count snapshot evaluates the same processes from the row counts
    rn = np.sqrt(ds.n)
    for j, t in enumerate(prof.indices()):
        assert rn * (1.0 - count_snap.lam_min[0, j]) == pytest.approx(snap.lam[t], rel=1e-12, abs=1e-12)
        assert count_snap.g_sq[0, j] == pytest.approx(snap.g[t] ** 2, rel=1e-12, abs=1e-12)
    assert count_snap.delta[0, 0] == pytest.approx(snap.delta["B"], rel=1e-12, abs=1e-12)
    for field in ("lam_plus_scaled", "lam_minus_scaled", "delta_plus_scaled"):
        assert getattr(count_snap, field)[0] == pytest.approx(getattr(snap, field), rel=1e-12, abs=1e-12)


def test_snapshot_sup_delta_empty_is_zero(symmetric):
    law, coll, prof = symmetric
    count_snap, snap, _ = _count_and_oracle_snapshots(law, prof, 10, (207, 0))
    assert snap.delta == {}
    assert snap.sup_delta == 0.0
    assert count_snap.delta.shape == (1, 0)
    assert count_snap.delta_plus_scaled[0] == 0.0


def test_expected_sup_empty_subset(canonical):
    _, _, prof = canonical
    assert expected_sup("delta", [], 10, prof, trials=100) == (0.0, 0.0)


def test_expected_sup_zero_for_noiseless_gradient(realizable):
    law, coll, prof = realizable
    est, se = expected_sup("g_sq", ["full"], 5, prof, trials=200, seed=1)
    assert est == pytest.approx(0.0, abs=1e-20)
    assert se == pytest.approx(0.0, abs=1e-20)


def test_expected_sup_requires_enough_trials(canonical):
    _, _, prof = canonical
    with pytest.raises(ValueError, match="100"):
        expected_sup("g_sq", None, 5, prof, trials=50)


def test_exact_mode_matches_independent_enumeration(canonical):
    # the value table over every dataset of the merged rows, against a loop
    # over every ordered dataset of atoms
    law, coll, prof = canonical
    for n in (1, 2):
        ref = enum_expected_sup(prof, "g_sq", prof.indices(), n)  # itertools loop oracle
        lib = exact_expected_sup(prof, "g_sq", prof.indices(), n)
        assert lib == pytest.approx(ref, rel=1e-10)


def test_exact_mode_matches_monte_carlo():
    law = DiscreteLaw(
        xs=np.array([[1.0], [-1.0]]), ys=np.array([2.0, -2.0]), weights=np.array([0.5, 0.5])
    )
    coll = FeatureCollection([FeatureEntry("t", 1, lambda x: x)])
    prof_ = profile(law, coll)
    for process in ("lambda", "g_sq"):
        exact = exact_expected_sup(prof_, process, prof_.indices(), 2)
        mc, se = expected_sup(process, None, 2, prof_, trials=1_000_000, seed=8)
        assert abs(mc - exact) <= 4 * max(se, 1e-12)


def test_exact_mode_respects_cap():
    law, coll, prof = random_instance(np.random.default_rng(0))
    with pytest.raises(ValueError, match="cap"):
        oracles.enumerate_product_counts(law, 30)


def test_expected_sup_lambda_scale_decreases_with_n(canonical):
    law, coll, prof = canonical
    vals = {}
    for n in (50, 100, 200):
        est, se = expected_sup("lambda", None, n, prof, trials=20_000, seed=9)
        vals[n] = (est / np.sqrt(n), se / np.sqrt(n))
    assert vals[100][0] <= vals[50][0] + 3 * (vals[50][1] + vals[100][1])
    assert vals[200][0] <= vals[100][0] + 3 * (vals[100][1] + vals[200][1])


# ---------------------------------------------------------------------------
# the value table: every expected supremum is a column max of it
# ---------------------------------------------------------------------------

def _oracle_rows(law, prof, counts):
    """Per-dataset oracle values {process: {index: value}} for count rows."""
    t0 = prof.least_optimal_index
    rows = []
    for c in counts:
        ds = Dataset(x=np.repeat(law.xs, c, axis=0), y=np.repeat(law.ys, c))
        rows.append({
            "lambda": {t: lambda_process(ds, t, prof) for t in prof.indices()},
            "g_sq": {t: g_process(ds, t, prof) ** 2 for t in prof.indices()},
            "delta": {t: delta_process(ds, t, t0, prof) for t in prof.suboptimal()},
        })
    return rows


def _subsets(indices):
    indices = tuple(indices)
    return [indices] + [(t,) for t in indices] + [indices[::2], indices[1:]]


def test_expected_sup_is_the_mean_of_oracle_maxima(canonical):
    rng = np.random.default_rng(17)
    instances = [canonical] + [random_instance(rng) for _ in range(4)]
    for law, coll, prof in instances:
        n, trials, seed = 9, 150, 23
        chunks = list(iter_count_batches(prof.tables.law, n, trials, seed))
        # the sample counts the table's distinct rows: each row's count goes to its first atom
        counts = np.zeros((trials, law.support_size), dtype=np.int64)
        counts[:, prof.tables.rows] = np.concatenate(chunks)
        rows = _oracle_rows(law, prof, counts)
        for process in ("lambda", "g_sq", "delta"):
            pool = prof.suboptimal() if process == "delta" else prof.indices()
            for subset in _subsets(pool):
                if not subset:
                    continue
                got, se = expected_sup(process, subset, n, prof, trials=trials, seed=seed)
                maxima = np.array([max(r[process][t] for t in subset) for r in rows])
                ref = float(np.full(len(maxima), 1.0 / len(maxima)) @ maxima)
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12), (process, subset)
                ref_se = statistics.pstdev(maxima.tolist()) / np.sqrt(len(maxima))
                assert se == pytest.approx(ref_se, rel=1e-9, abs=1e-12), (process, subset)


def test_value_table_rows_do_not_depend_on_the_sample_size():
    # non-integer atoms, so no product is exact by luck: a plain (B, m)
    # product rounds the rows of a 3-row and a 9-row last chunk differently
    xs, ys, ws = canonical_atoms()
    law = DiscreteLaw(xs=1.1 * xs, ys=0.7 * ys, weights=ws)
    prof = profile(law, canonical_three_map_collection())
    k = CHUNK + 3
    short = prof.tables.table(25, k, 11)
    long = prof.tables.table(25, k + 6, 11)
    assert [len(c.g_sq) for c in short] == [CHUNK, 3] and [len(c.g_sq) for c in long] == [CHUNK, 9]
    assert np.array_equal(list(iter_count_batches(prof.tables.law, 25, k + 6, 11))[1][:3],
                          list(iter_count_batches(prof.tables.law, 25, k, 11))[1])
    for field in ("lam_min", "lam_minus_scaled", "g_sq", "delta"):
        assert np.array_equal(getattr(long[0], field), getattr(short[0], field)), field
        assert np.array_equal(getattr(long[1], field)[:3], getattr(short[1], field)), field


def test_value_table_peak_memory_is_a_fraction_of_one_count_chunk():
    # the table itself is (B, 2|T| + |T_sub| + 1); with |T| = 8 against 256
    # distinct rows the bound measures the (B, rows) counts and frequencies
    # that drawing and evaluating B datasets at once would hold
    prof = profile(bss_instance("discrete", 8, [1.0, 1.0] + [0.0] * 6, 1.0), subset_collection(8, 1))
    tables = prof.tables
    b, n = 4096, 1000
    assert len(tables.rows) == 256  # merged before the measurement
    tracemalloc.start()
    try:
        table = tables.table(n, b, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(c.g_sq) for c in table) == b and table[0].g_sq.shape == (CHUNK, 8)
    assert peak < b * 256 * 8 / 2


def _value_table_cases():
    for s in range(10):
        yield pytest.param(lambda s=s: random_instance(np.random.default_rng(s))[2], id=f"random-{s}")

    def mixed():
        rng = np.random.default_rng(7)
        law = DiscreteLaw(xs=rng.normal(size=(9, 4)), ys=rng.normal(size=9), weights=np.full(9, 1 / 9))
        coll = FeatureCollection(
            [
                FeatureEntry("one", 1, lambda x: x[:, [3]]),
                FeatureEntry("three", 3, lambda x: x[:, :3]),
                FeatureEntry("two-one", 1, lambda x: x[:, [0]] - x[:, [1]]),
                FeatureEntry("two-three", 3, lambda x: x[:, 1:]),
            ]
        )
        return profile(law, coll)

    def single():
        return profile(canonical_law(), FeatureCollection([FeatureEntry("A", 1, lambda x: x[:, [0]])]))

    yield pytest.param(mixed, id="mixed-1-3")

    def non_identity(dims):
        def build():
            prof = profile(*mixed_dim_instance(np.random.default_rng(11), dims))
            assert all(not np.allclose(r.whitener, np.eye(r.dim)) for r in prof.records.values())
            return prof
        return build

    yield pytest.param(non_identity((1, 1, 1)), id="dim-1")
    yield pytest.param(non_identity((2, 2, 2)), id="dim-2-non-identity-whitener")
    yield pytest.param(non_identity((1, 2, 3, 2, 1)), id="mixed-1-2-3")
    yield pytest.param(single, id="single-index")
    yield pytest.param(lambda: profile(*symmetric_law_and_collection()), id="all-optimal")


@pytest.mark.parametrize("build", list(_value_table_cases()))
def test_value_table_matches_per_index_loop(build):
    # row counts against the same datasets' counts at the representative atoms
    prof = build()
    n, b, tables = 23, 2 * CHUNK + 5, prof.tables
    counts = np.random.default_rng(3).multinomial(n, tables.law.weights, size=b)
    atom_counts = np.zeros((b, prof.law.support_size), dtype=counts.dtype)
    atom_counts[:, tables.rows] = counts
    got, ref = snapshot(counts, n, prof), oracles.table_snapshot_loop(prof, atom_counts, n)
    assert got.delta.shape == ref.delta.shape == (b, len(prof.suboptimal()))
    # not bit-equal: numpy takes a one-column product by ddot and a wider
    # one by gemv, whose sums run in different orders
    for field in ("lam_min", "lam_minus_scaled", "g_sq", "delta"):
        x, y = getattr(got, field), getattr(ref, field)
        assert np.all(np.abs(x - y) <= 1e-12 * np.maximum(1.0, np.abs(y))), field


def _sym_stack(a, b, c):
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)


def _two_by_two_cases():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1000, 28, 2, 2))
    yield pytest.param(x @ np.swapaxes(x, -1, -2), id="psd-1000x28")
    y = rng.normal(size=(500, 2, 2))
    yield pytest.param(y + np.swapaxes(y, -1, -2), id="indefinite")
    a = rng.uniform(0.5, 2.0, 500)
    yield pytest.param(_sym_stack(a, 1e-9 * rng.normal(size=500), a + 1e-10 * rng.normal(size=500)), id="b~0,a~c")
    yield pytest.param(_sym_stack(a, 0.0 * a, a), id="scalar-multiple-of-identity")
    v = rng.normal(size=(500, 2))
    yield pytest.param(v[:, :, None] * v[:, None, :] + 1e-12 * np.eye(2), id="near-rank-one")
    yield pytest.param(_sym_stack(a, -a, -a), id="zero-trace")
    yield pytest.param(np.zeros((3, 2, 2)), id="zero")


@pytest.mark.parametrize("mats", list(_two_by_two_cases()))
def test_two_by_two_eigenvalues_match_eigvalsh(mats):
    ref = np.linalg.eigvalsh(mats)
    got = np.stack(processes._eig2(mats[..., 0, 0], mats[..., 1, 0], mats[..., 1, 1]), axis=-1)
    scale = np.abs(ref).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# the sample reducer's standard error
# ---------------------------------------------------------------------------

def _split_sample(values, sizes):
    parts = iter(np.split(np.asarray(values, dtype=float), np.cumsum(sizes)[:-1]))
    return chunk_mean(tuple(np.zeros((k, 1)) for k in sizes), lambda chunk: next(parts))


@pytest.mark.parametrize("sizes", [(2700,), (1000, 1000, 700), (1, 2699), (256,) * 10 + (140,)])
def test_mean_se_of_a_constant_is_zero(sizes):
    mean, se = _split_sample(np.full(2700, 1.0 / 3.0), sizes)
    assert mean == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert se == 0.0


@pytest.mark.parametrize("sizes", [(2700,), (1000, 1000, 700), (1, 2699), (256,) * 10 + (140,)])
def test_mean_se_resolves_a_small_spread_on_a_large_offset(sizes):
    values = 1e4 + np.where(np.arange(2700) % 2 == 0, 1e-4, -1e-4)
    ref = statistics.pstdev(values.tolist()) / np.sqrt(2700)  # exact rational variance
    _, se = _split_sample(values, sizes)
    assert ref == pytest.approx(1.9245e-6, rel=1e-4)
    assert se == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# count samples over the table's distinct rows
# ---------------------------------------------------------------------------

def _merging_profiles():
    """(profile, distinct rows) of laws whose moment tables have equal rows:
    the canonical law with a constant map (8 atoms, 7 rows) and two-copy
    splits of random laws."""
    yield pytest.param(lambda: (profile(canonical_law(), canonical_three_map_collection()), 7), id="canonical-three")
    for s in range(3):
        def split(s=s):
            law, coll, _ = random_instance(np.random.default_rng(s))
            twice = DiscreteLaw(
                xs=np.repeat(law.xs, 2, axis=0), ys=np.repeat(law.ys, 2), weights=np.repeat(law.weights / 2, 2)
            )
            return profile(twice, coll), law.support_size
        yield pytest.param(split, id=f"split-{s}")


@pytest.mark.parametrize("build", list(_merging_profiles()))
def test_exact_expectations_over_rows_match_per_atom_enumeration(build):
    prof, rows = build()
    law, tables = prof.law, prof.tables
    assert tables.law.support_size == len(tables.rows) == rows < law.support_size
    n = 3 if law.support_size <= 8 else 2
    for process in ("lambda", "g_sq", "delta"):
        pool = prof.suboptimal() if process == "delta" else prof.indices()
        for subset in _subsets(pool):
            if not subset:
                continue
            got = exact_expected_sup(prof, process, subset, n)
            ref = oracles.enum_expected_sup(prof, process, subset, n)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12), (process, subset)
    for kind, pool in (("G", prof.indices()), ("D", prof.suboptimal())):
        for subset in _subsets(pool):
            if not subset:
                continue
            mom = bounds.class_moments(kind, subset, prof, n)
            sigma_sq, r_n = oracles.enum_class_moments(prof, kind, subset, n)
            assert mom.sigma_sq == pytest.approx(sigma_sq, rel=1e-12, abs=1e-12), (kind, subset)
            assert mom.r_n == pytest.approx(r_n, rel=1e-12, abs=1e-12), (kind, subset)


def _record_draws(monkeypatch):
    """The (law, n, trials, seed) of every count sample drawn through ``processes.iter_count_batches``."""
    draws, real = [], processes.iter_count_batches
    monkeypatch.setattr(processes, "iter_count_batches", lambda *args: (draws.append(args), real(*args))[1])
    return draws


def _same_table(got, ref):
    fields = ("lam_min", "lam_minus_scaled", "g_sq", "delta")
    return len(got) == len(ref) and all(np.array_equal(getattr(a, f), getattr(b, f)) for a, b in zip(got, ref) for f in fields)


@pytest.mark.parametrize("s", range(6))
def test_sample_of_a_law_without_equal_rows_is_the_law_stream(s, monkeypatch):
    law, _, prof = random_instance(np.random.default_rng(s))
    tables = prof.tables
    assert tables.law is law
    assert np.array_equal(tables.rows, np.arange(law.support_size))
    draws = _record_draws(monkeypatch)
    got = tables.table(40, 300, 9)
    assert len(draws) == 1 and draws[0][0] is law and draws[0][1:] == (40, 300, 9)
    assert _same_table(got, [snapshot(c, 40, prof) for c in iter_count_batches(law, 40, 300, 9)])


@pytest.mark.parametrize("d,s,rows", [(8, 2, 256), (10, 3, 1024)])
def test_sign_hypercube_samples_over_half_its_atoms(d, s, rows):
    # (x, eps) and (-x, -eps) have equal moment rows
    prof = profile(bss_instance("discrete", d, [1.0] * s + [0.0] * (d - s), 1.0), subset_collection(d, s))
    tables = prof.tables
    assert prof.law.support_size == 2 * rows
    assert tables.law.support_size == len(tables.rows) == rows
    first, _ = oracles.row_groups(prof)
    assert np.array_equal(tables.rows, first)
    ref = oracles.merged_law(prof)
    for field in ("xs", "ys", "weights"):
        assert np.array_equal(getattr(tables.law, field), getattr(ref, field)), field


def test_rows_are_merged_on_the_first_count_sample_only(monkeypatch):
    # the first draw, here a trial chunk, merges the rows and drops the
    # per-atom table; count samples and later trials draw over the merged law
    from unionerm.experiments import run_trials

    merges = []
    real = processes._distinct_rows
    monkeypatch.setattr(processes, "_distinct_rows", lambda table: merges.append(table.shape[0]) or real(table))
    prof = profile(bss_instance("discrete", 8, [1.0, 1.0] + [0.0] * 6, 1.0), subset_collection(8, 2))
    tables = prof.tables
    assert merges == [] and tables._atoms[1].shape[0] == 512
    run_trials(prof.law, prof.collection, 50, 20, 3, prof, snapshots=True)
    assert merges == [512] and len(tables.rows) == 256
    assert not hasattr(tables, "_atoms") and tables._merged[2].shape[0] == 256
    draws = _record_draws(monkeypatch)
    table = tables.table(50, 200, 3)
    assert draws[0][0] is tables.law
    ref = [snapshot(c, 50, prof) for c in iter_count_batches(tables.law, 50, 200, 3)]
    assert _same_table(table, ref)
    tables.table(50, 100, 4)
    run_trials(prof.law, prof.collection, 50, 20, 4, prof)
    assert merges == [512]


def test_distinct_rows_tell_apart_rows_whose_hashes_collide(monkeypatch):
    rng = np.random.default_rng(4)
    table = rng.integers(-1, 2, size=(3 * CHUNK, 3)).astype(float)  # 27 distinct rows, many repeats
    table[1, :] = [-0.0, 0.0, -0.0]  # equal to a row of zeros
    ref_rows, ref_labels = np.unique(table, axis=0, return_index=True, return_inverse=True)[1:]
    for colliding in (False, True):
        if colliding:
            monkeypatch.setattr(processes, "hash", lambda key: 0, raising=False)
        rows, labels = processes._distinct_rows(table)
        assert np.array_equal(rows, np.sort(ref_rows))
        assert np.array_equal(rows[labels], ref_rows[ref_labels.ravel()])


def test_count_batch_signature_is_kept():
    # bound by name by callers that wrap the draw
    assert list(inspect.signature(iter_count_batches).parameters) == ["law", "n", "trials", "seed"]


def _row_group_cases():
    yield pytest.param(lambda: profile(canonical_law(), canonical_three_map_collection()), id="canonical-three")
    yield pytest.param(
        lambda: profile(bss_instance("discrete", 8, [1.0, 1.0] + [0.0] * 6, 1.0), subset_collection(8, 2)),
        id="bss-8",
    )
    for s in range(3):
        yield pytest.param(lambda s=s: random_instance(np.random.default_rng(s))[2], id=f"random-{s}")


@pytest.mark.parametrize("build", list(_row_group_cases()))
def test_class_values_are_constant_on_row_groups(build):
    prof = build()
    recs, rows = prof.records, prof.tables.rows
    first, labels = oracles.row_groups(prof)
    assert np.array_equal(rows, first)
    loss0 = 0.5 * recs[prof.least_optimal_index].resid ** 2
    per_atom = {
        "G": [recs[t].grad_sq for t in prof.indices()],
        "D": [((0.5 * recs[t].resid ** 2 - loss0) / prof.gap(t) - 1.0) ** 2 for t in prof.suboptimal()],
    }
    for kind, values in per_atom.items():
        for v in values:
            rep = v[rows[labels]]  # each atom's representative value
            assert np.all(np.abs(v - rep) <= 1e-12 * np.abs(rep)), kind
