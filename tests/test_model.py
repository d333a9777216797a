import ast
import hashlib
import itertools
import math
import pathlib
from collections import Counter

import numpy as np
import pytest

from unionerm.model import (
    DegenerateFeatureError,
    DiscreteLaw,
    DuplicateClassError,
    FeatureCollection,
    FeatureEntry,
    GaussianDesignLaw,
    WEIGHT_TOL,
    exact_expectation,
    rng_from_seed,
    sample_dataset,
    stream,
    subset_collection,
    _coordinate_classes,
    validate_collection,
)
from unionerm import model

from conftest import canonical_law, mixed_dim_instance, two_atom_law
from oracles import (
    atom_counts,
    atoms_of,
    enum_expectation,
    enumerate_product_counts,
    seed_sequence_stream,
    sorted_uniform_counts,
    validate_collection_loop,
)


def test_exact_expectation_constant_is_one():
    law = two_atom_law()
    assert exact_expectation(lambda x, y: np.ones(len(y)), law) == pytest.approx(1.0)


def test_exact_expectation_symmetric_mean_zero():
    law = two_atom_law()
    assert exact_expectation(lambda x, y: y, law) == pytest.approx(0.0)


def test_exact_expectation_second_moment():
    law = two_atom_law()
    expected = enum_expectation(atoms_of(law), lambda x, y: y**2)  # two-atom enumeration
    assert expected == pytest.approx(4.0)
    assert exact_expectation(lambda x, y: y**2, law) == pytest.approx(float(expected))


def test_exact_expectation_rejects_generative():
    law = GaussianDesignLaw(cov=np.eye(2), w_true=np.array([1.0, 0.0]), noise_std=1.0)
    with pytest.raises(ValueError, match="discrete"):
        exact_expectation(lambda x, y: y, law)


@pytest.mark.parametrize("fn", [lambda x, y: 1.0, lambda x, y: np.ones(3)], ids=["scalar", "three-values"])
def test_exact_expectation_rejects_an_integrand_without_one_value_per_atom(fn):
    with pytest.raises(ValueError, match="one value per atom"):
        exact_expectation(fn, two_atom_law())


def test_exact_expectation_matches_enumeration_for_polynomials():
    law = canonical_law()
    atoms = atoms_of(law)
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.normal(size=5)

        def poly(x, y):
            x = np.atleast_2d(x)
            return (
                c[0]
                + c[1] * x[..., 0] * y
                + c[2] * x[..., 1] ** 2
                + c[3] * y**3
                + c[4] * x[..., 0] ** 2 * y**2
            )

        lib = exact_expectation(lambda x, y: poly(x, y), law)
        ref = float(enum_expectation(atoms, lambda x, y: np.ravel(poly(x, y))[0]))
        assert lib == pytest.approx(ref, rel=1e-12)


def test_discrete_law_weight_validation():
    with pytest.raises(ValueError):
        DiscreteLaw(xs=np.array([[1.0], [2.0]]), ys=np.zeros(2), weights=np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        DiscreteLaw(xs=np.array([[1.0], [2.0]]), ys=np.zeros(2), weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiscreteLaw(xs=np.array([[np.inf], [2.0]]), ys=np.zeros(2), weights=np.array([0.5, 0.5]))


def test_sample_dataset_deterministic():
    law = two_atom_law()
    a = sample_dataset(law, 5, (0, 0))
    b = sample_dataset(law, 5, (0, 0))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = sample_dataset(law, 5, (0, 1))
    assert not (np.array_equal(a.x, c.x) and np.array_equal(a.y, c.y))


def _hypercube_law(weights=None):
    """X uniform on {+-1}^8 with a +-1 coin, Y = x0 + x1 + eps: 512 atoms."""
    xs = np.repeat(np.array(list(itertools.product((-1.0, 1.0), repeat=8))), 2, axis=0)
    ys = xs[:, 0] + xs[:, 1] + np.tile([1.0, -1.0], 256)
    return DiscreteLaw(xs=xs, ys=ys, weights=np.full(512, 1.0 / 512) if weights is None else weights)


def _random_law(rng, m):
    w = rng.exponential(size=m) ** rng.uniform(0.5, 4.0)
    return DiscreteLaw(xs=rng.normal(size=(m, 2)), ys=rng.normal(size=m), weights=w / w.sum())


def test_sample_dataset_is_the_atom_multiset_of_one_count_draw():
    rng = np.random.default_rng(20)
    w = rng.exponential(size=512) ** 3
    laws = [canonical_law(), two_atom_law(), _hypercube_law(), _hypercube_law(w / w.sum())]
    laws += [_random_law(rng, m) for m in (3, 40, 512)]
    for law in laws:
        atoms = np.column_stack([law.xs, law.ys])
        for n, seed in ((1, (3, 0)), (2, (3, 5)), (7, (3, 1)), (100, (4, 2)), (3001, (11, 9))):
            ds = sample_dataset(law, n, seed)
            rows = np.column_stack([ds.x, ds.y])
            match = np.all(rows[:, None, :] == atoms[None, :, :], axis=2)
            assert np.all(match.sum(axis=1) == 1)
            assert np.all(np.diff(match.argmax(axis=1)) >= 0)  # rows in atom order
            expected = rng_from_seed(*seed).multinomial(n, law.weights)
            assert match.sum(axis=0).tolist() == expected.tolist()


def test_sample_dataset_is_one_multinomial_draw_of_the_trial_stream():
    # The declared stream: a discrete dataset of trial (master, i) is one
    # rng.multinomial(n, weights) call on the stream of SeedSequence((master,
    # i)), and its rows are those counts expanded in atom order.
    rng = np.random.default_rng(21)
    laws = [canonical_law(), two_atom_law(), _hypercube_law(), _random_law(rng, 40)]
    for law in laws:
        for n, (master, i) in ((1, (3, 0)), (7, (3, 1)), (3001, (11, 9)), (20000, (5, 2))):
            expected = seed_sequence_stream(master, i).multinomial(n, law.weights)
            ds = sample_dataset(law, n, (master, i))
            idx = np.repeat(np.arange(law.support_size), expected)
            assert np.array_equal(ds.x, law.xs[idx]) and np.array_equal(ds.y, law.ys[idx])


STREAM_MASTERS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100]  # 2**100: 4 words, entropy past the pool
STREAM_TRIALS = [0, 1, 255, 256, 257, 10**6, 2**32 + 1]  # 2**32 + 1: a two-word trial


@pytest.mark.parametrize("master", STREAM_MASTERS)
def test_trial_streams_are_seed_sequence_streams(master):
    # The stream of sample_dataset's (master, i) and that of run_trials'
    # chunk i are numpy's SeedSequence streams of (master, i) and (master, i,
    # TRIAL_TAG), for masters past one word and two-word indices too: PCG64
    # seeds to the reference state and draws the same values.
    for i in STREAM_TRIALS:
        for rng, key in ((rng_from_seed(master, i), (master, i)), (stream(master, i, model.TRIAL_TAG), (master, i, 5))):
            ref = seed_sequence_stream(*key)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.multinomial(1000, [0.2, 0.3, 0.5]).tolist() == ref.multinomial(1000, [0.2, 0.3, 0.5]).tolist()
            assert rng.standard_normal() == ref.standard_normal()


def test_trial_streams_reject_negative_seeds_like_seed_sequence():
    for master, trial in ((-1, 0), (0, -1), (-(2**40), 3)):
        with pytest.raises(ValueError):
            np.random.SeedSequence((master, trial))
        with pytest.raises(ValueError):
            rng_from_seed(master, trial)
        with pytest.raises(ValueError):
            stream(master, trial, model.TRIAL_TAG)


def test_stream_tags_are_distinct():
    # the last key word of each kind of derived stream: count batches, the
    # design's Monte Carlo, the quartic's starts, grid seeds, trial chunks
    # and the limit law's draws
    tags = [model.COUNT_BATCH_TAG, model.DESIGN_MC_TAG, model.QUARTIC_TAG, model.GRID_TAG, model.TRIAL_TAG,
            model.LIMIT_TAG]
    assert tags == [1, 2, 3, 4, 5, 6]
    draws = {stream(7, 0, tag).integers(2**63) for tag in tags}
    assert len(draws) == len(tags)


def _literal_stream_keys(tree):
    """(line, call) of each ``stream(...)``/``rng_from_seed(...)`` call whose
    tag word, its last positional argument past the first, is an int literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("stream", "rng_from_seed") and len(node.args) > 1:
                tag = node.args[-1]
                if isinstance(tag, ast.Constant) and isinstance(tag.value, int):
                    yield node.lineno, ast.unparse(node)


def test_no_stream_is_keyed_by_a_literal_tag():
    # every stream's tag is a name from model's tag table, so no two kinds
    # of draw can share a key by accident
    src = pathlib.Path(model.__file__).parent
    found = [(path.name, line, call) for path in sorted(src.glob("*.py"))
             for line, call in _literal_stream_keys(ast.parse(path.read_text()))]
    assert found == []
    planted = ast.parse("rng = rng_from_seed(seed, 5)\nz = stream(seed, chunk, 2).random()\nok = stream(seed, TAG)")
    assert [call for _, call in _literal_stream_keys(planted)] == ["rng_from_seed(seed, 5)", "stream(seed, chunk, 2)"]


def test_counts_match_exact_count_vector_probabilities():
    # m = 3 atoms with unequal weights, n = 4: 15 count vectors, whose exact
    # probabilities aggregate the 81 ordered samples of the enumeration.
    law = DiscreteLaw(xs=np.array([[0.0], [1.0], [2.0]]), ys=np.zeros(3), weights=np.array([0.5, 0.3, 0.2]))
    n, draws, n_se = 4, 20_000, 5.0
    exact = Counter()
    for c, prob in zip(*enumerate_product_counts(law, n)):
        exact[tuple(c.tolist())] += prob
    assert len(exact) == math.comb(n + 2, 2) and sum(exact.values()) == pytest.approx(1.0, abs=1e-15)
    samplers = (lambda n, rng: atom_counts(law, *law.sample(n, rng)), lambda n, rng: sorted_uniform_counts(law, n, rng))
    for sampler in samplers:
        rng = np.random.default_rng(41)
        seen = Counter(tuple(sampler(n, rng).tolist()) for _ in range(draws))
        assert set(seen) <= set(exact)
        for c, prob in exact.items():
            se = math.sqrt(prob * (1.0 - prob) / draws)
            assert abs(seen[c] / draws - prob) <= n_se * se, (c, seen[c] / draws, prob)


@pytest.mark.parametrize("offset", [9e-13, -9e-13])
def test_counts_on_edge_weights(offset):
    # Weights that sum to 1 + offset, inside WEIGHT_TOL: spread over the atoms,
    # put on a tiny last atom, on one atom above 1, and on a one-atom law.
    assert abs(offset) < WEIGHT_TOL
    w = np.array([0.1, 0.2, 0.3, 0.4])
    cases = [
        w + offset / 4,
        np.array([0.6, 0.4 + offset, 1e-300]),
        np.array([1.0 + offset - 1e-15, 1e-15]),
        np.array([1.0 + offset]),
        np.array([1.0]),
    ]
    for k, ws in enumerate(cases):
        law = DiscreteLaw(xs=np.arange(ws.size, dtype=float)[:, None], ys=np.zeros(ws.size), weights=ws)
        rng = np.random.default_rng(k)
        for n in (1, 2, 50, 10**6):
            ds = sample_dataset(law, n, (k, n))
            for counts in (atom_counts(law, *law.sample(n, rng)), atom_counts(law, ds.x, ds.y)):
                assert counts.shape == (ws.size,) and np.all(counts >= 0) and int(counts.sum()) == n


def test_sample_dataset_rejects_empty():
    with pytest.raises(ValueError):
        sample_dataset(two_atom_law(), 0, (0, 0))


def test_sample_mean_matches_exact_expectation():
    law = two_atom_law()
    ds = sample_dataset(law, 10**6, (123, 0))
    # law of large numbers against the exact mean 0, sd = 2
    assert abs(ds.y.mean()) <= 0.01


def test_sample_atom_frequencies_within_four_se():
    law = canonical_law()
    n = 10**6
    ds = sample_dataset(law, n, (7, 0))
    rows = np.column_stack([ds.x, ds.y])
    counts = np.array([np.all(rows == a, axis=1).sum() for a in np.column_stack([law.xs, law.ys])])
    assert counts.sum() == n
    se = np.sqrt(law.weights * (1 - law.weights) / n)
    assert np.all(np.abs(counts / n - law.weights) <= 4 * se)


def test_subset_collection_full_subset_is_identity():
    coll = subset_collection(3, 3)
    assert len(coll) == 1
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(coll.entries[0](x), x)


def test_subset_collection_counts_and_order():
    coll = subset_collection(4, 2)
    assert len(coll) == 6
    assert coll.indices() == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_subset_collection_coordinate_projection():
    coll = subset_collection(3, 1)
    x = np.array([[4.0, 5.0, 6.0]])
    vals = [coll.entry((j,))(x)[0, 0] for j in range(3)]
    assert vals == [4.0, 5.0, 6.0]


def test_subset_collection_sizes_match_binomial():
    for d in range(1, 13):
        for s in (1, min(2, d), d):
            assert len(subset_collection(d, s)) == math.comb(d, s)


def test_subset_collection_rejects_bad_sparsity():
    with pytest.raises(ValueError):
        subset_collection(3, 4)
    with pytest.raises(ValueError):
        subset_collection(3, 0)


def test_subset_collection_warns_above_cap():
    with pytest.warns(RuntimeWarning):
        subset_collection(5, 2, cap=5)


def test_validate_collection_rejects_degenerate():
    law = canonical_law()
    coll = FeatureCollection(
        [FeatureEntry("zeroish", 1, lambda x: 0.0 * x[:, [0]])]
    )
    with pytest.raises(DegenerateFeatureError):
        validate_collection(law, coll)


def test_validate_collection_rejects_duplicate_classes():
    law = canonical_law()
    coll = FeatureCollection(
        [
            FeatureEntry("a", 1, lambda x: x[:, [0]]),
            FeatureEntry("b", 1, lambda x: 3.0 * x[:, [0]]),  # same linear class
        ]
    )
    with pytest.raises(DuplicateClassError):
        validate_collection(law, coll)


def _coord_entry(index, coords, fn=None):
    cols = list(coords)
    return FeatureEntry(index, len(cols), fn or (lambda x: x[:, cols]), coords=tuple(cols))


def _validation_cases():
    rng = np.random.default_rng(13)
    full = DiscreteLaw(xs=rng.normal(size=(12, 4)), ys=rng.normal(size=12), weights=np.full(12, 1 / 12))
    for s in (1, 2, 3):
        yield f"subsets-{s}", full, subset_collection(4, s), True
    yield "swapped-coords", full, FeatureCollection(
        [_coord_entry("a", (0, 2)), _coord_entry("b", (1,)), _coord_entry("c", (2, 0))]
    ), True
    # A = D and B = C: the pairwise test names (A, D), not the first pair closed (B, C)
    yield "two-groups", full, FeatureCollection(
        [_coord_entry("A", (0, 1)), _coord_entry("B", (2,)), _coord_entry("C", (2,)), _coord_entry("D", (1, 0))]
    ), True
    repeated = DiscreteLaw(xs=np.hstack([full.xs, full.xs[:, [0]]]), ys=full.ys, weights=full.weights)
    yield "rank-deficient", repeated, FeatureCollection(
        [_coord_entry("a", (0, 1)), _coord_entry("b", (4, 1)), _coord_entry("c", (2,))]
    ), False
    yield "rank-deficient-distinct", repeated, FeatureCollection(
        [_coord_entry("a", (0, 1)), _coord_entry("c", (2,))]
    ), False
    yield "coords-disagree-with-fn", full, FeatureCollection(
        [_coord_entry("a", (0,), lambda x: 2.0 * x[:, [1]]), _coord_entry("b", (1,)), _coord_entry("c", (3,))]
    ), False
    mat = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    yield "coords-and-matrix", full, FeatureCollection(
        [_coord_entry("a", (0, 1)), FeatureEntry("m", 2, lambda x: x @ mat.T), _coord_entry("z", (0, 2))]
    ), False
    yield "coords-and-matrix-duplicate", full, FeatureCollection(
        [_coord_entry("a", (0, 3)), FeatureEntry("m", 2, lambda x: x[:, [0, 3]] @ mat[:, :2].T + 0.0)]
    ), False


@pytest.mark.parametrize("name,law,coll,coordinate_route", list(_validation_cases()))
def test_validate_collection_matches_pairwise_loop(name, law, coll, coordinate_route):
    tables = {e.index: e(law.xs) for e in coll}
    assert (_coordinate_classes(law, tables, coll) is not None) == coordinate_route
    try:
        ref = validate_collection_loop(law, coll)
    except DuplicateClassError as exc:
        with pytest.raises(DuplicateClassError) as got:
            validate_collection(law, coll)
        assert got.value.indices == exc.indices
        assert str(got.value) == str(exc)
        return
    got = validate_collection(law, coll)
    assert got.keys() == ref.keys()
    assert all(np.array_equal(got[t], ref[t]) for t in ref)


@pytest.mark.parametrize("entries", [1, 40, 60, model.STACK_ENTRIES])
def test_stacks_split_each_dimension_in_collection_order(monkeypatch, entries):
    monkeypatch.setattr(model, "STACK_ENTRIES", entries)
    _, coll = mixed_dim_instance(np.random.default_rng(0), dims=(1, 2, 3, 3, 2, 1, 1, 3, 2, 1))
    blocks = list(coll.stacks(10))
    assert all(ids and (len(ids) == 1 or len(ids) * 10 * d <= entries) for d, ids in blocks)
    assert [d for d, _ in blocks] == sorted((d for d, _ in blocks), key=[1, 2, 3].index)
    for dim in (1, 2, 3):
        joined = [t for d, ids in blocks if d == dim for t in ids]
        assert joined == [e.index for e in coll if e.dim == dim]
    assert len(blocks) == {1: 10, 40: 6, 60: 4}.get(entries, 3)


@pytest.mark.parametrize("entries", [40, model.STACK_ENTRIES])
def test_validation_hands_each_stack_and_its_covariance_on(monkeypatch, entries):
    # the profile reads these instead of stacking and forming (phi w)^T phi again
    monkeypatch.setattr(model, "STACK_ENTRIES", entries)
    law, coll = mixed_dim_instance(np.random.default_rng(3), dims=(1, 2, 3, 3, 2, 1, 1, 3, 2, 1))
    stacks = []
    tables = validate_collection(law, coll, stacks)
    assert [(d, ids) for d, ids, _, _ in stacks] == list(coll.stacks(law.support_size))
    for _, ids, phi, gram in stacks:
        for j, t in enumerate(ids):
            assert np.array_equal(phi[j], tables[t])
            np.testing.assert_allclose(gram[j], (tables[t] * law.weights[:, None]).T @ tables[t], rtol=1e-13, atol=1e-15)
    assert validate_collection(law, coll).keys() == tables.keys()


@pytest.mark.parametrize("first,second", [("degenerate", "non-finite"), ("non-finite", "degenerate")])
def test_validation_raises_for_the_first_offending_map(first, second):
    maps = {
        "degenerate": lambda x: 1e-9 * x[:, [1]],
        "non-finite": lambda x: np.where(x[:, [0]] > 1.5, np.inf, x[:, [0]]),
    }
    law = canonical_law()
    coll = FeatureCollection(
        [FeatureEntry("a", 1, maps[first]), FeatureEntry("b", 2, lambda x: x), FeatureEntry("c", 1, maps[second])]
    )
    with pytest.raises(DegenerateFeatureError) as got:
        validate_collection(law, coll)
    assert got.value.index == "a"
    assert ("lambda_min=" if first == "degenerate" else "non-finite feature values") in str(got.value)


def test_validation_cases_cover_accept_and_reject():
    pairs = {}
    for name, law, coll, _ in _validation_cases():
        try:
            validate_collection_loop(law, coll)
            pairs[name] = None
        except DuplicateClassError as exc:
            pairs[name] = exc.indices
    assert pairs == {
        "subsets-1": None,
        "subsets-2": None,
        "subsets-3": None,
        "swapped-coords": ("a", "c"),
        "two-groups": ("A", "D"),
        "rank-deficient": ("a", "b"),
        "rank-deficient-distinct": None,
        "coords-disagree-with-fn": ("a", "b"),
        "coords-and-matrix": None,
        "coords-and-matrix-duplicate": ("a", "m"),
    }


def test_gaussian_design_closed_forms():
    law = GaussianDesignLaw(cov=np.eye(3), w_true=np.array([1.0, -2.0, 0.0]), noise_std=0.5)
    coll = subset_collection(3, 2)
    best = coll.entry((0, 1))
    assert np.allclose(law.optimal_weights(best), [1.0, -2.0])
    assert law.approx_risk(best) == pytest.approx(0.5 * 0.25)
    worse = coll.entry((0, 2))
    # dropping coordinate 1 leaves its signal as residual variance
    assert law.approx_risk(worse) == pytest.approx(0.5 * (4.0 + 0.25))
    ds = sample_dataset(law, 200_000, (5, 0))
    emp = np.mean((ds.x @ np.array([1.0, -2.0, 0.0]) - ds.y) ** 2)
    assert emp == pytest.approx(0.25, rel=0.02)


@pytest.mark.parametrize(
    "cov, w_true, noise_std, match",
    [
        ([[1.0, 5.0], [0.0, 1.0]], [1.0, 0.0], 1.0, "symmetric"),  # sample read its lower triangle, risk all of it
        ([[1.0, 2.0], [2.0, 1.0]], [1.0, 0.0], 1.0, "positive definite"),  # was numpy's LinAlgError
        ([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0], 1.0, "positive definite"),
        (np.eye(2), [1.0, 0.0], math.nan, "finite"),  # sample dropped the noise, risk was NaN
        (np.eye(2), [1.0, 0.0], math.inf, "finite"),
        (np.eye(2), [1.0, 0.0], -1.0, "nonnegative"),
        (np.eye(2), [math.nan, 0.0], 1.0, "finite"),
        ([[1.0, math.nan], [math.nan, 1.0]], [1.0, 0.0], 1.0, "finite"),
    ],
    ids=["non-symmetric", "indefinite", "singular", "nan-noise", "inf-noise", "negative-noise", "nan-target", "nan-cov"],
)
def test_gaussian_design_rejects_inputs_its_factor_cannot_read(cov, w_true, noise_std, match):
    with pytest.raises(ValueError, match=match):
        GaussianDesignLaw(cov=cov, w_true=w_true, noise_std=noise_std)


@pytest.mark.parametrize("noise_std", [0.5, 0.0])
def test_gaussian_design_joint_factor_is_lower_triangular_and_factors_the_joint_covariance(noise_std):
    cov, w = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]]), np.array([1.0, -2.0, 0.0])
    law = GaussianDesignLaw(cov=cov, w_true=w, noise_std=noise_std)
    joint = np.block([[cov, (cov @ w)[:, None]], [cov @ w, w @ cov @ w + noise_std**2]])
    assert np.array_equal(law.joint, np.tril(law.joint))
    assert np.allclose(law.joint @ law.joint.T, joint, rtol=1e-14, atol=1e-14)


def test_gaussian_design_sample_dataset_is_pinned():
    # run_trials draws Grams, not rows: sample_dataset's rows of a Gaussian
    # design keep their bytes
    law = GaussianDesignLaw(cov=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]], w_true=[1.0, -2.0, 0.0], noise_std=0.5)
    ds = sample_dataset(law, 50, (7, 3))
    digest = hashlib.sha256(ds.x.tobytes() + ds.y.tobytes()).hexdigest()
    assert digest == "7ff3f23ac939e25f289c3e7f465a6c2d413eff20173e99647be484159a29a0b2"


def test_feature_entry_shape_check():
    entry = FeatureEntry("bad", 2, lambda x: x[:, [0]])
    with pytest.raises(ValueError, match="shape"):
        entry(np.zeros((3, 2)))


def test_collection_requires_unique_comparable_ids():
    with pytest.raises(ValueError):
        FeatureCollection(
            [FeatureEntry("a", 1, lambda x: x[:, [0]]), FeatureEntry("a", 1, lambda x: x[:, [0]])]
        )
