import numpy as np
import pytest

from unionerm.model import (
    DegenerateFeatureError,
    DiscreteLaw,
    FeatureCollection,
    FeatureEntry,
    GaussianDesignLaw,
    exact_expectation,
)
from unionerm.population import excess_risk, profile

from conftest import canonical_law, random_instance
from oracles import (
    atoms_of,
    enum_grad_cross,
    enum_optimal_weights,
    enum_risk,
    enum_sigma,
)


def _single(fn, dim=1, index="t"):
    return FeatureCollection([FeatureEntry(index, dim, fn)])


def test_covariance_constant_intercept():
    law = canonical_law()
    coll = _single(lambda x: np.ones((x.shape[0], 1)))
    assert profile(law, coll).sigma("t") == pytest.approx(np.array([[1.0]]))


def test_covariance_sign_coordinate_is_identity():
    law = DiscreteLaw(xs=np.array([[1.0], [-1.0]]), ys=np.zeros(2), weights=[0.5, 0.5])
    coll = _single(lambda x: x)
    assert profile(law, coll).sigma("t") == pytest.approx(np.array([[1.0]]))


def test_covariance_three_point_support():
    law = DiscreteLaw(xs=np.array([[0.0], [1.0], [2.0]]), ys=np.zeros(3), weights=np.full(3, 1 / 3))
    coll = _single(lambda x: x)
    sigma = profile(law, coll).sigma("t")
    assert sigma[0, 0] == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert sigma == pytest.approx(enum_sigma(atoms_of(law), lambda x: x), rel=1e-12)


def test_covariance_rejects_degenerate():
    law = canonical_law()
    coll = _single(lambda x: 1e-9 * x[:, [1]])
    with pytest.raises(DegenerateFeatureError):
        profile(law, coll)


def test_optimal_weights_realizable(realizable):
    law, coll, prof = realizable
    assert prof.w_star("full") == pytest.approx(np.array([2.0, -1.0]), abs=1e-12)
    assert prof.approx_risk("full") == pytest.approx(0.0, abs=1e-14)


def test_optimal_weights_noise_orthogonal(canonical):
    law, coll, prof = canonical
    # Y = x1 + eps with eps independent of the first coordinate
    assert prof.w_star("A") == pytest.approx(np.array([1.0]), abs=1e-12)


def test_optimal_weights_matches_enumeration(canonical):
    law, coll, prof = canonical
    atoms = atoms_of(law)
    for t, feat in (("A", lambda x: x[[0]]), ("B", lambda x: x[[1]])):
        ref = enum_optimal_weights(atoms, feat)
        assert prof.w_star(t) == pytest.approx(ref, rel=1e-12)
        # first-order optimality of the returned weights
        grad = exact_expectation(
            lambda x, y, tt=t: (coll.entry(tt)(x) @ prof.w_star(tt) - y)[:, None] * coll.entry(tt)(x),
            law,
        )
        assert np.linalg.norm(grad) <= 1e-10


def test_profile_singleton_gap_infinite(canonical):
    law, _, _ = canonical
    coll = FeatureCollection([FeatureEntry("A", 1, lambda x: x[:, [0]])])
    prof = profile(law, coll)
    assert prof.t_star == ("A",)
    assert prof.gamma == float("inf")


def test_profile_symmetric_tie(symmetric):
    _, _, prof = symmetric
    assert prof.t_star == ("A", "B")
    assert prof.gamma == float("inf")


def test_profile_canonical_values(canonical):
    law, coll, prof = canonical
    atoms = atoms_of(law)
    risk_a = enum_risk(atoms, lambda x: x[[0]], enum_optimal_weights(atoms, lambda x: x[[0]]))
    risk_b = enum_risk(atoms, lambda x: x[[1]], enum_optimal_weights(atoms, lambda x: x[[1]]))
    assert prof.approx_risk("A") == pytest.approx(risk_a, rel=1e-12)
    assert prof.approx_risk("B") == pytest.approx(risk_b, rel=1e-12)
    assert prof.r_star == pytest.approx(min(risk_a, risk_b), rel=1e-12)
    assert prof.t_star == ("A",)
    assert prof.gamma == pytest.approx(risk_b - risk_a, rel=1e-12)


def test_profile_rejects_generative():
    law = GaussianDesignLaw(cov=np.eye(2), w_true=np.array([1.0, 0.0]), noise_std=1.0)
    coll = _single(lambda x: x[:, [0]])
    with pytest.raises(ValueError):
        profile(law, coll)


def test_gradient_covariance_zero_in_noiseless_case(realizable):
    law, coll, prof = realizable
    g = prof.g_cross("full", "full")
    assert np.allclose(g, 0.0, atol=1e-14)


def test_gradient_covariance_whitened_noise_trace():
    # orthonormal design, well-specified noise: trace(Sigma^-1 G) = var * dim
    xs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    xx = np.repeat(xs, 2, axis=0)
    eps = np.tile([1.5, -1.5], 4)
    law = DiscreteLaw(xs=xx, ys=xx[:, 0] + xx[:, 1] + eps, weights=np.full(8, 1 / 8))
    coll = _single(lambda x: x, dim=2)
    prof = profile(law, coll)
    g = prof.g_cross("t", "t")
    sigma = prof.sigma("t")
    assert np.trace(np.linalg.solve(sigma, g)) == pytest.approx(1.5**2 * 2, rel=1e-12)
    assert prof.grad_second_moment("t") == pytest.approx(1.5**2 * 2, rel=1e-10)


def test_gradient_covariance_cross_term_matches_enumeration(canonical):
    law, coll, prof = canonical
    atoms = atoms_of(law)
    ref = enum_grad_cross(
        atoms,
        lambda x: x[[0]],
        prof.w_star("A"),
        lambda x: x[[1]],
        prof.w_star("B"),
    )
    assert prof.g_cross("A", "B") == pytest.approx(ref, rel=1e-12)


def test_excess_risk_minimizer_is_zero(canonical):
    _, _, prof = canonical
    assert excess_risk("A", prof.w_star("A"), prof) == pytest.approx(0.0, abs=1e-14)


def test_excess_risk_quadratic_identity_unit_sigma():
    law = DiscreteLaw(xs=np.array([[1.0], [-1.0]]), ys=np.array([1.0, -1.0]), weights=[0.5, 0.5])
    coll = _single(lambda x: x)
    prof = profile(law, coll)
    w = prof.w_star("t") + 1.0
    assert excess_risk("t", w, prof) == pytest.approx(0.5, rel=1e-12)


def test_excess_risk_suboptimal_at_its_minimizer_equals_gap(canonical):
    _, _, prof = canonical
    assert excess_risk("B", prof.w_star("B"), prof) == pytest.approx(prof.gamma, rel=1e-12)


def test_excess_risk_equals_risk_difference_randomly(canonical):
    law, coll, prof = canonical
    atoms = atoms_of(law)
    rng = np.random.default_rng(3)
    feats = {"A": lambda x: x[[0]], "B": lambda x: x[[1]]}
    for _ in range(100):
        t = "A" if rng.random() < 0.5 else "B"
        w = rng.normal(size=1) * 3.0
        direct = enum_risk(atoms, feats[t], w) - prof.r_star
        assert excess_risk(t, w, prof) == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_grad_second_moment_consistency(canonical):
    law, coll, prof = canonical
    for t in prof.indices():
        g = prof.g_cross(t, t)
        tr = float(np.trace(np.linalg.solve(prof.sigma(t), g)))
        assert prof.grad_second_moment(t) == pytest.approx(tr, rel=1e-10)


def test_gradient_mean_vanishes_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(5):
        law, coll, prof = random_instance(rng)
        for entry in coll:
            t = entry.index
            grad = exact_expectation(
                lambda x, y, e=entry, tt=t: (e(x) @ prof.w_star(tt) - y)[:, None] * e(x), law
            )
            assert np.linalg.norm(grad) <= 1e-10


def test_profile_flags_mixed_dimensions(canonical):
    law, coll, prof = canonical
    assert not prof.mixed_dims
    mixed = FeatureCollection(
        [
            FeatureEntry("A", 1, lambda x: x[:, [0]]),
            FeatureEntry("C", 2, lambda x: x),
        ]
    )
    assert profile(law, mixed).mixed_dims


def test_t_star_invariant_under_feature_rescaling():
    rng = np.random.default_rng(21)
    for _ in range(5):
        law, coll, prof = random_instance(rng)
        entries = []
        for entry in coll:
            a = rng.normal(size=(entry.dim, entry.dim))
            while abs(np.linalg.det(a)) < 0.1:
                a = rng.normal(size=(entry.dim, entry.dim))
            entries.append(
                FeatureEntry(entry.index, entry.dim, (lambda x, e=entry, m=a: e(x) @ m.T))
            )
        prof2 = profile(law, FeatureCollection(entries))
        assert prof2.t_star == prof.t_star
        assert prof2.r_star == pytest.approx(prof.r_star, rel=1e-9)
