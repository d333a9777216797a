import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from unionerm import erm
from unionerm.model import Dataset, FeatureCollection, FeatureEntry, sample_dataset
from unionerm.population import excess_risk

from conftest import random_instance
from oracles import loop_empirical_risk, lstsq_fit, oracle_solve


def _coll1(fn, index="t"):
    return FeatureCollection([FeatureEntry(index, 1, fn)])


def test_fit_linear_exact_interpolation():
    ds = Dataset(x=np.array([[1.0], [2.0]]), y=np.array([2.0, 4.0]))
    rec = erm.fit_linear(ds, "t", _coll1(lambda x: x))
    assert rec.weights == pytest.approx(np.array([2.0]), rel=1e-12)
    assert rec.risk == pytest.approx(0.0, abs=1e-14)
    assert not rec.singular


def test_fit_linear_rank_deficient_min_norm():
    ds = Dataset(x=np.array([[1.0, 2.0]]), y=np.array([5.0]))
    coll = FeatureCollection([FeatureEntry("t", 2, lambda x: x)])
    rec = erm.fit_linear(ds, "t", coll)
    assert rec.singular
    ref = lstsq_fit(ds.x, ds.y)  # numpy's svd minimum-norm route
    assert rec.weights == pytest.approx(ref, rel=1e-10)
    assert rec.risk == pytest.approx(0.0, abs=1e-12)


def test_fit_linear_matches_independent_solver(canonical):
    law, coll, prof = canonical
    ds = sample_dataset(law, 50, (100, 0))
    for t in ("A", "B"):
        rec = erm.fit_linear(ds, t, coll, prof)
        phi = coll.entry(t)(ds.x)
        ref = lstsq_fit(phi, ds.y)
        assert rec.weights == pytest.approx(ref, rel=1e-10)


def test_fit_linear_lam_min_variants(canonical):
    law, coll, prof = canonical
    ds = sample_dataset(law, 200, (101, 0))
    raw = erm.fit_linear(ds, "A", coll)
    whitened = erm.fit_linear(ds, "A", coll, prof)
    phi = coll.entry("A")(ds.x)
    sn = (phi.T @ phi / ds.n).item()
    assert raw.lam_min == pytest.approx(sn, rel=1e-12)
    assert whitened.lam_min == pytest.approx(sn / prof.sigma("A")[0, 0], rel=1e-12)


def test_solve_singleton(canonical):
    law, _, _ = canonical
    coll = _coll1(lambda x: x[:, [0]], "A")
    ds = sample_dataset(law, 20, (103, 0))
    sol = erm.solve(ds, coll)
    rec = erm.fit_linear(ds, "A", coll)
    assert sol.index == "A"
    assert sol.weights == pytest.approx(rec.weights)


def test_solve_tie_break_prefers_smaller_id():
    # identical columns: both classes fit identically, tie goes to "a"
    x = np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]])
    ds = Dataset(x=x, y=np.array([1.0, 2.0, -1.0]))
    coll = FeatureCollection(
        [
            FeatureEntry("b", 1, lambda x: x[:, [1]]),
            FeatureEntry("a", 1, lambda x: x[:, [0]]),
        ]
    )
    sol = erm.solve(ds, coll)
    assert sol.index == "a"


def test_solve_tie_survives_rescaling(symmetric):
    # a swap-symmetric dataset ties A and B exactly; rounding of the risks
    # grows with the scale, so an absolute tie tolerance would pick B at 1e6
    law, coll, _ = symmetric
    ds = sample_dataset(law, 7, (2, 0))
    x = np.vstack([ds.x, ds.x[:, ::-1]])
    y = np.concatenate([ds.y, ds.y])
    for scale in (1.0, 1e6):
        assert erm.solve(Dataset(x=scale * x, y=scale * y), coll).index == "A"


def test_solve_monotone_in_collection(canonical):
    law, coll, prof = canonical
    big = FeatureCollection(list(coll.entries) + [FeatureEntry("C", 2, lambda x: x)])
    for trial in range(20):
        ds = sample_dataset(law, 30, (104, trial))
        small_sol = erm.solve(ds, coll)
        big_sol = erm.solve(ds, big)
        assert big_sol.risk <= small_sol.risk + 1e-12


def test_solution_invariants(canonical):
    law, coll, prof = canonical
    for trial in range(20):
        ds = sample_dataset(law, 35, (111, trial))
        sol = erm.solve(ds, coll, prof)
        assert all(sol.risk <= r.risk + 1e-12 for r in sol.table)
        phi = coll.entry(sol.index)(ds.x)
        resid = phi.T @ (phi @ sol.weights - ds.y) / ds.n  # normal equations
        scale = max(1.0, float(np.linalg.norm(phi.T @ ds.y / ds.n)))
        assert np.linalg.norm(resid) / scale <= 1e-8


def test_solve_deterministic(canonical):
    law, coll, prof = canonical
    ds = sample_dataset(law, 64, (105, 0))
    a = erm.solve(ds, coll, prof)
    b = erm.solve(ds, coll, prof)
    assert a.index == b.index
    assert np.array_equal(a.weights, b.weights)
    assert a.risk == b.risk
    assert all(
        np.array_equal(ra.weights, rb.weights) and ra.risk == rb.risk
        for ra, rb in zip(a.table, b.table)
    )


def test_solve_picks_optimal_map_with_high_probability(canonical):
    law, coll, prof = canonical
    misses = sum(
        erm.solve(sample_dataset(law, 500, (106, t)), coll, prof).index != "A"
        for t in range(1000)
    )
    assert misses / 1000 <= 0.01


def test_oracle_solve_always_uses_optimal_index(canonical):
    law, coll, prof = canonical
    for t in range(5):
        ds = sample_dataset(law, 10, (107, t))
        sol = oracle_solve(ds, coll, prof)
        assert sol.index == "A"


def test_oracle_solve_zero_excess_in_realizable_case(realizable):
    law, coll, prof = realizable
    ds = sample_dataset(law, 40, (108, 0))
    sol = oracle_solve(ds, coll, prof)
    assert not any(r.singular for r in sol.table)
    assert excess_risk(sol.index, sol.weights, prof) == pytest.approx(0.0, abs=1e-12)


def test_fitted_weights_closed_form_identity():
    # w_hat = w_* - Sigma_n^{-1} grad_n(w_*) whenever Sigma_n is nonsingular
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 100:
        law, coll, prof = random_instance(rng)
        ds = sample_dataset(law, 25 + int(rng.integers(0, 25)), (109, checked))
        for entry in coll:
            t = entry.index
            rec = erm.fit_linear(ds, t, coll, prof)
            if rec.singular:
                continue
            phi = entry(ds.x)
            sigma_n = phi.T @ phi / ds.n
            grad_n = phi.T @ (phi @ prof.w_star(t) - ds.y) / ds.n
            ref = prof.w_star(t) - np.linalg.solve(sigma_n, grad_n)
            err = np.linalg.norm(rec.weights - ref) / max(1.0, np.linalg.norm(ref))
            assert err <= 1e-8
            checked += 1


def test_empirical_excess_identity():
    # R_n(t, w_hat) - R_n(t, w_*) = -0.5 ||grad_n(w_*)||^2 in the Sigma_n^{-1} norm
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 50:
        law, coll, prof = random_instance(rng)
        ds = sample_dataset(law, 30, (110, checked))
        for entry in coll:
            t = entry.index
            rec = erm.fit_linear(ds, t, coll, prof)
            if rec.singular:
                continue
            phi = entry(ds.x)
            sigma_n = phi.T @ phi / ds.n
            grad_n = phi.T @ (phi @ prof.w_star(t) - ds.y) / ds.n
            lhs = rec.risk - loop_empirical_risk(phi, ds.y, prof.w_star(t))
            rhs = -0.5 * float(grad_n @ np.linalg.solve(sigma_n, grad_n))
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)
            checked += 1


def test_readme_quick_start_runs_as_written():
    # the README's library example, exactly as printed there: it exercises the
    # public surface of profile, erm.solve and ErmSolution
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start")[1].split("```python\n")[1].split("```")[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md", "exec"), {})
    first, second = printed.getvalue().splitlines()
    assert first == "('A',) 0.25"
    index, excess = second.split()
    assert index == "A"
    assert float(excess) == pytest.approx(0.002722817341031661, rel=1e-9)
