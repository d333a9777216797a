import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from unionerm.model import DiscreteLaw, FeatureCollection, FeatureEntry
from unionerm.population import profile as build_profile

# one line per acceptance criterion, echoed in the terminal summary so the
# PASS/FAIL report is visible without -s
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _coord(j):
    return lambda x, jj=j: x[:, [jj]]


def canonical_atoms():
    """Four-point input support with a +-1 noise coin folded into the atoms.

    X uniform on {(1,0), (-1,0), (2,1), (-2,-1)}, Y = x1 + eps with eps
    uniform on {-1, +1} independent of X.
    """
    xs = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 1.0], [-2.0, -1.0]])
    xx = np.repeat(xs, 2, axis=0)
    eps = np.tile([1.0, -1.0], 4)
    return xx, xx[:, 0] + eps, np.full(8, 1.0 / 8.0)


def canonical_law():
    xs, ys, ws = canonical_atoms()
    return DiscreteLaw(xs=xs, ys=ys, weights=ws)


def canonical_collection():
    return FeatureCollection(
        [
            FeatureEntry("A", 1, _coord(0), coords=(0,)),
            FeatureEntry("B", 1, _coord(1), coords=(1,)),
        ]
    )


def canonical_three_map_collection():
    """Canonical pair plus a constant map whose gap exceeds both."""
    return FeatureCollection(
        [
            FeatureEntry("A", 1, _coord(0), coords=(0,)),
            FeatureEntry("B", 1, _coord(1), coords=(1,)),
            FeatureEntry("C", 1, lambda x: np.ones((x.shape[0], 1))),
        ]
    )


def symmetric_law_and_collection():
    """Two coordinate maps with exactly equal performance by symmetry."""
    xs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    xx = np.repeat(xs, 2, axis=0)
    eps = np.tile([1.0, -1.0], 4)
    ys = xx[:, 0] + xx[:, 1] + eps
    law = DiscreteLaw(xs=xx, ys=ys, weights=np.full(8, 1.0 / 8.0))
    coll = FeatureCollection(
        [
            FeatureEntry("A", 1, _coord(0), coords=(0,)),
            FeatureEntry("B", 1, _coord(1), coords=(1,)),
        ]
    )
    return law, coll


def realizable_law_and_collection():
    """Noiseless target inside the first class; second class is a strict sub-map."""
    xs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
    ys = 2.0 * xs[:, 0] - xs[:, 1]
    law = DiscreteLaw(xs=xs, ys=ys, weights=np.full(4, 0.25))
    coll = FeatureCollection(
        [
            FeatureEntry("full", 2, lambda x: x, coords=(0, 1)),
            FeatureEntry("x1", 1, _coord(0), coords=(0,)),
        ]
    )
    return law, coll


def two_atom_law():
    """Symmetric scalar law: x = +-1, y = 2x, equal weights."""
    return DiscreteLaw(
        xs=np.array([[1.0], [-1.0]]), ys=np.array([2.0, -2.0]), weights=np.array([0.5, 0.5])
    )


def random_instance(rng, n_maps=None, degenerate_ok=False):
    """A random small discrete instance with a valid profile."""
    for _ in range(50):
        m = int(rng.integers(3, 7))
        p = int(rng.integers(2, 4))
        xs = rng.normal(size=(m, p)) * rng.uniform(0.5, 2.0)
        ys = rng.normal(size=m) * 2.0
        w = rng.uniform(0.2, 1.0, size=m)
        w /= w.sum()
        law = DiscreteLaw(xs=xs, ys=ys, weights=w)
        k = int(rng.integers(2, 5)) if n_maps is None else n_maps
        entries = []
        for j in range(k):
            d = int(rng.integers(1, 3))
            mat = rng.normal(size=(d, p))
            entries.append(FeatureEntry(f"m{j}", d, (lambda x, a=mat: x @ a.T)))
        coll = FeatureCollection(entries)
        try:
            prof = build_profile(law, coll)
        except ValueError:
            continue
        return law, coll, prof
    raise RuntimeError("could not build a valid random instance")


def bench_law_cases():
    """The benchmark's laws with their collections, as builders: the canonical
    law and the sign hypercubes of bounds_localize (d = 8, s = 2) and bss_wide
    (d = 10, s = 3)."""
    from unionerm.experiments import bss_instance
    from unionerm.model import subset_collection

    yield pytest.param(lambda: (canonical_law(), canonical_collection()), id="canonical")
    for d, s in ((8, 2), (10, 3)):
        def build(d=d, s=s):
            return bss_instance("discrete", d, [1.0] * s + [0.0] * (d - s), 1.0), subset_collection(d, s)
        yield pytest.param(build, id=f"hypercube-{d}-{s}")


def mixed_dim_instance(rng, dims=(1, 2, 3, 3, 2, 1)):
    """A random discrete law on 10 atoms in R^4 with one random linear map
    per entry of ``dims``: general whiteners, every dimension stack mixed."""
    xs = rng.normal(size=(10, 4))
    w = rng.uniform(0.2, 1.0, size=10)
    law = DiscreteLaw(xs=xs, ys=rng.normal(size=10), weights=w / w.sum())
    mats = [rng.normal(size=(d, 4)) for d in dims]
    coll = FeatureCollection([FeatureEntry(f"m{j}", a.shape[0], (lambda x, a=a: x @ a.T)) for j, a in enumerate(mats)])
    return law, coll


def correlated_design():
    """A Gaussian design on 5 correlated inputs, misspecified for 2-subsets."""
    from unionerm.model import GaussianDesignLaw

    a = np.random.default_rng(42).normal(size=(5, 5))
    return GaussianDesignLaw(cov=a @ a.T / 5 + 0.2 * np.eye(5), w_true=[1.0, -0.5, 0.0, 0.3, 0.0], noise_std=0.8)


def coordinate_maps(*coords):
    """One coordinate map per tuple of input coordinates, indexed by it."""
    return FeatureCollection(
        [FeatureEntry(c, len(c), lambda x, cols=list(c): x[:, cols], coords=c) for c in coords]
    )


# coordinate maps of dimensions 1, 2 and 3 on 5 inputs
MIXED_COORDS = ((0,), (1, 3), (0, 2, 4), (2, 3, 4), (4,), (1, 2))


@pytest.fixture(scope="session")
def canonical():
    law = canonical_law()
    coll = canonical_collection()
    return law, coll, build_profile(law, coll)


@pytest.fixture(scope="session")
def canonical_three():
    law = canonical_law()
    coll = canonical_three_map_collection()
    return law, coll, build_profile(law, coll)


@pytest.fixture(scope="session")
def symmetric():
    law, coll = symmetric_law_and_collection()
    return law, coll, build_profile(law, coll)


@pytest.fixture(scope="session")
def realizable():
    law, coll = realizable_law_and_collection()
    return law, coll, build_profile(law, coll)
