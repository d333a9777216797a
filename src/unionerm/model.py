"""Data model: joint laws, feature-map collections, and sampled datasets.

Two kinds of joint laws for (X, Y) are supported:

* ``DiscreteLaw`` — a finite-support distribution given by atoms.  Every
  expectation against it is an exact finite sum, which makes discrete laws
  the ground-truth substrate for all population quantities and tests.
* ``GaussianDesignLaw`` — a generative law with Gaussian inputs and a linear
  target plus independent noise.  It only exposes sampling (plus closed-form
  second-moment identities for coordinate-subset features, which follow
  directly from the law's parameters).

A feature collection is an ordered, finite family of maps from inputs to
real vectors.  Entry identifiers carry a total order that is used everywhere
a deterministic tie-break is needed.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DegenerateFeatureError",
    "DuplicateClassError",
    "FeatureEntry",
    "FeatureCollection",
    "DiscreteLaw",
    "GaussianDesignLaw",
    "Dataset",
    "exact_expectation",
    "sample_dataset",
    "subset_collection",
    "validate_collection",
    "rng_from_seed",
]

# Eigenvalue floor below which a population covariance is considered singular.
SINGULAR_TOL = 1e-10

# Discrete-law weights must sum to one within this tolerance.
WEIGHT_TOL = 1e-12


class DegenerateFeatureError(ValueError):
    """A feature map whose population covariance is singular on the support."""

    def __init__(self, index, detail: str = ""):
        self.index = index
        msg = f"feature map {index!r} is degenerate on the support of the law"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DuplicateClassError(ValueError):
    """Two feature maps induce the same linear class on the support."""

    def __init__(self, index_a, index_b):
        self.indices = (index_a, index_b)
        super().__init__(
            f"feature maps {index_a!r} and {index_b!r} induce identical "
            "linear classes on the support"
        )


def rng_from_seed(master_seed: int, trial: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for (master seed, trial index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(master_seed), int(trial)))))


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureEntry:
    """One indexed feature map.

    ``fn`` is evaluated in batch: it receives an ``(n, p)`` input array and
    must return an ``(n, dim)`` array.  ``coords`` is set for maps that are
    plain coordinate selections of the input (used by coordinate-subset
    collections, where exact second moments of Gaussian designs are

    available in closed form).
    """

    index: object
    dim: int
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    coords: tuple[int, ...] | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.asarray(self.fn(x), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (x.shape[0], self.dim):
            raise ValueError(
                f"feature map {self.index!r} returned shape {out.shape}, "
                f"expected {(x.shape[0], self.dim)}"
            )
        return out


class FeatureCollection:
    """Finite ordered family of feature maps.

    Entries are kept sorted by identifier; identifiers must be unique and
    mutually comparable (the sort order is the tie-break order used by the
    solver and by every argmin in the library).
    """

    def __init__(self, entries: Sequence[FeatureEntry]):
        entries = list(entries)
        if not entries:
            raise ValueError("a feature collection needs at least one entry")
        ids = [e.index for e in entries]
        if len(set(ids)) != len(ids):
            raise ValueError("feature indices must be unique")
        self.entries: tuple[FeatureEntry, ...] = tuple(sorted(entries, key=lambda e: e.index))
        self._by_index = {e.index: e for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def indices(self) -> tuple:
        return tuple(e.index for e in self.entries)

    def entry(self, index) -> FeatureEntry:
        try:
            return self._by_index[index]
        except KeyError:
            raise KeyError(f"no feature map with index {index!r}") from None

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(e.dim for e in self.entries)

    @property
    def max_dim(self) -> int:
        return max(self.dims)

    @property
    def mixed_dims(self) -> bool:
        return len(set(self.dims)) > 1


# ---------------------------------------------------------------------------
# Laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteLaw:
    """Finite-support joint law of (X, Y).

    ``xs`` has shape ``(m, p)``, ``ys`` shape ``(m,)``, ``weights`` shape
    ``(m,)`` with strictly positive entries summing to one.
    """

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray

    kind = "discrete"

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ys = np.asarray(self.ys, dtype=float).ravel()
        ws = np.asarray(self.weights, dtype=float).ravel()
        if xs.shape[0] != ys.shape[0] or xs.shape[0] != ws.shape[0]:
            raise ValueError("atoms, outputs and weights must have equal length")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("atoms must have finite coordinates and outputs")
        if np.any(ws <= 0.0):
            raise ValueError("atom weights must be strictly positive")
        if abs(ws.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {ws.sum()!r}, expected 1 within {WEIGHT_TOL}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "weights", ws)

    @property
    def support_size(self) -> int:
        return self.xs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.xs.shape[1]

    def expectation(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        """Exact expectation of a per-sample function.

        ``fn`` is evaluated in batch on the atoms: it receives ``(xs, ys)``
        and must return an array whose leading axis runs over atoms.  The
        result is the weight-contracted value (scalar, vector or matrix).
        """
        vals = np.asarray(fn(self.xs, self.ys), dtype=float)
        if vals.shape[0] != self.support_size:
            raise ValueError("expectation integrand must return one value per atom")
        out = np.tensordot(self.weights, vals, axes=(0, 0))
        return float(out) if np.ndim(out) == 0 else out

    def sample_indices(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.support_size, size=n, p=self.weights)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        idx = self.sample_indices(n, rng)
        return self.xs[idx], self.ys[idx]


@dataclass(frozen=True)
class GaussianDesignLaw:
    """Gaussian design with a linear target and independent Gaussian noise.

    X ~ N(0, cov), Y = <w_true, X> + noise_std * N(0, 1).  Only sampling is
    exposed for general use; second-moment identities are available for
    coordinate-subset feature maps because they are closed-form functions of
    (cov, w_true, noise_std).
    """

    cov: np.ndarray
    w_true: np.ndarray
    noise_std: float

    kind = "generative"

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        w = np.asarray(self.w_true, dtype=float).ravel()
        if cov.shape[0] != cov.shape[1] or cov.shape[0] != w.shape[0]:
            raise ValueError("covariance must be square and match the target dimension")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "w_true", w)
        chol = np.linalg.cholesky(cov + 0.0)
        object.__setattr__(self, "_chol", chol)

    @property
    def input_dim(self) -> int:
        return self.cov.shape[0]

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        z = rng.standard_normal((n, self.input_dim))
        x = z @ self._chol.T
        y = x @ self.w_true
        if self.noise_std > 0:
            y = y + self.noise_std * rng.standard_normal(n)
        return x, y

    # -- closed-form second moments for coordinate-subset features ---------

    def _require_coords(self, entry: FeatureEntry) -> tuple[int, ...]:
        if entry.coords is None:
            raise ValueError(
                f"entry {entry.index!r} is not a coordinate selection; exact "
                "moments for a Gaussian design are only available for those"
            )
        return entry.coords

    def feature_covariance(self, entry: FeatureEntry) -> np.ndarray:
        c = self._require_coords(entry)
        return self.cov[np.ix_(c, c)]

    def optimal_weights(self, entry: FeatureEntry) -> np.ndarray:
        c = self._require_coords(entry)
        rhs = (self.cov @ self.w_true)[list(c)]
        return np.linalg.solve(self.feature_covariance(entry), rhs)

    def risk(self, entry: FeatureEntry, w: np.ndarray) -> float:
        c = self._require_coords(entry)
        diff = -self.w_true.copy()
        diff[list(c)] += np.asarray(w, dtype=float)
        return 0.5 * float(diff @ self.cov @ diff + self.noise_std**2)

    def approx_risk(self, entry: FeatureEntry) -> float:
        return self.risk(entry, self.optimal_weights(entry))


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """An i.i.d. sample of size n with its seed provenance."""

    x: np.ndarray
    y: np.ndarray
    seed: tuple[int, int] | None = None

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("inputs and outputs must have equal length")
        if x.shape[0] < 1:
            raise ValueError("a dataset needs at least one sample")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def exact_expectation(fn, law) -> float | np.ndarray:
    """Exact expectation of ``fn`` against a discrete law.

    Rejects generative laws: expectations against those must go through the
    Monte Carlo estimators in :mod:`unionerm.experiments`, which carry
    explicit error bars.
    """
    if getattr(law, "kind", None) != "discrete":
        raise ValueError("exact expectations are only defined for discrete laws")
    return law.expectation(fn)


def sample_dataset(law, n: int, seed: tuple[int, int]) -> Dataset:
    """Draw n i.i.d. samples; identical (law, n, seed) is bit-identical."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    master, trial = seed
    rng = rng_from_seed(master, trial)
    x, y = law.sample(n, rng)
    return Dataset(x=x, y=y, seed=(int(master), int(trial)))


# ---------------------------------------------------------------------------
# Coordinate-subset collections
# ---------------------------------------------------------------------------

def _selector(coords: tuple[int, ...], base_fn=None):
    cols = list(coords)
    if base_fn is None:
        return lambda x: x[:, cols]
    return lambda x: np.asarray(base_fn(x))[:, cols]


def subset_collection(
    base: int | FeatureEntry,
    s: int,
    *,
    cap: int = 10**6,
) -> FeatureCollection:
    """All size-s coordinate selections of a base feature map.

    ``base`` is either the dimension d of an identity map on the input, or a
    ``FeatureEntry`` whose output coordinates are selected.  Entry ``t`` has
    identifier equal to the coordinate tuple (ascending), evaluates to those
    coordinates of the base map in increasing order, and the collection is
    ordered lexicographically on the tuples.
    """
    if isinstance(base, FeatureEntry):
        d = base.dim
        base_fn = base.fn
        base_coords = base.coords
    else:
        d = int(base)
        base_fn = None
        base_coords = tuple(range(d))
    if s < 1 or s > d:
        raise ValueError(f"sparsity {s} must satisfy 1 <= s <= {d}")
    count = math.comb(d, s)
    if count > cap:
        warnings.warn(
            f"subset collection has {count} entries, exceeding the cap {cap}",
            RuntimeWarning,
            stacklevel=2,
        )
    entries = []
    for t in itertools.combinations(range(d), s):
        coords = tuple(base_coords[j] for j in t) if base_coords is not None else None
        entries.append(
            FeatureEntry(index=t, dim=s, fn=_selector(t, base_fn), coords=coords)
        )
    return FeatureCollection(entries)


# ---------------------------------------------------------------------------
# Collection validation on discrete laws
# ---------------------------------------------------------------------------

def _column_space_rank(mat: np.ndarray, tol_scale: float = 1e-10) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0:
        return 0
    return int(np.sum(sv > tol_scale * max(1.0, sv[0])))


def validate_collection(law, collection: FeatureCollection) -> None:
    """Check a collection against a discrete law.

    Rejects degenerate maps (singular population covariance on the support)
    and pairs of maps inducing the same linear class, detected by comparing
    column spaces of the atom-evaluated feature matrices.
    """
    if getattr(law, "kind", None) != "discrete":
        raise ValueError("collection validation requires a discrete law")
    tables = {}
    ranks = {}
    for entry in collection:
        phi = entry(law.xs)
        if not np.all(np.isfinite(phi)):
            raise DegenerateFeatureError(entry.index, "non-finite feature values")
        sigma = (phi * law.weights[:, None]).T @ phi
        lam_min = float(np.linalg.eigvalsh(sigma)[0])
        if lam_min <= SINGULAR_TOL:
            raise DegenerateFeatureError(entry.index, f"lambda_min={lam_min:.3e}")
        tables[entry.index] = phi
        ranks[entry.index] = _column_space_rank(phi)
    ids = collection.indices()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if ranks[a] == ranks[b] == _column_space_rank(np.hstack([tables[a], tables[b]])):
                raise DuplicateClassError(a, b)
