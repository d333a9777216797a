"""Data model: joint laws, feature-map collections, and sampled datasets.

Two kinds of joint laws for (X, Y) are supported:

* ``DiscreteLaw`` — a finite-support distribution given by atoms.  Every
  expectation against it is an exact finite sum, which makes discrete laws
  the ground-truth substrate for all population quantities and tests.
* ``GaussianDesignLaw`` — a generative law with Gaussian inputs and a linear
  target plus independent noise.  It only exposes sampling; the population
  quantities of its coordinate-subset features are closed form, and
  :func:`unionerm.population.profile` forms them as it does a discrete law's.

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
    "stream",
]

# Eigenvalue floor below which a population covariance is considered singular.
SINGULAR_TOL = 1e-10

# Discrete-law weights must sum to one within this tolerance.
WEIGHT_TOL = 1e-12

# Atom-table entries (maps x atoms x dimension) a batched per-map pass stacks at once.
STACK_ENTRIES = 1 << 16


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


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

# Last seed words that give each kind of derived stream its own namespace:
# (seed, chunk, tag) for chunked draws, (seed, idx, GRID_TAG) for the seeds of
# a grid's rows, and (seed, tag) for the quartic's random starts and the
# limit law's draws.
COUNT_BATCH_TAG = 1  # processes.iter_count_batches
DESIGN_MC_TAG = 2  # bounds.covariance_deviation_lambda_max_mc
QUARTIC_TAG = 3  # the quartic ascent's random starts in bounds
GRID_TAG = 4  # experiments._grid_seed
TRIAL_TAG = 5  # the trial chunks of experiments.run_trials
LIMIT_TAG = 6  # experiments.GaussianLimit.sample

# Datasets per chunk of every count draw (trials and count samples alike):
# chunk c draws its datasets c CHUNK onwards from its own stream, so changing
# it moves every dataset outside the first chunk.  It also bounds a chunk's
# (B, rows) temporaries, whatever the number of datasets.
CHUNK = 256


def stream(*key: int) -> np.random.Generator:
    """numpy's stream of the key words, ``Generator(PCG64(SeedSequence(key)))``
    (``numpy.random`` loads on the first call, not at import)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(tuple(int(k) for k in key))))


def rng_from_seed(master_seed: int, trial: int = 0) -> np.random.Generator:
    """The stream of (master seed, trial index), the one :func:`sample_dataset` draws from."""
    return stream(master_seed, trial)


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureEntry:
    """One indexed feature map.

    ``fn`` is evaluated in batch: it receives an ``(n, p)`` input array and
    must return an ``(n, dim)`` array.  ``coords`` is set for maps that are
    plain coordinate selections of the input (used by coordinate-subset
    collections; a Gaussian design's profile takes these maps only).
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

    def stacks(self, m: int):
        """Yield (d, indices) for the maps of each dimension d, dimensions in
        order of first appearance and indices in collection order, in blocks
        of at most ``STACK_ENTRIES // (m d)`` maps (at least one): the stacks
        over which a per-map pass on m atoms is batched."""
        groups = {}
        for e in self.entries:
            groups.setdefault(e.dim, []).append(e.index)
        for d, ids in groups.items():
            step = max(1, STACK_ENTRIES // (m * d))
            for lo in range(0, len(ids), step):
                yield d, ids[lo:lo + step]


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
        if not np.all(ws > 0.0):  # NaN fails too
            raise ValueError("atom weights must be strictly positive")
        if abs(ws.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {ws.sum()!r}, expected 1 within {WEIGHT_TOL}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "weights", np.minimum(ws, 1.0))  # a weight > 1 (inside WEIGHT_TOL) fails multinomial

    @property
    def support_size(self) -> int:
        return self.xs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.xs.shape[1]

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """n draws as rows, in atom order: the atom counts of one
        ``rng.multinomial(n, weights)`` call, expanded."""
        idx = np.repeat(np.arange(self.support_size), rng.multinomial(n, self.weights))
        return self.xs[idx], self.ys[idx]


@dataclass(frozen=True)
class GaussianDesignLaw:
    """Gaussian design with a linear target and independent Gaussian noise.

    X ~ N(0, cov), Y = <w_true, X> + noise_std * N(0, 1).  Only sampling and
    the joint factor of z = (x, y) are exposed; the population quantities of
    coordinate-subset feature maps, closed-form functions of (cov, w_true,
    noise_std), are :func:`unionerm.population.profile`'s.
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
        if not (np.isfinite(cov).all() and np.isfinite(w).all() and 0 <= self.noise_std < math.inf):  # NaN fails too
            raise ValueError("cov and w_true must be finite, and noise_std finite and nonnegative")
        if not np.array_equal(cov, cov.T):  # sample reads its lower triangle, profile all of it
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "w_true", w)
        try:
            chol = np.linalg.cholesky(cov + 0.0)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        object.__setattr__(self, "_chol", chol)
        # z = (x, y) = L g for g ~ N(0, I): the joint factor of trials' Grams (lower triangular, also at sigma = 0)
        object.__setattr__(self, "joint", np.block([[chol, np.zeros((len(w), 1))], [w @ chol, self.noise_std]]))

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

    ``fn(xs, ys)`` returns one value per atom along its leading axis; the
    result is their weighted sum (scalar, vector or matrix).  Rejects
    generative laws: expectations against those must go through the Monte
    Carlo estimators in :mod:`unionerm.experiments`, which carry explicit
    error bars.
    """
    if getattr(law, "kind", None) != "discrete":
        raise ValueError("exact expectations are only defined for discrete laws")
    vals = np.asarray(fn(law.xs, law.ys), dtype=float)
    if vals.shape[:1] != (law.support_size,):
        raise ValueError("expectation integrand must return one value per atom")
    out = np.tensordot(law.weights, vals, axes=(0, 0))
    return float(out) if np.ndim(out) == 0 else out


def sample_dataset(law, n: int, seed: tuple[int, int]) -> Dataset:
    """Draw n i.i.d. samples from the stream ``rng_from_seed(*seed)``;
    identical (law, n, seed) is bit-identical.  This is not a trial of
    ``run_trials``, whose chunks of trials draw from chunk streams.

    On a discrete law the rows are the stream's one multinomial count draw
    expanded in atom order (the draw is exchangeable, so the order carries
    no information).
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    master, trial = seed
    rng = rng_from_seed(master, trial)
    x, y = law.sample(n, rng)
    return Dataset(x=x, y=y, seed=(int(master), int(trial)))


# ---------------------------------------------------------------------------
# Coordinate-subset collections
# ---------------------------------------------------------------------------

def subset_collection(d: int, s: int, *, cap: int = 10**6) -> FeatureCollection:
    """All size-s coordinate selections of the inputs of dimension d.

    Entry ``t`` has identifier equal to the coordinate tuple (ascending),
    evaluates to those input coordinates in increasing order, and the
    collection is ordered lexicographically on the tuples.
    """
    d = int(d)
    if s < 1 or s > d:
        raise ValueError(f"sparsity {s} must satisfy 1 <= s <= {d}")
    count = math.comb(d, s)
    if count > cap:
        warnings.warn(
            f"subset collection has {count} entries, exceeding the cap {cap}",
            RuntimeWarning,
            stacklevel=2,
        )
    return FeatureCollection(
        FeatureEntry(index=t, dim=s, fn=lambda x, cols=list(t): x[:, cols], coords=t)
        for t in itertools.combinations(range(d), s)
    )


# ---------------------------------------------------------------------------
# Collection validation
# ---------------------------------------------------------------------------

def _column_space_rank(mat: np.ndarray, tol_scale: float = 1e-10) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0:
        return 0
    return int(np.sum(sv > tol_scale * max(1.0, sv[0])))


def _coordinate_classes(law, tables: dict, collection: FeatureCollection):
    """Each entry's coordinate set, when every entry is a coordinate
    selection of full-rank inputs; else None.

    Then two entries span one class iff their sets are equal, under the same
    rank rule as the pairwise test: by interlacing, the nonzero singular
    values of two stacked selections are at least sigma_min(xs), and their
    largest is at most sqrt(2) sigma_max(xs), which the doubled tolerance
    covers.
    """
    p = law.xs.shape[1]
    for entry in collection:
        c = entry.coords
        if c is None or not all(0 <= j < p for j in c) or not np.array_equal(tables[entry.index], law.xs[:, c]):
            return None
    if _column_space_rank(law.xs, 2e-10) < p:
        return None
    return {entry.index: frozenset(entry.coords) for entry in collection}


def validate_collection(law, collection: FeatureCollection, stacks: list | None = None) -> dict | None:
    """Check a collection against either law; return its atom tables on a
    discrete law, None on a Gaussian design (it has no atoms).

    Rejects pairs of maps inducing the same linear class, naming the first
    index with a later duplicate: for coordinate selections, two with one
    coordinate set (on a Gaussian design every map must be one, and C is
    positive definite; on a discrete law the inputs must have full rank),
    and otherwise two atom-evaluated feature matrices of one column space.
    A discrete law also rejects degenerate maps (non-finite on the atoms,
    or of singular population covariance: one batched ``eigvalsh`` per stack
    of :meth:`FeatureCollection.stacks`; the first in collection order
    raises).  Its returned tables ``{index: phi (m, d_t)}`` are the only
    evaluation of each map that later layers read; if ``stacks`` is a list,
    each stack's ``(d, indices, phi (k, m, d), (phi w)^T phi (k, d, d))`` is
    appended to it, so that the profile does not form them again.
    """
    if law.kind != "discrete":
        for e in collection:
            c = e.coords
            if c is None or len(c) != e.dim or len(set(c)) != e.dim or not all(0 <= j < law.input_dim for j in c):
                raise ValueError(f"entry {e.index!r} is not a coordinate selection; exact "
                                 "moments for a Gaussian design are only available for those")
        tables, classes = None, {e.index: frozenset(e.coords) for e in collection}
    else:
        tables = {entry.index: entry(law.xs) for entry in collection}
        finite = {t: bool(np.all(np.isfinite(phi))) for t, phi in tables.items()}
        lam_min = {}
        for dim, ids in collection.stacks(law.support_size):
            if ids := [t for t in ids if finite[t]]:
                phi = np.stack([tables[t] for t in ids])
                gram = (phi * law.weights[:, None]).swapaxes(1, 2) @ phi
                lam_min.update(zip(ids, np.linalg.eigvalsh(gram)[:, 0]))
                if stacks is not None:
                    stacks.append((dim, ids, phi, gram))
        for t in tables:
            if not finite[t]:
                raise DegenerateFeatureError(t, "non-finite feature values")
            if lam_min[t] <= SINGULAR_TOL:
                raise DegenerateFeatureError(t, f"lambda_min={lam_min[t]:.3e}")
        classes = _coordinate_classes(law, tables, collection)
    ids = collection.indices()
    if classes is not None:
        groups = {}
        for t in ids:
            groups.setdefault(classes[t], []).append(t)
        for a in ids:  # the first index with a later duplicate heads its group
            if len(groups[classes[a]]) > 1:
                raise DuplicateClassError(a, groups[classes[a]][1])
        return tables
    ranks = {t: _column_space_rank(phi) for t, phi in tables.items()}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if ranks[a] == ranks[b] == _column_space_rank(np.hstack([tables[a], tables[b]])):
                raise DuplicateClassError(a, b)
    return tables
