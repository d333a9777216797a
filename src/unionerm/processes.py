"""The three empirical processes driving the analysis, and their suprema.

For a dataset of size n, a feature map t with covariance Sigma(t), whitener
W(t) = Sigma(t)^{-1/2}, minimizer w_*(t), and suboptimality gap(t):

* covariance-deviation process
    lambda_n(t) = sqrt(n) * lambda_max(I - W Sigma_n(t) W)
* gradient-norm process
    g_n(t) = sqrt(n) * || grad_w R_n(t, w_*(t)) || in the Sigma(t)^{-1} norm
* risk-gap process, for suboptimal t relative to an optimal t_*,
    delta_n(t, t_*) = sqrt(n) * (1 - [R_n(t,w_*(t)) - R_n(t_*,w_*(t_*))] / gap(t))

Each summand of the variational form of lambda_n is at most one, so
lambda_n(t) <= sqrt(n) pathwise.  The supremum over an empty index subset is
0 by convention (the risk-gap term vanishes when every map is optimal).

On a discrete law a dataset is its atom counts, and every quantity read
from it is a contraction of (counts / n) with the per-atom moment table of
``prof.tables`` (:class:`AtomTables`): the pair products of the dictionary
z = [distinct atom columns of every map, y] that some map's Sigma_n or
Phi^T y reads, then each index's pointwise loss at w_*.  One product per
dataset gives every index's Sigma_n, Phi^T y / n and R_n(w_*), which the
trial fits (:class:`unionerm.erm.MomentFit`) and :func:`snapshot`, the
per-index value table of all three processes, both read.  Every expectation
over datasets (expected suprema here; class moments and A(S) in
:mod:`unionerm.bounds`) is one reduction, :meth:`CountSample.mean`, over one
:func:`count_sample`: Monte Carlo chunks with per-chunk seed streams, or for
tiny instances the exact enumeration of every dataset with its probability.
``prof.tables`` keeps the last sample drawn, keyed by (n, trials, seed,
mode), and its value table, built on first use, of which every expected
supremum is a column max.  So one command draws each stream and evaluates
each dataset once.  The tables hold no per-atom population arrays; those
are the profile's records.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .erm import MomentFit
from .model import DiscreteLaw
from .population import PopulationProfile

__all__ = [
    "Snapshot",
    "snapshot",
    "expected_sup",
    "AtomTables",
    "CountSample",
    "count_sample",
    "iter_count_batches",
    "enumerate_product_counts",
]

CHUNK = 16384
TABLE_BLOCK = 256  # rows per block of AtomTables.snapshot
MAX_EXACT_DATASETS = 250_000


class DeltaUndefinedError(ValueError):
    """The risk-gap process is undefined for optimal indices."""


def _batch_rng(seed: int, chunk: int) -> np.random.Generator:
    # distinct namespace from per-trial dataset streams
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(chunk), 1))))


# ---------------------------------------------------------------------------
# Atom tables: batched evaluation over many datasets of a discrete law
# ---------------------------------------------------------------------------

class AtomTables:
    """The moment table of a discrete law (see the module docstring): a
    dataset's :meth:`moments` are all that ``fits`` (about w_*, with R_n(w_*)
    in the columns ``loss``) and :meth:`evaluate` read.  Also the last count
    sample drawn and its value table."""

    def __init__(self, prof: PopulationProfile):
        law = prof.law
        if law.kind != "discrete":
            raise ValueError("atom tables require a discrete law")
        # no reference back to prof, which holds these tables: a cycle would
        # keep every profile and its count sample alive until the cyclic GC
        self.law, recs = law, prof.records
        self.indices = prof.indices()        # column order of a Snapshot
        self.suboptimal = prof.suboptimal()  # column order of Snapshot.delta
        self._sub = [self.indices.index(t) for t in self.suboptimal]
        self._s0 = self.indices.index(prof.least_optimal_index)
        self._gaps = np.array([prof.gap(t) for t in self.suboptimal])
        self._last = None   # (key, CountSample) of the last sample drawn
        self._table = None  # its value table, built on first use
        slots, pairs = {}, {}  # atom column -> (slot, column); slot pair -> table column

        def slot(col):
            return slots.setdefault(col.tobytes(), (len(slots), col))[0]

        def pair(a, b):
            return pairs.setdefault((min(a, b), max(a, b)), len(pairs))

        maps = [[slot(c) for c in recs[t].phi.T] for t in self.indices]
        self.fits = MomentFit(maps, slot(law.ys), pair, [recs[t].w_star for t in self.indices])
        whiteners = [recs[t].whitener for t in self.indices]
        self._whiteners = [np.stack([whiteners[j] for j in js]) for js, _, _ in self.fits.groups]
        columns = [col for _, col in slots.values()]
        self.loss = slice(len(pairs), None)  # R_n(w_*) of every index
        # filled in place, column by column: the build holds nothing but the table
        self._moment_columns = np.empty((law.support_size, len(pairs) + len(self.indices)))
        for k, (a, b) in enumerate(pairs):
            np.multiply(columns[a], columns[b], out=self._moment_columns[:, k])
        for k, t in enumerate(self.indices, len(pairs)):
            np.multiply(0.5, recs[t].resid ** 2, out=self._moment_columns[:, k])

    def sample(self, n: int, trials: int, seed: int, mode: str) -> CountSample:
        """The count sample of this law for (n, trials, seed, mode).

        The last sample drawn is kept, so consecutive requests for one key
        share a single draw.
        """
        key = (n, trials, seed, mode)
        if self._last is None or self._last[0] != key:
            self._last = (key, count_sample(self.law, n, trials, seed, mode))
            self._table = None
        return self._last[1]

    def table(self, n: int, trials: int, seed: int, mode: str) -> CountSample:
        """:meth:`sample` with each chunk replaced by its :class:`Snapshot`, built on first use."""
        sample = self.sample(n, trials, seed, mode)
        if self._table is None:
            self._table = CountSample(tuple(self.snapshot(c, n) for c in sample.chunks), sample.probs)
        return self._table

    def moments(self, counts: np.ndarray, n: int) -> np.ndarray:
        """The moments (B, K) of the datasets with atom counts ``counts`` (B, m),
        one product per dataset (``(b, 1, m) @ table``), so a row's moments
        do not depend on the other rows."""
        return ((counts[:, None, :] / n) @ self._moment_columns)[:, 0, :]

    def evaluate(self, moments: np.ndarray, n: int) -> Snapshot:
        """Every process on the datasets of ``moments`` (B, K) at sample size n:
        lambda_n from W Sigma_n W (one ``eigvalsh`` per feature dimension),
        g_n from W (Sigma_n w_* - Phi^T y / n), delta_n from the loss columns."""
        b = moments.shape[0]
        lam_min, g_sq = np.empty((b, len(self.indices))), np.empty((b, len(self.indices)))
        lam_minus = np.full(b, -np.inf)
        for (js, _, sigma_n, _, grad), whitener in zip(self.fits.grams(moments), self._whiteners):
            ends = np.linalg.eigvalsh(whitener @ sigma_n @ whitener)
            lam_min[:, js] = ends[:, :, 0]
            np.maximum(lam_minus, ends[:, :, -1].max(axis=1) - 1.0, out=lam_minus)
            g_sq[:, js] = n * np.sum((whitener @ grad[..., None])[..., 0] ** 2, axis=2)
        loss = moments[:, self.loss]
        delta = np.sqrt(n) * (1.0 - (loss[:, self._sub] - loss[:, [self._s0]]) / self._gaps)
        return Snapshot(n=n, lam_min=lam_min, lam_minus_scaled=lam_minus, g_sq=g_sq, delta=delta)

    def snapshot(self, counts: np.ndarray, n: int) -> Snapshot:
        """Evaluate every process on the datasets with atom counts ``counts`` (B, m),
        in blocks of ``TABLE_BLOCK`` rows, which bounds the (b, 1, m)
        frequency temporary: one :meth:`moments` and :meth:`evaluate` each."""
        blocks = [
            self.evaluate(self.moments(counts[lo:lo + TABLE_BLOCK], n), n)
            for lo in range(0, counts.shape[0], TABLE_BLOCK)
        ]
        fields = ("lam_min", "lam_minus_scaled", "g_sq", "delta")
        return Snapshot(n=n, **{f: np.concatenate([getattr(s, f) for s in blocks]) for f in fields})


class Snapshot(NamedTuple):
    """All three processes on B datasets of a discrete law.

    ``lam_min`` (B, |T|) is the smallest eigenvalue of each map's whitened
    sample covariance and ``g_sq`` (B, |T|) the squared gradient-norm
    process, in ``prof.indices()`` order; ``delta`` (B, |T_sub|) is the
    risk-gap process, in ``prof.suboptimal()`` order.
    ``lam_minus_scaled`` (B,) is sup_t (lambda_max - 1), the other one-sided
    supremum, which no index subset asks for.
    """

    n: int
    lam_min: np.ndarray
    lam_minus_scaled: np.ndarray
    g_sq: np.ndarray
    delta: np.ndarray

    def values(self, process: str) -> np.ndarray:
        """Per-index values of one process; lambda_n is sqrt(n) (1 - lam_min)."""
        return np.sqrt(self.n) * (1.0 - self.lam_min) if process == "lambda" else getattr(self, process)

    @property
    def lam_plus_scaled(self) -> np.ndarray:
        """sup_t (1 - lambda_min): the n^{-1/2}-rescaled sup of lambda_n."""
        return np.max(1.0 - self.lam_min, axis=1)

    @property
    def delta_plus_scaled(self) -> np.ndarray:
        """sup of delta_n over the suboptimal maps over sqrt(n); 0 if none."""
        if self.delta.shape[1] == 0:
            return np.zeros(self.delta.shape[0])
        return np.max(self.delta, axis=1) / np.sqrt(self.n)


def snapshot(counts: np.ndarray, n: int, prof: PopulationProfile) -> Snapshot:
    """Every process on the datasets with atom counts ``counts`` (B, m):
    :meth:`AtomTables.snapshot` of ``prof.tables``."""
    return prof.tables.snapshot(counts, n)


def iter_count_batches(law: DiscreteLaw, n: int, trials: int, seed: int):
    """Yield multinomial atom-count batches, chunked with per-chunk streams.

    Chunking is fixed-size so that the sequence of batches (and therefore
    any order-independent aggregate) is identical no matter how the chunks
    are scheduled.
    """
    done = 0
    chunk_idx = 0
    while done < trials:
        b = min(CHUNK, trials - done)
        rng = _batch_rng(seed, chunk_idx)
        yield rng.multinomial(n, law.weights, size=b)
        done += b
        chunk_idx += 1


def enumerate_product_counts(law: DiscreteLaw, n: int):
    """All datasets of size n from a discrete law, as (counts, probability).

    Enumerates the m^n ordered samples via their atom-count multiset with
    multinomial weights; exact product-measure expectations contract against
    the returned probabilities.
    """
    m = law.support_size
    if m**n > MAX_EXACT_DATASETS:
        raise ValueError(f"exact enumeration needs {m**n} datasets, above the cap {MAX_EXACT_DATASETS}")
    grids = np.indices((m,) * n).reshape(n, -1).T  # (m^n, n) ordered samples
    counts = np.zeros((grids.shape[0], m), dtype=np.int64)
    for i in range(n):
        np.add.at(counts, (np.arange(grids.shape[0]), grids[:, i]), 1)
    probs = np.prod(law.weights[grids], axis=1)
    return counts, probs


class CountSample(NamedTuple):
    """Datasets of size n from a discrete law, as atom-count chunks (B, m),
    or as the value table of those chunks (one :class:`Snapshot` each).

    ``probs`` is None for a Monte Carlo sample, whose rows weigh equally; for
    an exact enumeration it holds the product probability of each row of the
    single chunk.
    """

    chunks: tuple
    probs: np.ndarray | None

    def mean(self, fn) -> tuple[float, float]:
        """(mean, standard error) of ``fn(chunk) -> (B,)`` over the sample.

        The standard error is 0 for an exact enumeration.  Monte Carlo sums
        accumulate chunk by chunk, in chunk order.  The variance does not
        cancel: each chunk's squared deviations are taken about its own mean
        (refined by a second pass) and merged in chunk order by the pairwise
        update of Chan et al., so constant values give exactly 0.
        """
        if self.probs is not None:
            return float(self.probs @ fn(self.chunks[0])), 0.0
        rows, total, mean, m2 = 0, 0.0, 0.0, 0.0
        for chunk in self.chunks:
            vals = fn(chunk)
            b = vals.shape[0]
            s = float(np.sum(vals))
            mu = s / b
            mu += float(np.sum(vals - mu)) / b
            gap = mu - mean
            rows += b
            total += s
            mean += gap * (b / rows)
            m2 += float(np.sum((vals - mu) ** 2)) + gap * gap * (rows - b) * (b / rows)
        return total / rows, math.sqrt(m2 / rows / rows)


def count_sample(law: DiscreteLaw, n: int, trials: int, seed: int, mode: str) -> CountSample:
    """Draw the ``trials`` Monte Carlo datasets of one seed (``mode="mc"``),
    or enumerate every dataset exactly (``mode="exact"``, tiny instances)."""
    if mode == "exact":
        counts, probs = enumerate_product_counts(law, n)
        return CountSample((counts,), probs)
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    return CountSample(tuple(iter_count_batches(law, n, trials, seed)), None)


def _resolve_subset(process: str, subset, prof: PopulationProfile):
    if subset is None:
        subset = prof.suboptimal() if process == "delta" else prof.indices()
    subset = tuple(subset)
    if process == "delta":
        bad = [t for t in subset if t in prof.t_star]
        if bad:
            raise DeltaUndefinedError(f"optimal indices {bad!r} in a risk-gap supremum")
    return subset


def expected_sup(
    process: str,
    subset,
    n: int,
    prof: PopulationProfile,
    trials: int = 10_000,
    seed: int = 0,
    mode: str = "mc",
) -> tuple[float, float]:
    """Estimate E[sup over the subset] of one process at sample size n.

    Returns (estimate, standard error).  ``mode="exact"`` enumerates the
    product measure (tiny instances only) and returns a zero standard error.
    The supremum over an empty subset is 0 with no uncertainty; any other
    is a column max of the sample's value table (:meth:`AtomTables.table`).
    """
    if process not in ("lambda", "g_sq", "delta"):
        raise ValueError(f"unknown process {process!r}")
    subset = _resolve_subset(process, subset, prof)
    if not subset:
        return 0.0, 0.0
    if mode == "mc" and trials < 100:
        raise ValueError("Monte Carlo expected suprema need at least 100 trials")
    tables = prof.tables
    order = tables.suboptimal if process == "delta" else tables.indices
    cols = [order.index(t) for t in subset]
    table = tables.table(n, trials, seed, mode)
    return table.mean(lambda snap: snap.values(process)[:, cols].max(axis=1))
