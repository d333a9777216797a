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

On a discrete law every quantity read from a dataset is a contraction of
its frequencies with the moment table of ``prof.tables``
(:class:`AtomTables`): per atom, the pair products of the dictionary
z = [distinct atom columns of every map, y] that some map's Sigma_n or
Phi^T y reads, then each index's pointwise loss at w_*.  Atoms with equal
rows are the same dataset to every reader, so a dataset has one
representation: its counts over the table's distinct rows, the categories
of ``prof.tables.law``.  Every count draw, the trials of
:mod:`unionerm.experiments` and the count samples here alike, is a
multinomial over that law, in chunks of ``model.CHUNK`` datasets with
per-chunk seed streams.  One product per dataset gives every index's
Sigma_n, Phi^T y / n and R_n(w_*), which the trial fits
(:class:`unionerm.erm.MomentFit`) and :meth:`AtomTables.evaluate`, the
per-index value table of all three processes, both read; for d_t <= 2 the
table is elementwise in the moment columns, with no per-index LAPACK call.
Every expected supremum is one reduction, :func:`chunk_mean`, over the
value table of one Monte Carlo count sample (:meth:`AtomTables.table`).
(Class moments and A(S) in :mod:`unionerm.bounds` draw nothing: their
expected maximum over the n draws is a closed form in the atoms' weights.)
``prof.tables`` keeps the value table of the last sample drawn, keyed by
(n, trials, seed), of which every expected supremum is a column max.  So
one command draws each stream and evaluates each dataset once.
The tables hold no per-atom population arrays; those are the profile's
records.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .erm import MomentFit, gram
from .model import CHUNK, COUNT_BATCH_TAG, DiscreteLaw, stream
from .population import PopulationProfile

__all__ = [
    "Snapshot",
    "snapshot",
    "expected_sup",
    "AtomTables",
    "chunk_mean",
    "iter_count_batches",
]

EXPECTED_SUP_MIN_TRIALS = 100  # the fewest Monte Carlo rows an expected supremum is estimated from
# entries per block of a chunk's (B, rows) frequencies and of each (B, k)
# temporary of evaluate, which form them a block of datasets at a time
BLOCK_ENTRIES = 1 << 11


class DeltaUndefinedError(ValueError):
    """The risk-gap process is undefined for optimal indices."""


# ---------------------------------------------------------------------------
# Atom tables: batched evaluation over many datasets of a discrete law
# ---------------------------------------------------------------------------

class AtomTables:
    """The moment table of a discrete law (see the module docstring): a
    dataset's :meth:`moments` are all that ``fits`` (about w_*, with R_n(w_*)
    in the columns ``loss``) and :meth:`evaluate` read.  Also the value
    table of the last count sample drawn.

    Atoms whose moment rows are equal are one dataset category for every
    fit and process value: ``rows`` holds the first atom of each distinct
    row, in atom order, and ``law`` the law of those atoms with each group's
    weights summed (the profile's law itself when no two rows are equal).
    Summing multinomial counts over a group gives a multinomial over its
    summed weight, and a dataset's moments read only those sums, so every
    count draw, trial or count sample, is over ``law`` and loses nothing.
    The rows are merged on the first read of either, and the table then
    keeps the distinct rows only: the per-atom table is dropped.
    """

    def __init__(self, prof: PopulationProfile):
        law = prof.law
        # no reference back to prof, which holds these tables: a cycle would
        # keep every profile and its count sample alive until the cyclic GC
        recs = prof.records
        self.indices = prof.indices()        # column order of a Snapshot
        self.suboptimal = prof.suboptimal()  # column order of Snapshot.delta
        self._sub = [self.indices.index(t) for t in self.suboptimal]
        self._s0 = self.indices.index(prof.least_optimal_index)
        self._gaps = np.array([prof.gap(t) for t in self.suboptimal])
        self._last = None  # (key, value table) of the last count sample drawn
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
        table = np.empty((law.support_size, len(pairs) + len(self.indices)))
        for k, (a, b) in enumerate(pairs):
            np.multiply(columns[a], columns[b], out=table[:, k])
        for k, t in enumerate(self.indices, len(pairs)):
            np.multiply(0.5, recs[t].resid ** 2, out=table[:, k])
        self._atoms = (law, table)  # until the rows are merged

    @functools.cached_property
    def _merged(self) -> tuple:
        """(rows, law, table): the equal rows merged (:func:`_distinct_rows`)
        on first read, after which the per-atom table is dropped."""
        law, table = self._atoms
        rows, labels = _distinct_rows(table)
        if len(rows) < law.support_size:
            weights = np.bincount(labels, weights=law.weights)
            law, table = DiscreteLaw(xs=law.xs[rows], ys=law.ys[rows], weights=weights), table[rows]
        del self._atoms
        return rows, law, table

    rows = property(lambda self: self._merged[0])
    law = property(lambda self: self._merged[1])

    def table(self, n: int, trials: int, seed: int) -> tuple:
        """The value table of the count sample (n, trials, seed): one
        :class:`Snapshot` per chunk of :func:`iter_count_batches` over
        ``law``, in chunk order.

        The last table built is kept, so consecutive requests for one key
        share a single draw and a single evaluation.  A chunk's counts are
        dropped once its moments exist, and a new key drops the old table
        before drawing.
        """
        key = (n, trials, seed)
        if self._last is None or self._last[0] != key:
            self._last, snaps = None, []
            for counts in iter_count_batches(self.law, n, trials, seed):
                moments = self.moments(counts, n)
                del counts  # each chunk's counts, then its moments, go as soon as they are read
                snaps.append(self.evaluate(moments, n))
                del moments
            self._last = (key, tuple(snaps))
        return self._last[1]

    def moments(self, counts: np.ndarray, n: int) -> np.ndarray:
        """The moments (B, K) of the datasets whose counts over the rows of
        ``law`` are ``counts`` (B, len(rows)).  One product per dataset
        (``(1, rows) @ table``), so a dataset's moments do not depend on
        the other datasets, and the frequencies are formed about
        ``BLOCK_ENTRIES`` entries at a time."""
        table = self._merged[2]
        out = np.empty((counts.shape[0], 1, table.shape[1]))
        step = max(1, BLOCK_ENTRIES // table.shape[0])
        for lo in range(0, counts.shape[0], step):
            np.matmul(counts[lo:lo + step, None, :] / n, table, out=out[lo:lo + step])
        return out[:, 0, :]

    def evaluate(self, moments: np.ndarray, n: int) -> Snapshot:
        """Every process on the datasets of ``moments`` (B, K) at sample size n:
        lambda_n from the extreme eigenvalues of W Sigma_n W, g_n from
        W (Sigma_n w_* - Phi^T y / n), one pass per feature dimension
        (:func:`_whitened`), and delta_n from the loss columns.  The k maps of
        a dimension are taken ``BLOCK_ENTRIES // k`` datasets at a time, which
        moves no value: a dataset's values do not depend on its block."""
        b, size = moments.shape[0], len(self.indices)
        lam_min, g_sq = np.empty((b, size)), np.empty((b, size))
        lam_minus = np.full(b, -np.inf)
        for (js, cols, w_ref), whitener in zip(self.fits.groups, self._whiteners):
            step = max(1, BLOCK_ENTRIES // len(js))
            for lo in range(0, b, step):
                rows = slice(lo, lo + step)
                low, hi, grad_sq = _whitened(moments[rows], cols, w_ref, whitener)
                lam_min[rows, js] = low
                np.maximum(lam_minus[rows], hi.max(axis=1) - 1.0, out=lam_minus[rows])
                g_sq[rows, js] = n * grad_sq
        loss = moments[:, self.loss]
        delta = np.sqrt(n) * (1.0 - (loss[:, self._sub] - loss[:, [self._s0]]) / self._gaps)
        return Snapshot(n=n, lam_min=lam_min, lam_minus_scaled=lam_minus, g_sq=g_sq, delta=delta)


def _whitened(moments: np.ndarray, cols: np.ndarray, w_ref: np.ndarray, whitener: np.ndarray):
    """(lo, hi, |W grad|^2), each (B, k), for the k maps of one dimension d
    and the moment columns ``cols`` (k, d, d + 1) of :class:`MomentFit`: the
    extreme eigenvalues of W Sigma_n W, and grad = Sigma_n w_ref - Phi^T y / n.
    For d <= 2 every entry is a (B, k) array, summed in the order of the
    products (W Sigma_n) W and W grad, with the eigenvalues of :func:`_eig2`."""
    d = w_ref.shape[1]
    if d > 2:
        sigma_n, _, grad = gram(moments, cols, w_ref)
        grad_w = (whitener @ grad[..., None])[..., 0]
        ends = np.linalg.eigvalsh(whitener @ sigma_n @ whitener)
        return ends[..., 0], ends[..., -1], np.sum(grad_w**2, axis=2)
    sig = [[moments[:, cols[:, i, j]] for j in range(d)] for i in range(d)]  # symmetric: row j is column j
    w = whitener.transpose(1, 2, 0)  # w[i, j] (k,)
    grad = [_dot(sig[i], w_ref.T) - moments[:, cols[:, i, d]] for i in range(d)]
    ws = [[_dot(w[i], sig[j]) for j in range(d)] for i in range(d)]
    m = [[_dot(ws[i], w[:, j]) for j in range(i + 1)] for i in range(d)]  # lower triangle
    del sig, ws  # m and grad are all the rest reads
    lo, hi = (m[0][0], m[0][0]) if d == 1 else _eig2(m[0][0], m[1][0], m[1][1])
    grad_w = [_dot(w[i], grad) for i in range(d)]
    return lo, hi, _dot(grad_w, grad_w)


def _dot(xs, ys):
    """x_0 y_0 + x_1 y_1 + ..., summed left to right."""
    return functools.reduce(operator.add, map(operator.mul, xs, ys))


def _eig2(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smaller, larger) eigenvalue of the symmetric 2 x 2 [[a, b], [b, c]],
    elementwise.

    They are (a + c)/2 +- hypot((a - c)/2, b), in the form of LAPACK's
    dlae2: the eigenvalue of larger magnitude takes the sign of a + c, so
    nothing cancels, and the other is det / that one, written
    (far / big) near - (b / big) b with far, near the diagonal entries of
    larger and smaller magnitude, so a c - b^2 is never formed.
    """
    trace = a + c
    big = 0.5 * (trace + np.copysign(np.hypot(a - c, 2.0 * b), trace))
    swap = np.abs(a) < np.abs(c)
    far, near = np.where(swap, c, a), np.where(swap, a, c)
    safe = np.where(big == 0.0, 1.0, big)  # big = 0 only for the zero matrix
    small = (far / safe) * near - (b / safe) * b
    return np.minimum(small, big), np.maximum(small, big)


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
    """Every process on the datasets whose counts over the rows of
    ``prof.tables.law`` are ``counts`` (B, len(rows))."""
    tables = prof.tables
    return tables.evaluate(tables.moments(counts, n), n)


def _distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, labels): the first row of each group of equal rows of
    ``table``, in row order, and each row's group.

    Rows compare by the bytes of ``block + 0.0``, which equal rows share
    (adding 0.0 turns -0.0 into 0.0).  A key is the hash of those bytes, so
    nothing the size of the table is built; groups whose bytes share a hash
    are told apart by comparing the bytes themselves.
    """
    rows, labels = [], np.empty(table.shape[0], dtype=np.intp)
    seen = {}  # hash of a row's bytes -> the groups with that hash
    as_bytes = np.dtype((np.void, table.shape[1] * table.itemsize))
    for lo in range(0, table.shape[0], CHUNK):
        keys = (table[lo:lo + CHUNK] + 0.0).view(as_bytes).ravel().tolist()
        for a, key in enumerate(keys, lo):
            groups = seen.setdefault(hash(key), [])
            g = next((g for g in groups if (table[rows[g]] + 0.0).tobytes() == key), None)
            if g is None:
                g = len(rows)
                groups.append(g)
                rows.append(a)
            labels[a] = g
    return np.array(rows, dtype=np.intp), labels


def iter_count_batches(law: DiscreteLaw, n: int, trials: int, seed: int):
    """Yield multinomial count batches over the law's atoms, chunked with per-chunk streams.

    Chunking is fixed-size (``model.CHUNK``) so that the sequence of batches
    (and therefore any order-independent aggregate) is identical no matter
    how the chunks are scheduled.
    """
    for chunk_idx, lo in enumerate(range(0, trials, CHUNK)):
        yield stream(seed, chunk_idx, COUNT_BATCH_TAG).multinomial(n, law.weights, size=min(CHUNK, trials - lo))


def chunk_mean(chunks, fn) -> tuple[float, float]:
    """(mean, standard error) of ``fn(chunk) -> (B,)`` over the rows of every chunk.

    Sums accumulate chunk by chunk, in chunk order.  The variance does not
    cancel: each chunk's squared deviations are taken about its own mean
    (refined by a second pass) and merged in chunk order by the pairwise
    update of Chan et al., so constant values give exactly 0.
    """
    rows, total, mean, m2 = 0, 0.0, 0.0, 0.0
    for chunk in chunks:
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
) -> tuple[float, float]:
    """Estimate E[sup over the subset] of one process at sample size n.

    Returns (estimate, standard error).  The supremum over an empty subset
    is 0 with no uncertainty; any other is a column max of the sample's
    value table (:meth:`AtomTables.table`).
    """
    if process not in ("lambda", "g_sq", "delta"):
        raise ValueError(f"unknown process {process!r}")
    subset = _resolve_subset(process, subset, prof)
    if not subset:
        return 0.0, 0.0
    if trials < EXPECTED_SUP_MIN_TRIALS:
        raise ValueError(f"Monte Carlo expected suprema need at least {EXPECTED_SUP_MIN_TRIALS} trials")
    tables = prof.tables
    order = tables.suboptimal if process == "delta" else tables.indices
    cols = [order.index(t) for t in subset]
    return chunk_mean(tables.table(n, trials, seed), lambda snap: snap.values(process)[:, cols].max(axis=1))
