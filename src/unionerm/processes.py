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

On a discrete law a dataset is equivalent to its atom counts, so every
expectation over datasets (expected suprema here; class moments and A(S) in
:mod:`unionerm.bounds`) is one reduction, :meth:`CountSample.mean`, over one
:func:`count_sample`: Monte Carlo chunks with per-chunk seed streams (any
chunk schedule aggregates identically), or for tiny instances the exact
enumeration of every dataset with its probability.  ``prof.tables`` keeps
the last sample drawn, keyed by (n, trials, seed, mode), so one command
draws each stream once and the sample lives as long as the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, DiscreteLaw
from .population import PopulationProfile

__all__ = [
    "ProcessSnapshot",
    "lambda_process",
    "g_process",
    "delta_process",
    "snapshot",
    "expected_sup",
    "AtomTables",
    "CountSample",
    "count_sample",
    "iter_count_batches",
    "enumerate_product_counts",
]

CHUNK = 16384
MAX_EXACT_DATASETS = 250_000


class DeltaUndefinedError(ValueError):
    """The risk-gap process is undefined for optimal indices."""


def _batch_rng(seed: int, chunk: int) -> np.random.Generator:
    # distinct namespace from per-trial dataset streams
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(chunk), 1))))


# ---------------------------------------------------------------------------
# Direct per-dataset evaluation
# ---------------------------------------------------------------------------

def _whitened_sample_cov(dataset: Dataset, t, prof: PopulationProfile) -> np.ndarray:
    entry = prof.collection.entry(t)
    phi = entry(dataset.x)
    wh = prof.whitener(t)
    psi = phi @ wh
    return psi.T @ psi / dataset.n


def lambda_process(dataset: Dataset, t, prof: PopulationProfile) -> float:
    """sqrt(n) times the top eigenvalue of I minus the whitened sample covariance."""
    wcov = _whitened_sample_cov(dataset, t, prof)
    lam_min = float(np.linalg.eigvalsh(wcov)[0])
    return float(np.sqrt(dataset.n) * (1.0 - lam_min))


def g_process(dataset: Dataset, t, prof: PopulationProfile) -> float:
    """sqrt(n) times the whitened norm of the empirical gradient at w_*(t)."""
    entry = prof.collection.entry(t)
    phi = entry(dataset.x)
    resid = phi @ prof.w_star(t) - dataset.y
    grad = phi.T @ resid / dataset.n
    return float(np.sqrt(dataset.n) * np.linalg.norm(prof.whitener(t) @ grad))


def delta_process(dataset: Dataset, t, t_star, prof: PopulationProfile) -> float:
    """Normalized empirical risk gap deviation for a suboptimal index."""
    if t in prof.t_star:
        raise DeltaUndefinedError(f"index {t!r} is optimal; the gap denominator vanishes")
    gap = prof.gap(t)
    entry_t = prof.collection.entry(t)
    entry_s = prof.collection.entry(t_star)
    rt = 0.5 * float(np.mean((entry_t(dataset.x) @ prof.w_star(t) - dataset.y) ** 2))
    rs = 0.5 * float(np.mean((entry_s(dataset.x) @ prof.w_star(t_star) - dataset.y) ** 2))
    return float(np.sqrt(dataset.n) * (1.0 - (rt - rs) / gap))


@dataclass(frozen=True)
class ProcessSnapshot:
    """All three processes evaluated on one dataset.

    ``lam_plus_scaled`` and ``lam_minus_scaled`` are the one-sided suprema of
    the n^{-1/2}-rescaled covariance deviation over the whole collection,
    taken over the full variational index (map, direction): the plus side is
    sup_t (1 - lambda_min of the whitened sample covariance), the minus side
    sup_t (lambda_max of it - 1).
    """

    t_star: object
    lam: dict
    g: dict
    delta: dict
    sup_lambda: float
    sup_g_sq: float
    sup_delta: float
    lam_plus_scaled: float
    lam_minus_scaled: float
    delta_plus_scaled: float


def snapshot(dataset: Dataset, prof: PopulationProfile) -> ProcessSnapshot:
    """Evaluate every process on one dataset; suprema are over the collection."""
    n = dataset.n
    rn = np.sqrt(n)
    t_star = prof.least_optimal_index
    lam, g, delta = {}, {}, {}
    lam_plus = -np.inf
    lam_minus = -np.inf
    for entry in prof.collection:
        t = entry.index
        wcov = _whitened_sample_cov(dataset, t, prof)
        vals = np.linalg.eigvalsh(wcov)
        lam[t] = float(rn * (1.0 - vals[0]))
        lam_plus = max(lam_plus, 1.0 - float(vals[0]))
        lam_minus = max(lam_minus, float(vals[-1]) - 1.0)
        g[t] = g_process(dataset, t, prof)
    for t in prof.suboptimal():
        delta[t] = delta_process(dataset, t, t_star, prof)
    sup_delta = max(delta.values()) if delta else 0.0
    return ProcessSnapshot(
        t_star=t_star,
        lam=lam,
        g=g,
        delta=delta,
        sup_lambda=max(lam.values()),
        sup_g_sq=max(v * v for v in g.values()),
        sup_delta=sup_delta,
        lam_plus_scaled=float(lam_plus),
        lam_minus_scaled=float(lam_minus),
        delta_plus_scaled=sup_delta / rn if delta else 0.0,
    )


# ---------------------------------------------------------------------------
# Atom tables: batched evaluation over many datasets of a discrete law
# ---------------------------------------------------------------------------

class AtomTables:
    """Per-atom values of every process ingredient for a discrete law.

    A dataset from a discrete law is equivalent to its atom counts, so any
    empirical mean is an exact contraction of (counts / n) with a per-atom
    table.  These tables make Monte Carlo over 1e5-1e6 datasets a handful of
    dense tensor operations per chunk.
    """

    def __init__(self, prof: PopulationProfile):
        law = prof.law
        if law.kind != "discrete":
            raise ValueError("atom tables require a discrete law")
        # no reference back to prof, which holds these tables: a cycle would
        # keep every profile and its count sample alive until the cyclic GC
        self.law = law
        self.psi = {}        # whitened features, (m, d_t)
        self.psi_outer = {}  # whitened feature outer products, (m, d_t, d_t)
        self.grad_w = {}     # whitened gradients at w_*, (m, d_t)
        self.loss = {}       # pointwise loss at w_*, (m,)
        for entry in prof.collection:
            t = entry.index
            phi = entry(law.xs)
            psi = phi @ prof.whitener(t)
            resid = phi @ prof.w_star(t) - law.ys
            self.psi[t] = psi
            self.psi_outer[t] = psi[:, :, None] * psi[:, None, :]
            self.grad_w[t] = resid[:, None] * psi
            self.loss[t] = 0.5 * resid**2
        self.delta_vals = {}  # normalized loss differences, mean one, (m,)
        s0 = prof.least_optimal_index
        for t in prof.suboptimal():
            self.delta_vals[t] = (self.loss[t] - self.loss[s0]) / prof.gap(t)
        self._last = None  # (key, CountSample) of the last sample drawn

    def sample(self, n: int, trials: int, seed: int, mode: str) -> CountSample:
        """The count sample of this law for (n, trials, seed, mode).

        The last sample drawn is kept, so consecutive requests for one key
        share a single draw.
        """
        key = (n, trials, seed, mode)
        if self._last is None or self._last[0] != key:
            self._last = (key, count_sample(self.law, n, trials, seed, mode))
        return self._last[1]

    # Each method maps a counts batch (B, m) to per-dataset values (B,).

    def lambda_batch(self, t, counts: np.ndarray, n: int) -> np.ndarray:
        wcov = np.tensordot(counts / n, self.psi_outer[t], axes=(1, 0))
        vals = np.linalg.eigvalsh(wcov)
        return np.sqrt(n) * (1.0 - vals[..., 0])

    def g_sq_batch(self, t, counts: np.ndarray, n: int) -> np.ndarray:
        mean = (counts / n) @ self.grad_w[t]
        return n * np.sum(mean**2, axis=-1)

    def delta_batch(self, t, counts: np.ndarray, n: int) -> np.ndarray:
        mean = (counts / n) @ self.delta_vals[t]
        return np.sqrt(n) * (1.0 - mean)

    def sup_batch(self, process: str, subset, counts: np.ndarray, n: int) -> np.ndarray:
        fns = {"lambda": self.lambda_batch, "g_sq": self.g_sq_batch, "delta": self.delta_batch}
        fn = fns[process]
        out = np.full(counts.shape[0], -np.inf)
        for t in subset:
            np.maximum(out, fn(t, counts, n), out=out)
        return out


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


def enumerate_product_counts(law: DiscreteLaw, n: int, cap: int = MAX_EXACT_DATASETS):
    """All datasets of size n from a discrete law, as (counts, probability).

    Enumerates the m^n ordered samples via their atom-count multiset with
    multinomial weights; exact product-measure expectations contract against
    the returned probabilities.
    """
    m = law.support_size
    if m**n > cap:
        raise ValueError(f"exact enumeration needs {m**n} datasets, above the cap {cap}")
    grids = np.indices((m,) * n).reshape(n, -1).T  # (m^n, n) ordered samples
    counts = np.zeros((grids.shape[0], m), dtype=np.int64)
    for i in range(n):
        np.add.at(counts, (np.arange(grids.shape[0]), grids[:, i]), 1)
    probs = np.prod(law.weights[grids], axis=1)
    return counts, probs


@dataclass(frozen=True)
class CountSample:
    """Datasets of size n from a discrete law, as atom-count chunks (B, m).

    ``probs`` is None for a Monte Carlo sample, whose rows weigh equally; for
    an exact enumeration it holds the product probability of each row of the
    single chunk.
    """

    chunks: tuple
    probs: np.ndarray | None

    def mean(self, fn) -> tuple[float, float]:
        """(mean, standard error) of ``fn(counts) -> (B,)`` over the sample.

        The standard error is 0 for an exact enumeration.  Monte Carlo sums
        accumulate chunk by chunk, in chunk order.
        """
        if self.probs is not None:
            return float(self.probs @ fn(self.chunks[0])), 0.0
        rows = 0
        total = 0.0
        total_sq = 0.0
        for counts in self.chunks:
            vals = fn(counts)
            rows += counts.shape[0]
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals**2))
        mean = total / rows
        var = max(total_sq / rows - mean**2, 0.0)
        return mean, math.sqrt(var / rows)


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
    The supremum over an empty subset is 0 with no uncertainty.
    """
    if process not in ("lambda", "g_sq", "delta"):
        raise ValueError(f"unknown process {process!r}")
    subset = _resolve_subset(process, subset, prof)
    if not subset:
        return 0.0, 0.0
    if mode == "mc" and trials < 100:
        raise ValueError("Monte Carlo expected suprema need at least 100 trials")
    tables = prof.tables
    sample = tables.sample(n, trials, seed, mode)
    return sample.mean(lambda counts: tables.sup_batch(process, subset, counts, n))
