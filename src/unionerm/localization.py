"""The localization set map, its iterates, and the step-count choice.

The map sends an index subset S to the sublevel set of the suboptimality
function at threshold ``2 * (n * delta)^{-1} * complexity(S)``; note that the
output ranges over the whole collection, not over S (nesting of the iterates
started at the full collection makes the two definitions agree, which is
tested as a property).  Iterating k times splits the confidence budget as
delta / (2k) per step.

Two complexity functionals are pluggable:

* ``ClosedFormComplexity`` — the closed-form set function A(S), exact on a
  discrete law (its r_n constituent is the closed-form expected maximum, so
  it draws no sample and is monotone under inclusion).
* ``ExpectedSupComplexity`` — the Monte Carlo estimate of the expected
  supremum of the squared gradient-norm process over S, plus 3 standard
  errors (the conservative direction), tagged ``estimated``.  Every subset
  reads the one count sample of (n, trials, seed); not cached: a value is a
  column max of that sample's value table, built once.
"""

from __future__ import annotations

from typing import NamedTuple

from .bounds import TaggedValue, explicit_complexity
from .population import PopulationProfile
from .processes import expected_sup

__all__ = [
    "ClosedFormComplexity",
    "ExpectedSupComplexity",
    "LocalizationTrace",
    "f_map",
    "iterate",
    "k_sweep",
    "best_k",
    "choose_k",
    "collapse_n",
]

INCLUSION_TOL = 1e-12


class ClosedFormComplexity:
    """Closed-form A(S) at a fixed sample size, exact and cached per subset."""

    def __init__(self, prof: PopulationProfile, n: int):
        self.prof = prof
        self.n = int(n)
        self._cache: dict[tuple, TaggedValue] = {}

    def value(self, subset) -> TaggedValue:
        key = tuple(sorted(subset, key=str))
        if key not in self._cache:
            self._cache[key] = explicit_complexity(key, self.prof, self.n)
        return self._cache[key]


class ExpectedSupComplexity:
    """Monte Carlo E[sup over S of the squared gradient-norm process] + 3 SE."""

    def __init__(self, prof: PopulationProfile, n: int, trials: int = 10_000, seed: int = 0):
        self.prof = prof
        self.n = int(n)
        self.trials = trials
        self.seed = seed

    def value(self, subset) -> TaggedValue:
        est, se = expected_sup("g_sq", subset, self.n, self.prof, trials=self.trials, seed=self.seed)
        return TaggedValue(est + 3.0 * se, "estimated", se)


def _step_delta(delta: float, k: int) -> float:
    """The confidence of each of k steps, delta / (2k)."""
    return delta / (2.0 * k)


def _sublevel(subset, n: int, step_delta: float, prof: PopulationProfile, complexity) -> tuple[float, tuple]:
    """One step of the map: the threshold 2 (n step_delta)^{-1} complexity(S)
    and the indices whose suboptimality is at most it; those at it (within a
    1e-12 relative tolerance) are in, as the definition's inequality is not strict."""
    thr = 2.0 / (n * step_delta) * complexity.value(subset).value
    cut = thr + INCLUSION_TOL * max(1.0, abs(thr))
    return thr, tuple(t for t in prof.indices() if prof.gap(t) <= cut)


def f_map(subset, n: int, delta: float, prof: PopulationProfile, complexity) -> tuple:
    """Sublevel set of the suboptimality at 2 (n delta)^{-1} complexity(S)."""
    return _sublevel(tuple(subset), n, delta, prof, complexity)[1]


class LocalizationTrace(NamedTuple):
    """Iterates of the set map with their thresholds and final bound.

    ``sets`` has length k+1: the full collection followed by the k iterates.
    ``thresholds[j]`` is the sublevel threshold that produced ``sets[j+1]``.
    ``final_bound`` is the excess bound 24 (n delta)^{-1} ``final_complexity``.
    """

    n: int
    delta: float
    k: int
    sets: tuple
    thresholds: tuple
    fixed_point_at: int | None
    final_complexity: TaggedValue
    final_bound: float


def iterate(n: int, delta: float, k: int, prof: PopulationProfile, complexity) -> LocalizationTrace:
    """Apply the set map k times with per-step confidence delta / (2k).

    Stops early at a fixed point (all later iterates are equal) and always
    contains the optimal set, which has zero suboptimality.  Asks the source
    once per step and once for the final set; the trace carries the final
    excess bound, so callers read ``final_bound`` instead of restating it.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    step_delta = _step_delta(delta, k)
    sets = [tuple(prof.indices())]
    thresholds = []
    fixed_at = None
    for j in range(k):
        thr, nxt = _sublevel(sets[-1], n, step_delta, prof, complexity)
        thresholds.append(thr)
        if nxt == sets[-1]:
            fixed_at = j
            # idempotent from here on: pad the remaining steps
            thresholds += [thr] * (k - j - 1)
            sets += [nxt] * (k - j)
            break
        sets.append(nxt)
    final_cx = complexity.value(sets[-1])
    return LocalizationTrace(
        n=n,
        delta=delta,
        k=k,
        sets=tuple(sets),
        thresholds=tuple(thresholds),
        fixed_point_at=fixed_at,
        final_complexity=final_cx,
        final_bound=24.0 / (n * delta) * final_cx.value,
    )


def k_sweep(n: int, delta: float, prof: PopulationProfile, complexity) -> tuple[LocalizationTrace, ...]:
    """The trace at every step count the choice ranges over, k = 1 .. 1 + |suboptimal|."""
    return tuple(iterate(n, delta, k, prof, complexity) for k in range(1, 2 + len(prof.suboptimal())))


def best_k(sweep) -> tuple[int, float, LocalizationTrace]:
    """(k, final bound, trace) of the sweep's trace with the smallest final
    bound; ties go to the smallest k (``min`` keeps the first minimum)."""
    trace = min(sweep, key=lambda tr: tr.final_bound)
    return trace.k, trace.final_bound, trace


def choose_k(n: int, delta: float, prof: PopulationProfile, complexity) -> tuple[int, float, LocalizationTrace]:
    """Pick the step count in 1..1 + |suboptimal| whose trace has the smallest
    ``final_bound`` (ties: smallest k); a caller that also reads the other
    step counts' traces calls :func:`best_k` on its one :func:`k_sweep`."""
    return best_k(k_sweep(n, delta, prof, complexity))


COLLAPSE_N_MAX = 10**9  # collapse_n's search cap


def collapse_n(prof: PopulationProfile, delta: float, complexity_factory) -> int:
    """Smallest n at which one application of the map already yields the
    optimal set: the first-step threshold falls strictly below the gap.

    ``complexity_factory(n)`` must return a complexity source bound to n.
    The threshold 2 complexity(T) / (n delta / 2) decreases in n, so a
    bracketing search applies.  Only defined for a positive finite gap.
    """
    gamma = prof.gamma
    if not (0.0 < gamma < float("inf")):
        raise ValueError("collapse size needs a positive finite suboptimality gap")
    full = tuple(prof.indices())
    step_delta = _step_delta(delta, 1)  # one application of the map: k = 1

    def collapses(n: int) -> bool:
        return _sublevel(full, n, step_delta, prof, complexity_factory(n))[0] < gamma * (1.0 - 1e-9)

    lo, hi = 1, 1
    while not collapses(hi):
        hi *= 2
        if hi > COLLAPSE_N_MAX:
            raise ValueError("no collapse below the search cap")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if collapses(mid):
            hi = mid
        else:
            lo = mid
    return hi
