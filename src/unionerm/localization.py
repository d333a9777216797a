"""The localization set map, its iterates, and the step-count choice.

The map sends an index subset S to the sublevel set of the suboptimality
function at threshold ``2 * (n * delta)^{-1} * complexity(S)``; note that the
output ranges over the whole collection, not over S (nesting of the iterates
started at the full collection makes the two definitions agree, which is
tested as a property).  Iterating k times splits the confidence budget as
delta / (2k) per step.

Two complexity functionals are pluggable:

* ``ClosedFormComplexity`` — the closed-form set function A(S), fully
  computable (its r_n constituent is estimated with a shared seed across
  subsets, so monotonicity under inclusion holds exactly).
* ``ExpectedSupComplexity`` — the Monte Carlo estimate of the expected
  supremum of the squared gradient-norm process over S, plus 3 standard
  errors (the conservative direction), also on shared sample paths.  Not
  cached: a value is a column max of the sample's value table, built once.
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
    "choose_k",
    "collapse_n",
]

INCLUSION_TOL = 1e-12


class ClosedFormComplexity:
    """Closed-form A(S) at a fixed sample size, cached per subset."""

    def __init__(self, prof: PopulationProfile, n: int, trials: int = 10_000,
                 seed: int = 0, mode: str = "mc"):
        self.prof = prof
        self.n = int(n)
        self.trials = trials
        self.seed = seed
        self.mode = mode
        self._cache: dict[tuple, TaggedValue] = {}

    def value(self, subset) -> TaggedValue:
        key = tuple(sorted(subset, key=str))
        if key not in self._cache:
            self._cache[key] = explicit_complexity(
                key, self.prof, self.n, trials=self.trials, seed=self.seed, mode=self.mode
            )
        return self._cache[key]


class ExpectedSupComplexity:
    """Monte Carlo E[sup over S of the squared gradient-norm process] + 3 SE."""

    def __init__(self, prof: PopulationProfile, n: int, trials: int = 10_000,
                 seed: int = 0, mode: str = "mc"):
        self.prof = prof
        self.n = int(n)
        self.trials = trials
        self.seed = seed
        self.mode = mode

    def value(self, subset) -> TaggedValue:
        est, se = expected_sup("g_sq", subset, self.n, self.prof, trials=self.trials, seed=self.seed, mode=self.mode)
        tag = "exact" if self.mode == "exact" else "estimated"
        return TaggedValue(est + 3.0 * se, tag, se)


def f_map(subset, n: int, delta: float, prof: PopulationProfile, complexity) -> tuple:
    """Sublevel set of the suboptimality at 2 (n delta)^{-1} complexity(S).

    Indices at the threshold (within a 1e-12 relative tolerance) are
    included, matching the non-strict inequality in the definition.
    """
    subset = tuple(subset)
    cx = complexity.value(subset).value
    thr = 2.0 / (n * delta) * cx
    cut = thr + INCLUSION_TOL * max(1.0, abs(thr))
    return tuple(t for t in prof.indices() if prof.gap(t) <= cut)


class LocalizationTrace(NamedTuple):
    """Iterates of the set map with their thresholds.

    ``sets`` has length k+1: the full collection followed by the k iterates.
    ``thresholds[j]`` is the sublevel threshold that produced ``sets[j+1]``.
    """

    n: int
    delta: float
    k: int
    sets: tuple
    thresholds: tuple
    fixed_point_at: int | None
    final_complexity: TaggedValue
    final_bound: float

    @property
    def final_set(self) -> tuple:
        return self.sets[-1]


def iterate(n: int, delta: float, k: int, prof: PopulationProfile, complexity) -> LocalizationTrace:
    """Apply the set map k times with per-step confidence delta / (2k).

    Stops early at a fixed point (all later iterates are equal) and always
    contains the optimal set, which has zero suboptimality.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    step_delta = delta / (2.0 * k)
    sets = [tuple(prof.indices())]
    thresholds = []
    fixed_at = None
    for j in range(k):
        cur = sets[-1]
        cx = complexity.value(cur).value
        thr = 2.0 / (n * step_delta) * cx
        nxt = f_map(cur, n, step_delta, prof, complexity)
        thresholds.append(thr)
        sets.append(nxt)
        if nxt == cur:
            fixed_at = j
            # idempotent from here on: pad the remaining steps
            for _ in range(j + 1, k):
                thresholds.append(thr)
                sets.append(nxt)
            break
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


def choose_k(
    n: int,
    delta: float,
    prof: PopulationProfile,
    complexity,
) -> tuple[int, float, LocalizationTrace]:
    """Pick the step count in 1..1 + |suboptimal| minimizing the final excess
    bound (ties: smallest k)."""
    best = None
    for k in range(1, 2 + len(prof.suboptimal())):
        trace = iterate(n, delta, k, prof, complexity)
        if best is None or trace.final_bound < best[1]:
            best = (k, trace.final_bound, trace)
    return best


def collapse_n(
    prof: PopulationProfile,
    delta: float,
    complexity_factory,
    k: int = 1,
    n_max: int = 10**9,
) -> int:
    """Smallest n at which one application of the map already yields the
    optimal set: the first-step threshold falls strictly below the gap.

    ``complexity_factory(n)`` must return a complexity source bound to n.
    The threshold 2 complexity(T) / (n delta / 2k) decreases in n, so a
    bracketing search applies.  Only defined for a positive finite gap.
    """
    gamma = prof.gamma
    if not (0.0 < gamma < float("inf")):
        raise ValueError("collapse size needs a positive finite suboptimality gap")
    full = tuple(prof.indices())
    step_delta = delta / (2.0 * k)

    def collapses(n: int) -> bool:
        cx = complexity_factory(n).value(full).value
        return 2.0 / (n * step_delta) * cx < gamma * (1.0 - 1e-9)

    lo, hi = 1, 1
    while not collapses(hi):
        hi *= 2
        if hi > n_max:
            raise ValueError("no collapse below the search cap")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if collapses(mid):
            hi = mid
        else:
            lo = mid
    return hi
