"""Closed-form constants, finite-class moment bounds, and risk thresholds.

Naming of the main quantities (all scalars unless noted):

* ``c_factor(m) = 5 * sqrt(1 + ln m)`` — the log-cardinality factor entering
  every finite-class bound.
* covariance-deviation matrix per map, ``V(t) = E[(psi psi^T - I)^2]`` with
  psi the whitened feature; the report carries ``max_t lambda_max(V(t))``.
* quadratic-form variance supremum — the worst variance of a unit-norm
  quadratic form of the stacked whitened features,
  ``sup E[(sum_t <v_t, psi_t(X)>^2 - 1)^2]`` over ``sum_t ||v_t||^2 = 1``.
  A nonconvex quartic; maximized by one batched shifted power iteration from
  every basis vector and 64 seeded random starts (the tests hold it against a
  dense angular grid in total dimension <= 3 and against its closed form on
  the sign hypercube).
* class moments ``(sigma^2, r_n)`` for the two finite function classes the
  bounds consume: the whitened-gradient class over an index subset, and the
  normalized loss-gap class over the suboptimal indices (mean one, so the
  centered second moment is used).
* the set function ``A(S) = c(|S|)^2 (sigma_G(S) + c(|S|) r_n_G(S)/sqrt(n))^2``.

Every estimated quantity carries a standard error, and every threshold that
consumes an estimate uses estimate + 3 SE (the conservative direction).
Reports never mix exact and estimated values silently: each field is tagged.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .model import DiscreteLaw
from .population import PopulationProfile
from .processes import (
    CountSample,
    count_sample,
    expected_sup,
    iter_count_batches,  # noqa: F401 -- the benchmark tracer wraps it under this name
)

__all__ = [
    "TaggedValue",
    "ClassMoments",
    "SandwichResult",
    "BoundInputs",
    "BoundReport",
    "IncompleteReportError",
    "c_factor",
    "class_moments",
    "finite_sup_sandwich",
    "matrix_bernstein_bound",
    "covariance_deviation_lambda_max",
    "covariance_deviation_lambda_max_mc",
    "quadratic_form_variance_sup",
    "explicit_complexity",
    "compute_bound_inputs",
    "thresholds_and_bounds",
    "single_class_threshold_value",
    "explicit_threshold_value",
    "resolve_explicit_threshold",
]


class IncompleteReportError(ValueError):
    """A bound report field cannot be filled because a constituent is missing."""

    def __init__(self, field_name: str):
        self.field_name = field_name
        super().__init__(f"missing constituent for report field {field_name!r}")


class TaggedValue(NamedTuple):
    """A scalar with provenance: exact enumeration or Monte Carlo estimate."""

    value: float
    tag: str  # "exact" or "estimated" (optionally suffixed with the method)
    se: float | None = None

    def to_json(self) -> dict:
        return {"value": self.value, "tag": self.tag, "se": self.se}


def c_factor(m) -> float:
    """Log-cardinality factor 5 * sqrt(1 + ln m); accepts real m >= 1."""
    m = float(m)
    if m < 1:
        raise ValueError("the cardinality factor requires m >= 1")
    return 5.0 * math.sqrt(1.0 + math.log(m))


# ---------------------------------------------------------------------------
# Class moments
# ---------------------------------------------------------------------------

class ClassMoments(NamedTuple):
    """(sigma^2, r_n) for a finite class: worst centered second moment and
    the expected max over samples and functions of the centered square."""

    sigma_sq: float            # exact
    r_n: float                 # estimated unless mode == "exact"
    r_n_se: float
    mode: str

    def r_n_conservative(self) -> float:
        return self.r_n + 3.0 * self.r_n_se


def _sqrt_with_se(mean_sq: float, se_sq: float) -> tuple[float, float]:
    if mean_sq <= 0.0:
        return 0.0, 0.0
    root = math.sqrt(mean_sq)
    return root, se_sq / (2.0 * root)


def _expected_max_sqrt(sample: CountSample, atom_values: list[np.ndarray]) -> tuple[float, float]:
    """E[max over (sample, function) of a per-atom value]^{1/2} with SE.

    The max over a dataset only depends on which atoms are present, so the
    counts representation is enough.  A row with every atom present takes
    the overall max; only rows missing an atom are masked.
    """
    worst = np.stack(atom_values, axis=1).max(axis=1)  # (m,) max over functions per atom

    def present_max(counts: np.ndarray) -> np.ndarray:
        out = np.full(counts.shape[0], worst.max())
        gaps = counts.min(axis=1) == 0
        if gaps.any():
            out[gaps] = np.where(counts[gaps] > 0, worst[None, :], -np.inf).max(axis=1)
        return out

    return _sqrt_with_se(*sample.mean(present_max))


def class_moments(
    kind: str,
    subset,
    prof: PopulationProfile,
    n: int,
    trials: int = 10_000,
    seed: int = 0,
    mode: str = "mc",
) -> ClassMoments:
    """Moments of the gradient class over a subset, or of the loss-gap class.

    ``kind="G"``: functions are the whitened gradients at the minimizers,
    mean zero by first-order optimality, one per index in ``subset``.
    ``kind="D"``: functions are the loss differences against the least
    optimal index, normalized by their population gap (mean one), one per
    suboptimal index; requires a nonempty suboptimal set unless empty-class
    output (0, 0) is acceptable.
    """
    recs = prof.records
    if kind == "G":
        subset = tuple(prof.indices() if subset is None else subset)
        if not subset:
            return ClassMoments(0.0, 0.0, 0.0, mode)
        values = [recs[t].grad_sq for t in subset]
    elif kind == "D":
        subset = tuple(prof.suboptimal() if subset is None else subset)
        if not subset:
            return ClassMoments(0.0, 0.0, 0.0, mode)
        loss0 = 0.5 * recs[prof.least_optimal_index].resid ** 2
        values = [((0.5 * recs[t].resid ** 2 - loss0) / prof.gap(t) - 1.0) ** 2 for t in subset]
    else:
        raise ValueError(f"unknown class kind {kind!r}")
    sigma_sq = max(float(prof.law.weights @ v) for v in values)  # for G: the grad_second_moment values
    r_n, r_n_se = _expected_max_sqrt(prof.tables.sample(n, trials, seed, mode), values)
    return ClassMoments(sigma_sq=float(sigma_sq), r_n=r_n, r_n_se=r_n_se, mode=mode)


# ---------------------------------------------------------------------------
# Finite-class expected-supremum sandwich
# ---------------------------------------------------------------------------

class SandwichResult(NamedTuple):
    lower: float
    upper: float
    estimate: float
    se: float
    sigma: float
    r_n: float
    r_n_se: float

    def holds(self, slack_mult: float = 3.0) -> bool:
        return (self.lower <= self.estimate + slack_mult * self.se) and (
            self.estimate - slack_mult * self.se <= self.upper
        )


def finite_sup_sandwich(
    atom_values,
    law: DiscreteLaw,
    n: int,
    trials: int = 10_000,
    seed: int = 0,
    mode: str = "mc",
) -> SandwichResult:
    """Two-sided bound on E[max_f ||E_n(f)||^2]^{1/2} for a finite class.

    ``atom_values`` is one per-atom value array per function, shape (m,) or
    (m, k); functions are centered internally by their exact means, and
    ``E_n(f) = sqrt(n) (mean_n f - E f)``.  Returns the closed-form lower and
    upper bounds together with the Monte Carlo value they must sandwich:

        lower = sigma/2 + r_n/(4 sqrt(n))
        upper = c(|F|) sigma + c(|F|)^2 r_n / sqrt(n)
    """
    if law.kind != "discrete":
        raise ValueError("the sandwich check needs a discrete law")
    if len(atom_values) == 0:
        raise ValueError("need at least one function")
    m = law.support_size
    centered = []
    for v in atom_values:
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != m:
            raise ValueError("each function needs one value per atom")
        centered.append(v - law.weights @ v)
    sigma_sq = max(float(law.weights @ np.sum(v**2, axis=1)) for v in centered)
    sigma = math.sqrt(sigma_sq)
    sq_norms = [np.sum(v**2, axis=1) for v in centered]
    r_n, r_n_se = _expected_max_sqrt(count_sample(law, n, trials, seed + 1, mode), sq_norms)

    def batch_max(counts: np.ndarray) -> np.ndarray:
        out = np.full(counts.shape[0], -np.inf)
        for v in centered:
            mean = (counts / n) @ v
            np.maximum(out, n * np.sum(mean**2, axis=1), out=out)
        return out

    est, se = _sqrt_with_se(*count_sample(law, n, trials, seed, mode).mean(batch_max))
    cf = c_factor(len(atom_values))
    return SandwichResult(
        lower=0.5 * sigma + 0.25 * r_n / math.sqrt(n),
        upper=cf * sigma + cf**2 * r_n / math.sqrt(n),
        estimate=est,
        se=se,
        sigma=sigma,
        r_n=r_n,
        r_n_se=r_n_se,
    )


# ---------------------------------------------------------------------------
# Matrix concentration
# ---------------------------------------------------------------------------

def matrix_bernstein_bound(mean_z, v, n: int, d: int | None = None) -> float:
    """Expectation bound for the top eigenvalue of the downward deviation.

    For i.i.d. PSD matrices Z_i with mean M and deviation second moment
    V = E[(M - Z)^2], bounds E[lambda_max(sqrt(n)(M - mean_n Z))] by

        sqrt(2 lambda_max(V) ln(e d)) + lambda_max(M) ln(e d) / (3 sqrt(n)).
    """
    mean_z = np.atleast_2d(np.asarray(mean_z, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if n < 1:
        raise ValueError("n must be at least 1")
    if d is None:
        d = mean_z.shape[0]
    log_ed = 1.0 + math.log(d)
    lam_v = float(np.linalg.eigvalsh(v)[-1])
    lam_m = float(np.linalg.eigvalsh(mean_z)[-1])
    return math.sqrt(2.0 * lam_v * log_ed) + lam_m * log_ed / (3.0 * math.sqrt(n))


# ---------------------------------------------------------------------------
# Covariance-deviation second moment
# ---------------------------------------------------------------------------

def covariance_deviation_lambda_max(prof: PopulationProfile) -> float:
    """max_t lambda_max(E[(psi_t psi_t^T - I)^2]), exact on a discrete law."""
    best = 0.0
    for rec in prof.records.values():
        psi = rec.phi @ rec.whitener
        dev = psi[:, :, None] * psi[:, None, :] - np.eye(psi.shape[1])[None, :, :]
        vmat = np.tensordot(prof.law.weights, dev @ dev, axes=(0, 0))
        best = max(best, float(np.linalg.eigvalsh(vmat)[-1]))
    return best


MC_CHUNK = 65536  # draws per seed stream of covariance_deviation_lambda_max_mc


def covariance_deviation_lambda_max_mc(law, collection, draws: int = 10**6, seed: int = 0) -> float:
    """Monte Carlo variant for generative laws with known feature covariance."""
    best = 0.0
    for entry in collection:
        sigma = law.feature_covariance(entry)
        vals, vecs = np.linalg.eigh(sigma)
        whitener = (vecs / np.sqrt(vals)) @ vecs.T
        d = entry.dim
        acc = np.zeros((d, d))
        done = 0
        chunk_idx = 0
        while done < draws:
            b = min(MC_CHUNK, draws - done)
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence((int(seed), int(chunk_idx), 2)))
            )
            x, _ = law.sample(b, rng)
            psi = entry(x) @ whitener
            outer = psi[:, :, None] * psi[:, None, :] - np.eye(d)[None, :, :]
            acc += np.einsum("aij,ajk->ik", outer, outer)
            done += b
            chunk_idx += 1
        best = max(best, float(np.linalg.eigvalsh(acc / draws)[-1]))
    return best


# ---------------------------------------------------------------------------
# Quadratic-form variance supremum
# ---------------------------------------------------------------------------

# Every start is one row of a batch; the batch stops when no start gained more
# than QUARTIC_TOL * max(1, |F|) in its last step, or after QUARTIC_MAX_ITER steps.
QUARTIC_RESTARTS = 64
QUARTIC_TOL = 1e-8
QUARTIC_MAX_ITER = 2000


def quadratic_form_variance_sup(prof: PopulationProfile, seed: int = 0) -> tuple[float, str]:
    """Maximize F(v) = E[(sum_t <v_t, psi_t(X)>^2 - 1)^2] over the unit sphere.

    On the sphere F(v) = E[(v^T M v)^2] with M = blockdiag_t(psi_t psi_t^T) - I,
    a homogeneous quartic, so the shifted symmetric higher-order power method
    (Kolda & Mayo 2011) raises it at every step without a step size: every
    start moves at once to v <- normalize(grad F(v) / 4 + alpha v).  The
    shift alpha = 3 E[max(max_t | |psi_t|^2 - 1 |, 1)^2] is at least 3 times
    E[||M||^2], which bounds the method's beta, so no start ever loses value;
    and v^T(step) = F(v) + alpha > 0, so the normalization never divides by
    zero.  Starts: every coordinate basis vector (so single-block candidates
    are always probed), then QUARTIC_RESTARTS Gaussian directions seeded by
    ``seed``.  Returns (best value, method tag); the tag records
    non-convergence.  Each step is two products with one pair table, the
    atoms' block-diagonal products psi_ti psi_tj, merged over equal rows.
    """
    weights = prof.law.weights
    psi = [rec.phi @ rec.whitener for rec in prof.records.values()]
    block = np.repeat(np.arange(len(psi)), [p.shape[1] for p in psi])
    total = block.size
    ci, cj = np.nonzero(block[:, None] == block)  # the pairs' stacked coordinates
    scatter = np.eye(total)[ci]  # adds each pair's term to its first coordinate
    stacked = np.hstack(psi)
    pairs, inverse = np.unique(stacked[:, ci] * stacked[:, cj], axis=0, return_inverse=True)
    merged = np.bincount(inverse.ravel(), weights=weights, minlength=pairs.shape[0])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), 3))))
    gauss = rng.standard_normal((QUARTIC_RESTARTS, total))
    v = np.vstack([np.eye(total), gauss / np.linalg.norm(gauss, axis=1, keepdims=True)])
    sq_max = np.max([np.sum(p**2, axis=1) for p in psi], axis=0)
    alpha = 3.0 * float(weights @ np.maximum(np.abs(sq_max - 1.0), 1.0) ** 2)
    coef = pairs @ (v[:, ci] * v[:, cj]).T - 1.0  # (atoms, starts)
    val = merged @ coef**2
    converged = False
    for _ in range(QUARTIC_MAX_ITER):
        grad = (merged[:, None] * coef).T @ pairs  # (starts, pairs)
        step = alpha * v + (grad * v[:, cj]) @ scatter
        v = step / np.linalg.norm(step, axis=1, keepdims=True)
        coef = pairs @ (v[:, ci] * v[:, cj]).T - 1.0
        new_val = merged @ coef**2
        converged = bool(np.all(new_val - val <= QUARTIC_TOL * np.maximum(1.0, np.abs(val))))
        val = new_val
        if converged:
            break
    tag = "estimated:ascent" if converged else "estimated:ascent-maxiter"
    return float(val.max()), tag


# ---------------------------------------------------------------------------
# The explicit set function A(S)
# ---------------------------------------------------------------------------

def explicit_complexity(
    subset,
    prof: PopulationProfile,
    n: int,
    trials: int = 10_000,
    seed: int = 0,
    mode: str = "mc",
) -> TaggedValue:
    """A(S) = c(|S|)^2 (sigma_G(S) + c(|S|) r_n_G(S)/sqrt(n))^2.

    The r_n constituent is a Monte Carlo estimate, of which estimate + 3 SE
    enters the formula.  All subsets evaluated with the same seed share
    their sample paths, which preserves monotonicity of A under inclusion
    exactly, not just in expectation.
    """
    subset = tuple(subset)
    if not subset:
        return TaggedValue(0.0, "exact", None)
    mom = class_moments("G", subset, prof, n, trials=trials, seed=seed, mode=mode)
    cf = c_factor(len(subset))
    val = cf**2 * (math.sqrt(mom.sigma_sq) + cf * mom.r_n_conservative() / math.sqrt(n)) ** 2
    tag = "exact" if mom.mode == "exact" else "estimated"
    return TaggedValue(float(val), tag, None)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

class BoundInputs(NamedTuple):
    """Constituents for a bound report, with their estimation settings."""

    cov_dev_lambda_max: TaggedValue
    quad_form_var_sup: TaggedValue
    gap_class: ClassMoments
    grad_class_full: ClassMoments
    exp_sup_lambda: tuple[float, float]
    exp_sup_delta: tuple[float, float]
    trials: int
    seed: int
    mode: str = "mc"


def compute_bound_inputs(
    prof: PopulationProfile,
    n: int,
    trials: int = 10_000,
    seed: int = 0,
    mode: str = "mc",
) -> BoundInputs:
    lam_v = TaggedValue(covariance_deviation_lambda_max(prof), "exact", None)
    l_val, l_tag = quadratic_form_variance_sup(prof, seed=seed)
    gap = class_moments("D", None, prof, n, trials=trials, seed=seed, mode=mode)
    grad = class_moments("G", None, prof, n, trials=trials, seed=seed, mode=mode)
    sup_lam = expected_sup("lambda", None, n, prof, trials=trials, seed=seed, mode=mode)
    sup_del = expected_sup("delta", None, n, prof, trials=trials, seed=seed, mode=mode)
    return BoundInputs(
        cov_dev_lambda_max=lam_v,
        quad_form_var_sup=TaggedValue(l_val, l_tag, None),
        gap_class=gap,
        grad_class_full=grad,
        exp_sup_lambda=sup_lam,
        exp_sup_delta=sup_del,
        trials=trials,
        seed=seed,
        mode=mode,
    )


class BoundReport(NamedTuple):
    """Every closed-form constant, threshold, and excess-risk bound."""

    n: int
    delta: float
    k: int
    cov_dev_lambda_max: TaggedValue
    quad_form_var_sup: TaggedValue
    sigma_sq_gap_class: TaggedValue
    r_n_gap_class: TaggedValue
    sigma_grad_class: TaggedValue
    r_n_grad_class: TaggedValue
    exp_sup_lambda: TaggedValue
    exp_sup_delta: TaggedValue
    a_values: dict
    single_class_threshold: TaggedValue
    explicit_threshold: TaggedValue
    expected_sup_threshold: TaggedValue
    single_class_excess_bound: TaggedValue
    explicit_excess_bound: TaggedValue
    expected_sup_excess_bound: TaggedValue
    optimal_set_expected_sup_bound: TaggedValue
    grad_second_moment_best: TaggedValue
    grad_cov_lambda_max_best: TaggedValue
    explicit_sets: tuple
    expected_sup_sets: tuple
    notes: tuple

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "delta": self.delta, "k": self.k}
        for name, value in zip(self._fields, self):
            if isinstance(value, TaggedValue):
                out[name] = value.to_json()
        out["a_values"] = {k: v.to_json() for k, v in self.a_values.items()}
        out["explicit_sets"] = [list(map(str, s)) for s in self.explicit_sets]
        out["expected_sup_sets"] = [list(map(str, s)) for s in self.expected_sup_sets]
        out["notes"] = list(self.notes)
        return out


def subset_key(subset) -> str:
    return "{" + ",".join(str(t) for t in subset) + "}"


def single_class_threshold_value(lam_v: float, l_val: float, d: int, delta: float) -> float:
    """(512 lambda_max(V) + 6) ln(e d) + (128 L + 11) ln(2/delta)."""
    return (512.0 * lam_v + 6.0) * (1.0 + math.log(d)) + (128.0 * l_val + 11.0) * math.log(2.0 / delta)


def explicit_threshold_value(
    lam_v: float,
    l_val: float,
    d: int,
    size_t: int,
    delta: float,
    gap: ClassMoments,
) -> float:
    return (
        (512.0 * lam_v + 6.0) * (1.0 + math.log(d * size_t))
        + (128.0 * l_val + 11.0) * math.log(6.0 / delta)
        + 24.0 / delta * c_factor(size_t) * gap.sigma_sq
        + 10.0 / math.sqrt(delta) * c_factor(size_t) ** 2 * gap.r_n_conservative()
    )


def resolve_explicit_threshold(
    prof: PopulationProfile,
    delta: float,
    trials: int = 4000,
    seed: int = 0,
    rounds: int = 8,
) -> int:
    """Smallest integer n with n >= explicit threshold evaluated at n.

    The threshold's r_n constituent depends on the sample size itself (it is
    an expected maximum over the n draws), so the fixed point is found by
    repeated substitution; r_n grows slower than sqrt(n), which makes the
    iteration contract.  If ``rounds`` substitutions do not reach it, the last
    iterate is returned with a RuntimeWarning naming the last two iterates.
    """
    coll = prof.collection
    lam_v = covariance_deviation_lambda_max(prof)
    l_val, _ = quadratic_form_variance_sup(prof, seed=seed)

    def step(n):
        gap = class_moments("D", None, prof, n, trials=trials, seed=seed)
        return int(math.ceil(explicit_threshold_value(lam_v, l_val, coll.max_dim, len(coll), delta, gap)))

    return _fixed_point(step, rounds, 200, "explicit threshold")


def _fixed_point(step, rounds: int, tol_div: int, name: str) -> int:
    """Substitute n <- step(n) from n = 1000 until n moves by at most
    ``max(2, n // tol_div)``, and return the larger of the last two iterates;
    after ``rounds`` substitutions, the last one with a RuntimeWarning."""
    prev = n = 1000
    for _ in range(rounds):
        n_new = step(n)
        if abs(n_new - n) <= max(2, n // tol_div):
            return max(n, n_new)
        prev, n = n, n_new
    warnings.warn(
        f"{name} fixed point not reached in {rounds} rounds (last iterates {prev} and {n})",
        RuntimeWarning,
        stacklevel=3,
    )
    return n


def thresholds_and_bounds(
    prof: PopulationProfile,
    inputs: BoundInputs,
    n: int,
    delta: float,
    k: int = 1,
) -> BoundReport:
    """Assemble the full report at sample size n and confidence delta.

    Raises :class:`IncompleteReportError` naming the first field whose
    constituent is missing.
    """
    from . import localization  # late import: localization consumes A(S)

    for fname in ("cov_dev_lambda_max", "quad_form_var_sup", "gap_class", "grad_class_full"):
        if getattr(inputs, fname, None) is None:
            raise IncompleteReportError(fname)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be at least 1")
    coll = prof.collection
    d_max = coll.max_dim
    size_t = len(coll)
    lam_v = inputs.cov_dev_lambda_max.value
    l_val = inputs.quad_form_var_sup.value
    t0 = prof.least_optimal_index
    gsm_best = prof.grad_second_moment(t0)
    wh = prof.whitener(t0)
    grad_cov_lam = float(np.linalg.eigvalsh(wh @ prof.g_cross(t0, t0) @ wh)[-1])

    thr_single = single_class_threshold_value(lam_v, l_val, d_max, delta)
    gap = inputs.gap_class
    thr_explicit = explicit_threshold_value(lam_v, l_val, d_max, size_t, delta, gap)
    if inputs.exp_sup_lambda is None or inputs.exp_sup_delta is None:
        raise IncompleteReportError("exp_sup_lambda")
    # expected suprema of centered processes may be estimated slightly below
    # zero; flooring at zero is the conservative direction for a threshold
    sl, sl_se = inputs.exp_sup_lambda
    sd, sd_se = inputs.exp_sup_delta
    sl = max(sl, 0.0)
    sd = max(sd, 0.0)
    thr_sup = (
        64.0 * (sl + 3.0 * sl_se)
        + (128.0 * l_val + 11.0) * math.log(6.0 / delta)
        + 6.0 / delta**2 * (sd + 3.0 * sd_se)
    )

    explicit_cx = localization.ClosedFormComplexity(
        prof, n, trials=inputs.trials, seed=inputs.seed, mode=inputs.mode
    )
    sup_cx = localization.ExpectedSupComplexity(
        prof, n, trials=inputs.trials, seed=inputs.seed, mode=inputs.mode
    )
    trace_explicit = localization.iterate(n, delta, k, prof, explicit_cx)
    trace_sup = localization.iterate(n, delta, k, prof, sup_cx)
    a_final = explicit_cx.value(trace_explicit.sets[-1])
    sup_final = sup_cx.value(trace_sup.sets[-1])
    a_values = {subset_key(s): explicit_cx.value(s) for s in trace_explicit.sets}
    a_values[subset_key(coll.indices())] = explicit_cx.value(coll.indices())

    estimated = "estimated"
    notes = (
        "the ln(e*d*|T|) factor treats the per-map whitened covariances as "
        "independent blocks; for strongly overlapping coordinate subsets it "
        "is conservative and no sharper computable variant is provided",
    )
    if prof.mixed_dims:
        notes = notes + (
            "collection mixes feature dimensions; per-index dimensions are "
            "used everywhere and d in the log factors is the maximum",
        )
    return BoundReport(
        n=n,
        delta=delta,
        k=k,
        cov_dev_lambda_max=inputs.cov_dev_lambda_max,
        quad_form_var_sup=inputs.quad_form_var_sup,
        sigma_sq_gap_class=TaggedValue(gap.sigma_sq, "exact", None),
        r_n_gap_class=TaggedValue(gap.r_n, "exact" if gap.mode == "exact" else estimated, gap.r_n_se),
        sigma_grad_class=TaggedValue(inputs.grad_class_full.sigma_sq, "exact", None),
        r_n_grad_class=TaggedValue(
            inputs.grad_class_full.r_n,
            "exact" if inputs.grad_class_full.mode == "exact" else estimated,
            inputs.grad_class_full.r_n_se,
        ),
        exp_sup_lambda=TaggedValue(sl, estimated, sl_se),
        exp_sup_delta=TaggedValue(sd, estimated, sd_se),
        a_values=a_values,
        single_class_threshold=TaggedValue(thr_single, inputs.quad_form_var_sup.tag, None),
        explicit_threshold=TaggedValue(thr_explicit, estimated, None),
        expected_sup_threshold=TaggedValue(thr_sup, estimated, None),
        single_class_excess_bound=TaggedValue(4.0 / (n * delta) * gsm_best, "exact", None),
        explicit_excess_bound=TaggedValue(24.0 / (n * delta) * a_final.value, a_final.tag, None),
        expected_sup_excess_bound=TaggedValue(24.0 / (n * delta) * sup_final.value, sup_final.tag, None),
        optimal_set_expected_sup_bound=TaggedValue(
            80.0 * (1.0 + math.log(len(prof.t_star))) * max(prof.grad_second_moment(s) for s in prof.t_star),
            "exact",
            None,
        ),
        grad_second_moment_best=TaggedValue(gsm_best, "exact", None),
        grad_cov_lambda_max_best=TaggedValue(grad_cov_lam, "exact", None),
        explicit_sets=trace_explicit.sets,
        expected_sup_sets=trace_sup.sets,
        notes=notes,
    )
