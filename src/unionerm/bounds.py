"""Closed-form constants, finite-class moment bounds, and risk thresholds.

Naming of the main quantities (all scalars unless noted):

* ``c_factor(m) = 5 * sqrt(1 + ln m)`` — the log-cardinality factor entering
  every finite-class bound.
* covariance-deviation matrix per map, ``V(t) = E[(psi psi^T - I)^2]`` with
  psi the whitened feature; the report carries ``max_t lambda_max(V(t))``.
* quadratic-form variance supremum — the worst variance of a unit-norm
  quadratic form of the stacked whitened features,
  ``sup E[(sum_t <v_t, psi_t(X)>^2 - 1)^2]`` over ``sum_t ||v_t||^2 = 1``.
  A nonconvex quartic; maximized by projected gradient ascent with restarts,
  with a dense angular grid as the oracle in total dimension <= 3.
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
from dataclasses import dataclass

import numpy as np

from .model import DiscreteLaw, FeatureCollection
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
    "single_block_variance_max",
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


@dataclass(frozen=True)
class TaggedValue:
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

@dataclass(frozen=True)
class ClassMoments:
    """(sigma^2, r_n) for a finite class: worst centered second moment and
    the expected max over samples and functions of the centered square."""

    sigma_sq: float            # exact
    r_n: float                 # estimated unless mode == "exact"
    r_n_se: float
    mode: str

    def r_n_conservative(self, mult: float = 3.0) -> float:
        return self.r_n + mult * self.r_n_se


def _sqrt_with_se(mean_sq: float, se_sq: float) -> tuple[float, float]:
    if mean_sq <= 0.0:
        return 0.0, 0.0
    root = math.sqrt(mean_sq)
    return root, se_sq / (2.0 * root)


def _expected_max_sqrt(sample: CountSample, atom_values: list[np.ndarray]) -> tuple[float, float]:
    """E[max over (sample, function) of a per-atom value]^{1/2} with SE.

    The max over a dataset only depends on which atoms are present, so the
    counts representation is enough.
    """
    table = np.stack(atom_values, axis=1)  # (m, F)
    worst = table.max(axis=1)              # (m,) max over functions per atom
    mean, se = sample.mean(lambda counts: np.where(counts > 0, worst[None, :], -np.inf).max(axis=1))
    return _sqrt_with_se(mean, se)


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
    tables = prof.tables
    if kind == "G":
        subset = tuple(prof.indices() if subset is None else subset)
        if not subset:
            return ClassMoments(0.0, 0.0, 0.0, mode)
        sigma_sq = max(prof.grad_second_moment(t) for t in subset)
        values = [np.sum(tables.grad_w[t] ** 2, axis=1) for t in subset]
    elif kind == "D":
        subset = tuple(prof.suboptimal() if subset is None else subset)
        if not subset:
            return ClassMoments(0.0, 0.0, 0.0, mode)
        w = prof.law.weights
        sigma_sq = max(float(w @ (tables.delta_vals[t] - 1.0) ** 2) for t in subset)
        values = [(tables.delta_vals[t] - 1.0) ** 2 for t in subset]
    else:
        raise ValueError(f"unknown class kind {kind!r}")
    r_n, r_n_se = _expected_max_sqrt(tables.sample(n, trials, seed, mode), values)
    return ClassMoments(sigma_sq=float(sigma_sq), r_n=r_n, r_n_se=r_n_se, mode=mode)


# ---------------------------------------------------------------------------
# Finite-class expected-supremum sandwich
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichResult:
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

def _cov_dev_matrix(psi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    d = psi.shape[1]
    outer = psi[:, :, None] * psi[:, None, :] - np.eye(d)[None, :, :]
    sq = outer @ outer
    return np.tensordot(weights, sq, axes=(0, 0))


def covariance_deviation_lambda_max(law, collection, prof: PopulationProfile) -> float:
    """max_t lambda_max(E[(psi_t psi_t^T - I)^2]), exact on a discrete law."""
    if getattr(law, "kind", None) != "discrete":
        raise ValueError("exact evaluation needs a discrete law; use the MC variant")
    best = 0.0
    for entry in collection:
        psi = entry(law.xs) @ prof.whitener(entry.index)
        vmat = _cov_dev_matrix(psi, law.weights)
        best = max(best, float(np.linalg.eigvalsh(vmat)[-1]))
    return best


def covariance_deviation_lambda_max_mc(
    law, collection, draws: int = 10**6, seed: int = 0, chunk: int = 65536
) -> float:
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
            b = min(chunk, draws - done)
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

def _stacked_rows(law: DiscreteLaw, collection, prof: PopulationProfile) -> np.ndarray:
    """Per-atom block rows: R[a, t] is psi_t(atom a) embedded in block t."""
    dims = collection.dims
    total = sum(dims)
    rows = np.zeros((law.support_size, len(dims), total))
    off = 0
    for j, entry in enumerate(collection):
        psi = entry(law.xs) @ prof.whitener(entry.index)
        rows[:, j, off:off + entry.dim] = psi
        off += entry.dim
    return rows


# The ascent step doubles after each accepted move; without a cap it can grow
# until ``v + step * grad`` overflows.  Steps on well-scaled instances stay far
# below it (2^20 on the d = 8 sign hypercube with |T| = 28).
MAX_ASCENT_STEP = 2.0**40


def _quartic_value(rows: np.ndarray, weights: np.ndarray, v: np.ndarray) -> float:
    q = np.sum((rows @ v) ** 2, axis=1)
    return float(weights @ (q - 1.0) ** 2)


def quadratic_form_variance_sup(
    law,
    collection,
    prof: PopulationProfile,
    restarts: int = 64,
    tol: float = 1e-8,
    seed: int = 0,
    max_iter: int = 2000,
) -> tuple[float, str]:
    """Maximize E[(sum_t <v_t, psi_t(X)>^2 - 1)^2] over the unit sphere.

    Projected gradient ascent with seeded random restarts plus every
    coordinate basis start (so single-block candidates are always probed).
    Returns (best value, method tag); the tag records non-convergence.
    """
    if getattr(law, "kind", None) != "discrete":
        raise ValueError("the quartic objective is exact only for discrete laws")
    rows = _stacked_rows(law, collection, prof)
    weights = law.weights
    total = rows.shape[2]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), 3))))
    starts = [e for e in np.eye(total)]
    starts += [v / np.linalg.norm(v) for v in rng.standard_normal((restarts, total))]
    best = -np.inf
    converged = True
    for v0 in starts:
        v = v0
        val = _quartic_value(rows, weights, v)
        step = 0.5
        ok = False
        for _ in range(max_iter):
            q = rows @ v
            coef = np.sum(q**2, axis=1) - 1.0
            grad = 4.0 * np.einsum("a,atd,at->d", weights * coef, rows, q)
            moved = False
            while step > 1e-14:
                cand = v + step * grad
                cand /= np.linalg.norm(cand)
                cand_val = _quartic_value(rows, weights, cand)
                if cand_val > val:
                    moved = True
                    break
                step *= 0.5
            if not moved:
                ok = True
                break
            if cand_val - val <= tol * max(1.0, abs(val)):
                v, val = cand, cand_val
                ok = True
                break
            v, val = cand, cand_val
            step = min(2.0 * step, MAX_ASCENT_STEP)
        converged = converged and ok
        best = max(best, val)
    tag = "estimated:ascent" if converged else "estimated:ascent-maxiter"
    return float(best), tag


def quadratic_form_variance_grid(
    law,
    collection,
    prof: PopulationProfile,
    resolution: float = 1e-3,
    chunk: int = 200_000,
) -> float:
    """Dense angular-grid oracle for the quartic supremum, total dim <= 3."""
    rows = _stacked_rows(law, collection, prof)
    weights = law.weights
    total = rows.shape[2]
    if total > 3:
        raise ValueError("the grid oracle is limited to total dimension <= 3")
    if total == 1:
        return _quartic_value(rows, weights, np.array([1.0]))
    if total == 2:
        theta = np.arange(0.0, math.pi, resolution)
        grid = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        theta = np.arange(0.0, math.pi + resolution, resolution)
        phi = np.arange(0.0, math.pi, resolution)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        grid = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
    best = -np.inf
    for lo in range(0, grid.shape[0], chunk):
        g = grid[lo:lo + chunk]
        q = np.einsum("atd,vd->vat", rows, g) ** 2
        q = q.sum(axis=2)
        vals = ((q - 1.0) ** 2) @ weights
        best = max(best, float(vals.max()))
    return best


def single_block_variance_max(law, collection, prof: PopulationProfile, seed: int = 0) -> float:
    """Largest quartic value over unit directions supported on one block."""
    best = 0.0
    for entry in collection:
        single = FeatureCollection([entry])
        val, _ = quadratic_form_variance_sup(law, single, prof, restarts=16, seed=seed)
        best = max(best, val)
    return best


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
    conservative: bool = True,
) -> TaggedValue:
    """A(S) = c(|S|)^2 (sigma_G(S) + c(|S|) r_n_G(S)/sqrt(n))^2.

    The r_n constituent is a Monte Carlo estimate; when ``conservative`` the
    estimate + 3 SE enters the formula.  All subsets evaluated with the same
    seed share their sample paths, which preserves monotonicity of A under
    inclusion exactly, not just in expectation.
    """
    subset = tuple(subset)
    if not subset:
        return TaggedValue(0.0, "exact", None)
    mom = class_moments("G", subset, prof, n, trials=trials, seed=seed, mode=mode)
    cf = c_factor(len(subset))
    r = mom.r_n_conservative() if conservative else mom.r_n
    val = cf**2 * (math.sqrt(mom.sigma_sq) + cf * r / math.sqrt(n)) ** 2
    tag = "exact" if mom.mode == "exact" else "estimated"
    return TaggedValue(float(val), tag, None)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundInputs:
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
    restarts: int = 64,
    mode: str = "mc",
) -> BoundInputs:
    law, coll = prof.law, prof.collection
    lam_v = TaggedValue(covariance_deviation_lambda_max(law, coll, prof), "exact", None)
    l_val, l_tag = quadratic_form_variance_sup(law, coll, prof, restarts=restarts, seed=seed)
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


@dataclass(frozen=True)
class BoundReport:
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
        for name in (
            "cov_dev_lambda_max",
            "quad_form_var_sup",
            "sigma_sq_gap_class",
            "r_n_gap_class",
            "sigma_grad_class",
            "r_n_grad_class",
            "exp_sup_lambda",
            "exp_sup_delta",
            "single_class_threshold",
            "explicit_threshold",
            "expected_sup_threshold",
            "single_class_excess_bound",
            "explicit_excess_bound",
            "expected_sup_excess_bound",
            "optimal_set_expected_sup_bound",
            "grad_second_moment_best",
            "grad_cov_lambda_max_best",
        ):
            out[name] = getattr(self, name).to_json()
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
    restarts: int = 64,
    rounds: int = 8,
) -> int:
    """Smallest integer n with n >= explicit threshold evaluated at n.

    The threshold's r_n constituent depends on the sample size itself (it is
    an expected maximum over the n draws), so the fixed point is found by
    repeated substitution; r_n grows slower than sqrt(n), which makes the
    iteration contract.
    """
    law, coll = prof.law, prof.collection
    lam_v = covariance_deviation_lambda_max(law, coll, prof)
    l_val, _ = quadratic_form_variance_sup(law, coll, prof, restarts=restarts, seed=seed)
    n = 1000
    for _ in range(rounds):
        gap = class_moments("D", None, prof, n, trials=trials, seed=seed)
        thr = explicit_threshold_value(lam_v, l_val, coll.max_dim, len(coll), delta, gap)
        n_new = int(math.ceil(thr))
        if abs(n_new - n) <= max(2, n // 200):
            n = max(n, n_new)
            break
        n = n_new
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
