"""Closed-form constants, finite-class moment bounds, and risk thresholds.

Naming of the main quantities (all scalars unless noted):

* ``c_factor(m) = 5 * sqrt(1 + ln m)`` — the log-cardinality factor entering
  every finite-class bound.
* covariance-deviation matrix per map, ``V(t) = E[(psi psi^T - I)^2]`` with
  psi the whitened feature; the report carries ``max_t lambda_max(V(t))``.
* quadratic-form variance supremum — the worst variance of a unit-norm
  quadratic form of the stacked whitened features,
  ``sup E[(sum_t <v_t, psi_t(X)>^2 - 1)^2]`` over ``sum_t ||v_t||^2 = 1``.
  A nonconvex quartic whose sup is the largest of its single-block sups
  (Minkowski); each block of dimension <= 2 has a closed form, and only
  blocks of dimension >= 3 run a batched shifted power iteration from every
  basis vector and 64 seeded random starts (the tests hold it against the
  whole-vector ascent, a dense angular grid in total dimension <= 3 and its
  value 1 on the sign hypercube).
* class moments ``(sigma^2, r_n)`` for the two finite function classes the
  bounds consume: the whitened-gradient class over an index subset, and the
  normalized loss-gap class over the suboptimal indices (mean one, so the
  centered second moment is used).  Both are exact on a discrete law: r_n is
  the expected maximum of n i.i.d. draws of one per-atom envelope, a closed
  form in the atoms' weights.
* the set function ``A(S) = c(|S|)^2 (sigma_G(S) + c(|S|) r_n_G(S)/sqrt(n))^2``.

Every estimated quantity carries a standard error, and every threshold that
consumes an estimate uses estimate + 3 SE (the conservative direction).
Reports never mix exact and estimated values silently: each field is tagged.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .model import DESIGN_MC_TAG, QUARTIC_TAG, DiscreteLaw, stream
from .population import PopulationProfile, profile
from .processes import EXPECTED_SUP_MIN_TRIALS, _distinct_rows, chunk_mean, expected_sup, iter_count_batches

if TYPE_CHECKING:
    from .localization import ClosedFormComplexity, ExpectedSupComplexity

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
    "single_class_excess_bound",
    "explicit_threshold_value",
    "resolve_explicit_threshold",
    "explicit_threshold_fixed_point",
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
    the root of the expected max over samples and functions of the centered
    square, both exact."""

    sigma_sq: float
    r_n: float


def _sqrt_with_se(mean_sq: float, se_sq: float) -> tuple[float, float]:
    if mean_sq <= 0.0:
        return 0.0, 0.0
    root = math.sqrt(mean_sq)
    return root, se_sq / (2.0 * root)


def _expected_max_sqrt(weights: np.ndarray, values: list[np.ndarray], n: int) -> float:
    """E[max over n i.i.d. atoms and the functions of a per-atom value]^{1/2}, exactly.

    ``values`` hold one value per atom of the law with ``weights``.  The max
    over functions is one per-atom envelope W, and the max of n i.i.d.
    draws has CDF F^n (David & Nagaraja, Order Statistics, 2003, 2.1): with
    the atoms ranked by W in descending order (a stable sort) and T_k the
    mass ranked below k, E[max] = sum_k W_(k) (T_{k-1}^n - T_k^n).  The tail
    masses are normalized by their total, so T_0 = 1 and the probabilities
    telescope to 1; rounding cannot carry a mean of W outside [min W, max W],
    so the sum is clamped there.
    """
    envelope = np.stack(values, axis=1).max(axis=1)
    order = np.argsort(-envelope, kind="stable")
    ranked = envelope[order]
    tail = np.cumsum(weights[order][::-1])[::-1]  # mass ranked at or below k
    tail = np.append(tail, 0.0) / tail[0]
    mean = float(ranked @ (tail[:-1] ** n - tail[1:] ** n))
    return math.sqrt(min(max(mean, ranked[-1]), ranked[0]))


def class_moments(kind: str, subset, prof: PopulationProfile, n: int) -> ClassMoments:
    """Moments of the gradient class over a subset, or of the loss-gap class.

    ``kind="G"``: functions are the whitened gradients at the minimizers,
    mean zero by first-order optimality, one per index in ``subset``.
    ``kind="D"``: functions are the loss differences against the least
    optimal index, normalized by their population gap (mean one), one per
    suboptimal index; requires a nonempty suboptimal set unless empty-class
    output (0, 0) is acceptable.  Both moments are exact sums over the law's
    atoms; r_n is the closed form of :func:`_expected_max_sqrt`.
    """
    recs = prof.records
    if kind == "G":
        subset = tuple(prof.indices() if subset is None else subset)
        if not subset:
            return ClassMoments(0.0, 0.0)
        values = [recs[t].grad_sq for t in subset]
    elif kind == "D":
        subset = tuple(prof.suboptimal() if subset is None else subset)
        if not subset:
            return ClassMoments(0.0, 0.0)
        loss0 = 0.5 * recs[prof.least_optimal_index].resid ** 2
        values = [((0.5 * recs[t].resid ** 2 - loss0) / prof.gap(t) - 1.0) ** 2 for t in subset]
    else:
        raise ValueError(f"unknown class kind {kind!r}")
    weights = prof.law.weights
    sigma_sq = max(float(weights @ v) for v in values)  # for G: the grad_second_moment values
    return ClassMoments(sigma_sq=float(sigma_sq), r_n=_expected_max_sqrt(weights, values, n))


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
) -> SandwichResult:
    """Two-sided bound on E[max_f ||E_n(f)||^2]^{1/2} for a finite class.

    ``atom_values`` is one per-atom value array per function, shape (m,) or
    (m, k); functions are centered internally by their exact means, and
    ``E_n(f) = sqrt(n) (mean_n f - E f)``.  Returns the closed-form lower and
    upper bounds, whose r_n is exact, together with the Monte Carlo value
    they must sandwich:

        lower = sigma/2 + r_n/(4 sqrt(n))
        upper = c(|F|) sigma + c(|F|)^2 r_n / sqrt(n)
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if trials < EXPECTED_SUP_MIN_TRIALS:
        raise ValueError(f"the Monte Carlo estimate needs at least {EXPECTED_SUP_MIN_TRIALS} trials")
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
    r_n = _expected_max_sqrt(law.weights, sq_norms, n)

    def batch_max(counts: np.ndarray) -> np.ndarray:
        out = np.full(counts.shape[0], -np.inf)
        for v in centered:
            mean = (counts / n) @ v
            np.maximum(out, n * np.sum(mean**2, axis=1), out=out)
        return out

    est, se = _sqrt_with_se(*chunk_mean(iter_count_batches(law, n, trials, seed), batch_max))
    cf = c_factor(len(atom_values))
    return SandwichResult(
        lower=0.5 * sigma + 0.25 * r_n / math.sqrt(n),
        upper=cf * sigma + cf**2 * r_n / math.sqrt(n),
        estimate=est,
        se=se,
        sigma=sigma,
        r_n=r_n,
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

# the per-map passes below stack 1/MAP_BLOCK as many maps as a model stack:
# at most STACK_ENTRIES / MAP_BLOCK per-atom feature entries at a time
MAP_BLOCK = 16


def covariance_deviation_lambda_max(prof: PopulationProfile) -> float:
    """max_t lambda_max(E[(psi_t psi_t^T - I)^2]), exact on a discrete law:
    each stack of maps of one dimension (:meth:`FeatureCollection.stacks`,
    on ``MAP_BLOCK`` times the atoms, so its (k, m, d, d) products stay
    small) forms its matrices with the products of a per-map loop and takes
    one batched ``eigvalsh``."""
    weights = prof.law.weights
    best = 0.0
    for d, ids in prof.collection.stacks(MAP_BLOCK * weights.size):
        recs = [prof.records[t] for t in ids]
        psi = np.stack([r.phi for r in recs]) @ np.stack([r.whitener for r in recs])
        dev = psi[..., :, None] * psi[..., None, :] - np.eye(d)
        vmat = weights @ (dev @ dev).reshape(len(ids), weights.size, d * d)
        best = max(best, float(np.linalg.eigvalsh(vmat.reshape(-1, d, d))[:, -1].max()))
    return best


MC_CHUNK = 65536  # draws per seed stream of covariance_deviation_lambda_max_mc


def covariance_deviation_lambda_max_mc(law, collection, draws: int = 10**6, seed: int = 0) -> float:
    """Monte Carlo variant for a Gaussian design, whose maps' whiteners are
    those of its profile (coordinate maps only)."""
    if draws < 1:
        raise ValueError("draws must be at least 1")
    prof = profile(law, collection)
    best = 0.0
    for entry in collection:
        whitener = prof.whitener(entry.index)
        d = entry.dim
        acc = np.zeros((d, d))
        for chunk_idx, lo in enumerate(range(0, draws, MC_CHUNK)):
            x, _ = law.sample(min(MC_CHUNK, draws - lo), stream(seed, chunk_idx, DESIGN_MC_TAG))
            psi = entry(x) @ whitener
            outer = psi[:, :, None] * psi[:, None, :] - np.eye(d)[None, :, :]
            acc += np.einsum("aij,ajk->ik", outer, outer)
        best = max(best, float(np.linalg.eigvalsh(acc / draws)[-1]))
    return best


# ---------------------------------------------------------------------------
# Quadratic-form variance supremum
# ---------------------------------------------------------------------------

# The ascent that blocks of dimension >= 3 keep: every start is one row of a
# batch; the batch stops when no start gained more than QUARTIC_TOL * max(1, |F|)
# in its last step, or after QUARTIC_MAX_ITER steps.
QUARTIC_RESTARTS = 64
QUARTIC_TOL = 1e-8
QUARTIC_MAX_ITER = 2000


def quadratic_form_variance_sup(prof: PopulationProfile, seed: int = 0) -> tuple[float, str]:
    """L = sup F(v), F(v) = E[(sum_t <v_t, psi_t(X)>^2 - 1)^2] over the unit sphere.

    L is the largest single-block sup.  Write v_t = sqrt(a_t) u_t with u_t a
    unit vector of block t, so sum_t a_t = 1, and q_t = <u_t, psi_t>^2 - 1;
    since sum_t a_t = 1, F(v) = E[(sum_t a_t q_t)^2].  By Minkowski,
    F(v)^{1/2} <= sum_t a_t E[q_t^2]^{1/2} <= max_t L_t^{1/2}, with L_t the
    sup of E[q_t^2] over block t's unit sphere, and a v on one block attains
    L_t.  So L = max_t L_t, each computed on its own block:

    * d_t = 1: L_t = E[(psi^2 - 1)^2] (= E psi^4 - 1, as E psi^2 = 1).
    * d_t = 2: with u = (cos theta, sin theta) and phi = 2 theta,
      q = alpha + beta cos phi + gamma sin phi, where alpha = |psi|^2/2 - 1,
      beta = (psi_1^2 - psi_2^2)/2 and gamma = psi_1 psi_2.  With G the 3x3
      moment matrix of (alpha, beta, gamma) and c = (1, cos phi, sin phi),
      E[q^2] = c^T G c, a trigonometric polynomial of degree 2, evaluated at
      every critical angle (:func:`_pair_block_sups`).  Exact.
    * d_t >= 3: the shifted power ascent (:func:`_ascent_sup`) over those
      blocks' coordinates, seeded by ``seed``; it keeps no other block.

    Returns (L, tag): ``"exact"`` when every d_t <= 2, else the ascent's tag.
    """
    weights, recs = prof.law.weights, prof.records.values()
    sups, tag = [], "exact"
    lines = [(r.phi @ r.whitener)[:, 0] for r in recs if r.dim == 1]
    if lines:
        sups.append(weights @ (np.stack(lines, axis=1) ** 2 - 1.0) ** 2)
    for d, ids in prof.collection.stacks(MAP_BLOCK * weights.size):
        if d == 2:  # the (k, m, 3) features of one stack at a time
            psi = np.stack([prof.records[t].phi @ prof.records[t].whitener for t in ids])
            sups.append(_pair_block_sups(weights, psi))
    wide = [r.phi @ r.whitener for r in recs if r.dim >= 3]
    if wide:
        val, tag = _ascent_sup(weights, wide, seed)
        sups.append([val])
    return float(np.concatenate(sups).max()), tag


def _pair_block_sups(weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """max over phi of c^T G c for each block of ``psi`` (B, m, 2), exactly.

    Expanded, c^T G c = a0 + a1 cos phi + b1 sin phi + a2 cos 2phi + b2 sin 2phi
    with a1 = 2 G01, b1 = 2 G02, a2 = (G11 - G22)/2, b2 = G12, and its
    derivative is Re(c1 z + 2 c2 z^2) at z = e^{i phi}, c_k = b_k + i a_k.
    On |z| = 1, Re(w) = (w + conj(w))/2 with conj(z) = 1/z, so times 2 z^2
    the critical angles are those of the unit-modulus roots of
    2 c2 z^4 + c1 z^3 + conj(c1) z + 2 conj(c2), found for every block at
    once as the eigenvalues of its companion matrix.  The polynomial is
    evaluated at the angle of every root and of a1 + i b1, the first
    harmonic's peak: extra angles cannot raise the max above the sup, and
    when c2 = 0 (the quartic drops degree; G11 = G22 and G12 = 0) the
    polynomial is a0 plus its first harmonic, which peaks there.
    """
    sq = psi**2
    feats = np.stack([0.5 * (sq[..., 0] + sq[..., 1]) - 1.0, 0.5 * (sq[..., 0] - sq[..., 1]),
                      psi[..., 0] * psi[..., 1]], axis=-1)
    gram = np.einsum("a,bai,baj->bij", weights, feats, feats)
    c1 = 2.0 * gram[:, 0, 2] + 2.0j * gram[:, 0, 1]
    lead = 2.0 * gram[:, 1, 2] + 1.0j * (gram[:, 1, 1] - gram[:, 2, 2])  # 2 c2
    lead = np.where(lead != 0.0, lead, 1.0)  # c2 = 0: any finite roots are spare angles
    companion = np.zeros((len(gram), 4, 4), dtype=complex)
    companion[:, 0, 0] = -c1 / lead
    companion[:, 0, 2] = -np.conj(c1) / lead
    companion[:, 0, 3] = -np.conj(lead) / lead
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    peak = 2.0 * gram[:, 0, 1] + 2.0j * gram[:, 0, 2]
    phi = np.angle(np.concatenate([np.linalg.eigvals(companion), peak[:, None]], axis=1))
    c = np.stack([np.ones(phi.shape), np.cos(phi), np.sin(phi)], axis=-1)  # (B, 5, 3)
    return np.einsum("bki,bij,bkj->bk", c, gram, c).max(axis=1)


def _ascent_sup(weights: np.ndarray, psi: list[np.ndarray], seed: int) -> tuple[float, str]:
    """Maximize F over the stacked coordinates of the blocks ``psi``.

    On the sphere F(v) = E[(v^T M v)^2] with M = blockdiag_t(psi_t psi_t^T) - I,
    a homogeneous quartic, so the shifted symmetric higher-order power method
    (Kolda & Mayo 2011) raises it at every step without a step size: every
    start moves at once to v <- normalize(grad F(v) / 4 + alpha v).  The
    shift alpha = 3 E[max(max_t | |psi_t|^2 - 1 |, 1)^2] is at least 3 times
    E[||M||^2], which bounds the method's beta, so no start ever loses value;
    and v^T(step) = F(v) + alpha > 0, so the normalization never divides by
    zero.  Starts: every coordinate basis vector, then QUARTIC_RESTARTS
    Gaussian directions seeded by ``seed``.  Returns (best value, method
    tag); the tag records non-convergence.  Each step is two products with
    one pair table, the atoms' block-diagonal products psi_ti psi_tj, merged
    over equal rows.
    """
    block = np.repeat(np.arange(len(psi)), [p.shape[1] for p in psi])
    total = block.size
    ci, cj = np.nonzero(block[:, None] == block)  # the pairs' stacked coordinates
    scatter = np.eye(total)[ci]  # adds each pair's term to its first coordinate
    stacked = np.hstack(psi)
    products = np.ascontiguousarray(stacked[:, ci] * stacked[:, cj])
    rows, labels = _distinct_rows(products)
    pairs = products[rows]
    merged = np.bincount(labels, weights=weights, minlength=rows.size)
    gauss = stream(seed, QUARTIC_TAG).standard_normal((QUARTIC_RESTARTS, total))
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

def explicit_complexity(subset, prof: PopulationProfile, n: int) -> TaggedValue:
    """A(S) = c(|S|)^2 (sigma_G(S) + c(|S|) r_n_G(S)/sqrt(n))^2, exact.

    Both constituents are exact (:func:`class_moments`), and the envelope of
    a superset is pointwise at least that of the subset, so A is monotone
    under inclusion.
    """
    subset = tuple(subset)
    if not subset:
        return TaggedValue(0.0, "exact", None)
    mom = class_moments("G", subset, prof, n)
    cf = c_factor(len(subset))
    val = cf**2 * (math.sqrt(mom.sigma_sq) + cf * mom.r_n / math.sqrt(n)) ** 2
    return TaggedValue(float(val), "exact", None)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

class BoundInputs(NamedTuple):
    """The delta-free constituents of bound reports at one sample size n,
    with the two complexity sources the localized bounds iterate (A(S) and
    the expected gradient-norm supremum), built once: every report from these
    inputs shares their cache, so each subset's A(S) is evaluated once."""

    cov_dev_lambda_max: TaggedValue
    quad_form_var_sup: TaggedValue
    gap_class: ClassMoments
    grad_class_full: ClassMoments
    exp_sup_lambda: tuple[float, float]
    exp_sup_delta: tuple[float, float]
    explicit_cx: ClosedFormComplexity
    expected_sup_cx: ExpectedSupComplexity


def compute_bound_inputs(
    prof: PopulationProfile,
    n: int,
    trials: int = 10_000,
    seed: int = 0,
) -> BoundInputs:
    from .localization import ClosedFormComplexity, ExpectedSupComplexity  # late import: localization consumes A(S)

    lam_v = TaggedValue(covariance_deviation_lambda_max(prof), "exact", None)
    l_val, l_tag = quadratic_form_variance_sup(prof, seed=seed)
    gap = class_moments("D", None, prof, n)
    sup_lam = expected_sup("lambda", None, n, prof, trials=trials, seed=seed)
    sup_del = expected_sup("delta", None, n, prof, trials=trials, seed=seed)
    grad = class_moments("G", None, prof, n)  # after the value table: its per-atom grad_sq is kept
    return BoundInputs(
        cov_dev_lambda_max=lam_v,
        quad_form_var_sup=TaggedValue(l_val, l_tag, None),
        gap_class=gap,
        grad_class_full=grad,
        exp_sup_lambda=sup_lam,
        exp_sup_delta=sup_del,
        explicit_cx=ClosedFormComplexity(prof, n),
        expected_sup_cx=ExpectedSupComplexity(prof, n, trials=trials, seed=seed),
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


def single_class_excess_bound(prof: PopulationProfile, n: int, delta: float) -> float:
    """4 (n delta)^{-1} E||g(t0)||^2, with t0 the least optimal index."""
    return 4.0 / (n * delta) * prof.grad_second_moment(prof.least_optimal_index)


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
        + 10.0 / math.sqrt(delta) * c_factor(size_t) ** 2 * gap.r_n
    )


def resolve_explicit_threshold(prof: PopulationProfile, delta: float, seed: int = 0, rounds: int = 8) -> int:
    """Smallest integer n with n >= explicit threshold evaluated at n.

    The threshold's r_n constituent depends on the sample size itself (it is
    an expected maximum over the n draws, exact), so the fixed point is found
    by repeated substitution; r_n grows slower than sqrt(n), which makes the
    iteration contract.  ``seed`` seeds the quadratic-form variance sup's
    ascent, which only blocks of dimension >= 3 run.  If
    ``rounds`` substitutions do not reach it, the last iterate is returned
    with a RuntimeWarning naming the last two iterates.
    """
    l_val, _ = quadratic_form_variance_sup(prof, seed=seed)
    return explicit_threshold_fixed_point(prof, delta, covariance_deviation_lambda_max(prof), l_val, rounds)


def explicit_threshold_fixed_point(prof: PopulationProfile, delta: float, lam_v: float, l_val: float,
                                   rounds: int = 8) -> int:
    """:func:`resolve_explicit_threshold` from lambda_max(V) ``lam_v`` and L
    ``l_val``, for a caller that holds them already."""
    coll = prof.collection

    def step(n):
        gap = class_moments("D", None, prof, n)
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

    ``inputs`` come from :func:`compute_bound_inputs` at this n.  The two
    localized excess bounds are the ``final_bound`` of the k-step trace of
    each of the inputs' complexity sources, with its final complexity's tag.
    Raises :class:`IncompleteReportError` naming the first missing field.
    """
    from .localization import iterate  # late import: localization consumes A(S)

    for fname in ("cov_dev_lambda_max", "quad_form_var_sup", "gap_class", "grad_class_full",
                  "exp_sup_lambda", "exp_sup_delta"):
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

    trace_explicit = iterate(n, delta, k, prof, inputs.explicit_cx)
    trace_sup = iterate(n, delta, k, prof, inputs.expected_sup_cx)
    a_values = {subset_key(s): inputs.explicit_cx.value(s) for s in trace_explicit.sets}

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
        r_n_gap_class=TaggedValue(gap.r_n, "exact", None),
        sigma_grad_class=TaggedValue(inputs.grad_class_full.sigma_sq, "exact", None),
        r_n_grad_class=TaggedValue(inputs.grad_class_full.r_n, "exact", None),
        exp_sup_lambda=TaggedValue(sl, estimated, sl_se),
        exp_sup_delta=TaggedValue(sd, estimated, sd_se),
        a_values=a_values,
        single_class_threshold=TaggedValue(thr_single, inputs.quad_form_var_sup.tag, None),
        explicit_threshold=TaggedValue(thr_explicit, inputs.quad_form_var_sup.tag, None),
        expected_sup_threshold=TaggedValue(thr_sup, estimated, None),
        single_class_excess_bound=TaggedValue(single_class_excess_bound(prof, n, delta), "exact", None),
        explicit_excess_bound=TaggedValue(trace_explicit.final_bound, trace_explicit.final_complexity.tag, None),
        expected_sup_excess_bound=TaggedValue(trace_sup.final_bound, trace_sup.final_complexity.tag, None),
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
