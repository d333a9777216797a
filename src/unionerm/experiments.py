"""Monte Carlo engine: trial batches, limiting-law samplers, and verdicts.

Conventions used throughout:

* every trial is reproducible from (master seed, trial index): trial i is
  draw i % CHUNK of chunk i // CHUNK's stream (``model.CHUNK``), so its
  values do not depend on how many trials run or in what order chunks are
  drawn; a trial is one moment row (on a discrete law, its counts over the
  distinct rows of the profile's moment table times those rows, the one
  dataset representation of :mod:`unionerm.processes`; on a Gaussian
  design, its joint Gram, one Bartlett draw of its chunk's stream, which
  draws ``CHUNK`` trials' variates), from which
  :class:`unionerm.erm.MomentFit` fits every index;
* every reported probability carries a binomial confidence interval;
* quantiles are order statistics with binomial-method confidence intervals;
* trials whose solver hit a singular sample covariance are flagged, never
  dropped, and count as violations in bound-validity sweeps.
"""

from __future__ import annotations

import hashlib
import math
from typing import NamedTuple

import numpy as np

from . import bounds, erm
from .localization import ClosedFormComplexity, choose_k, iterate, k_sweep
from .model import (
    CHUNK,
    DiscreteLaw,
    FeatureCollection,
    GRID_TAG,
    GaussianDesignLaw,
    LIMIT_TAG,
    TRIAL_TAG,
    sample_dataset,  # noqa: F401 -- the benchmark tracer wraps it under this name
    stream,
    subset_collection,
)
from .population import PopulationProfile, excess_risk, profile
from .processes import snapshot as process_snapshot  # noqa: F401 -- the benchmark tracer wraps it under this name
from .bounds import _fixed_point
from .bounds import compute_bound_inputs, thresholds_and_bounds  # noqa: F401 -- the benchmark tracer wraps them under these names

__all__ = [
    "InsufficientTrialsError",
    "TrialBatch",
    "QuantileEstimate",
    "GaussianLimit",
    "run_trials",
    "consistency_curve",
    "sample_gaussian_limit",
    "estimate_quantile",
    "ks_statistic",
    "ks_critical_value",
    "check_quantile_resolution",
    "quantile_sandwich_check",
    "bound_validity_sweep",
    "MasterCheckResult",
    "pathwise_master_check",
    "BssReport",
    "bss_study",
    "binomial_ci",
]


# Level of the KS test of the trials' rescaled excess against the limit law.
KS_ALPHA = 0.05
# K^{-1}(KS_ALPHA), K the Kolmogorov distribution's survival function:
# float(scipy.special.kolmogi(KS_ALPHA)), pinned so the KS verdict needs no scipy.
_KS_SURVIVAL_INVERSE = 1.3580986393225507
# Largest n whose order-statistic interval index is decided without scipy.  Up
# to here scipy's binomial cdf was measured within ~u n log n of 40-digit sums
# (u the unit roundoff), well inside the deferral band of `_binom_ppf`; larger
# n are not checked, so they keep scipy's own rule.
_FAST_PPF_MAX_N = 1_000_000
_EPS = 2.0 ** -53  # u, the unit roundoff of a float64


class InsufficientTrialsError(ValueError):
    """Too few trials for the requested confidence level."""


def binomial_ci(successes: int, trials: int, conf: float = 0.95) -> tuple[float, float]:
    """Clopper-Pearson interval for a binomial proportion."""
    k = int(successes)
    if trials < 1 or not 0 <= k <= trials:
        raise ValueError(f"need at least one trial and successes in [0, trials], got {k} of {trials}")
    _check_conf(conf)
    from scipy.special import betaincinv  # lazy: keeps scipy off the import path

    alpha = 1.0 - conf
    lo = 0.0 if k == 0 else float(betaincinv(k, trials - k + 1, alpha / 2.0))
    hi = 1.0 if k == trials else float(betaincinv(k + 1, trials - k, 1.0 - alpha / 2.0))
    return lo, hi


def _check_conf(conf: float) -> None:
    if not 0.0 < conf < 1.0:
        raise ValueError(f"conf must be in (0, 1), got {conf!r}")


# ---------------------------------------------------------------------------
# Trial batches
# ---------------------------------------------------------------------------

def _law_fingerprint(law) -> bytes:
    h = hashlib.sha256()
    if law.kind == "discrete":
        h.update(b"discrete")
        h.update(law.xs.tobytes())
        h.update(law.ys.tobytes())
        h.update(law.weights.tobytes())
    else:
        h.update(b"gaussian")
        h.update(law.cov.tobytes())
        h.update(law.w_true.tobytes())
        h.update(np.float64(law.noise_std).tobytes())
    return h.digest()


class TrialBatch(NamedTuple):
    """Per-trial outcomes of the solver and the fixed-index benchmark."""

    config_hash: str
    n: int
    master_seed: int
    t_hat: tuple
    n_excess: np.ndarray
    n_excess_oracle: np.ndarray
    singular: np.ndarray
    # present when snapshots were requested (discrete laws only)
    lam_plus: np.ndarray | None = None
    lam_minus: np.ndarray | None = None
    delta_plus: np.ndarray | None = None
    g_sq_hat: np.ndarray | None = None
    gap_hat: np.ndarray | None = None
    est_err_hat: np.ndarray | None = None

    @property
    def trials(self) -> int:
        return len(self.t_hat)

    @property
    def has_snapshots(self) -> bool:
        return self.lam_plus is not None

    def batch_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.config_hash.encode())
        h.update(repr(self.t_hat).encode())
        for arr in (self.n_excess, self.n_excess_oracle, self.singular):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def run_trials(
    law,
    collection: FeatureCollection,
    n: int,
    trials: int,
    master_seed: int,
    prof: PopulationProfile | None = None,
    snapshots: bool = False,
) -> TrialBatch:
    """Solve ERM on `trials` independent datasets of size n.

    Chunk c, trials c CHUNK onwards, draws its datasets from the one stream
    ``model.stream(master_seed, c, TRIAL_TAG)``, so trial i is draw
    i % CHUNK of chunk i // CHUNK, whatever ``trials`` is and in whatever
    order chunks are drawn.  The chunk is one moment row per dataset, from
    which :class:`unionerm.erm.MomentFit` fits every index.  On a discrete
    law the rows are one ``rng.multinomial(n, tables.law.weights, size=b)``
    count draw over the distinct moment rows of ``tables = prof.tables``
    (``prof`` the profile of this ``law`` and ``collection``), which with
    ``snapshots`` also give every process value.  On a Gaussian law
    (coordinate maps only) the row is the joint Gram of z = (x, y), one
    Bartlett draw (L B)(L B)^T / n of Wishart(n, L L^T) / n, L = ``law.joint``
    and B (d + 1) x min(n, d + 1) lower trapezoidal, B_ii^2 ~ chi2(n - i) and
    N(0, 1) below the diagonal: exact at every n.  The chunk draws a whole
    ``CHUNK``'s variates (the normals, then the chi-squares) and keeps the
    first b, so a trial does not depend on its chunk's size.
    Excess risks are exact: the profile's on discrete laws, the design's
    closed form on Gaussian laws.  The benchmark record reuses the solver's
    fit of the a-priori optimal index, which is what refitting it alone
    would produce.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if n < 1:
        raise ValueError("sample size must be at least 1")
    if snapshots and prof is None:
        raise ValueError("snapshots need a population profile")
    if prof is None and law.kind == "discrete":
        raise ValueError("discrete laws need a profile for exact excess risks")
    ids = collection.indices()
    if prof is None:
        risks = np.array([law.approx_risk(e) for e in collection])
        o, r_star = int(erm.select(risks[None])[0]), risks.min()
        y = law.input_dim  # the Gram's last row and column
        fits = erm.MomentFit([e.coords for e in collection], y, lambda a, b: a * (y + 1) + b,
                             [np.zeros(e.dim) for e in collection])

        def moments(rng, b):
            m = min(n, y + 1)  # Bartlett's B: (d + 1) x m lower trapezoidal, B_ii^2 ~ chi2(n - i)
            bart = np.tril(rng.standard_normal((CHUNK, y + 1, m))[:b])
            bart[:, range(m), range(m)] = np.sqrt(rng.chisquare(n - np.arange(m), (CHUNK, m))[:b])
            lb = law.joint @ bart
            grams = lb @ lb.swapaxes(1, 2) / n  # R_n(0) = y^T y / 2n for every index
            return grams.reshape(b, -1), np.repeat(0.5 * grams[:, y, y:], len(ids), axis=1)

        def excess(j, w):
            return law.risk(collection.entries[j], w) - r_star
    else:
        if prof.law is not law or prof.collection is not collection:
            raise ValueError("the profile must be built from this law and collection")
        tables = prof.tables
        fits, o = tables.fits, ids.index(prof.least_optimal_index)

        def moments(rng, b):
            rows = tables.moments(rng.multinomial(n, tables.law.weights, size=b), n)
            return rows, rows[:, tables.loss]

        def excess(j, w):
            return excess_risk(ids[j], w, prof)

    parts = []
    for c, lo in enumerate(range(0, trials, CHUNK)):
        rows, ref_risk = moments(stream(master_seed, c, TRIAL_TAG), min(CHUNK, trials - lo))
        weights, risks, singular = fits.fit(rows, ref_risk)
        pick = erm.select(risks)
        # one evaluation per selected index; the oracle's doubles as t_hat's
        exc_o = excess(o, weights[o])
        exc = exc_o.copy()
        for j in np.flatnonzero(np.bincount(pick)):  # np.unique would load numpy.ma
            if j != o:
                exc[pick == j] = excess(j, weights[j][pick == j])
        part = {"pick": pick, "n_excess": n * exc, "n_excess_oracle": n * exc_o, "singular": singular}
        if snapshots:
            snap = tables.evaluate(rows, n)
            gap_hat = np.array([prof.gap(t) for t in ids])[pick]
            part.update(
                lam_plus=snap.lam_plus_scaled,
                lam_minus=snap.lam_minus_scaled,
                delta_plus=snap.delta_plus_scaled,
                g_sq_hat=snap.g_sq[np.arange(len(pick)), pick],
                gap_hat=gap_hat,
                est_err_hat=exc - gap_hat,
            )
        parts.append(part)

    h = hashlib.sha256()
    h.update(_law_fingerprint(law))
    h.update(repr((n, trials, master_seed, ids, snapshots)).encode())
    batch = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    return TrialBatch(
        config_hash=h.hexdigest(),
        n=n,
        master_seed=master_seed,
        t_hat=tuple(ids[j] for j in batch.pop("pick")),
        **batch,
    )


def _grid_seed(seed: int, idx: int) -> int:
    return int(stream(seed, idx, GRID_TAG).bit_generator.seed_seq.generate_state(1)[0])


def consistency_curve(
    law,
    collection: FeatureCollection,
    n_grid,
    trials: int,
    seed: int,
    prof: PopulationProfile,
) -> list[dict]:
    """P(selected index is suboptimal) along a sample-size grid."""
    star = set(prof.t_star)
    rows = []
    for i, n in enumerate(n_grid):
        batch = run_trials(law, collection, int(n), trials, _grid_seed(seed, i), prof)
        miss = sum(1 for t in batch.t_hat if t not in star)
        lo, hi = binomial_ci(miss, trials)
        rows.append(
            {
                "n": int(n),
                "p_miss": miss / trials,
                "se": math.sqrt(max(miss / trials * (1 - miss / trials), 0.0) / trials),
                "ci_lo": lo,
                "ci_hi": hi,
                "trials": trials,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Limiting Gaussian law over the optimal set
# ---------------------------------------------------------------------------

class GaussianLimit:
    """Joint Gaussian limit of the whitened gradients over the optimal set.

    The block covariance has blocks W(t) G(t, s) W(s) for t, s optimal: a
    congruence of the Gram matrix of the stacked gradients, so it is PSD by
    construction, and eigenvalues that rounding leaves below zero are clipped.
    """

    def __init__(self, prof: PopulationProfile):
        self.prof = prof
        self.t_star = prof.t_star
        dims = [prof.records[t].dim for t in self.t_star]
        self.block_slices = []
        off = 0
        for d in dims:
            self.block_slices.append(slice(off, off + d))
            off += d
        total = off
        cov = np.zeros((total, total))
        for i, t in enumerate(self.t_star):
            for j, s in enumerate(self.t_star):
                block = self.prof.whitener(t) @ prof.g_cross(t, s) @ self.prof.whitener(s)
                cov[self.block_slices[i], self.block_slices[j]] = block
        cov = 0.5 * (cov + cov.T)
        vals, vecs = np.linalg.eigh(cov)
        self.cov = cov
        self._root = vecs * np.sqrt(np.clip(vals, 0.0, None))

    def sample(self, draws: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Draws of (min, max) over the optimal set of the squared block norms."""
        z = stream(seed, LIMIT_TAG).standard_normal((draws, self.cov.shape[0])) @ self._root.T
        norms = np.stack([np.sum(z[:, sl] ** 2, axis=1) for sl in self.block_slices], axis=1)
        return norms.min(axis=1), norms.max(axis=1)


def sample_gaussian_limit(prof: PopulationProfile, draws: int, seed: int):
    return GaussianLimit(prof).sample(draws, seed)


# ---------------------------------------------------------------------------
# Quantiles and distributional checks
# ---------------------------------------------------------------------------

class QuantileEstimate(NamedTuple):
    level: float
    estimate: float
    ci_lo: float
    ci_hi: float


def estimate_quantile(samples: np.ndarray, level: float, conf: float = 0.95) -> QuantileEstimate:
    """Order-statistic quantile with a binomial-method confidence interval."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    _check_conf(conf)
    point = x[min(max(math.ceil(n * level) - 1, 0), n - 1)]
    alpha = 1.0 - conf
    lo_idx = _binom_ppf(alpha / 2.0, n, level)
    hi_idx = _binom_ppf(1.0 - alpha / 2.0, n, level) + 1
    lo_idx = min(max(lo_idx, 1), n)
    hi_idx = min(max(hi_idx, 1), n)
    return QuantileEstimate(level, float(point), float(x[lo_idx - 1]), float(x[hi_idx - 1]))


def _binom_ppf(q: float, n: int, p: float) -> int:
    """Smallest j with P(Binomial(n, p) <= j) >= q, for q and p in (0, 1), as
    scipy's ``binom.ppf`` rule (``ceil(bdtrik)``, stepped down once by ``bdtr``)
    gives it.

    The cdf is summed over a lower tail: that of X, searched for q, when
    q <= 1/2; else that of n - X ~ Binomial(n, 1 - p), searched for 1 - q
    (exact there), where j = n - 1 minus the largest index whose cdf is at most
    1 - q.  From the pmf just past the mean, taken from ``math.lgamma``, the
    terms fall by ratio recurrence and are summed smallest first, deep enough
    that the rest is below 1e-18 of the target.  Where the target lies within
    the error band of a bracketing cdf value, only scipy's rounding decides, and
    scipy's rule is called; see ``_FAST_PPF_MAX_N`` for large n.
    """
    if n > _FAST_PPF_MAX_N or min(p, q) < 1e-280:  # tiny p overflows the odds, tiny q meets subnormal terms
        return _scipy_binom_ppf(q, n, p)
    upper = q > 0.5
    if upper:  # n - X ~ Binomial(n, 1 - p)
        x, log_pf, log_qf, inv_odds = 1.0 - q, math.log1p(-p), math.log(p), p / (1.0 - p)
    else:
        x, log_pf, log_qf, inv_odds = q, math.log(p), math.log1p(-p), (1.0 - p) / p
    mean = n * (1.0 - p if upper else p)
    top = min(n, math.ceil(mean) + 1)  # past the median, so cdf(top) >= 1/2 >= x
    lg_n = math.lgamma(n + 1.0)
    pmf_top = math.exp(lg_n - math.lgamma(top + 1.0) - math.lgamma(n - top + 1.0) + top * log_pf + (n - top) * log_qf)
    xs = x / pmf_top  # the cdf below is in units of pmf(top)
    depth = int(top - mean + math.sqrt(2.0 * n * p * (1.0 - p) * (42.0 - math.log(x)))) + 8
    side = "right" if upper else "left"
    while True:
        lo = max(top - depth, 0)
        k = np.arange(top, lo, -1.0)
        terms = k / ((n + 1.0) - k)  # pmf(k - 1) / pmf(k)
        terms *= inv_odds
        terms.cumprod(out=terms)  # pmf(top - 1), ..., pmf(lo)
        cdf = terms[::-1].cumsum()  # cdf(lo), ..., cdf(top - 1), less the rest below lo
        i = int(cdf.searchsorted(xs, side))
        rest = 0.0  # the terms below lo fall at least geometrically
        if lo > 0:
            ratio = lo * inv_odds / (n - lo + 1.0)
            rest = float(terms[-1]) * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
        if (i > 0 or lo == 0) and rest <= 1e-18 * xs:
            break
        depth *= 2
    a = float(cdf[i - 1]) if i > 0 else 0.0
    b = float(cdf[i]) if i < cdf.size else float(cdf[-1]) + 1.0
    # Relative error of a and b: a few ulps of each lgamma-start term, whose
    # magnitudes sum to at most 2 lgamma(n + 1) - top log pf - (n - top) log qf,
    # and one rounding per ratio, product and sum.  Measured against 40-digit
    # sums, our error stays below 6% of this bound and scipy's cdf (n <= 1e6)
    # below 12%, away from 1.  The slack absorbs the rest; near 1, scipy's
    # rounding of 1 - p, which moves its cdf at k by up to (n - k) pmf(k) u <= n u,
    # plus a few u of its own; and bdtrik's search tolerance in j (measured
    # below 5e-11 (n + 1)), which can move a j just above an index down onto it:
    # the cdf continued between indices climbs at most ~22 pmfs per unit of j
    # there (measured; the log of the pmf ratio in a steep upper tail), so
    # 1e-8 (n + 1) pmfs covers it.
    rel = 32.0 * _EPS * (2.0 * lg_n - top * log_pf - (n - top) * log_qf + cdf.size)
    slack = rest + ((n + 4.0) * _EPS / pmf_top if upper else 0.0) + 1e-8 * (n + 1.0) * (b - a)
    if xs - a <= rel * a + slack or b - xs <= rel * b + slack:
        return _scipy_binom_ppf(q, n, p)
    return n - lo - i if upper else lo + i


def _scipy_binom_ppf(q: float, n: int, p: float) -> int:
    from scipy.special import bdtr, bdtrik  # lazy: only the cases `_binom_ppf` cannot decide load scipy

    j = min(max(math.ceil(bdtrik(q, n, p)), 0), n)
    if j > 0 and bdtr(j - 1, n, p) >= q:
        j -= 1
    return j


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    A tie between the two one-sided gaps goes to the upper one, so identical
    samples give +0.0, as ``scipy.stats.ks_2samp`` does.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("need non-empty samples")
    pooled = np.concatenate([a, b])
    d = np.searchsorted(a, pooled, "right") / a.size - np.searchsorted(b, pooled, "right") / b.size
    return float(max(d.max(), np.clip(-d.min(), 0.0, 1.0)))


def ks_critical_value(n: int, m: int) -> float:
    """Asymptotic level-``KS_ALPHA`` critical value of the two-sample KS statistic
    between independent samples of sizes n and m: K^{-1}(alpha) sqrt((n + m) / (n m)),
    with K the Kolmogorov distribution's survival function."""
    return _KS_SURVIVAL_INVERSE * math.sqrt((n + m) / (n * m))


def check_quantile_resolution(trials: int, draws: int, delta: float) -> None:
    """Raise :class:`InsufficientTrialsError` unless both the trials and the
    limit draws number at least 50 / delta, the fewest that resolve the
    (1 - delta) quantile."""
    for count, what in ((trials, "trials"), (draws, "limit draws")):
        if count < 50 / delta:
            raise InsufficientTrialsError(
                f"{count} {what} cannot resolve the {1 - delta:.3f} quantile; need >= {50 / delta:.0f}"
            )


def quantile_sandwich_check(
    batch: TrialBatch,
    z_minus: np.ndarray,
    z_plus: np.ndarray,
    delta: float,
) -> dict:
    """Compare the rescaled excess quantile against the limiting sandwich.

    Passes when the order-statistic intervals are consistent with
    0.5 * Q(min) <= n * Q(excess) <= 0.5 * Q(max); for a singleton optimal
    set (z_minus and z_plus agree within ``np.allclose``), also reports the
    two-sample KS statistic against half the squared norm of the limit, with
    its level-``KS_ALPHA`` critical value for the two sample sizes, and the
    KS statistic against the fixed-index benchmark (a paired sample, so it
    has no such critical value).
    """
    check_quantile_resolution(batch.trials, len(z_plus), delta)
    q_exc = estimate_quantile(batch.n_excess, 1.0 - delta)
    q_min = estimate_quantile(z_minus, 1.0 - delta)
    q_max = estimate_quantile(z_plus, 1.0 - delta)
    tol = 1e-9 * max(1.0, abs(q_exc.estimate))  # absorbs exact-zero degeneracies
    lower_ok = 0.5 * q_min.ci_lo <= q_exc.ci_hi + tol
    upper_ok = q_exc.ci_lo <= 0.5 * q_max.ci_hi + tol
    out = {
        "delta": delta,
        "excess_quantile": q_exc,
        "half_min_quantile": 0.5 * q_min.estimate,
        "half_max_quantile": 0.5 * q_max.estimate,
        "lower_ok": bool(lower_ok),
        "upper_ok": bool(upper_ok),
        "pass": bool(lower_ok and upper_ok),
    }
    if np.allclose(z_minus, z_plus):
        out["ks_limit"] = ks_statistic(batch.n_excess, 0.5 * z_plus)
        out["ks_limit_threshold"] = ks_critical_value(batch.trials, len(z_plus))
        out["ks_oracle"] = ks_statistic(batch.n_excess, batch.n_excess_oracle)
    return out


# ---------------------------------------------------------------------------
# Bound validity sweeps
# ---------------------------------------------------------------------------

def bound_validity_sweep(
    law,
    collection: FeatureCollection,
    delta: float,
    n_grid,
    trials: int,
    seed: int,
    prof: PopulationProfile,
    bound_kind: str = "explicit",
    k: int | None = None,
) -> dict:
    """Empirical violation frequency of an excess bound along an n-grid.

    Each row computes only the threshold and bound it reports, from their
    formulas in :mod:`unionerm.bounds`.  The covariance deviation and the
    quadratic-form variance sup do not depend on n, so every row shares them:
    both are computed once, the sup at ``seed`` as every reader of L takes it
    (only its ascent over blocks of dimension >= 3 reads the seed).  Without
    an ``n_grid`` the grid is the bound's own threshold, from those two.  The gap
    class of the ``explicit`` threshold is exact, and so are the
    ``single_class`` bound and the ``explicit`` bound, the final bound of the
    trace (k steps, or the best k when ``k`` is None) of A(S).  Row i draws
    its trials at ``_grid_seed(seed, i)``.
    Rows at or above the threshold must have violation rate at most
    delta + 2 binomial SE (singular trials count as violations), rows below
    are informational.
    """
    if bound_kind not in ("single_class", "explicit"):
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    coll = prof.collection
    lam_v = bounds.covariance_deviation_lambda_max(prof)
    l_val, _ = bounds.quadratic_form_variance_sup(prof, seed=seed)
    if n_grid is None and bound_kind == "single_class":
        n_grid = [math.ceil(bounds.single_class_threshold_value(lam_v, l_val, coll.max_dim, delta))]
    elif n_grid is None:
        n_grid = [bounds.explicit_threshold_fixed_point(prof, delta, lam_v, l_val)]
    rows = []
    all_pass = True
    for i, n in enumerate(n_grid):
        n = int(n)
        if bound_kind == "single_class":
            k_used, bound = 1, bounds.single_class_excess_bound(prof, n, delta)
            threshold = bounds.single_class_threshold_value(lam_v, l_val, coll.max_dim, delta)
        else:
            cx = ClosedFormComplexity(prof, n)
            trace = choose_k(n, delta, prof, cx)[2] if k is None else iterate(n, delta, k, prof, cx)
            k_used, bound = trace.k, trace.final_bound
            gap = bounds.class_moments("D", None, prof, n)
            threshold = bounds.explicit_threshold_value(lam_v, l_val, coll.max_dim, len(coll), delta, gap)
        batch = run_trials(law, collection, n, trials, _grid_seed(seed, i), prof)
        viol = int(np.sum((batch.n_excess / n > bound) | batch.singular))
        rate = viol / trials
        se = math.sqrt(delta * (1.0 - delta) / trials)
        lo, hi = binomial_ci(viol, trials)
        above = n >= threshold
        ok = (rate <= delta + 2.0 * se) if above else True
        all_pass = all_pass and ok
        rows.append(
            {
                "n": n,
                "k": k_used,
                "threshold": threshold,
                "above_threshold": bool(above),
                "bound": bound,
                "violations": viol,
                "rate": rate,
                "rate_ci": (lo, hi),
                "singular_rate": float(np.mean(batch.singular)),
                "allowed": delta + 2.0 * se,
                "pass": bool(ok),
            }
        )
    return {"bound_kind": bound_kind, "delta": delta, "rows": rows, "pass": all_pass}


# ---------------------------------------------------------------------------
# Pathwise master-inequality check
# ---------------------------------------------------------------------------

class MasterCheckResult(NamedTuple):
    checked: int
    excluded: int
    violations: int
    worst_slack: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def pathwise_master_check(batch: TrialBatch, prof: PopulationProfile, slack: float = 1e-8) -> MasterCheckResult:
    """Verify the pathwise suboptimality and estimation-error inequalities.

    On trials where both rescaled one-sided suprema are below one, the
    selected index's suboptimality is bounded by
    0.5 / ((1 - sup_delta)(1 - sup_lambda)) * G^2/n, and its estimation
    error is sandwiched by 0.5 G^2/n / (1 +/- the one-sided suprema)^2.
    Trials failing the event condition are excluded and counted.
    """
    if not batch.has_snapshots:
        raise ValueError("pathwise check needs a batch with process snapshots")
    n = batch.n
    event = (batch.delta_plus < 1.0) & (batch.lam_plus < 1.0)
    lam_p = batch.lam_plus[event]
    lam_m = batch.lam_minus[event]
    del_p = batch.delta_plus[event]
    gsq = batch.g_sq_hat[event] / n
    sub = batch.gap_hat[event]
    est = batch.est_err_hat[event]
    rhs1 = 0.5 / ((1.0 - del_p) * (1.0 - lam_p)) * gsq
    lo2 = 0.5 * gsq / (1.0 + lam_m) ** 2
    hi2 = 0.5 * gsq / (1.0 - lam_p) ** 2
    bad = (sub > rhs1 + slack) | (est > hi2 + slack) | (est < lo2 - slack)
    worst = max(0.0, float(np.max([sub - rhs1, est - hi2, lo2 - est], initial=-np.inf)))
    return MasterCheckResult(
        checked=int(event.sum()),
        excluded=int((~event).sum()),
        violations=int(bad.sum()),
        worst_slack=worst,
    )


# ---------------------------------------------------------------------------
# Best-subset-selection case study
# ---------------------------------------------------------------------------

def bss_instance(design: str, d: int, w_true, noise_std: float):
    """A sparse-regression instance: orthogonal +-1 design or Gaussian design.

    The discrete design places Y = <w_true, X> + eps with X uniform on the
    sign hypercube and eps an independent +-noise_std coin, so all population
    quantities are exact finite sums.
    """
    w_true = np.asarray(w_true, dtype=float)
    if design == "discrete":
        grid = np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T
        xs = np.repeat(grid, 2, axis=0)
        eps = np.tile([noise_std, -noise_std], grid.shape[0])
        ys = xs @ w_true + eps
        weights = np.full(xs.shape[0], 1.0 / xs.shape[0])
        return DiscreteLaw(xs=xs, ys=ys, weights=weights)
    if design == "gaussian":
        return GaussianDesignLaw(cov=np.eye(d), w_true=w_true, noise_std=noise_std)
    raise ValueError(f"unknown design {design!r}")


def recovery_threshold(prof: PopulationProfile, delta: float, max_rounds: int = 8) -> tuple[int, int]:
    """Sample size above which support recovery holds with confidence delta.

    Solves n > min_k 4 k (gamma delta)^{-1} A(iterate_{k-1}(T)) where the
    iterate uses per-step confidence delta/(2k); the right-hand side depends
    on n through A, so the fixed point is found by repeated substitution
    (A decreases with n, so this converges from above).  Returns (n, k); if
    ``max_rounds`` substitutions do not reach the fixed point, the last iterate
    is returned with a RuntimeWarning naming the last two iterates.
    """
    gamma = prof.gamma
    if not (0.0 < gamma < float("inf")):
        raise ValueError("recovery threshold needs a positive finite gap")
    best_k = []

    def step(n):
        best = None
        cx = ClosedFormComplexity(prof, n)
        for trace in k_sweep(n, delta, prof, cx):
            k = trace.k
            # the (k-1)-th iterate, each step at per-step confidence delta/(2k)
            val = 4.0 * k / (gamma * delta) * cx.value(trace.sets[k - 1]).value
            if best is None or val < best[0]:
                best = (val, k)
        best_k.append(best[1])
        return int(math.ceil(best[0])) + 1

    return _fixed_point(step, max_rounds, 100, "recovery threshold"), best_k[-1]


class BssReport(NamedTuple):
    design: str
    d: int
    s: int
    support: tuple
    gamma: float | None
    n_threshold: int | None
    threshold_k: int | None
    rows: tuple
    recovery_at_threshold: float | None
    ratio_nonincreasing: bool


def bss_study(
    design: str,
    d: int,
    s: int,
    w_true,
    noise_std: float,
    n_grid,
    trials: int,
    seed: int,
    delta: float = 0.1,
    check_threshold: bool = True,
) -> BssReport:
    """Support recovery and rescaled-excess trend for best-subset selection.

    Reports per-n recovery frequency with its binomial CI and the ratio
    a_n = mean(n * excess) / (noise_var * s); on the discrete design also the
    gap-based recovery threshold and the recovery frequency at it, which
    ``check_threshold`` asks for (the Gaussian design has none, so it must
    be false there).  The standard error of a_n needs at least two trials.
    """
    if trials < 2:
        raise ValueError(f"the standard error of a_n needs at least 2 trials, got {trials}")
    if check_threshold and design != "discrete":
        raise ValueError("the recovery threshold needs the discrete design: pass check_threshold=False")
    w_true = np.asarray(w_true, dtype=float)
    support = tuple(int(j) for j in np.nonzero(w_true)[0])
    if len(support) != s:
        raise ValueError("w_true must be exactly s-sparse")
    law = bss_instance(design, d, w_true, noise_std)
    collection = subset_collection(d, s)
    prof = None
    gamma = None
    if design == "discrete":
        prof = profile(law, collection)
        gamma = prof.gamma
    else:
        risks = {e.index: law.approx_risk(e) for e in collection}
        r_star = min(risks.values())
        gamma = min(v - r_star for t, v in risks.items() if t != support)
    noise_var = noise_std**2

    rows = []
    for i, n in enumerate(n_grid):
        n = int(n)
        batch = run_trials(law, collection, n, trials, _grid_seed(seed, i), prof)
        hits = sum(1 for t in batch.t_hat if t == support)
        lo, hi = binomial_ci(hits, trials)
        mean_ne = float(np.mean(batch.n_excess))
        se_ne = float(np.std(batch.n_excess, ddof=1) / math.sqrt(trials))
        rows.append(
            {
                "n": n,
                "recovery": hits / trials,
                "recovery_ci": (lo, hi),
                "a_n": mean_ne / (noise_var * s),
                "a_n_se": se_ne / (noise_var * s),
                "singular_rate": float(np.mean(batch.singular)),
            }
        )
    nonincr = all(
        rows[i + 1]["a_n"] <= rows[i]["a_n"] + 2.0 * (rows[i]["a_n_se"] + rows[i + 1]["a_n_se"])
        for i in range(len(rows) - 1)
    )
    n_thr = k_thr = None
    rec_at_thr = None
    if check_threshold:
        n_thr, k_thr = recovery_threshold(prof, delta)
        batch = run_trials(law, collection, n_thr, trials, _grid_seed(seed, 10_000), prof)
        rec_at_thr = sum(1 for t in batch.t_hat if t == support) / trials
    return BssReport(
        design=design,
        d=d,
        s=s,
        support=support,
        gamma=gamma,
        n_threshold=n_thr,
        threshold_k=k_thr,
        rows=tuple(rows),
        recovery_at_threshold=rec_at_thr,
        ratio_nonincreasing=nonincr,
    )
