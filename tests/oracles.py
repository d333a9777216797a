"""Independent brute-force oracles used to freeze expected test values.

Everything here is written against plain atom lists with explicit python
loops (or a different numerical route than the library), so that agreement
with the library is a genuine two-route check and not a tautology.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from unionerm.bounds import QUARTIC_MAX_ITER, QUARTIC_RESTARTS, QUARTIC_TOL
from unionerm.erm import ErmSolution, fit_linear
from unionerm.model import (
    CHUNK,
    SINGULAR_TOL,
    TRIAL_TAG,
    Dataset,
    DegenerateFeatureError,
    DiscreteLaw,
    DuplicateClassError,
    FeatureCollection,
    _column_space_rank,
)
from unionerm.population import IndexRecord
from unionerm.processes import AtomTables, DeltaUndefinedError, Snapshot, chunk_mean, snapshot as count_snapshot


def enum_expectation(atoms, fn):
    """Sum of weight * fn(x, y) over explicit (x, y, w) atoms."""
    total = None
    for x, y, w in atoms:
        val = np.asarray(fn(np.asarray(x, dtype=float), float(y)), dtype=float) * w
        total = val if total is None else total + val
    return total


def atoms_of(law):
    return [(law.xs[i], float(law.ys[i]), float(law.weights[i])) for i in range(law.support_size)]


def enum_sigma(atoms, feat):
    """E[phi phi^T] by explicit accumulation."""
    return enum_expectation(atoms, lambda x, y: np.outer(feat(x), feat(x)))


def enum_optimal_weights(atoms, feat):
    sigma = enum_sigma(atoms, feat)
    rhs = enum_expectation(atoms, lambda x, y: feat(x) * y)
    return np.linalg.solve(sigma, rhs)


def enum_risk(atoms, feat, w):
    return float(enum_expectation(atoms, lambda x, y: 0.5 * (feat(x) @ w - y) ** 2))


def enum_grad_cross(atoms, feat_t, w_t, feat_s, w_s):
    """E[g_t g_s^T] with g the pointwise square-loss gradient at the minimizers."""

    def term(x, y):
        gt = (feat_t(x) @ w_t - y) * feat_t(x)
        gs = (feat_s(x) @ w_s - y) * feat_s(x)
        return np.outer(gt, gs)

    return enum_expectation(atoms, term)


def lstsq_fit(x_mat, y):
    """Reference least-squares fit via numpy's SVD route (minimum norm)."""
    w, *_ = np.linalg.lstsq(x_mat, y, rcond=None)
    return w


def loop_empirical_risk(x_mat, y, w):
    total = 0.0
    for i in range(x_mat.shape[0]):
        pred = float(x_mat[i] @ w)
        total += 0.5 * (pred - y[i]) ** 2
    return total / x_mat.shape[0]


def oracle_solve(dataset, collection, prof):
    """The fixed-index benchmark on one explicit dataset: fit only the least
    optimal index, one ``fit_linear`` call (``run_trials`` reuses the
    solver's batched fit of that index instead)."""
    t0 = prof.least_optimal_index
    rec = fit_linear(dataset, t0, collection, prof)
    return ErmSolution(index=t0, weights=rec.weights, risk=rec.risk, table=(rec,))


def sorted_uniform_counts(law, n, rng):
    """Atom counts (m,) of n draws by binning uniforms: atom j takes the
    uniforms that fall in [cdf[j-1], cdf[j]) of the normalized cumulative
    weights, counted on the sorted uniforms.  O(n log n) per draw; the
    reference sampler of the atom counts of ``DiscreteLaw.sample``."""
    cdf = law.weights.cumsum()
    cdf /= cdf[-1]
    u = np.sort(rng.random(n))
    return np.diff(np.searchsorted(u, cdf, "left"), prepend=0)


def atom_counts(law, x, y):
    """Atom counts (m,) of the rows (x, y) drawn from a law whose atoms are
    distinct: each row must equal exactly one atom."""
    match = np.all(np.column_stack([x, y])[:, None, :] == np.column_stack([law.xs, law.ys])[None], axis=2)
    assert np.all(match.sum(axis=1) == 1)
    return match.sum(axis=0)


def seed_sequence_stream(*key):
    """The reference stream of the key words, such as (master, trial) of
    ``sample_dataset``: numpy's own SeedSequence hash of them, seeding PCG64."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(tuple(int(k) for k in key))))


def row_groups(prof):
    """(first atom of each group, each atom's group) of the equal rows of the
    per-atom moment table of a fresh ``AtomTables`` (whose rows are not yet
    merged), by numpy's row sort, which takes -0.0 == 0.0; groups in order
    of first occurrence."""
    _, first, labels = np.unique(AtomTables(prof)._atoms[1], axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[labels.ravel()]


def merged_law(prof):
    """The law of a profile's distinct moment rows, the one every discrete
    count draw is over: the first atom of each group of :func:`row_groups`,
    with the group's weights summed one atom at a time, in atom order."""
    law = prof.law
    first, labels = row_groups(prof)
    weights = [0.0] * len(first)
    for w, g in zip(law.weights.tolist(), labels.tolist()):
        weights[g] += w
    return DiscreteLaw(xs=law.xs[first], ys=law.ys[first], weights=np.array(weights))


def chunk_counts(law, n, master, chunk, size):
    """Counts (size, m) over the atoms of ``law`` of the first ``size`` trials
    of chunk ``chunk`` of ``run_trials`` under ``master``: one multinomial
    draw on numpy's SeedSequence stream of (master, chunk, TRIAL_TAG).  For
    a discrete law's trials, ``law`` is its :func:`merged_law`."""
    return seed_sequence_stream(master, chunk, TRIAL_TAG).multinomial(n, law.weights, size=size)


def trial_dataset(law, n, master, trial):
    """Trial ``trial`` of ``run_trials`` under ``master`` as a dataset of rows:
    draw trial % CHUNK of chunk trial // CHUNK.  On a discrete law, passed as
    its :func:`merged_law`, that draw is a row of the chunk's counts over the
    representative atoms, expanded in their order.

    On a Gaussian design it is a Bartlett factor: the chunk's stream gives
    the N(0, 1) variates of CHUNK arrays (p, k), p = d + 1 and k = min(n, p),
    then CHUNK rows of k chi-square variates with n - i degrees of freedom;
    B keeps the trial's array on and below the diagonal, with the root of
    its chi-square row on the diagonal.  With the joint factor
    L = [[C, 0], [w^T C, sigma]] of z = (x, y), C = chol(cov), the k columns
    of L B scaled by sqrt(k / n) are a k-row dataset whose Gram is the
    trial's (L B)(L B)^T / n, a draw of Wishart(n, L L^T) / n."""
    chunk, pos = divmod(int(trial), CHUNK)
    if law.kind == "discrete":
        idx = np.repeat(np.arange(law.support_size), chunk_counts(law, n, master, chunk, pos + 1)[pos])
        return Dataset(x=law.xs[idx], y=law.ys[idx])
    d = law.input_dim
    p, k = d + 1, min(n, d + 1)
    rng = seed_sequence_stream(master, chunk, TRIAL_TAG)
    normals = rng.standard_normal((CHUNK, p, k))[pos]
    chi2 = rng.chisquare([n - i for i in range(k)], (CHUNK, k))[pos]
    bart = np.zeros((p, k))
    for i in range(p):
        for j in range(min(i, k)):
            bart[i, j] = normals[i, j]
        if i < k:
            bart[i, i] = math.sqrt(chi2[i])
    chol = np.linalg.cholesky(law.cov)
    joint = np.zeros((p, p))
    joint[:d, :d] = chol
    joint[d, :d] = law.w_true @ chol
    joint[d, d] = law.noise_std
    rows = (joint @ bart).T * math.sqrt(k / n)
    return Dataset(x=rows[:, :d], y=rows[:, d])


def row_route_excess(law, collection, n, trials, seed):
    """n * excess risk of ERM on ``trials`` datasets of n rows of a Gaussian
    design (coordinate maps of full-rank sample covariance), each one
    ``law.sample`` call on one stream of ``seed`` reduced to its Gram
    [X, y]^T [X, y] / n; each index is fitted by ``np.linalg.solve`` and
    scored by the design's closed-form risk.  The dataset route, for
    comparing the law of the Gram route's trials."""
    rng = seed_sequence_stream(seed)
    grams = np.stack([z.T @ z / n for z in (np.column_stack(law.sample(n, rng)) for _ in range(trials))])
    y = law.input_dim
    fits = []
    for e in collection:
        c = list(e.coords)
        sigma, rhs = grams[:, c][:, :, c], grams[:, c, y]
        w = np.linalg.solve(sigma, rhs[..., None])[..., 0]
        quad = np.sum(w * (sigma @ w[..., None])[..., 0], axis=1)
        fits.append((w, 0.5 * grams[:, y, y] - np.sum(w * rhs, axis=1) + 0.5 * quad))
    pick = np.argmin(np.stack([r for _, r in fits], axis=1), axis=1)
    r_star = min(law.approx_risk(e) for e in collection)
    risks = np.stack([law.risk(e, w) for e, (w, _) in zip(collection, fits)], axis=1)
    return n * (risks[np.arange(trials), pick] - r_star)


MAX_EXACT_DATASETS = 250_000


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


def exact_expected_sup(prof, process, subset, n):
    """Exact E[max over ``subset`` of one process] on the library's value
    table: every dataset of size n over the rows of ``prof.tables.law``
    (:func:`enumerate_product_counts`), evaluated by ``processes.snapshot``,
    its maximum weighted by its product probability."""
    tables = prof.tables
    counts, probs = enumerate_product_counts(tables.law, n)
    order = tables.suboptimal if process == "delta" else tables.indices
    values = count_snapshot(counts, n, prof).values(process)[:, [order.index(t) for t in subset]]
    return float(probs @ values.max(axis=1))


def enum_datasets(law, n):
    """Every ordered dataset of size n with its product probability."""
    m = law.support_size
    for combo in itertools.product(range(m), repeat=n):
        idx = list(combo)
        prob = float(np.prod(law.weights[idx]))
        yield law.xs[idx], law.ys[idx], prob


def mc_lambda_max_downward(atoms, weights, n, trials, seed):
    """Monte Carlo E[lambda_max(sqrt(n)(EZ - mean_n Z))] via direct sampling."""
    rng = np.random.default_rng(seed)
    mean_z = np.tensordot(weights, atoms, axes=(0, 0))
    counts = rng.multinomial(n, weights, size=trials)
    means = np.tensordot(counts / n, atoms, axes=(1, 0))
    devs = np.sqrt(n) * (mean_z[None] - means)
    vals = np.linalg.eigvalsh(devs)[:, -1]
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


def enum_expected_sup(prof, process, subset, n):
    """Exact E[max over ``subset`` of one process] by evaluating every ordered
    dataset of size n atom by atom (``g_sq`` is the squared g process, and
    ``delta`` is taken against the least optimal index)."""
    t0 = prof.least_optimal_index
    value = {
        "lambda": lambda ds, t: lambda_process(ds, t, prof),
        "g_sq": lambda ds, t: g_process(ds, t, prof) ** 2,
        "delta": lambda ds, t: delta_process(ds, t, t0, prof),
    }[process]
    total = 0.0
    for xs, ys, prob in enum_datasets(prof.law, n):
        ds = Dataset(x=xs, y=ys)
        total += prob * max(value(ds, t) for t in subset)
    return total


def enum_class_moments(prof, kind, subset, n):
    """(sigma^2, r_n) of ``class_moments(kind, subset)`` atom by atom.

    Each function's per-atom value comes from solves over the atom list:
    the whitened gradient norm g^T Sigma^{-1} g at w_* (``"G"``), or the
    squared centered loss gap ((l_t - l_0) / gap(t) - 1)^2 against the least
    optimal index (``"D"``).  r_n^2 is E[max over the drawn atoms and the
    functions] over every ordered dataset of size n."""
    atoms = atoms_of(prof.law)

    def fit(t):
        feat = lambda x, e=prof.collection.entry(t): e(x[None, :])[0]
        return feat, enum_sigma(atoms, feat), enum_optimal_weights(atoms, feat)

    if kind == "G":
        values = []
        for t in subset:
            feat, sigma, w = fit(t)
            grads = [(feat(x) @ w - y) * feat(x) for x, y, _ in atoms]
            values.append([float(g @ np.linalg.solve(sigma, g)) for g in grads])
    else:
        fits = {t: fit(t) for t in (prof.least_optimal_index, *subset)}
        loss = {t: [0.5 * (feat(x) @ w - y) ** 2 for x, y, _ in atoms] for t, (feat, _, w) in fits.items()}
        risk = {t: enum_risk(atoms, feat, w) for t, (feat, _, w) in fits.items()}
        l0, r0 = loss[prof.least_optimal_index], risk[prof.least_optimal_index]
        values = [[((lt - la) / (risk[t] - r0) - 1.0) ** 2 for lt, la in zip(loss[t], l0)] for t in subset]
    sigma_sq = max(sum(wt * v for (_, _, wt), v in zip(atoms, vals)) for vals in values)
    r_sq = 0.0
    for combo in itertools.product(range(len(atoms)), repeat=n):
        prob = math.prod(atoms[a][2] for a in combo)
        r_sq += prob * max(vals[a] for vals in values for a in combo)
    return sigma_sq, math.sqrt(r_sq)


# ---------------------------------------------------------------------------
# The three processes on one explicit dataset (reference for the count route)
# ---------------------------------------------------------------------------

def _whitened_sample_cov(dataset, t, prof):
    psi = prof.collection.entry(t)(dataset.x) @ prof.whitener(t)
    return psi.T @ psi / dataset.n


def lambda_process(dataset, t, prof):
    """sqrt(n) times the top eigenvalue of I minus the whitened sample covariance."""
    lam_min = float(np.linalg.eigvalsh(_whitened_sample_cov(dataset, t, prof))[0])
    return float(np.sqrt(dataset.n) * (1.0 - lam_min))


def g_process(dataset, t, prof):
    """sqrt(n) times the whitened norm of the empirical gradient at w_*(t)."""
    phi = prof.collection.entry(t)(dataset.x)
    grad = phi.T @ (phi @ prof.w_star(t) - dataset.y) / dataset.n
    return float(np.sqrt(dataset.n) * np.linalg.norm(prof.whitener(t) @ grad))


def delta_process(dataset, t, t_star, prof):
    """Normalized empirical risk gap deviation for a suboptimal index."""
    if t in prof.t_star:
        raise DeltaUndefinedError(f"index {t!r} is optimal; the gap denominator vanishes")
    entry_t = prof.collection.entry(t)
    entry_s = prof.collection.entry(t_star)
    rt = 0.5 * float(np.mean((entry_t(dataset.x) @ prof.w_star(t) - dataset.y) ** 2))
    rs = 0.5 * float(np.mean((entry_s(dataset.x) @ prof.w_star(t_star) - dataset.y) ** 2))
    return float(np.sqrt(dataset.n) * (1.0 - (rt - rs) / prof.gap(t)))


@dataclass(frozen=True)
class ProcessSnapshot:
    """All three processes evaluated on one dataset.

    ``lam_plus_scaled`` is sup_t (1 - lambda_min) and ``lam_minus_scaled``
    sup_t (lambda_max - 1) of the whitened sample covariances.
    """

    lam: dict
    g: dict
    delta: dict
    sup_g_sq: float
    sup_delta: float
    lam_plus_scaled: float
    lam_minus_scaled: float
    delta_plus_scaled: float


def snapshot(dataset, prof):
    """Evaluate every process on one dataset; suprema are over the collection."""
    rn = np.sqrt(dataset.n)
    t_star = prof.least_optimal_index
    lam, g, ends = {}, {}, []
    for t in prof.indices():
        vals = np.linalg.eigvalsh(_whitened_sample_cov(dataset, t, prof))
        lam[t] = float(rn * (1.0 - vals[0]))
        ends.append((1.0 - float(vals[0]), float(vals[-1]) - 1.0))
        g[t] = g_process(dataset, t, prof)
    delta = {t: delta_process(dataset, t, t_star, prof) for t in prof.suboptimal()}
    sup_delta = max(delta.values()) if delta else 0.0
    return ProcessSnapshot(
        lam=lam,
        g=g,
        delta=delta,
        sup_g_sq=max(v * v for v in g.values()),
        sup_delta=sup_delta,
        lam_plus_scaled=max(e[0] for e in ends),
        lam_minus_scaled=max(e[1] for e in ends),
        delta_plus_scaled=sup_delta / rn if delta else 0.0,
    )


def table_snapshot_loop(prof, counts, n):
    """``processes.snapshot`` one index at a time, on atom counts (B, m):
    three products and one ``eigvalsh`` per index, on per-atom arrays built
    from the profile's records (whitened features, whitened gradients,
    normalized loss gaps)."""
    b, m = counts.shape
    recs, indices, suboptimal = prof.records, prof.indices(), prof.suboptimal()
    psi = {t: rec.phi @ rec.whitener for t, rec in recs.items()}
    grad_w = {t: rec.resid[:, None] * psi[t] for t, rec in recs.items()}
    loss0 = 0.5 * recs[prof.least_optimal_index].resid ** 2
    delta_vals = {t: (0.5 * recs[t].resid ** 2 - loss0) / prof.gap(t) for t in suboptimal}
    lam_min, g_sq = np.empty((b, len(indices))), np.empty((b, len(indices)))
    lam_minus = np.full(b, -np.inf)
    delta = np.empty((b, len(suboptimal)))
    freq = counts[:, None, :] / n
    for j, t in enumerate(indices):
        d = psi[t].shape[1]
        outer = psi[t][:, :, None] * psi[t][:, None, :]
        ends = np.linalg.eigvalsh((freq @ outer.reshape(m, d * d)).reshape(-1, d, d))
        lam_min[:, j] = ends[:, 0]
        np.maximum(lam_minus, ends[:, -1] - 1.0, out=lam_minus)
        g_sq[:, j] = n * np.sum((freq @ grad_w[t])[:, 0] ** 2, axis=1)
    for j, t in enumerate(suboptimal):
        delta[:, j] = np.sqrt(n) * (1.0 - (freq @ delta_vals[t])[:, 0])
    return Snapshot(n=n, lam_min=lam_min, lam_minus_scaled=lam_minus, g_sq=g_sq, delta=delta)


def expected_max_presence(chunks, atom_values):
    """(mean, SE) over the count chunks' rows of the max over present atoms
    of the per-atom max value, masking every absent atom of every row."""
    worst = np.stack(atom_values, axis=1).max(axis=1)
    return chunk_mean(chunks, lambda counts: np.where(counts > 0, worst[None, :], -np.inf).max(axis=1))


def validate_collection_loop(law, collection):
    """``validate_collection`` comparing the rank of every pair's stacked atom
    tables, for any collection: O(|T|^2) SVDs."""
    tables = {}
    ranks = {}
    for entry in collection:
        phi = entry(law.xs)
        if not np.all(np.isfinite(phi)):
            raise DegenerateFeatureError(entry.index, "non-finite feature values")
        sigma = (phi * law.weights[:, None]).T @ phi
        lam_min = float(np.linalg.eigvalsh(sigma)[0])
        if lam_min <= SINGULAR_TOL:
            raise DegenerateFeatureError(entry.index, f"lambda_min={lam_min:.3e}")
        tables[entry.index] = phi
        ranks[entry.index] = _column_space_rank(phi)
    ids = collection.indices()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if ranks[a] == ranks[b] == _column_space_rank(np.hstack([tables[a], tables[b]])):
                raise DuplicateClassError(a, b)
    return tables


def profile_loop(law, collection):
    """``profile``'s records one map at a time: per map its own Sigma(t),
    ``eigh``, whitener, w_*(t), residuals and risk, in collection order."""
    records = {}
    for entry in collection:
        phi = entry(law.xs)
        sigma = (phi * law.weights[:, None]).T @ phi
        sigma = 0.5 * (sigma + sigma.T)
        vals, vecs = np.linalg.eigh(sigma)
        if vals[0] <= SINGULAR_TOL:
            raise DegenerateFeatureError(entry.index, f"lambda_min={vals[0]:.3e}")
        rhs = phi.T @ (law.weights * law.ys)
        w_star = vecs @ ((vecs.T @ rhs) / vals)
        resid = phi @ w_star - law.ys
        records[entry.index] = IndexRecord(
            phi=phi,
            resid=resid,
            sigma=sigma,
            whitener=(vecs / np.sqrt(vals)) @ vecs.T,
            w_star=w_star,
            approx_risk=0.5 * float(law.weights @ resid**2),
            dim=entry.dim,
        )
    return records


def covariance_deviation_lambda_max_loop(prof):
    """max_t lambda_max(E[(psi_t psi_t^T - I)^2]) one record at a time."""
    best = 0.0
    for rec in prof.records.values():
        psi = rec.phi @ rec.whitener
        dev = psi[:, :, None] * psi[:, None, :] - np.eye(psi.shape[1])[None, :, :]
        vmat = np.tensordot(prof.law.weights, dev @ dev, axes=(0, 0))
        best = max(best, float(np.linalg.eigvalsh(vmat)[-1]))
    return best


# ---------------------------------------------------------------------------
# Quadratic-form variance: grid and single-block references
# ---------------------------------------------------------------------------

def _stacked_whitened_rows(law, collection, prof):
    """R[a, j] is psi_j(atom a) placed in block j of the stacked coordinates."""
    total = sum(collection.dims)
    rows = np.zeros((law.support_size, len(collection), total))
    off = 0
    for j, entry in enumerate(collection):
        rows[:, j, off:off + entry.dim] = entry(law.xs) @ prof.whitener(entry.index)
        off += entry.dim
    return rows


def quadratic_form_variance_grid(law, collection, prof, resolution=1e-3, chunk=200_000):
    """Dense angular-grid maximum of E[(sum_t <v_t, psi_t>^2 - 1)^2], total dim <= 3."""
    rows = _stacked_whitened_rows(law, collection, prof)
    total = rows.shape[2]
    if total > 3:
        raise ValueError("the grid oracle is limited to total dimension <= 3")
    if total == 1:
        grid = np.array([[1.0]])
    elif total == 2:
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
        q = (np.einsum("atd,vd->vat", rows, grid[lo:lo + chunk]) ** 2).sum(axis=2)
        best = max(best, float((((q - 1.0) ** 2) @ law.weights).max()))
    return best


def single_block_variance_max(law, collection, prof):
    """Largest quartic value over unit directions supported on one block.

    Each block alone is a grid problem, so each block dimension must be <= 3.
    """
    return max(
        quadratic_form_variance_grid(law, FeatureCollection([entry]), prof) for entry in collection
    )


def _quartic_coef(blocks: list, v: np.ndarray) -> np.ndarray:
    """sum_t <v_t, psi_t(a)>^2 - 1 for every atom a and start row of v, (m, S)."""
    coef = np.full((blocks[0][0].shape[0], v.shape[0]), -1.0)
    for p, cols in blocks:
        coef += (p @ v[:, cols].T) ** 2
    return coef


def quadratic_form_variance_sup_loop(prof, seed=0):
    """The quartic sup's shifted power iteration, one block product at a time
    over the unmerged atoms: same starts, shift and stopping rule as
    ``bounds.quadratic_form_variance_sup``, a different route to each step."""
    weights = prof.law.weights
    blocks, total = [], 0  # (psi_t, its columns in the stacked coordinates)
    for rec in prof.records.values():
        p = rec.phi @ rec.whitener
        blocks.append((p, slice(total, total + p.shape[1])))
        total += p.shape[1]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), 3))))
    gauss = rng.standard_normal((QUARTIC_RESTARTS, total))
    v = np.vstack([np.eye(total), gauss / np.linalg.norm(gauss, axis=1, keepdims=True)])
    sq_max = np.max([np.sum(p**2, axis=1) for p, _ in blocks], axis=0)
    alpha = 3.0 * float(weights @ np.maximum(np.abs(sq_max - 1.0), 1.0) ** 2)
    coef = _quartic_coef(blocks, v)
    val = weights @ coef**2
    converged = False
    for _ in range(QUARTIC_MAX_ITER):
        wc = weights[:, None] * coef
        step = alpha * v
        for p, cols in blocks:
            step[:, cols] += (p.T @ (wc * (p @ v[:, cols].T))).T
        v = step / np.linalg.norm(step, axis=1, keepdims=True)
        coef = _quartic_coef(blocks, v)
        new_val = weights @ coef**2
        converged = bool(np.all(new_val - val <= QUARTIC_TOL * np.maximum(1.0, np.abs(val))))
        val = new_val
        if converged:
            break
    tag = "estimated:ascent" if converged else "estimated:ascent-maxiter"
    return float(val.max()), tag


def pathwise_master_check(batch, slack):
    """(checked, excluded, violations, worst slack) of the pathwise
    inequalities, one event trial at a time."""
    n = batch.n
    checked = violations = 0
    worst = 0.0
    for i in range(batch.trials):
        lam_p, lam_m, del_p = batch.lam_plus[i], batch.lam_minus[i], batch.delta_plus[i]
        if not (del_p < 1.0 and lam_p < 1.0):
            continue
        checked += 1
        gsq = batch.g_sq_hat[i] / n
        sub, est = batch.gap_hat[i], batch.est_err_hat[i]
        rhs1 = 0.5 / ((1.0 - del_p) * (1.0 - lam_p)) * gsq
        lo2 = 0.5 * gsq / (1.0 + lam_m) ** 2
        hi2 = 0.5 * gsq / (1.0 - lam_p) ** 2
        worst = max(worst, sub - rhs1, est - hi2, lo2 - est)
        if sub > rhs1 + slack or est > hi2 + slack or est < lo2 - slack:
            violations += 1
    return checked, batch.trials - checked, violations, worst


def scipy_binom_ppf(q, n, p):
    """scipy's ``binom.ppf`` rule: ceil of ``bdtrik``, stepped down once when
    ``bdtr`` says the index below already covers q."""
    from scipy.special import bdtr, bdtrik

    j = min(max(math.ceil(bdtrik(q, n, p)), 0), n)
    if j > 0 and bdtr(j - 1, n, p) >= q:
        j -= 1
    return j


def csv_rows_text(header, rows):
    """The text of a CSV table written one row at a time, each cell as it
    is given (a NumPy scalar through its own ``str``)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# The config schema: the oracle for cli.check_config's structural rules
# ---------------------------------------------------------------------------

_NUMBER = {"type": "number"}
_LAW_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"const": "discrete"},
        "atoms": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["x", "y", "w"],
                "properties": {
                    "x": {"type": "array", "items": _NUMBER, "minItems": 1},
                    "y": _NUMBER,
                    "w": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
    },
    "required": ["kind", "atoms"],
}
_COLLECTION_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "kind": {"const": "explicit"},
                "entries": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["id"],
                        "properties": {
                            "id": {},
                            "coords": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                            "matrix": {"type": "array"},
                            "offset": {"type": "array", "items": _NUMBER},
                        },
                    },
                },
            },
            "required": ["kind", "entries"],
        },
        {
            "properties": {
                "kind": {"const": "subsets"},
                "dim": {"type": "integer", "minimum": 1},
                "sparsity": {"type": "integer", "minimum": 1},
            },
            "required": ["kind", "dim", "sparsity"],
        },
    ],
}
# Draft 2020-12; the params are left free here (cli.PARAM_RULES states them)
CONFIG_SCHEMA = {
    "type": "object",
    "required": ["seed"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "law": _LAW_SCHEMA,
        "collection": _COLLECTION_SCHEMA,
        "params": {"type": "object"},
    },
}
