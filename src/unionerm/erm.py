"""Empirical risk minimization over the union of linear classes.

Per-index least squares is solved through a symmetric eigendecomposition of
the sample covariance with pivot tolerance ``1e-12 * trace``; when the
sample covariance is singular the minimum-norm minimizer is returned and the
fit is flagged instead of raising, so experiment sweeps can proceed below
the sample-size thresholds and report the flag frequency.

One routine, :func:`least_squares`, solves from moments (Sigma_n, Phi^T y / n).
:class:`MomentFit` runs it batched on the moment rows of many datasets; every
Monte Carlo trial of either law kind is fitted there.  :func:`fit_linear`
and :func:`solve` fit one dataset from its rows: the per-dataset reference.

Index selection, :func:`select`, breaks empirical-risk ties (within
``1e-12 * max(1, min risk)``) by the identifier order of the collection;
this is the single place where selection nondeterminism is removed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import Dataset, FeatureCollection
from .population import PopulationProfile

__all__ = [
    "FitResult",
    "ErmSolution",
    "MomentFit",
    "least_squares",
    "select",
    "fit_linear",
    "empirical_risk",
    "solve",
]

PIVOT_TOL = 1e-12
TIE_TOL = 1e-12


class FitResult(NamedTuple):
    index: object
    weights: np.ndarray
    risk: float
    lam_min: float        # smallest eigenvalue of the (whitened) sample covariance
    singular: bool


class ErmSolution(NamedTuple):
    index: object
    weights: np.ndarray
    risk: float
    table: tuple[FitResult, ...]

    @property
    def singular(self) -> bool:
        return any(r.singular for r in self.table)

    def record(self, index) -> FitResult:
        for r in self.table:
            if r.index == index:
                return r
        raise KeyError(f"no fit for index {index!r}")


def empirical_risk(t, w, dataset: Dataset, collection: FeatureCollection) -> float:
    """Mean of (prediction - y)^2 / 2 over the dataset."""
    phi = collection.entry(t)(dataset.x)
    resid = phi @ np.asarray(w, dtype=float).ravel() - dataset.y
    return 0.5 * float(np.mean(resid**2))


def least_squares(sigma_n: np.ndarray, rhs: np.ndarray):
    """Pivoted least squares from moments, for a stack of systems.

    ``sigma_n`` (..., d, d) holds sample covariances and ``rhs`` (..., d) the
    moments Phi^T y / n.  Eigenvalues at or below ``PIVOT_TOL * trace`` are
    dropped, so a singular system gets its minimum-norm solution.  Each
    system is solved on its own, so a fit does not depend on the others of
    the stack.

    Returns ``(weights (..., d), singular (...))``.
    """
    vals, vecs = np.linalg.eigh(sigma_n)
    pivot = PIVOT_TOL * np.maximum(np.trace(sigma_n, axis1=-2, axis2=-1), 0.0)
    keep = vals > pivot[..., None]
    inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    w = (vecs @ (inv[..., None] * (np.swapaxes(vecs, -1, -2) @ rhs[..., None])))[..., 0]
    return w, ~np.all(keep, axis=-1)


def gram(moments: np.ndarray, cols: np.ndarray, w_ref: np.ndarray):
    """Sigma_n (B, k, d, d), Phi^T y / n (B, k, d) and grad = Sigma_n w_ref -
    Phi^T y / n of the k maps of one :attr:`MomentFit.groups` entry."""
    both = moments[:, cols]
    sigma_n, rhs = both[..., :-1], both[..., -1]
    return sigma_n, rhs, (sigma_n @ w_ref[..., None])[..., 0] - rhs


class MomentFit:
    """Least squares of every index from the moment rows (B, K) of B datasets.

    A row holds moments of a dictionary of columns z (y among them): index j
    reads its Sigma_n and Phi^T y / n from the row's columns ``pair(a, b)``
    for a, b in its dictionary columns ``maps[j]`` and ``y``.  Its empirical
    risk is expanded about the reference point ``w_ref[j]``:
    R_n(w) = R_n(w_ref) + grad^T D + D^T Sigma_n D / 2 at D = w - w_ref, with
    grad = Sigma_n w_ref - Phi^T y / n.
    """

    def __init__(self, maps, y, pair, w_ref):
        self.size = len(maps)
        # per feature dimension d, k indices: their positions, the row columns
        # of [Sigma_n | Phi^T y / n] (k, d, d + 1) and w_ref (k, d)
        self.groups = []
        for d in dict.fromkeys(map(len, maps)):
            js = [j for j, cs in enumerate(maps) if len(cs) == d]
            cols = [[[pair(a, b) for b in maps[j]] + [pair(a, y)] for a in maps[j]] for j in js]
            self.groups.append((js, np.array(cols), np.stack([w_ref[j] for j in js])))

    def fit(self, moments: np.ndarray, ref_risk: np.ndarray):
        """Fit every index, given the risks ``ref_risk`` (B, |T|) at w_ref:
        one batched :func:`least_squares` per feature dimension.  Returns one
        (B, d_t) weight stack per index, the risks (B, |T|), and whether any
        fit of a dataset was singular (B,)."""
        weights = [None] * self.size
        risks = np.array(ref_risk)
        singular = np.zeros(moments.shape[0], dtype=bool)
        for js, cols, w_ref in self.groups:
            sigma_n, rhs, grad = gram(moments, cols, w_ref)
            w, sing = least_squares(sigma_n, rhs)
            diff = w - w_ref
            risks[:, js] += np.sum(diff * (grad + 0.5 * (sigma_n @ diff[..., None])[..., 0]), axis=2)
            singular |= sing.any(axis=1)
            for i, j in enumerate(js):
                weights[j] = w[:, i]
        return weights, risks, singular


def select(risks: np.ndarray) -> np.ndarray:
    """Column of the selected index for each row of a (B, |T|) risk table.

    Columns are in identifier order; the first column within
    ``TIE_TOL * max(1, min risk)`` of the row minimum wins, so ties survive
    rescaling of the target.
    """
    best = risks.min(axis=1, keepdims=True)
    return np.argmax(risks <= best + TIE_TOL * np.maximum(1.0, best), axis=1)


def fit_linear(
    dataset: Dataset,
    t,
    collection: FeatureCollection,
    prof: PopulationProfile | None = None,
) -> FitResult:
    """Least squares for one feature map.

    Returns the unique minimizer when the sample covariance is nonsingular,
    otherwise the minimum-norm minimizer with ``singular`` set.  The
    ``lam_min`` diagnostic is the smallest eigenvalue of the population-
    whitened sample covariance when a profile is supplied, of the raw sample
    covariance otherwise.
    """
    phi = collection.entry(t)(dataset.x)
    sigma_n = phi.T @ phi / dataset.n
    w, singular = least_squares(sigma_n, phi.T @ dataset.y / dataset.n)
    risk = 0.5 * float(np.mean((phi @ w - dataset.y) ** 2))
    if prof is not None:
        wh = prof.whitener(t)
        sigma_n = wh @ sigma_n @ wh
    lam_min = float(np.linalg.eigvalsh(sigma_n)[0])
    return FitResult(index=t, weights=w, risk=risk, lam_min=lam_min, singular=bool(singular))


def solve(
    dataset: Dataset,
    collection: FeatureCollection,
    prof: PopulationProfile | None = None,
) -> ErmSolution:
    """Fit every index and select the minimal empirical risk."""
    table = tuple(fit_linear(dataset, e.index, collection, prof) for e in collection)
    best = table[int(select(np.array([[r.risk for r in table]]))[0])]
    return ErmSolution(index=best.index, weights=best.weights, risk=best.risk, table=table)
