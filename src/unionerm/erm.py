"""Empirical risk minimization over the union of linear classes.

Per-index least squares is solved through a symmetric eigendecomposition of
the sample covariance with pivot tolerance ``1e-12 * trace``; when the
sample covariance is singular the minimum-norm minimizer is returned and the
fit is flagged instead of raising, so experiment sweeps can proceed below
the sample-size thresholds and report the flag frequency.

One routine, :func:`least_squares`, solves from moments (Sigma_n, Phi^T y / n):
:func:`fit_linear` takes them from a :class:`Dataset`'s rows, a discrete-law
trial from :class:`unionerm.processes.AtomTables`.

Index selection, :func:`select`, breaks empirical-risk ties (within
``1e-12 * max(1, min risk)``) by the identifier order of the collection;
this is the single place where selection nondeterminism is removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, FeatureCollection
from .population import PopulationProfile

__all__ = [
    "FitResult",
    "ErmSolution",
    "least_squares",
    "select",
    "fit_linear",
    "empirical_risk",
    "solve",
]

PIVOT_TOL = 1e-12
TIE_TOL = 1e-12


@dataclass(frozen=True)
class FitResult:
    index: object
    weights: np.ndarray
    risk: float
    lam_min: float        # smallest eigenvalue of the (whitened) sample covariance
    singular: bool


@dataclass(frozen=True)
class ErmSolution:
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
