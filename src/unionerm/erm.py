"""Empirical risk minimization over the union of linear classes.

Per-index least squares is solved through a symmetric eigendecomposition of
the sample covariance with pivot tolerance ``1e-12 * trace``; when the
sample covariance is singular the minimum-norm minimizer is returned and the
fit is flagged instead of raising, so experiment sweeps can proceed below
the sample-size thresholds and report the flag frequency.

One routine, :func:`least_squares`, fits B datasets at once.  Each dataset
is a vector of row multiplicities over shared rows: atom counts for a
discrete law, or a single row of ones for an explicit :class:`Dataset`.

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


def least_squares(phi: np.ndarray, y: np.ndarray, mult: np.ndarray, n: int):
    """Pivoted least squares of y on phi for B datasets over shared rows.

    ``phi`` is (rows, d), ``y`` (rows,) and ``mult`` (B, rows) holds each
    dataset's row multiplicities, summing to n.  The multiplicities are
    contracted before dividing by n, so on integer-valued rows the moments
    equal those of the explicit n-row dataset bit for bit.  Every product is
    taken one dataset at a time, so a dataset's fit does not depend on the
    other datasets of the batch, nor on B.

    Returns ``(weights (B, d), risks (B,), singular (B,), sigma_n (B, d, d))``;
    the risk is the multiplicity-weighted mean of half squared residuals.
    """
    sigma_n = phi.T @ (mult[:, :, None] * phi) / n
    rhs = phi.T @ (mult * y)[:, :, None] / n
    vals, vecs = np.linalg.eigh(sigma_n)
    pivot = PIVOT_TOL * np.maximum(np.trace(sigma_n, axis1=1, axis2=2), 0.0)
    keep = vals > pivot[:, None]
    singular = ~np.all(keep, axis=1)
    inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    w = (vecs @ (inv[:, :, None] * (vecs.transpose(0, 2, 1) @ rhs)))[:, :, 0]
    resid = (phi @ w[:, :, None])[:, :, 0] - y
    risk = 0.5 * np.sum(mult * resid**2, axis=1) / n
    return w, risk, singular, sigma_n


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
    w, risk, singular, sigma_n = least_squares(phi, dataset.y, np.ones((1, dataset.n)), dataset.n)
    if prof is not None:
        wh = prof.whitener(t)
        lam_min = float(np.linalg.eigvalsh(wh @ sigma_n[0] @ wh)[0])
    else:
        lam_min = float(np.linalg.eigvalsh(sigma_n[0])[0])
    return FitResult(index=t, weights=w[0], risk=float(risk[0]), lam_min=lam_min, singular=bool(singular[0]))


def solve(
    dataset: Dataset,
    collection: FeatureCollection,
    prof: PopulationProfile | None = None,
) -> ErmSolution:
    """Fit every index and select the minimal empirical risk."""
    table = tuple(fit_linear(dataset, e.index, collection, prof) for e in collection)
    best = table[int(select(np.array([[r.risk for r in table]]))[0])]
    return ErmSolution(index=best.index, weights=best.weights, risk=best.risk, table=table)
