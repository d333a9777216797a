"""Exact population quantities for discrete laws.

For each feature map t the profile stores the covariance Sigma(t), its
symmetric inverse square root, the risk minimizer w_*(t), the attained risk
R(t, w_*(t)), and the second moment of the whitened loss gradient at the
minimizer.  Across maps it stores the optimal risk R_*, the optimal set of
indices, the suboptimality gap, and all gradient cross-covariances
G(t, s) = E[g(t) g(s)^T].

Everything here is an exact finite sum over the atoms of the law; generative
laws are rejected (their quantities are only ever Monte Carlo estimates and
live in :mod:`unionerm.experiments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    SINGULAR_TOL,
    DegenerateFeatureError,
    DiscreteLaw,
    FeatureCollection,
    validate_collection,
)

__all__ = [
    "IndexRecord",
    "PopulationProfile",
    "profile",
    "excess_risk",
]

# Relative tolerance defining membership in the optimal set.
OPT_TOL = 1e-10


def _check_discrete(law) -> DiscreteLaw:
    if getattr(law, "kind", None) != "discrete":
        raise ValueError("population quantities require a discrete law")
    return law


def _sym_inv_sqrt(sigma: np.ndarray, index) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sigma)
    if vals[0] <= SINGULAR_TOL:
        raise DegenerateFeatureError(index, f"lambda_min={vals[0]:.3e}")
    return (vecs / np.sqrt(vals)) @ vecs.T


@dataclass(frozen=True)
class IndexRecord:
    """Per-index exact population quantities."""

    sigma: np.ndarray            # covariance of the feature map
    whitener: np.ndarray         # symmetric inverse square root of sigma
    w_star: np.ndarray           # population risk minimizer
    approx_risk: float           # R(t, w_star(t))
    grad_second_moment: float    # E ||g(t)||^2 in the Sigma(t)^-1 norm
    dim: int


@dataclass(frozen=True)
class PopulationProfile:
    """Exact population profile of (law, collection)."""

    law: DiscreteLaw
    collection: FeatureCollection
    records: dict
    r_star: float
    t_star: tuple
    gamma: float
    cross_g: dict
    opt_tol: float
    mixed_dims: bool

    def sigma(self, t) -> np.ndarray:
        return self.records[t].sigma

    def whitener(self, t) -> np.ndarray:
        return self.records[t].whitener

    def w_star(self, t) -> np.ndarray:
        return self.records[t].w_star

    def approx_risk(self, t) -> float:
        return self.records[t].approx_risk

    def grad_second_moment(self, t) -> float:
        return self.records[t].grad_second_moment

    def gap(self, t) -> float:
        return self.records[t].approx_risk - self.r_star

    def g_cross(self, t, s) -> np.ndarray:
        return self.cross_g[(t, s)]

    def indices(self) -> tuple:
        return self.collection.indices()

    def suboptimal(self) -> tuple:
        star = set(self.t_star)
        return tuple(t for t in self.indices() if t not in star)

    @property
    def least_optimal_index(self):
        return self.t_star[0]

    @cached_property
    def tables(self):
        """The law's per-atom process tables, built on first use.

        They also keep the last count sample drawn for this profile (see
        :class:`unionerm.processes.AtomTables`).
        """
        from .processes import AtomTables  # processes imports this module

        return AtomTables(self)


def _feature_table(law: DiscreteLaw, entry) -> np.ndarray:
    return entry(law.xs)


def _risk_of(law: DiscreteLaw, phi: np.ndarray, w: np.ndarray) -> float:
    resid = phi @ w - law.ys
    return 0.5 * float(law.weights @ resid**2)


def profile(law, collection, opt_tol: float = OPT_TOL) -> PopulationProfile:
    """Full population profile; the optimal set uses a relative tolerance.

    Membership in the optimal set is decided by
    ``approx_risk(t) - R_* <= opt_tol * max(1, R_*)`` so that exact ties in
    symmetric constructions survive rescaling of the target.
    """
    law = _check_discrete(law)
    validate_collection(law, collection)
    records = {}
    grads = {}
    for entry in collection:
        phi = _feature_table(law, entry)
        sigma = (phi * law.weights[:, None]).T @ phi
        sigma = 0.5 * (sigma + sigma.T)
        whitener = _sym_inv_sqrt(sigma, entry.index)
        rhs = phi.T @ (law.weights * law.ys)
        vals, vecs = np.linalg.eigh(sigma)
        w_star = vecs @ ((vecs.T @ rhs) / vals)
        risk = _risk_of(law, phi, w_star)
        g = (phi @ w_star - law.ys)[:, None] * phi  # per-atom loss gradient
        gw = g @ whitener
        second = float(law.weights @ np.sum(gw * gw, axis=1))
        records[entry.index] = IndexRecord(
            sigma=sigma,
            whitener=whitener,
            w_star=w_star,
            approx_risk=risk,
            grad_second_moment=second,
            dim=entry.dim,
        )
        grads[entry.index] = g
    risks = {t: records[t].approx_risk for t in collection.indices()}
    r_star = min(risks.values())
    tol = opt_tol * max(1.0, r_star)
    t_star = tuple(t for t in collection.indices() if risks[t] - r_star <= tol)
    sub = [risks[t] - r_star for t in collection.indices() if t not in set(t_star)]
    gamma = min(sub) if sub else float("inf")
    cross = {}
    for t in collection.indices():
        for s in collection.indices():
            cross[(t, s)] = (grads[t] * law.weights[:, None]).T @ grads[s]
    return PopulationProfile(
        law=law,
        collection=collection,
        records=records,
        r_star=r_star,
        t_star=t_star,
        gamma=gamma,
        cross_g=cross,
        opt_tol=opt_tol,
        mixed_dims=collection.mixed_dims,
    )


def excess_risk(t, w, prof: PopulationProfile) -> float:
    """R(t, w) - R_* via the exact quadratic expansion around w_*(t)."""
    rec = prof.records[t]
    diff = np.asarray(w, dtype=float).ravel() - rec.w_star
    return 0.5 * float(diff @ rec.sigma @ diff) + (rec.approx_risk - prof.r_star)
