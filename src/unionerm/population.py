"""Exact population quantities for discrete laws.

For each feature map t the profile stores its atom table phi(t) and the
covariance Sigma(t) (both formed once, by
:func:`unionerm.model.validate_collection`), the covariance's
symmetric inverse square root, the risk minimizer w_*(t), the per-atom
residuals at w_*(t) and the attained risk R(t, w_*(t)); the per-atom squared
norm of the whitened loss gradient at the minimizer is formed from these on
first read, and its second moment (their weighted mean) from that.  Across
maps it stores the optimal risk R_*, the optimal set of indices and the
suboptimality gap.  The records of each stack of maps of one dimension
(:meth:`unionerm.model.FeatureCollection.stacks`) take one batched pass per
step, which makes per map the BLAS or LAPACK call of a loop over the maps.
These records are the only per-atom population arrays: the finite-class
moments and the covariance-deviation and quadratic-form constants of
:mod:`unionerm.bounds` read them, any gradient cross-covariance G(t, s) =
E[g(t) g(s)^T] is formed on demand from them, and the moment table that
every trial fit and process value reads (:attr:`PopulationProfile.tables`)
is built from them.

Everything here is an exact finite sum over the atoms of the law; generative
laws are rejected (their quantities are only ever Monte Carlo estimates and
live in :mod:`unionerm.experiments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import DiscreteLaw, FeatureCollection, validate_collection

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


@dataclass(frozen=True)
class IndexRecord:
    """Per-index exact population quantities."""

    phi: np.ndarray              # the map evaluated on the atoms, (m, d_t)
    resid: np.ndarray            # per-atom residual phi w_star - y, (m,)
    sigma: np.ndarray            # covariance of the feature map
    whitener: np.ndarray         # symmetric inverse square root of sigma
    w_star: np.ndarray           # population risk minimizer
    approx_risk: float           # R(t, w_star(t))
    dim: int

    @cached_property
    def grad_sq(self) -> np.ndarray:
        """Per-atom ||g(t)||^2 in the Sigma(t)^-1 norm, (m,), formed on first
        read and kept, so only a command that reads it holds it."""
        gw = (self.resid[:, None] * self.phi) @ self.whitener  # whitened per-atom loss gradient
        return np.sum(gw * gw, axis=1)


@dataclass(frozen=True)
class PopulationProfile:
    """Exact population profile of (law, collection)."""

    law: DiscreteLaw
    collection: FeatureCollection
    records: dict
    r_star: float
    t_star: tuple
    gamma: float

    @property
    def mixed_dims(self) -> bool:
        return self.collection.mixed_dims

    def sigma(self, t) -> np.ndarray:
        return self.records[t].sigma

    def whitener(self, t) -> np.ndarray:
        return self.records[t].whitener

    def w_star(self, t) -> np.ndarray:
        return self.records[t].w_star

    def approx_risk(self, t) -> float:
        return self.records[t].approx_risk

    def grad_second_moment(self, t) -> float:
        """E ||g(t)||^2, the weighted mean of the record's grad_sq."""
        return float(self.law.weights @ self.records[t].grad_sq)

    def gap(self, t) -> float:
        return self.records[t].approx_risk - self.r_star

    def g_cross(self, t, s) -> np.ndarray:
        """E[g(t) g(s)^T] of the per-atom loss gradients g = resid * phi at w_*."""
        a, b = self.records[t], self.records[s]
        return (a.resid[:, None] * a.phi * self.law.weights[:, None]).T @ (b.resid[:, None] * b.phi)

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
        """The law's moment table, built on first use, which also keeps the
        last count sample drawn for this profile (see
        :class:`unionerm.processes.AtomTables`).
        """
        from .processes import AtomTables  # processes imports this module

        return AtomTables(self)


def profile(law, collection) -> PopulationProfile:
    """Full population profile; the optimal set uses a relative tolerance.

    Membership in the optimal set is decided by
    ``approx_risk(t) - R_* <= OPT_TOL * max(1, R_*)`` so that exact ties in
    symmetric constructions survive rescaling of the target.
    """
    law = _check_discrete(law)
    stacks = []
    phis = validate_collection(law, collection, stacks)
    records = dict.fromkeys(collection.indices())
    for dim, ids, phi, gram in stacks:  # phi (k, m, d): one pass per step over the k maps
        sigma = 0.5 * (gram + gram.swapaxes(1, 2))
        vals, vecs = np.linalg.eigh(sigma)  # validation proved vals > SINGULAR_TOL
        whitener = (vecs / np.sqrt(vals)[:, None, :]) @ vecs.swapaxes(1, 2)
        rhs = phi.swapaxes(1, 2) @ (law.weights * law.ys)
        w_star = (vecs @ ((vecs.swapaxes(1, 2) @ rhs[..., None]) / vals[..., None]))[..., 0]
        resid = (phi @ w_star[..., None])[..., 0] - law.ys
        risk = 0.5 * (resid[:, None, :] ** 2 @ law.weights[:, None])[:, 0, 0]
        for j, t in enumerate(ids):
            records[t] = IndexRecord(phi=phis[t], resid=resid[j], sigma=sigma[j], whitener=whitener[j],
                                     w_star=w_star[j], approx_risk=float(risk[j]), dim=dim)
    risks = {t: records[t].approx_risk for t in collection.indices()}
    r_star = min(risks.values())
    tol = OPT_TOL * max(1.0, r_star)
    t_star = tuple(t for t in collection.indices() if risks[t] - r_star <= tol)
    sub = [risks[t] - r_star for t in collection.indices() if t not in set(t_star)]
    gamma = min(sub) if sub else float("inf")
    return PopulationProfile(
        law=law,
        collection=collection,
        records=records,
        r_star=r_star,
        t_star=t_star,
        gamma=gamma,
    )


def excess_risk(t, w, prof: PopulationProfile):
    """R(t, w) - R_* via the exact quadratic expansion around w_*(t).

    ``w`` is one weight vector (a float is returned) or a stack (B, d_t)
    (an array (B,) is returned).
    """
    rec = prof.records[t]
    diff = np.asarray(w, dtype=float) - rec.w_star
    quad = 0.5 * np.einsum("...i,ij,...j->...", diff, rec.sigma, diff)
    out = quad + (rec.approx_risk - prof.r_star)
    return float(out) if out.ndim == 0 else out
