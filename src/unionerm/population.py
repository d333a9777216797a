"""Exact population quantities, one profile for both designs.

For each feature map t the profile stores the covariance Sigma(t), its
symmetric inverse square root, the risk minimizer w_*(t) and the attained
risk R(t, w_*(t)); across maps, the optimal risk R_*, the optimal set and the
suboptimality gap.  Each stack of maps of one dimension
(:meth:`unionerm.model.FeatureCollection.stacks`) takes one batched pass per
step from Sigma(t) and E[phi y] to the whitener and w_*.

* On a discrete law every quantity is an exact sum over the atoms; Sigma(t)
  comes from :func:`unionerm.model.validate_collection`.  A record also keeps
  the map's atom table phi(t) and per-atom residuals at w_*(t), the only
  per-atom population arrays: the whitened gradient norms, the gradient
  cross-covariance G(t, s) = E[g(t) g(s)^T], the constants of
  :mod:`unionerm.bounds` and the moment table of every trial fit and process
  value (:attr:`PopulationProfile.tables`) are formed from them.
* On a Gaussian design (X ~ N(0, C), Y = <w, X> + sigma N(0, 1)) with
  coordinate maps c, Sigma(t) = C[c, c], E[phi y] = (C w)[c] and
  R(t) = (sigma^2 + v^T C v) / 2 with v = w - P_c w_*, P_c w_* the minimizer
  placed on the coordinates c.  Its records have no per-atom arrays, and
  every reader of them refuses the design.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import DiscreteLaw, FeatureCollection, GaussianDesignLaw, validate_collection

__all__ = [
    "IndexRecord",
    "PopulationProfile",
    "profile",
    "excess_risk",
]

# Relative tolerance defining membership in the optimal set.
OPT_TOL = 1e-10


@dataclass(frozen=True)
class IndexRecord:
    """Per-index exact population quantities."""

    sigma: np.ndarray            # covariance of the feature map
    whitener: np.ndarray         # symmetric inverse square root of sigma
    w_star: np.ndarray           # population risk minimizer
    approx_risk: float           # R(t, w_star(t))
    dim: int
    atoms: tuple | None = None   # (phi (m, d_t), resid (m,)) on a discrete law, None on a Gaussian design

    def _per_atom(self) -> tuple:
        if self.atoms is None:
            raise ValueError("the Gaussian design has no atoms: per-atom population arrays need a discrete law")
        return self.atoms

    @property
    def phi(self) -> np.ndarray:
        """The map evaluated on the atoms, (m, d_t)."""
        return self._per_atom()[0]

    @property
    def resid(self) -> np.ndarray:
        """Per-atom residual phi w_star - y, (m,)."""
        return self._per_atom()[1]

    @cached_property
    def grad_sq(self) -> np.ndarray:
        """Per-atom ||g(t)||^2 in the Sigma(t)^-1 norm, (m,), formed on first
        read and kept, so only a command that reads it holds it."""
        gw = (self.resid[:, None] * self.phi) @ self.whitener  # whitened per-atom loss gradient
        return np.sum(gw * gw, axis=1)


@dataclass(frozen=True)
class PopulationProfile:
    """Exact population profile of (law, collection)."""

    law: DiscreteLaw | GaussianDesignLaw
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
        return float(self.records[t].grad_sq @ self.law.weights)

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
    symmetric constructions survive rescaling of the target.  Either law's
    collection is checked by :func:`unionerm.model.validate_collection`.
    """
    records = dict.fromkeys(collection.indices())
    stacks = []
    phis = validate_collection(law, collection, stacks)
    if law.kind == "discrete":
        for dim, ids, phi, gram in stacks:  # phi (k, m, d): one pass per step over the k maps
            sigma, whitener, w_star = _whiten(gram, phi.swapaxes(1, 2) @ (law.weights * law.ys))
            resid = (phi @ w_star[..., None])[..., 0] - law.ys
            risk = 0.5 * (resid[:, None, :] ** 2 @ law.weights[:, None])[:, 0, 0]
            for j, t in enumerate(ids):
                records[t] = IndexRecord(sigma=sigma[j], whitener=whitener[j], w_star=w_star[j],
                                         approx_risk=float(risk[j]), dim=dim, atoms=(phis[t], resid[j]))
    else:
        cov_w = law.cov @ law.w_true
        for dim, ids in collection.stacks(law.input_dim):
            cs = np.array([collection.entry(t).coords for t in ids])  # (k, d)
            sigma, whitener, w_star = _whiten(law.cov[cs[:, :, None], cs[:, None, :]], cov_w[cs])
            v = np.repeat(law.w_true[None], len(ids), axis=0)  # w - P_c w_*
            v[np.arange(len(ids))[:, None], cs] -= w_star
            risk = 0.5 * (law.noise_std**2 + np.sum(v * (v @ law.cov), axis=1))
            for j, t in enumerate(ids):
                records[t] = IndexRecord(sigma=sigma[j], whitener=whitener[j], w_star=w_star[j],
                                         approx_risk=float(risk[j]), dim=dim)
    risks = {t: records[t].approx_risk for t in collection.indices()}
    r_star = min(risks.values())
    tol = OPT_TOL * max(1.0, r_star)
    t_star = tuple(t for t in collection.indices() if risks[t] - r_star <= tol)
    sub = [risks[t] - r_star for t in collection.indices() if t not in set(t_star)]
    gamma = min(sub) if sub else float("inf")
    return PopulationProfile(law=law, collection=collection, records=records, r_star=r_star, t_star=t_star, gamma=gamma)


def _whiten(gram: np.ndarray, rhs: np.ndarray) -> tuple:
    """(Sigma, whitener, w_*) of a stack of k maps of one dimension d, from
    their second moments ``gram`` (k, d, d) and E[phi y] ``rhs`` (k, d): one
    batched ``eigh`` (Sigma is positive definite: validation proved it on a
    discrete law, and a design's C[c, c] is a block of a definite C)."""
    sigma = 0.5 * (gram + gram.swapaxes(1, 2))
    vals, vecs = np.linalg.eigh(sigma)
    whitener = (vecs / np.sqrt(vals)[:, None, :]) @ vecs.swapaxes(1, 2)
    w_star = (vecs @ ((vecs.swapaxes(1, 2) @ rhs[..., None]) / vals[..., None]))[..., 0]
    return sigma, whitener, w_star


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
