"""Statistical geometry of the density-operator manifold.

States live on the manifold of unit-trace positive operators; tangent
vectors are traceless Hermitian operators and 1-forms are ordinary
observables (``HermitianOperator``s too) pairing with states through the
trace, <F, rho> = ``expectation(rho, F)``.  The metric on a pair of 1-forms
is the expectation of their symmetrized product,

    g_rho(A, B) = < (AB + BA) / 2 >_rho = tr[A (rho B + B rho) / 2],

with the raising operator R_rho(B) = (rho B + B rho)/2 mapping forms to
vectors and its inverse L_rho (lowering) solving rho X + X rho = 2 V by
entrywise division in the eigenbasis of rho.  In coordinates (eigenvalue
shifts dp, an infinitesimal rotation angle dtheta with Hermitian generator
h) the line element splits into a Fisher-like classical term and a
rotation term:

    ds^2 = sum_k dp_k^2 / p_k
           + 2 dtheta^2 sum_{j != k} (p_j - p_k)^2 / (p_j + p_k) |h_jk|^2,

the Braunstein-Caves distinguishability metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotTraceless, SingularBase
from .operators import (
    DensityOperator,
    HermitianOperator,
    _common_dim,
    _pairing,
    eig_hermitian,
    expectation,
    hermitian_part,
)

__all__ = [
    "FULL_RANK_FLOOR",
    "TangentDecomposition",
    "raise_form",
    "lower_vector",
    "metric_forms",
    "metric_vectors",
    "line_element",
    "assemble_tangent",
    "zero_mean_form",
]

FULL_RANK_FLOOR = 1e-10
TRACELESS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TangentDecomposition:
    """Eigenvalue shifts dp, rotation angle dtheta, and rotation generator h.

    Interpreted in the eigenbasis of the base state (eigenvalues sorted
    descending, deterministic phases).  The shifts must sum to zero, to within
    ``TRACELESS_TOL`` * max(1, max|dp_k|), so the assembled direction preserves the trace.
    """

    dp: np.ndarray
    dtheta: float
    h: HermitianOperator

    def __post_init__(self) -> None:
        dp = np.atleast_1d(np.asarray(self.dp, dtype=np.float64)).copy()
        if dp.ndim != 1 or dp.size != self.h.dim:
            raise DimMismatch(f"dp length {dp.size} != generator dim {self.h.dim}")
        if not np.isfinite(dp).all() or not np.isfinite(self.dtheta):
            raise NotTraceless("dp and dtheta must be finite")
        total = abs(float(dp.sum()))
        if total > TRACELESS_TOL * max(1.0, float(np.abs(dp).max())):
            raise NotTraceless(f"eigenvalue shifts sum to {total:.3e}, expected 0")
        dp.setflags(write=False)
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "dtheta", float(self.dtheta))


def _full_rank_eig(state: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    p, v = eig_hermitian(state)
    if float(p[-1]) <= FULL_RANK_FLOOR:
        raise SingularBase(
            f"state eigenvalue {p[-1]:.3e} at or below the "
            f"full-rank floor {FULL_RANK_FLOOR:.0e}"
        )
    return p, v


def raise_form(state: DensityOperator, form: HermitianOperator) -> HermitianOperator:
    """R_rho(B) = (rho B + B rho) / 2, mapping 1-forms to vector components.

    The result is Hermitian but generally not traceless: only zero-mean
    forms raise to tangent vectors.
    """
    _common_dim(state, form)
    out = (state.entries @ form.entries + form.entries @ state.entries) / 2.0
    return HermitianOperator(hermitian_part(out))


def lower_vector(state: DensityOperator, vector: HermitianOperator) -> HermitianOperator:
    """L_rho(V): the unique X with rho X + X rho = 2 V, requiring full rank.

    In the eigenbasis of rho this is X_jk = 2 V_jk / (p_j + p_k); a
    rank-deficient state makes the division ill-posed and raises
    SingularBase.
    """
    _common_dim(state, vector)
    p, v = _full_rank_eig(state)
    tilde = v.conj().T @ vector.entries @ v
    tilde = 2.0 * tilde / (p[:, None] + p[None, :])
    out = v @ tilde @ v.conj().T
    return HermitianOperator(hermitian_part(out))


def metric_forms(state: DensityOperator, a: HermitianOperator, b: HermitianOperator) -> float:
    """g_rho(A, B) = <(AB + BA)/2> = tr[A R_rho(B)]: symmetric and bilinear in both slots."""
    _common_dim(state, a, b)
    return _pairing(a.entries, raise_form(state, b).entries)


def metric_vectors(state: DensityOperator, v: HermitianOperator, w: HermitianOperator) -> float:
    """g_rho(V, W) = tr[W L_rho(V)]: the metric pulled to vector components."""
    _common_dim(state, v, w)
    return _pairing(w.entries, lower_vector(state, v).entries)


def line_element(state: DensityOperator, d: TangentDecomposition) -> float:
    """Squared length of the direction described by ``d`` at ``state``.

    Equals metric_vectors on the assembled direction; the rotation term has
    vanishing coefficients inside degenerate eigenvalue blocks, so the
    generator entries there are irrelevant by construction.
    """
    _common_dim(state, d.h)
    p = _full_rank_eig(state)[0]
    classical = float((d.dp**2 / p).sum())
    diff = p[:, None] - p[None, :]
    rotation = float(
        2.0
        * d.dtheta**2
        * (diff**2 / (p[:, None] + p[None, :]) * np.abs(d.h.entries) ** 2).sum()
    )
    return classical + rotation


def assemble_tangent(state: DensityOperator, d: TangentDecomposition) -> HermitianOperator:
    """The Hermitian direction encoded by ``d``, expressed back in the fixed basis.

    Combines the diagonal eigenvalue shifts with the first-order effect of
    the infinitesimal rotation exp(i dtheta h) on the eigenbasis.
    """
    _common_dim(state, d.h)
    p, v = eig_hermitian(state)
    inner = np.diag(d.dp.astype(np.complex128))
    inner = inner + 1j * d.dtheta * (p[None, :] - p[:, None]) * d.h.entries
    out = v @ inner @ v.conj().T
    return HermitianOperator(hermitian_part(out))


def zero_mean_form(state: DensityOperator, observable: HermitianOperator) -> HermitianOperator:
    """The observable recentered to zero mean: A - <A> 1."""
    mean = expectation(state, observable)
    return HermitianOperator(observable.entries - mean * np.eye(state.dim))
