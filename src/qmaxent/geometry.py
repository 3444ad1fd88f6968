"""Statistical geometry of the density-operator manifold.

States live on the manifold of unit-trace positive operators; tangent
vectors are traceless Hermitian operators and 1-forms are ordinary
observables (``HermitianOperator``s too) pairing with states through the
trace, <F, rho> = ``expectation(rho, F)``.  The metric on a pair of 1-forms
is the expectation of their symmetrized product,

    g_rho(A, B) = < (AB + BA) / 2 >_rho = tr[A (rho B + B rho) / 2],

with the raising operator R_rho(B) = (rho B + B rho)/2 mapping forms to
vectors and its inverse L_rho (lowering) solving rho X + X rho = 2 V.  Each
monotone metric (Petz) maps X -> V (K o V^dag X V) V^dag, rho = V diag(p) V^dag,
with a kernel of its own: (p_j + p_k)/2 raises in this symmetric-product metric
(written basis-free) and 2/(p_j + p_k) lowers; the Kubo-Mori kernel of the
MaxEnt dual's Hessian (``maxent._kubo_mori_product``) is the logarithmic mean.
In coordinates (eigenvalue shifts dp, an infinitesimal rotation angle dtheta
with Hermitian generator h) the line element splits into a Fisher-like
classical term and a rotation term:

    ds^2 = sum_k dp_k^2 / p_k
           + 2 dtheta^2 sum_{j != k} (p_j - p_k)^2 / (p_j + p_k) |h_jk|^2,

the Braunstein-Caves distinguishability metric.  Every routine here evaluates past
double range without a warning, and one whose result is not finite raises Overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotTraceless, Overflow, SingularBase
from .operators import (
    DensityOperator,
    HermitianOperator,
    _common_dim,
    _computed,
    _in_basis,
    _instance,
    _pairing,
    _reals,
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
        dp = np.atleast_1d(_reals(self.dp, "dp", NotTraceless)).copy()
        if dp.size != _common_dim(self.h) or dp.ndim != 1:
            raise DimMismatch(f"dp length {dp.size} != generator dim {self.h.dim}")
        total = abs(float(dp.sum()))
        if total > TRACELESS_TOL * max(1.0, float(np.abs(dp).max())):
            raise NotTraceless(f"eigenvalue shifts sum to {total:.3e}, expected 0")
        dp.setflags(write=False)
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "dtheta", float(_reals(self.dtheta, "dtheta", NotTraceless, ())))


def _finite(value, what: str):
    """``value``, a number or an array, once every entry is finite; else Overflow."""
    if not np.isfinite(value).all():
        raise Overflow(f"{what} is not finite in double precision")
    return value


def _operator(matrix: np.ndarray, what: str) -> HermitianOperator:
    """The Hermitian operator of ``matrix``, which its caller computes under np.errstate,
    once every entry is finite; else Overflow."""
    return _computed(hermitian_part(_finite(matrix, what)), HermitianOperator)


def _lowering_kernel(state: DensityOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, V, K) of a full-rank state: its eigensystem and the lowering kernel 2/(p_j + p_k)."""
    p, v = eig_hermitian(state)
    if float(p[-1]) <= FULL_RANK_FLOOR:
        raise SingularBase(
            f"state eigenvalue {p[-1]:.3e} at or below the "
            f"full-rank floor {FULL_RANK_FLOOR:.0e}"
        )
    return p, v, 2.0 / (p[:, None] + p[None, :])


def _tangent_in_basis(p: np.ndarray, d: TangentDecomposition) -> np.ndarray:
    """diag(dp) + i dtheta (p_k - p_j) h_jk: the direction ``d`` in the eigenbasis of rho."""
    return np.diag(d.dp.astype(complex)) + 1j * d.dtheta * (p[None, :] - p[:, None]) * d.h.entries


def raise_form(state: DensityOperator, form: HermitianOperator) -> HermitianOperator:
    """R_rho(B) = (rho B + B rho) / 2, mapping 1-forms to vector components.

    The kernel map with K_jk = (p_j + p_k)/2, written basis-free (no eigh); the result
    is Hermitian but generally not traceless: only zero-mean forms raise to tangent vectors.
    """
    _common_dim(state, form)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (state.entries @ form.entries + form.entries @ state.entries) / 2.0
    return _operator(out, "R_rho(B)")


def lower_vector(state: DensityOperator, vector: HermitianOperator) -> HermitianOperator:
    """L_rho(V): the unique X with rho X + X rho = 2 V, requiring full rank.

    In the eigenbasis of rho this is X_jk = 2 V_jk / (p_j + p_k); a
    rank-deficient state makes the division ill-posed and raises
    SingularBase.
    """
    _common_dim(state, vector)
    _, v, kernel = _lowering_kernel(state)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _in_basis(vector.entries, v, kernel)
    return _operator(out, "L_rho(V)")


def metric_forms(state: DensityOperator, a: HermitianOperator, b: HermitianOperator) -> float:
    """g_rho(A, B) = <(AB + BA)/2> = tr[A R_rho(B)]: symmetric and bilinear in both slots."""
    _common_dim(state, a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _pairing(a.entries, raise_form(state, b).entries)
    return _finite(value, "g_rho(A, B)")


def metric_vectors(state: DensityOperator, v: HermitianOperator, w: HermitianOperator) -> float:
    """g_rho(V, W) = tr[W L_rho(V)]: the metric pulled to vector components."""
    _common_dim(state, v, w)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _pairing(w.entries, lower_vector(state, v).entries)
    return _finite(value, "g_rho(V, W)")


def line_element(state: DensityOperator, d: TangentDecomposition) -> float:
    """Squared length of the direction described by ``d`` at ``state``.

    sum_jk |T_jk|^2 2/(p_j + p_k), T the direction in rho's eigenbasis, which equals
    metric_vectors on the assembled direction.  Its diagonal is the classical term, the rest
    the rotation term, whose T_jk vanish inside degenerate eigenvalue blocks.
    """
    _common_dim(state, _instance(d, TangentDecomposition, "d").h)
    p, _, kernel = _lowering_kernel(state)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float((np.abs(_tangent_in_basis(p, d)) ** 2 * kernel).sum())
    return _finite(value, "the line element")


def assemble_tangent(state: DensityOperator, d: TangentDecomposition) -> HermitianOperator:
    """The Hermitian direction encoded by ``d``, expressed back in the fixed basis.

    Combines the diagonal eigenvalue shifts with the first-order effect of
    the infinitesimal rotation exp(i dtheta h) on the eigenbasis.
    """
    _common_dim(state, _instance(d, TangentDecomposition, "d").h)
    p, v = eig_hermitian(state)
    with np.errstate(over="ignore", invalid="ignore"):
        out = v @ _tangent_in_basis(p, d) @ v.conj().T
    return _operator(out, "the assembled direction")


def zero_mean_form(state: DensityOperator, observable: HermitianOperator) -> HermitianOperator:
    """The observable recentered to zero mean: A - <A> 1."""
    _common_dim(state, observable)
    with np.errstate(over="ignore", invalid="ignore"):
        out = observable.entries - expectation(state, observable) * np.eye(state.dim)
    return _operator(out, "A - <A> 1")
