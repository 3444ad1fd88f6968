"""Dense Hermitian operator algebra.

Everything in this package works on small dense complex matrices held in
one fixed computational basis.  This module provides the two validated
value types (Hermitian operators and density operators), eigendecomposition
with a deterministic phase convention, spectral functions
(exp, log), expectation values, and a couple of norms.

All functions are pure and all values are immutable, so they can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimMismatch,
    DomainError,
    Infeasible,
    InputValidationError,
    NonRealResult,
    NonSquare,
    NotHermitian,
    NotPositive,
    Overflow,
    TraceNotOne,
)

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "POSITIVITY_TOL",
    "LOG_EIGENVALUE_FLOOR",
    "IMAG_TOL",
    "HermitianOperator",
    "DensityOperator",
    "hermitian_part",
    "make_hermitian",
    "make_density",
    "eig_hermitian",
    "apply_spectral_function",
    "expectation",
    "commutator_norm",
    "trace_distance",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
# Spectrum entries at or below this floor count as exact zeros.  Entropy-like
# sums then use 0*log(0) = 0, while a bare matrix logarithm must refuse.
LOG_EIGENVALUE_FLOOR = 1e-12
IMAG_TOL = 1e-12

# exp(x) overflows double precision just above x = 709.
EXP_ARGUMENT_LIMIT = 700.0
# Weights of a state in an observable's eigenbasis at or below this floor lie
# outside the state's support.
SUPPORT_FLOOR = 1e-14


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Return (M + M†) / 2."""
    return (matrix + matrix.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense complex square matrix equal to its conjugate transpose.

    Construction symmetrizes the input as (M + M†)/2 and rejects matrices
    whose asymmetry max|M - M†| exceeds ``HERMITICITY_TOL``.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise NonSquare(f"expected a nonempty square matrix, got shape {m.shape}")
        m = m.astype(np.complex128, copy=True)
        if not np.isfinite(m).all():
            raise InputValidationError("matrix entries must be finite")
        asymmetry = float(np.abs(m - m.conj().T).max())
        if asymmetry > HERMITICITY_TOL:
            raise NotHermitian(
                f"matrix deviates from Hermitian symmetry by {asymmetry:.3e} "
                f"(tolerance {HERMITICITY_TOL:.0e})"
            )
        sym = hermitian_part(m)
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class DensityOperator(HermitianOperator):
    """Hermitian, unit-trace, positive-semidefinite operator."""

    def __post_init__(self) -> None:
        super().__post_init__()
        trace = float(np.trace(self.entries).real)
        if abs(trace - 1.0) > TRACE_TOL:
            raise TraceNotOne(f"trace is {trace!r}, expected 1 within {TRACE_TOL:.0e}")
        smallest = float(np.linalg.eigvalsh(self.entries)[0])
        if smallest < -POSITIVITY_TOL:
            raise NotPositive(
                f"smallest eigenvalue {smallest:.3e} below -{POSITIVITY_TOL:.0e}"
            )


def make_hermitian(raw) -> HermitianOperator:
    """Validate a raw complex square matrix as a Hermitian operator."""
    return HermitianOperator(np.asarray(raw))


def make_density(raw) -> DensityOperator:
    """Validate a raw complex square matrix as a density operator."""
    return DensityOperator(np.asarray(raw))


def eig_hermitian(operator: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues sorted descending and the unitary of column eigenvectors, (w, V).

    The phase of each eigenvector is fixed deterministically: its
    largest-magnitude component is made real and positive.  This keeps
    repeated runs byte-identical.
    """
    try:
        w, v = np.linalg.eigh(operator.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    w = w[::-1].astype(np.float64)
    v = np.array(v[:, ::-1], order="C")
    anchor_rows = np.argmax(np.abs(v), axis=0)
    anchors = v[anchor_rows, np.arange(v.shape[1])]
    phases = anchors / np.abs(anchors)
    v = v * phases.conj()[None, :]
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def apply_spectral_function(operator: HermitianOperator, f: str) -> HermitianOperator:
    """Apply a scalar function to the spectrum: U diag(f(p)) U†.

    ``f`` is a tag, either ``"exp"`` or ``"log"``.  The logarithm requires
    every eigenvalue to exceed ``LOG_EIGENVALUE_FLOOR``; anything at or
    below the floor counts as an exact zero, for which a bare logarithm is
    undefined.
    """
    if f not in ("exp", "log"):
        raise ValueError(f"unknown spectral function tag {f!r}; expected 'exp' or 'log'")
    w, v = eig_hermitian(operator)
    if f == "exp":
        if float(w[0]) > EXP_ARGUMENT_LIMIT:
            raise Overflow(
                f"largest eigenvalue {w[0]:.6g} exceeds the exp overflow guard "
                f"{EXP_ARGUMENT_LIMIT:.0f}"
            )
        values = np.exp(w)
    else:
        smallest = float(w[-1])
        if smallest <= LOG_EIGENVALUE_FLOOR:
            raise DomainError(
                f"logarithm requires eigenvalues above {LOG_EIGENVALUE_FLOOR:.0e}, "
                f"smallest is {smallest:.3e}"
            )
        values = np.log(w)
    out = (v * values) @ v.conj().T
    return HermitianOperator(hermitian_part(out))


def _weights(start: DensityOperator, v: np.ndarray) -> np.ndarray:
    """The diagonal of ``start`` in the basis of V's columns."""
    return np.einsum("ij,jk,ki->i", v.conj().T, start.entries, v).real


def _tilt(start: DensityOperator, w: np.ndarray, v: np.ndarray, lam: float) -> DensityOperator:
    """exp(-lam A/2) rho0 exp(-lam A/2), normalized; A given by its eigensystem (w, V).

    Only eigenvectors on the support of rho0 (weight above ``SUPPORT_FLOOR``)
    keep their factor, and the exponent is shifted by its maximum over them,
    so only the normalization can fail, by underflow, which raises Overflow.
    """
    support = _weights(start, v) > SUPPORT_FLOOR
    expo = -0.5 * lam * w[support]
    factors = np.zeros(w.shape)
    factors[support] = np.exp(expo - expo.max())
    half = (v * factors) @ v.conj().T
    out = half @ start.entries @ half
    trace = float(np.trace(out).real)
    if not np.isfinite(trace) or trace <= 0.0:
        raise Overflow("tilt exponent too large: normalization underflowed")
    return DensityOperator(hermitian_part(out) / trace)


def _tilt_support(
    start: DensityOperator, w: np.ndarray, v: np.ndarray, target: float, tol: float, role: str
) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues of A on the support of ``start`` and the weights ``start`` gives them.

    Tilting keeps the mean strictly inside the interval these eigenvalues
    span, so a target outside it raises Infeasible.  Returns None when A is
    constant on the support and ``target`` already equals that constant.
    ``role`` names the state in error messages.
    """
    d = np.maximum(_weights(start, v), 0.0)
    support = d > SUPPORT_FLOOR
    a_s = w[support]
    lo, hi = float(a_s.min()), float(a_s.max())
    if hi - lo <= SUPPORT_FLOOR * max(abs(lo), abs(hi)):
        # observable is constant on the support: the mean never moves
        if abs(target - lo) <= tol:
            return None
        raise Infeasible(
            f"observable is constant ({lo!r}) on the {role}'s support; "
            f"target {target!r} unreachable"
        )
    if not (lo < target < hi):
        raise Infeasible(
            f"target {target!r} outside the open achievable interval ({lo!r}, {hi!r})"
        )
    return a_s, d[support]


def _checked_real(value: complex, what: str, tol: float = IMAG_TOL) -> float:
    """Discard an imaginary residue below ``tol``; reject anything larger."""
    if abs(value.imag) > tol:
        raise NonRealResult(f"{what} has imaginary part {value.imag:.3e} above {tol:.0e}")
    return float(value.real)


def expectation(state: DensityOperator, observable: HermitianOperator) -> float:
    """tr(rho A) as a real number."""
    if state.dim != observable.dim:
        raise DimMismatch(f"state dim {state.dim} != observable dim {observable.dim}")
    value = complex(np.einsum("ij,ji->", state.entries, observable.entries))
    return _checked_real(value, "expectation value")


def commutator_norm(a: HermitianOperator, b: HermitianOperator) -> float:
    """Frobenius norm of AB - BA; zero iff A and B are simultaneously diagonalizable."""
    if a.dim != b.dim:
        raise DimMismatch(f"operator dims {a.dim} and {b.dim} differ")
    return float(np.linalg.norm(a.entries @ b.entries - b.entries @ a.entries, "fro"))


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the sum of absolute eigenvalues of the difference."""
    if a.dim != b.dim:
        raise DimMismatch(f"state dims {a.dim} and {b.dim} differ")
    w = np.linalg.eigvalsh(a.entries - b.entries)
    return 0.5 * float(np.abs(w).sum())
