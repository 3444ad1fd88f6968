"""Dense Hermitian operator algebra.

Everything in this package works on small dense complex matrices held in
one fixed computational basis.  This module provides the two validated
value types (Hermitian operators and density operators), eigendecomposition
with a deterministic phase convention, spectral functions (exp, log),
expectation values, a couple of norms, and private real coordinates.

Exponents are shifted, never refused in advance: Overflow means that a
returned value would not be finite.

All functions are pure and all values are immutable, so they can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from numbers import Integral, Real

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimMismatch,
    DomainError,
    Infeasible,
    InputValidationError,
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

# Weights of a state in an observable's eigenbasis at or below this floor lie
# outside the state's support.
SUPPORT_FLOOR = 1e-14


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """(M + M†)/2, halving each term first so no sum overflows; an entry equal to M†'s stays.

    A stack of matrices, (..., n, n), gives each matrix's result bit for bit.
    """
    out = matrix / 2.0 + matrix.conj().swapaxes(-1, -2) / 2.0
    np.copyto(out, matrix, where=(out != matrix) & (matrix == matrix.conj().swapaxes(-1, -2)))
    return out


def _hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    """(M + M†)/2 once M is finite and max|M - M†| <= tol * max(1, its largest |Re| or |Im|).

    The package's one Hermiticity rule, relative above unit scale since rounding grows with
    scale.  The scale reads the parts, whose moduli cannot overflow to an infinite margin.
    """
    if not np.isfinite(m).all():
        raise InputValidationError("matrix entries must be finite")
    with np.errstate(over="ignore"):  # an asymmetry beyond double range is inf, and refused
        asymmetry = float(np.abs(m - m.conj().T).max())
    bound = tol * max(1.0, float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
    if asymmetry > bound:
        raise NotHermitian(
            f"matrix deviates from Hermitian symmetry by {asymmetry:.3e} "
            f"(tolerance {tol:.0e} * max(1, largest |Re| or |Im|) = {bound:.3e})"
        )
    return hermitian_part(m)


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg.eigh of a Hermitian matrix; a LinAlgError becomes ConvergenceFailure."""
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc


def _eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvalsh, ascending, of a Hermitian matrix or a stack of them; a
    LinAlgError becomes ConvergenceFailure."""
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense complex square matrix equal to its conjugate transpose.

    Construction refuses non-finite entries and an asymmetry max|M - M†| above
    ``HERMITICITY_TOL`` * max(1, largest |Re M_ij| or |Im M_ij|), and stores (M + M†)/2.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise NonSquare(f"expected a nonempty square matrix, got shape {m.shape}")
        sym = _hermitian(m.astype(np.complex128, copy=True), HERMITICITY_TOL)
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _density_rule(trace: float, smallest) -> None:
    """The density rule: |trace - 1| <= TRACE_TOL, then smallest() >= -POSITIVITY_TOL."""
    if abs(trace - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace is {trace!r}, expected 1 within {TRACE_TOL:.0e}")
    if (value := smallest()) < -POSITIVITY_TOL:
        raise NotPositive(f"smallest eigenvalue {value:.3e} below -{POSITIVITY_TOL:.0e}")


class DensityOperator(HermitianOperator):
    """Hermitian, unit-trace, positive-semidefinite operator."""

    def __post_init__(self) -> None:
        super().__post_init__()
        m = self.entries
        _density_rule(float(np.trace(m).real), lambda: float(_eigvalsh(m)[0]))


def _measured_density(entries: np.ndarray, trace: float, smallest: float) -> DensityOperator:
    """A DensityOperator of Hermitian ``entries``, judged on their given trace and spectrum."""
    _density_rule(trace, lambda: smallest)
    entries.setflags(write=False)
    state = object.__new__(DensityOperator)
    object.__setattr__(state, "entries", entries)
    return state


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
    w, v = _eigh(operator.entries)
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
    undefined.  A result with a non-finite entry raises Overflow.
    """
    if f not in ("exp", "log"):
        raise ValueError(f"unknown spectral function tag {f!r}; expected 'exp' or 'log'")
    w, v = eig_hermitian(operator)
    if f == "log" and float(w[-1]) <= LOG_EIGENVALUE_FLOOR:
        raise DomainError(
            f"logarithm requires eigenvalues above {LOG_EIGENVALUE_FLOOR:.0e}, "
            f"smallest is {float(w[-1]):.3e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(w) if f == "exp" else np.log(w)
        out = hermitian_part((v * values) @ v.conj().T)
    if not np.isfinite(out).all():
        raise Overflow(f"{f} of a spectrum up to {w[0]:.6g} is not finite in double precision")
    return HermitianOperator(out)


def _weights(start: DensityOperator, v: np.ndarray) -> np.ndarray:
    """The diagonal of ``start`` in the basis of V's columns."""
    return np.einsum("ij,jk,ki->i", v.conj().T, start.entries, v).real


def _tilt(start: DensityOperator, w: np.ndarray, v: np.ndarray, lam: float) -> DensityOperator:
    """exp(-lam A/2) rho0 exp(-lam A/2), normalized; A given by its eigensystem (w, V).

    Only eigenvectors on the support of rho0 (weight above ``SUPPORT_FLOOR``)
    keep their factor, and the exponent is shifted by its maximum over them, so
    only a non-finite exponent can make the normalization non-finite or zero,
    which raises Overflow.
    """
    support = _weights(start, v) > SUPPORT_FLOOR
    with np.errstate(over="ignore", invalid="ignore"):
        expo = -0.5 * lam * w[support]
        factors = np.zeros(w.shape)
        factors[support] = np.exp(expo - expo.max())
        half = (v * factors) @ v.conj().T
        out = half @ start.entries @ half
        trace = float(np.trace(out).real)
    if not np.isfinite(trace) or trace <= 0.0:
        raise Overflow(f"tilt at lam {lam!r} is not representable: normalization {trace!r}")
    return DensityOperator(hermitian_part(out) / trace)


def _tilt_support(
    start: DensityOperator, observable: HermitianOperator, target: float, tol: float, role: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The set-up both tilt routes share: (w, V) of A, and A's eigenvalues on the support.

    Checks the dimensions and that ``target`` is finite, diagonalizes A once,
    and returns (w, V, a_s, d_s): the eigensystem, the eigenvalues of A on the
    support of ``start`` and the weights ``start`` gives them.  Tilting keeps the
    mean strictly inside the interval a_s spans, so a target outside it raises
    Infeasible.  Returns None when A is constant on the support and ``target``
    already equals that constant.  ``role`` names the state in error messages.
    """
    _common_dim(start, observable)
    if not np.isfinite(target):
        raise InputValidationError("target must be finite")
    w, v = eig_hermitian(observable)
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
    return w, v, a_s, d[support]


def _common_dim(*operators, dim: int | None = None) -> int:
    """The dimension all ``operators`` share, and ``dim`` too when given; else DimMismatch."""
    dims = [op.dim for op in operators] if dim is None else [dim, *(op.dim for op in operators)]
    if dims.count(dims[0]) != len(dims):
        raise DimMismatch(f"operand dimensions differ: {', '.join(map(str, dims))}")
    return dims[0]


def _check_controls(tol: float, max_iter: int) -> None:
    """Refuse solver controls other than a finite ``tol`` > 0 and an integer ``max_iter`` >= 1."""
    if not (isinstance(tol, Real) and np.isfinite(tol) and tol > 0.0):
        raise InputValidationError(f"tol must be positive and finite, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral) or max_iter < 1:
        raise InputValidationError(f"max_iter must be an integer of at least 1, got {max_iter!r}")


def _in_basis(x: np.ndarray, v: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """V (K o V^dag X V) V^dag: the map of every monotone metric (Petz), each with its kernel K."""
    vh = v.conj().T
    return v @ (kernel * (vh @ x @ v)) @ vh


def _pairing(x: np.ndarray, y: np.ndarray) -> float:
    """Re tr(X Y) for Hermitian Y: sum_ij Re X_ij Re Y_ij + Im X_ij Im Y_ij.

    That is the dot product of the arrays' float64 views, and all of tr(X Y) when X is
    Hermitian too: the trace pairing of two matrices, real by construction at any scale.
    """
    return float(x.reshape(-1).view(np.float64) @ y.reshape(-1).view(np.float64))


# The n^2 real coordinates of an n x n Hermitian matrix are its diagonal, then the real and
# the imaginary parts of its strict upper triangle, row by row; only this block knows that.
@lru_cache(maxsize=16)
def _layout(n: int) -> tuple[np.ndarray, ...]:
    """Coordinates' float64-view positions, pairs i < j, and each float64's coordinate and sign."""
    rows, cols = np.triu_indices(n, 1)
    upper = 2 * (rows * n + cols)
    index = np.concatenate((2 * (n + 1) * np.arange(n), upper, upper + 1))
    source, sign = np.zeros((n, n, 2), np.intp), np.zeros((n, n, 2))
    source.reshape(-1)[index], sign.reshape(-1)[index] = np.arange(n * n), 1.0
    source[cols, rows], sign[cols, rows] = source[rows, cols], (1.0, -1.0)
    arrays = index, rows, cols, source.reshape(n, 2 * n), sign.reshape(n, 2 * n)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _pack(x: np.ndarray) -> np.ndarray:
    """The coordinates of Hermitian ``x``, one gather from its float64 view."""
    return x.reshape(-1).view(np.float64)[_layout(len(x))[0]]


def _unpack(c: np.ndarray) -> np.ndarray:
    """The Hermitian matrix of coordinates ``c``, one signed gather; Im a_ii is +0.0."""
    source, sign = _layout(isqrt(c.size))[3:]
    out = c[source] * sign
    out += 0.0  # -0.0 becomes +0.0, as in entries made by hermitian_part
    return out.view(np.complex128)


def _coordinates(operators, n: int) -> np.ndarray:
    """The (m, n^2) coordinates of m Hermitian n x n operators, packed row by row in place."""
    out, index = np.empty((len(operators), n * n)), _layout(n)[0]
    for k, a in enumerate(operators):
        a.entries.reshape(-1).view(np.float64).take(index, out=out[k], mode="clip")
    return out


def _dual(y: np.ndarray) -> np.ndarray:
    """c(Y) with its off-diagonal coordinates doubled (exact): c(X) @ _dual(Y) = tr(X Y)."""
    c = _pack(y)
    c[len(y) :] *= 2.0
    return c


def _split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of the diagonal and the off-diagonal coordinates in the rows of ``c``."""
    n = isqrt(c.shape[-1])
    return c[..., :n], c[..., n:]


def _pair_bounds(c: np.ndarray) -> tuple[float, float]:
    """Least and greatest eigenvalue of the 1x1 and 2x2 principal submatrices of coordinates c:
    a_ii, and (a_ii + a_jj)/2 -+ sqrt(((a_ii - a_jj)/2)^2 + |a_ij|^2) for i < j."""
    (d, off), (rows, cols) = _split(c), _layout(isqrt(c.size))[1:3]
    mid = (d[rows] + d[cols]) / 2.0
    rad = np.hypot(np.hypot((d[rows] - d[cols]) / 2.0, off[: len(rows)]), off[len(rows) :])
    return float((mid - rad).min(initial=d.min())), float((mid + rad).max(initial=d.max()))


def _pivot_bound(c: np.ndarray, least: bool) -> float:
    """The least (or greatest) eigenvalue of the 2x2 principal submatrices that pair the
    smallest (or largest) diagonal entry a_pp with each other index: reads only the 2(n - 1)
    coordinates of the a_pj.  ``_pair_bounds`` computes each of these bit for bit, so this
    bound never certifies a target that the all-pairs bound does not."""
    n = isqrt(c.size)
    d = c[:n]
    p = d.argmin() if least else d.argmax()
    part = c[_layout(n)[3][p]]  # Re a_pj, Im a_pj for each j; j = p reads a_pp and c_0
    rad = np.hypot(np.hypot((d - d[p]) / 2.0, part[::2]), part[1::2])
    rad[p] = 0.0  # j = p: the 1x1 submatrix a_pp
    mid = (d + d[p]) / 2.0
    return float((mid - rad).min()) if least else float((mid + rad).max())


def expectation(state: DensityOperator, observable: HermitianOperator) -> float:
    """tr(rho A), real by construction."""
    _common_dim(state, observable)
    return _pairing(state.entries, observable.entries)


def commutator_norm(a: HermitianOperator, b: HermitianOperator) -> float:
    """Frobenius norm of AB - BA; zero iff A and B are simultaneously diagonalizable.

    Squares that overflow are summed again scaled by a power of two; Overflow means that
    AB - BA or its norm is not finite in double precision.
    """
    _common_dim(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        c = a.entries @ b.entries - b.entries @ a.entries
        value = float(np.linalg.norm(c, "fro"))
        if np.isinf(value) and np.isfinite(c).all():
            parts = c.reshape(-1).view(np.float64)
            scale = int(np.frexp(np.abs(parts).max())[1])
            value = float(np.ldexp(np.linalg.norm(np.ldexp(parts, -scale)), scale))
    if not np.isfinite(value):
        raise Overflow("AB - BA or its Frobenius norm is not finite in double precision")
    return value


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the sum of absolute eigenvalues of the difference."""
    _common_dim(a, b)
    w = _eigvalsh(a.entries - b.entries)
    return 0.5 * float(np.abs(w).sum())
