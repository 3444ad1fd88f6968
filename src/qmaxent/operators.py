"""Dense Hermitian operator algebra.

Everything in this package works on small dense complex matrices held in
one fixed computational basis.  This module provides the two value types, judged
as outside input by their constructors and wrapped as computed results by ``_computed``,
eigendecomposition with a deterministic phase convention, spectral functions (exp, log),
expectation values, a couple of norms and ``_reals``, the one judge of caller numbers.
It also hosts the symmetric tilt and the set-up both prior updates share (``_tilt``,
``_tilt_support``), with the support floor ``SUPPORT_FLOOR`` that ``relative_entropy`` applies too.

Exponents are shifted, never refused in advance: Overflow means that a
returned value would not be finite.

All functions are pure and all values are immutable, so they can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# outside the state's support: the rule of the tilt routes (``_tilt_support``),
# ``closed_form_flow`` and ``relative_entropy``, whose prior's eigenvalues are its weights.
SUPPORT_FLOOR = 1e-14


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """(M + M†)/2 with each entry exactly rounded: exactly Hermitian, and M itself if M is.

    The sum is halved through its parts (a complex division turns an infinite part into NaN),
    and only an entry whose sum is not finite is recomputed as M/2 + M†/2.  A stack of
    matrices, (..., n, n), gives each matrix's result bit for bit.
    """
    mirror = matrix.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        out = np.add(matrix, mirror, order="C", dtype=np.result_type(matrix, 0.5))
    halves = out.view(out.real.dtype)
    halves *= 0.5
    if not np.isfinite(halves).all():
        redo = ~np.isfinite(out)
        out[redo] = matrix[redo] / 2.0 + mirror[redo] / 2.0
    return out


def _hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    """(M + M†)/2 of a finite M once max|M - M†| <= tol * max(1, its largest |Re| or |Im|).

    The package's one Hermiticity rule, relative above unit scale since rounding grows with
    scale.  The scale reads the parts, whose moduli cannot overflow to an infinite margin.
    """
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

    Construction refuses a non-numeric dtype, non-finite entries and an asymmetry max|M - M†|
    above ``HERMITICITY_TOL`` * max(1, largest |Re M_ij| or |Im M_ij|), and stores (M + M†)/2.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise NonSquare(f"expected a nonempty square matrix, got shape {m.shape}")
        if m.dtype.kind not in "iufc":
            raise InputValidationError(f"matrix entries must be numbers, got dtype {m.dtype}")
        if not np.isfinite(m).all():
            raise InputValidationError("matrix entries must be finite")
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


def _computed(entries: np.ndarray, cls: type[HermitianOperator]) -> HermitianOperator:
    """A ``cls`` of finite, exactly Hermitian ``entries`` the package computed, read-only."""
    entries.setflags(write=False)
    operator = object.__new__(cls)
    object.__setattr__(operator, "entries", entries)
    return operator


def _measured_density(entries: np.ndarray, trace: float, smallest: float) -> DensityOperator:
    """A DensityOperator of computed ``entries``, judged on their given trace and spectrum."""
    _density_rule(trace, lambda: smallest)
    return _computed(entries, DensityOperator)


def _density(entries: np.ndarray) -> DensityOperator:
    """A DensityOperator of computed ``entries``, judged on their trace and then eigvalsh."""
    _density_rule(float(np.trace(entries).real), lambda: float(_eigvalsh(entries)[0]))
    return _computed(entries, DensityOperator)


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
    _common_dim(operator)
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
    if not isinstance(f, str) or f not in ("exp", "log"):
        raise InputValidationError(f"unknown spectral function tag {f!r}; expected 'exp' or 'log'")
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
    return _computed(out, HermitianOperator)


def _weights(start: DensityOperator, v: np.ndarray) -> np.ndarray:
    """The diagonal of ``start`` in the basis of V's columns."""
    return np.einsum("ij,jk,ki->i", v.conj().T, start.entries, v).real


def _tilt(
    start: DensityOperator, w: np.ndarray, v: np.ndarray, support: np.ndarray, lam: float
) -> DensityOperator:
    """exp(-lam A/2) rho0 exp(-lam A/2), normalized; A given by its eigensystem (w, V).

    Only eigenvectors on the support of rho0 (``support``: weight above ``SUPPORT_FLOOR``)
    keep their factor, and the exponent is shifted by its maximum over them, so only a
    non-finite exponent can make the normalization non-finite or zero, which raises Overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        expo = -0.5 * lam * w[support]
        factors = np.zeros(w.shape)
        factors[support] = np.exp(expo - expo.max())
        half = (v * factors) @ v.conj().T
        out = half @ start.entries @ half
        trace = float(np.trace(out).real)
    if not np.isfinite(trace) or trace <= 0.0:
        raise Overflow(f"tilt at lam {lam!r} is not representable: normalization {trace!r}")
    return _density(hermitian_part(out) / trace)


def _tilt_support(
    start: DensityOperator, observable: HermitianOperator, target: float, tol: float, role: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The set-up both tilt routes share, or None when the start already meets the target.

    Checks the operands and judges ``target`` (``_reals``); the package's one met-target rule,
    |tr(start A) - target| <= ``tol``, comes before any refusal, and both routes then return
    ``start`` itself at lam 0.  Else diagonalizes A once and returns (w, V, support, a_s, d_s):
    the eigensystem, the mask of A's eigenvectors on the support of ``start`` (weight above
    ``SUPPORT_FLOOR``), which ``_tilt`` takes, and the eigenvalues of A there and the weights
    ``start`` gives them.  Tilting keeps the mean strictly inside the interval a_s spans, so
    a target outside it, or an A constant on the support, raises Infeasible.  ``role`` names
    the state in error messages.
    """
    _common_dim(start, observable)
    target = float(_reals(target, "target", shape=()))
    if abs(expectation(start, observable) - target) <= tol:
        return None
    w, v = eig_hermitian(observable)
    d = _weights(start, v)
    support = d > SUPPORT_FLOOR
    a_s = w[support]
    lo, hi = float(a_s.min()), float(a_s.max())
    if hi - lo <= SUPPORT_FLOOR * max(abs(lo), abs(hi)):
        # observable is constant on the support: the mean never moves
        raise Infeasible(
            f"observable is constant ({lo!r}) on the {role}'s support; "
            f"target {target!r} unreachable"
        )
    if not (lo < target < hi):
        raise Infeasible(
            f"target {target!r} outside the open achievable interval ({lo!r}, {hi!r})"
        )
    return w, v, support, a_s, d[support]


def _instance(value, cls: type, name: str):
    """``value`` once it is a ``cls``, else InputValidationError naming the slot."""
    if not isinstance(value, cls):
        raise InputValidationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _operands(observables) -> tuple:
    """The items of an iterable ``observables``, each judged later by ``_common_dim``."""
    try:
        return tuple(observables)
    except TypeError as exc:
        raise InputValidationError(f"observables must be a sequence of operators: {exc}") from exc


def _common_dim(*operators, dim: int | None = None) -> int:
    """The one dimension of ``operators``, each a HermitianOperator, and of ``dim`` if given."""
    if not all(isinstance(op, HermitianOperator) for op in operators):
        raise InputValidationError("operands must be HermitianOperators or DensityOperators")
    dims = [op.dim for op in operators] if dim is None else [dim, *(op.dim for op in operators)]
    if dims.count(dims[0]) != len(dims):
        raise DimMismatch(f"operand dimensions differ: {', '.join(map(str, dims))}")
    return dims[0]


def _reals(raw, name: str, error: type[InputValidationError] = InputValidationError, shape=None):
    """``raw`` as float64 of ``shape`` (None: any): finite ints or floats, not bools, else ``error``."""
    try:
        entries = np.asarray(raw, dtype=object).ravel()
        for x in () if set(map(type, entries)) <= {int, float} else entries:  # scan on a bad type
            if isinstance(x, bool) or not isinstance(x, Real):
                raise error(f"{name} entries must be numbers, got {x!r}")
        a = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} is not a numeric array: {exc}") from exc
    if shape is not None and a.shape != shape:
        raise error(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise error(f"{name} must be finite, got {float(a[~np.isfinite(a)][0])!r}")
    return a


def _check_controls(tol: float, max_iter: int) -> None:
    """Refuse solver controls other than a finite ``tol`` > 0 and an integer ``max_iter`` >= 1."""
    if not _reals(tol, "tol", shape=()) > 0.0:
        raise InputValidationError(f"tol must be positive, got {tol!r}")
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
