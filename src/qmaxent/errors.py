"""Typed error hierarchy.

Three failure families map onto the command-line exit codes: input
validation problems (exit 2), infeasible constraint targets (exit 3), and
numerical failures (exit 4).
"""

from __future__ import annotations

__all__ = [
    "QuantumMaxEntError",
    "InputValidationError",
    "Infeasible",
    "NumericalFailure",
    "NonSquare",
    "NotHermitian",
    "TraceNotOne",
    "NotPositive",
    "DimMismatch",
    "DependentConstraints",
    "NotTraceless",
    "StepInvalid",
    "ConvergenceFailure",
    "DomainError",
    "SupportViolation",
    "Overflow",
    "SingularBase",
    "MaxIterExceeded",
    "PositivityLoss",
]


class QuantumMaxEntError(Exception):
    """Base class for every error raised by this package."""


class InputValidationError(QuantumMaxEntError):
    """Malformed, inconsistent, or non-finite input."""


class Infeasible(QuantumMaxEntError):
    """No physical state can satisfy the requested constraints."""


class NumericalFailure(QuantumMaxEntError):
    """A numerical routine could not produce a trustworthy result."""


class NonSquare(InputValidationError):
    """Matrix input is not square."""


class NotHermitian(InputValidationError):
    """Matrix deviates from Hermitian symmetry beyond tolerance."""


class TraceNotOne(InputValidationError):
    """Candidate density matrix does not have unit trace."""


class NotPositive(InputValidationError):
    """Candidate density matrix has a significantly negative eigenvalue."""


class DimMismatch(InputValidationError):
    """Operands have incompatible dimensions."""


class DependentConstraints(DimMismatch):
    """Constraint observables are numerically linearly dependent."""


class NotTraceless(InputValidationError):
    """Tangent data fails the zero-trace requirement."""


class StepInvalid(InputValidationError):
    """Integrator step size is not a positive finite number."""


class ConvergenceFailure(NumericalFailure):
    """An iterative eigensolver failed to converge."""


class DomainError(NumericalFailure):
    """A spectral function was evaluated outside its domain."""


class SupportViolation(NumericalFailure):
    """First state has weight outside the support of the second."""


class Overflow(NumericalFailure):
    """A returned value would not be finite in double precision."""


class SingularBase(NumericalFailure):
    """Base state is rank deficient where full rank is required."""


class MaxIterExceeded(NumericalFailure):
    """Iteration limit reached before convergence."""


class PositivityLoss(NumericalFailure):
    """Integration produced a state with a significantly negative eigenvalue."""
