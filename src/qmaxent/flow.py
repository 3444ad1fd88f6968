"""The entropic flow driven by a single observable.

Moving a state so that the expectation of an observable A changes as fast
as possible means moving orthogonally to the level surfaces of the
recentered observable.  That path solves

    d rho / d lam = -R_rho(A - <A> 1),

whose solution through rho0 has the closed symmetric-exponential form

    rho(lam) = exp(-lam A / 2) rho0 exp(-lam A / 2) / tr(exp(-lam A) rho0).

This module provides the vector field, a fixed-step classical 4th-order
integrator (the closed form serves as its exact oracle, so the integrator
deliberately stays simple: no adaptivity, no trace renormalization), the
closed form itself, and bracketed root-finding (Illinois regula falsi)
along the closed form to hit a target expectation value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    Infeasible,
    InputValidationError,
    MaxIterExceeded,
    Overflow,
    PositivityLoss,
    StepInvalid,
)
from .geometry import raise_form, zero_mean_form
from .operators import (
    EXP_ARGUMENT_LIMIT,
    DensityOperator,
    HermitianOperator,
    _tilt,
    _tilt_support,
    eig_hermitian,
    expectation,
    hermitian_part,
)

__all__ = [
    "FlowSample",
    "FlowTrajectory",
    "flow_field",
    "integrate_flow",
    "closed_form_flow",
    "flow_to_constraint",
]

POSITIVITY_LOSS_TOL = 1e-8
MAX_STORED_SAMPLES = 1000


@dataclass(frozen=True, eq=False)
class FlowSample:
    """One trajectory point: parameter value, state, and mean of the observable."""

    lam: float
    state: DensityOperator
    mean: float


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Ordered samples of an integrated flow, at most ~1001 of them."""

    observable: HermitianOperator
    samples: tuple[FlowSample, ...]
    step: float

    def __post_init__(self) -> None:
        lams = [s.lam for s in self.samples]
        if not lams:
            raise InputValidationError("a trajectory needs at least one sample")
        diffs = np.diff(lams)
        if diffs.size and not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
            raise InputValidationError("sample parameters must be strictly monotone")


def flow_field(state: DensityOperator, observable: HermitianOperator) -> HermitianOperator:
    """The tangent direction -R_rho(A - <A> 1); traceless, hence a valid velocity."""
    delta = zero_mean_form(state, observable)
    pushed = raise_form(state, delta)
    return HermitianOperator(-pushed.entries)


def _check_positivity(y: np.ndarray, lam: float) -> None:
    smallest = float(np.linalg.eigvalsh(y)[0])
    if smallest < -POSITIVITY_LOSS_TOL:
        raise PositivityLoss(f"eigenvalue {smallest:.3e} at lambda {lam:.6g}; reduce the step")


def integrate_flow(
    start: DensityOperator,
    observable: HermitianOperator,
    lambda_end: float,
    step: float = 1e-3,
) -> FlowTrajectory:
    """Integrate the flow from ``start`` over [0, lambda_end] with fixed steps.

    Classical 4th-order Runge-Kutta.  A negative ``lambda_end`` integrates
    the same equation in the opposite parameter direction.  The trace is
    never renormalized, so trace drift measures integrator error.  A step
    too coarse for the problem raises PositivityLoss: at an eigenvalue below
    -1e-8, or at a recorded state that fails DensityOperator validation,
    whose failed invariant it names.  Roughly every ceil(n_steps/1000)-th
    step is recorded, plus the endpoint.
    """
    if start.dim != observable.dim:
        raise DimMismatch(f"state dim {start.dim} != observable dim {observable.dim}")
    if not (np.isfinite(step) and step > 0.0):
        raise StepInvalid(f"step must be positive and finite, got {step!r}")
    if not np.isfinite(lambda_end):
        raise StepInvalid(f"lambda_end must be finite, got {lambda_end!r}")

    a = observable.entries
    eye = np.eye(start.dim)

    def rhs(m: np.ndarray) -> np.ndarray:
        mean = np.einsum("ij,ji->", m, a).real
        delta = a - mean * eye
        return -0.5 * (m @ delta + delta @ m)

    length = abs(float(lambda_end))
    sign = 1.0 if lambda_end >= 0.0 else -1.0
    ratio = length / step
    n_steps = int(round(ratio)) if abs(ratio - round(ratio)) < 1e-9 else int(np.ceil(ratio))
    record_every = max(1, int(np.ceil(n_steps / MAX_STORED_SAMPLES)))

    y = np.array(start.entries, dtype=np.complex128)
    samples = [FlowSample(0.0, start, expectation(start, observable))]
    for k in range(1, n_steps + 1):
        lam_prev = sign * min((k - 1) * step, length)
        lam_k = sign * min(k * step, length)
        h = lam_k - lam_prev
        k1 = rhs(y)
        k2 = rhs(y + (h / 2.0) * k1)
        k3 = rhs(y + (h / 2.0) * k2)
        k4 = rhs(y + h * k3)
        y = hermitian_part(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if k == n_steps or k % record_every == 0:
            try:
                state = DensityOperator(y)
            except InputValidationError as exc:
                _check_positivity(y, lam_k)
                raise PositivityLoss(
                    f"state at lambda {lam_k:.6g} is not a density operator "
                    f"({type(exc).__name__}: {exc}); reduce the step"
                ) from exc
            samples.append(FlowSample(float(lam_k), state, expectation(state, observable)))
        else:
            _check_positivity(y, lam_k)
    return FlowTrajectory(observable=observable, samples=tuple(samples), step=float(step))


def closed_form_flow(
    start: DensityOperator, observable: HermitianOperator, lam: float
) -> DensityOperator:
    """The exact flow state exp(-lam A/2) rho0 exp(-lam A/2), normalized.

    lam = 0 returns ``start`` unchanged.  The kernel shifts the exponent of
    exp(-lam A/2) by its maximum, so the guard rejects |lam| (a_max - a_min)/2 > 700.
    """
    if start.dim != observable.dim:
        raise DimMismatch(f"state dim {start.dim} != observable dim {observable.dim}")
    if not np.isfinite(lam):
        raise InputValidationError(f"lam must be finite, got {lam!r}")
    if lam == 0.0:
        return start
    w, v = eig_hermitian(observable)
    span = 0.5 * abs(lam) * float(np.ptp(w))
    if span > EXP_ARGUMENT_LIMIT:
        raise Overflow(
            f"|lam| * (a_max - a_min) / 2 = {span:.6g} exceeds the "
            f"exponent guard {EXP_ARGUMENT_LIMIT:.0f}"
        )
    return _tilt(start, w, v, lam)


def flow_to_constraint(
    start: DensityOperator,
    observable: HermitianOperator,
    target: float,
    *,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> tuple[float, DensityOperator]:
    """Follow the closed-form flow until <A> reaches ``target``.

    Returns (lam, state) with |tr(state A) - target| <= tol.  The mean is
    strictly decreasing along the flow, so the crossing parameter is
    bracketed by doubling and then isolated by the Illinois variant of
    regula falsi (Dowell & Jarratt, BIT 11 (1971) 168) on the matrix-valued
    closed form; A is diagonalized once.  ``max_iter`` bounds the
    root-finding steps after bracketing.  This is an independent route to
    the same state as the variational single-constraint tilt.
    """
    if start.dim != observable.dim:
        raise DimMismatch(f"state dim {start.dim} != observable dim {observable.dim}")
    if not np.isfinite(target):
        raise InputValidationError("target must be finite")
    if not (np.isfinite(tol) and tol > 0.0):
        raise InputValidationError(f"tol must be positive and finite, got {tol!r}")
    w, v = eig_hermitian(observable)
    support = _tilt_support(start, w, v, target, tol, "state")
    if support is None:
        return 0.0, start
    spread = float(np.ptp(support[0]))
    f0 = expectation(start, observable) - target
    if abs(f0) <= tol:
        return 0.0, start

    def offset(lam: float) -> tuple[float, DensityOperator]:
        state = _tilt(start, w, v, lam)
        return expectation(state, observable) - target, state

    # the mean saturates at an end of the support, which lies strictly past the
    # target: double away from 0 on the side where the mean moves toward it
    boundary = f"target {target!r} numerically at the boundary"
    a, fa, b = 0.0, f0, 1.0 if f0 > 0.0 else -1.0
    while True:
        if not np.isfinite(b * spread):
            raise Infeasible(boundary)
        try:
            fb, state = offset(b)
        except Overflow as exc:
            raise Infeasible(boundary) from exc
        if fb * f0 <= 0.0:
            break
        a, fa, b = b, fb, 2.0 * b

    # regula falsi between a and b that halves the value kept at a whenever
    # the new point lands on b's side again, so neither end stalls
    for _ in range(max_iter):
        if abs(fb) <= tol:
            break
        c = b - fb * (b - a) / (fb - fa)
        fc, state = offset(c)
        if fc * fb < 0.0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    if abs(fb) > tol:
        raise MaxIterExceeded(
            f"root finding did not reach tolerance {tol!r} in {max_iter} iterations"
        )
    return float(b), state
