"""Every number, array and operator slot of the public API refuses a malformed value with a
``QuantumMaxEntError``: the library's twin of criterion 12's CLI fuzz corpus.

The table holds each public callable with arguments it accepts; every slot not named in
``EXEMPT`` is filled in turn with each value of ``PROBES``, the others kept valid.  Every
parameter typed DensityOperator, a state slot, also refuses a Hermitian operator that is not one.
"""

from __future__ import annotations

import inspect
import typing

import numpy as np
import pytest

import qmaxent
from qmaxent import (
    ConstraintSet,
    DensityOperator,
    HermitianOperator,
    InputValidationError,
    QuantumMaxEntError,
    TangentDecomposition,
    make_density,
    make_hermitian,
)

from helpers import SIGMA_X, SIGMA_Z

RHO = make_density(np.diag([0.7, 0.3]))
A = make_hermitian(SIGMA_Z)
B = make_hermitian(SIGMA_X)
CONSTRAINTS = ConstraintSet((A,), [0.2])
DIRECTION = TangentDecomposition([0.1, -0.1], 0.2, B)

# a string, nothing, a complex number, a list of strings, an array no slot accepts, a bool,
# and a square matrix of NaNs, which reaches the matrix constructors' non-finite refusal
PROBES = ("x", None, 0.1 + 0.2j, ["a"], np.zeros((2, 2, 2)), True, np.full((2, 2), np.nan))

# name: (positional arguments, keyword arguments), every one of them accepted
CALLS = {
    "ConstraintSet": (((A,), [0.2]), {"dim": 2}),
    "DensityOperator": ((np.eye(2) / 2,), {}),
    "HermitianOperator": ((SIGMA_Z,), {}),
    "TangentDecomposition": (([0.1, -0.1], 0.2, B), {}),
    "apply_spectral_function": ((A, "exp"), {}),
    "assemble_tangent": ((RHO, DIRECTION), {}),
    "classical_gibbs_oracle": (([0.5, 0.5], [[1.0, -1.0]], [0.2]), {"tol": 1e-12, "max_iter": 200}),
    "closed_form_flow": ((RHO, A, 0.5), {}),
    "commutator_norm": ((A, B), {}),
    "dual_objective": (([0.1], CONSTRAINTS), {}),
    "eig_hermitian": ((A,), {}),
    "entropy_sensitivity": ((CONSTRAINTS,), {"tol": 1e-10, "max_iter": 500}),
    "expectation": ((RHO, A), {}),
    "flow_field": ((RHO, A), {}),
    "flow_to_constraint": ((RHO, A, 0.2), {"tol": 1e-10, "max_iter": 100}),
    "gibbs_state": (([0.1], (A,)), {}),
    "hermitian_part": ((SIGMA_Z,), {}),
    "integrate_flow": ((RHO, A, 0.01, 1e-3), {}),
    "line_element": ((RHO, DIRECTION), {}),
    "lower_vector": ((RHO, B), {}),
    "make_density": ((np.eye(2) / 2,), {}),
    "make_hermitian": ((SIGMA_Z,), {}),
    "metric_forms": ((RHO, A, B), {}),
    "metric_vectors": ((RHO, A, B), {}),
    "partition_function": (([0.1], (A,)), {}),
    "raise_form": ((RHO, A), {}),
    "relative_entropy": ((RHO, make_density(np.eye(2) / 2)), {}),
    "solve_maxent": ((CONSTRAINTS,), {"tol": 1e-10, "max_iter": 500}),
    "solve_prior_tilt": ((RHO, A, 0.2), {"tol": 1e-10, "max_iter": 100}),
    "trace_distance": ((RHO, make_density(np.eye(2) / 2)), {}),
    "von_neumann_entropy": ((RHO,), {}),
    "zero_mean_form": ((RHO, A), {}),
}

# public names that take no caller numbers or operands to judge
RECORDS = {
    "FlowSample": "a result record, built by integrate_flow from values it computed",
    "FlowTrajectory": "a result record, built by integrate_flow from values it computed",
    "MaxEntSolution": "a result record, built by solve_maxent from values it computed",
}

# (name, slot): why the slot is outside the rule; a slot is a position or a keyword
EXEMPT = {
    ("hermitian_part", 0): "an ndarray utility: (M + M^dag)/2 of any array, judging nothing",
}
# (name, slot): a probe that is a valid value of that slot, and why
ACCEPTED = {("ConstraintSet", "dim"): (None, "None is dim's default: the observables' dimension")}


def _slots():
    for name, (args, kwargs) in sorted(CALLS.items()):
        for slot in [*range(len(args)), *kwargs]:
            if (name, slot) not in EXEMPT:
                yield name, slot


def _call(name: str, slot, value):
    args, kwargs = CALLS[name]
    args, kwargs = list(args), dict(kwargs)
    if isinstance(slot, int):
        args[slot] = value
    else:
        kwargs[slot] = value
    return getattr(qmaxent, name)(*args, **kwargs)


def test_table_covers_the_public_api():
    callables = {
        name
        for name in qmaxent.__all__
        if not (isinstance(obj := getattr(qmaxent, name), type) and issubclass(obj, Exception))
    }  # an error class takes any message
    assert callables == set(CALLS) | set(RECORDS)
    assert {name for name, _ in EXEMPT} <= set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_valid_arguments_are_accepted(name):
    args, kwargs = CALLS[name]
    getattr(qmaxent, name)(*args, **kwargs)


@pytest.mark.parametrize("name, slot", list(_slots()))
def test_malformed_values_raise_typed_errors(name, slot):
    escapes = []
    accepted = ACCEPTED.get((name, slot), (object(),))[0]
    for probe in PROBES:
        if probe is accepted:
            continue
        try:
            _call(name, slot, probe)
        except QuantumMaxEntError:
            continue
        except Exception as exc:  # an untyped escape is what this test looks for
            escapes.append(f"{probe!r}: {type(exc).__name__}: {exc}")
        else:
            escapes.append(f"{probe!r}: accepted")
    assert escapes == []


def _state_slots():
    """(name, slot) of every public parameter typed DensityOperator: a position, or a keyword
    where ``CALLS`` passes one."""
    for name, (args, _) in sorted(CALLS.items()):
        callable_ = getattr(qmaxent, name)
        hints = typing.get_type_hints(callable_)
        for position, parameter in enumerate(inspect.signature(callable_).parameters):
            if hints.get(parameter) is DensityOperator:
                yield name, position if position < len(args) else parameter


STATE_SLOTS = list(_state_slots())


def test_state_slots_are_found():
    assert len(STATE_SLOTS) == 18
    assert ("trace_distance", 1) in STATE_SLOTS and ("solve_prior_tilt", 0) in STATE_SLOTS


@pytest.mark.parametrize("name, slot", STATE_SLOTS)
def test_state_slots_take_only_density_operators(name, slot):
    # Hermitian operators that are not states: one of trace 1 with a negative eigenvalue, and
    # one positive of trace 1.2; a state slot refuses either by its kind
    for operator in (make_hermitian(np.diag([2.0, -1.0])), make_hermitian(np.diag([0.9, 0.3]))):
        with pytest.raises(InputValidationError, match="DensityOperator, got HermitianOperator"):
            _call(name, slot, operator)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ConstraintSet((A,), [0.2 + 0j]),
        lambda: ConstraintSet((A,), np.array([0.2], dtype=complex)),
        lambda: qmaxent.closed_form_flow(RHO, A, np.complex128(0.5)),
        lambda: qmaxent.integrate_flow(RHO, A, 0.01, np.bool_(True)),
        lambda: qmaxent.solve_maxent(CONSTRAINTS, tol=1e-10 + 0j),
        lambda: TangentDecomposition(np.array([True, False]), 0.0, B),
    ],
)
def test_complex_and_bool_numbers_are_refused(call):
    # a complex number is refused even with a zero imaginary part, as a bool is everywhere
    with pytest.raises(QuantumMaxEntError, match="entries must be numbers"):
        call()


def test_numpy_numbers_are_numbers():
    # numpy integers and floats, alone or in lists, are judged as Python's are
    solution = qmaxent.solve_maxent(ConstraintSet((A,), [np.float32(0.25)], dim=np.int64(2)))
    reference = qmaxent.solve_maxent(ConstraintSet((A,), [float(np.float32(0.25))]))
    assert np.array_equal(solution.multipliers, reference.multipliers)
    assert qmaxent.closed_form_flow(RHO, A, np.int64(1)) is not RHO
    assert isinstance(make_hermitian([[np.int8(1), 0], [0, np.float16(2)]]), HermitianOperator)
    assert isinstance(DensityOperator(np.eye(2, dtype=np.float32) / 2), DensityOperator)
