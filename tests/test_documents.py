from __future__ import annotations

import json

import numpy as np
import pytest

from qmaxent import InputValidationError, NotPositive, TraceNotOne, make_density
from qmaxent.documents import (
    density_from_document,
    operator_from_document,
    operator_to_document,
    problem_from_document,
)

from helpers import SIGMA_X, rand_density, rand_hermitian


def test_round_trip_is_bit_exact(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        op = rand_hermitian(rng, n)
        doc = json.loads(json.dumps(operator_to_document(op)))
        back = operator_from_document(doc)
        assert np.array_equal(back.entries, op.entries)


def test_density_round_trip_is_bit_exact(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        rho = rand_density(rng, n)
        doc = json.loads(json.dumps(operator_to_document(rho)))
        back = density_from_document(doc)
        assert np.array_equal(back.entries, rho.entries)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("re"),
        lambda d: d.pop("im"),
        lambda d: d.update(dim="two"),
        lambda d: d.update(dim=3),
        lambda d: d.update(re=[[0.0, 1.0], [0.5, 0.0]]),
        lambda d: d.update(im=[[0.0, 1.0], [1.0, 0.0]]),
        lambda d: d.update(re=[[float("nan"), 0.0], [0.0, 0.0]]),
        lambda d: d.update(im=[[0.0, float("inf")], [float("-inf"), 0.0]]),
        lambda d: d.update(re=[[True, 0], [0, False]]),
        lambda d: d.update(re=[["0.5", "1e0"], ["1", " 2 "]]),
        lambda d: d.update(re=[[10**400, 0], [0, 0]]),
    ],
)
def test_invalid_operator_documents(mutate):
    doc = operator_to_document(make_density(np.eye(2) / 2))
    mutate(doc)
    with pytest.raises(InputValidationError):
        operator_from_document(doc)


@pytest.mark.parametrize("field, entry", [("re", True), ("im", "0")])
def test_matrix_entries_must_be_numbers(field, entry):
    doc = operator_to_document(make_density(np.eye(2) / 2))
    doc[field][0][1] = doc[field][1][0] = entry
    with pytest.raises(InputValidationError, match=f"'{field}' entries must be numbers"):
        operator_from_document(doc)


def test_first_bad_matrix_entry_in_row_order_is_named():
    doc = operator_to_document(make_density(np.eye(2) / 2))
    doc["re"] = [[0.5, "0"], [True, 0.5]]  # in column order True would come first
    with pytest.raises(InputValidationError, match="'re' entries must be numbers, got '0'$"):
        operator_from_document(doc)
    # a float subclass is a number: its type alone sends the entries to the per-entry scan
    doc["re"] = [[np.float64(0.5), 0.0], [0.0, 0.5]]
    assert operator_from_document(doc).entries[0, 0] == 0.5


def test_density_document_checks_state_invariants():
    doc = operator_to_document(make_density(np.eye(2) / 2))
    doc["re"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(TraceNotOne):
        density_from_document(doc)
    doc["re"] = [[1.2, 0.0], [0.0, -0.2]]
    with pytest.raises(NotPositive):
        density_from_document(doc)


def test_loose_document_hermiticity_is_symmetrized():
    # document tolerance (1e-9) is looser than the operator tolerance
    # (1e-12); parsing must symmetrize so validation cannot trip downstream
    doc = {
        "dim": 2,
        "re": [[0.0, 1.0 + 1e-10], [1.0, 0.0]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }
    op = operator_from_document(doc)
    assert np.abs(op.entries - op.entries.conj().T).max() == 0.0


class TestProblemDocument:
    def problem(self, mode="maxent", n_obs=1, n_targets=1, prior=True):
        doc = {
            "mode": mode,
            "observables": [
                operator_to_document(make_density(np.eye(2) / 2)) for _ in range(n_obs)
            ],
            "targets": [0.1] * n_targets,
        }
        if prior:
            doc["prior"] = operator_to_document(make_density(np.eye(2) / 2))
        return doc

    def test_valid_modes(self):
        assert problem_from_document(self.problem()).mode == "maxent"
        assert problem_from_document(
            self.problem(mode="prior_tilt")
        ).prior is not None
        assert problem_from_document(self.problem(mode="flow", n_targets=0)).mode == "flow"
        assert problem_from_document(
            self.problem(mode="metric", n_obs=2, n_targets=0)
        ).mode == "metric"

    def test_unknown_mode(self):
        with pytest.raises(InputValidationError):
            problem_from_document(self.problem(mode="estimate"))

    def test_maxent_length_mismatch(self):
        with pytest.raises(InputValidationError):
            problem_from_document(self.problem(n_obs=2, n_targets=1))

    def test_prior_tilt_requires_one_observable_and_prior(self):
        with pytest.raises(InputValidationError):
            problem_from_document(self.problem(mode="prior_tilt", n_obs=2, n_targets=2))
        with pytest.raises(InputValidationError):
            problem_from_document(self.problem(mode="prior_tilt", prior=False))

    def test_flow_requires_prior(self):
        with pytest.raises(InputValidationError):
            problem_from_document(self.problem(mode="flow", n_targets=0, prior=False))

    @pytest.mark.parametrize("mode, n_obs", [("flow", 1), ("metric", 2)])
    def test_targets_refused(self, mode, n_obs):
        # neither subcommand reads targets, so a document that carries them is refused
        with pytest.raises(InputValidationError, match="0 targets"):
            problem_from_document(self.problem(mode=mode, n_obs=n_obs, n_targets=1))

    def test_non_finite_target(self):
        doc = self.problem()
        doc["targets"] = [float("inf")]
        with pytest.raises(InputValidationError):
            problem_from_document(doc)

    def test_boolean_target_rejected(self):
        doc = self.problem()
        doc["targets"] = [True]
        with pytest.raises(InputValidationError):
            problem_from_document(doc)

    @pytest.mark.parametrize(
        "observables, message",
        [
            ([[[0.5, 0.0], [0.0, 0.5]]], "operator document must be a JSON object"),
            ({"dim": 2}, "'observables' must be a list"),
        ],
    )
    def test_observables_must_be_a_list_of_objects(self, observables, message):
        doc = self.problem()
        doc["observables"] = observables
        with pytest.raises(InputValidationError, match=message):
            problem_from_document(doc)

    @pytest.mark.parametrize("targets", [[10**400], ["0.1"], [[0.1]], 0.1])
    def test_targets_must_be_numbers(self, targets):
        doc = self.problem()
        doc["targets"] = targets
        with pytest.raises(InputValidationError, match="targets"):
            problem_from_document(doc)

    def test_pauli_observable_accepted(self):
        doc = self.problem()
        doc["observables"] = [
            {
                "dim": 2,
                "re": SIGMA_X.real.tolist(),
                "im": SIGMA_X.imag.tolist(),
            }
        ]
        parsed = problem_from_document(doc)
        assert np.array_equal(parsed.observables[0].entries, SIGMA_X)
