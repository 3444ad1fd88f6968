from __future__ import annotations

import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qmaxent.cli
from qmaxent import closed_form_flow, expectation, make_hermitian, metric_forms
from qmaxent.cli import run
from qmaxent.documents import operator_to_document

from helpers import rand_density, rand_hermitian, run_python

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run_captured(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_qubit_xz(self, capsys):
        code, out, _ = run_captured(
            capsys, ["estimate", "--problem", fixture("qubit_xz.json"), "--tol", "1e-10"]
        )
        assert code == 0
        result = json.loads(out)
        expected = [[0.7, 0.15], [0.15, 0.3]]
        assert np.allclose(result["estimate"]["re"], expected, atol=1e-8)
        b = np.arctanh(0.5)
        assert np.allclose(result["multipliers"], [-b * 0.6, -b * 0.8], atol=1e-6)
        assert result["residual"] <= 1e-10
        assert result["iterations"] >= 1

    def test_infeasible_exit_code(self, capsys):
        code, out, err = run_captured(
            capsys, ["estimate", "--problem", fixture("infeasible_z.json")]
        )
        assert code == 3
        assert out == ""
        message = json.loads(err)
        assert message["error"] == "Infeasible"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_captured(
            capsys,
            ["estimate", "--problem", fixture("qubit_z.json"), "--output", str(target)],
        )
        assert code == 0
        assert out == ""
        result = json.loads(target.read_text())
        assert result["multipliers"][0] == pytest.approx(-np.log(2.0), abs=1e-8)

    def test_prior_refused(self, capsys, tmp_path):
        # relative-entropy MaxEnt with a prior is not implemented; it must not be dropped
        doc = json.loads(Path(fixture("qubit_z.json")).read_text())
        doc["prior"] = {"dim": 2, "re": [[0.9, 0.0], [0.0, 0.1]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        path = tmp_path / "with_prior.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_captured(capsys, ["estimate", "--problem", str(path)])
        assert code == 2
        assert out == ""
        message = json.loads(err)
        assert message["error"] == "InputValidationError"
        assert "prior" in message["message"]

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        # the last resort: an exception outside the package's errors still exits 2 with one
        # JSON line on stderr and nothing on stdout
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(qmaxent.cli, "solve_maxent", fail)
        code, out, err = run_captured(capsys, ["estimate", "--problem", fixture("qubit_xz.json")])
        assert (code, out) == (2, "")
        assert err == '{"error": "InternalError", "message": "RuntimeError: boom"}\n'


class TestLauncher:
    def test_module_entry_point(self, capsys):
        # the console entry freezes the import-time heap, then runs the library path: its bytes
        # are run()'s, and run() leaves a library caller's heap unfrozen
        frozen = gc.get_freeze_count()
        code, out, _ = run_captured(capsys, ["estimate", "--problem", fixture("qubit_xz.json")])
        assert (code, gc.get_freeze_count()) == (0, frozen)
        proc = run_python("-m", "qmaxent.cli", "estimate", "--problem", fixture("qubit_xz.json"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out
        assert json.loads(proc.stdout)["residual"] <= 1e-10
        infeasible = fixture("infeasible_z.json")
        proc = run_python("-m", "qmaxent.cli", "estimate", "--problem", infeasible)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert json.loads(proc.stderr)["error"] == "Infeasible"

    def test_console_entry_freezes_the_import_time_heap(self):
        # an atexit handler runs after main's sys.exit and reads what the exit collections skip
        proc = run_python(
            "-c",
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            "from qmaxent.cli import main\n"
            f"sys.argv[1:] = ['entropy', '--state', {fixture('state_mixed.json')!r}]\n"
            "main()",
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr) > 1000


class TestEntropy:
    def test_mixed_state(self, capsys):
        code, out, _ = run_captured(capsys, ["entropy", "--state", fixture("state_mixed.json")])
        assert code == 0
        value = json.loads(out)["entropy_nats"]
        assert value == pytest.approx(-0.8 * np.log(0.8) - 0.2 * np.log(0.2), abs=1e-12)

    def test_pure_state_prints_positive_zero(self, capsys):
        code, out, _ = run_captured(capsys, ["entropy", "--state", fixture("state_pure0.json")])
        assert code == 0
        assert out == '{"entropy_nats": 0.0}\n'
        assert math.copysign(1.0, json.loads(out)["entropy_nats"]) == 1.0

    def test_relative_entropy(self, capsys):
        code, out, _ = run_captured(
            capsys,
            [
                "rel-entropy",
                "--state",
                fixture("state_mixed.json"),
                "--prior",
                fixture("state_uniform.json"),
            ],
        )
        assert code == 0
        value = json.loads(out)["relative_entropy_nats"]
        expected = (-0.8 * np.log(0.8) - 0.2 * np.log(0.2)) - np.log(2.0)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_eigensolver_failure_exit_code(self, capsys, monkeypatch):
        # a spectrum that does not converge is a numerical failure, not an internal error
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, out, err = run_captured(capsys, ["entropy", "--state", fixture("state_mixed.json")])
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == "ConvergenceFailure"

    def test_support_violation_exit_code(self, capsys):
        code, _, err = run_captured(
            capsys,
            [
                "rel-entropy",
                "--state",
                fixture("state_pure0.json"),
                "--prior",
                fixture("state_pure1.json"),
            ],
        )
        assert code == 4
        assert json.loads(err)["error"] == "SupportViolation"


class TestTilt:
    def test_non_commuting_prior(self, capsys):
        code, out, _ = run_captured(capsys, ["tilt", "--problem", fixture("tilt_xz.json")])
        assert code == 0
        result = json.loads(out)
        assert result["lambda"] == pytest.approx(-np.log(2.0), abs=1e-9)
        assert np.allclose(result["estimate"]["re"], [[0.8, 0.2], [0.2, 0.2]], atol=1e-9)
        assert result["achieved"] == pytest.approx(0.6, abs=1e-10)

    def test_iteration_cap_exit_code(self, capsys):
        # --max-iter reaches the classical core the tilt runs on; one step does not meet 0.6
        code, out, err = run_captured(
            capsys, ["tilt", "--problem", fixture("tilt_xz.json"), "--max-iter", "1"]
        )
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == "MaxIterExceeded"

    @pytest.mark.parametrize("target, expected", [(1.0, 0), (0.5, 3)])
    def test_observable_constant_on_the_support(self, capsys, tmp_path, target, expected):
        # A is 1 on the prior's support: the target 1 needs no tilt, 0.5 is out of reach
        doc = {
            "mode": "prior_tilt",
            "observables": [operator_to_document(make_hermitian(np.diag([1.0, 1.0, -1.0])))],
            "prior": operator_to_document(make_hermitian(np.diag([0.5, 0.5, 0.0]))),
            "targets": [target],
        }
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_captured(capsys, ["tilt", "--problem", str(path)])
        assert code == expected
        if expected:
            assert out == ""
            assert json.loads(err)["error"] == "Infeasible"
        else:
            assert '"lambda": 0.0' in out

    def test_target_met_at_the_end_of_the_range(self, capsys, tmp_path):
        # the prior's mean is within tol of A's top eigenvalue, the target: returned untilted
        doc = {
            "mode": "prior_tilt",
            "observables": [operator_to_document(make_hermitian(np.diag([1.0, -1.0])))],
            "prior": operator_to_document(make_hermitian(np.diag([1.0 - 1e-12, 1e-12]))),
            "targets": [1.0],
        }
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_captured(capsys, ["tilt", "--problem", str(path)])
        assert code == 0
        result = json.loads(out)
        assert result["lambda"] == 0.0
        assert abs(result["achieved"] - 1.0) <= 1e-10


class TestFlow:
    def test_trajectory_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code, out, _ = run_captured(
            capsys,
            [
                "flow",
                "--problem",
                fixture("flow_z.json"),
                "--lambda-end",
                "1.0",
                "--step",
                "1e-3",
                "--csv",
                str(csv_path),
            ],
        )
        assert code == 0
        result = json.loads(out)
        assert result["final_mean"] == pytest.approx(-np.tanh(1.0), abs=1e-9)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "lambda,mean,trace_error"
        assert len(lines) == 1002
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(-np.tanh(1.0), abs=1e-9)
        assert float(last[2]) <= 1e-12

    def test_bad_step_exit_code(self, capsys):
        code, _, err = run_captured(
            capsys,
            ["flow", "--problem", fixture("flow_z.json"), "--lambda-end", "1.0", "--step", "0"],
        )
        assert code == 2
        assert json.loads(err)["error"] == "StepInvalid"

    def test_non_finite_lambda_end_exit_code(self, capsys):
        argv = ["flow", "--problem", fixture("flow_z.json"), "--lambda-end", "nan"]
        code, out, err = run_captured(capsys, argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "StepInvalid"

    def test_step_count_overflow_exit_code(self, capsys):
        argv = ["flow", "--problem", fixture("flow_z.json"), "--lambda-end", "1.0"]
        code, out, err = run_captured(capsys, argv + ["--step", "5e-324"])
        assert (code, out) == (2, "")
        message = json.loads(err)
        assert message["error"] == "StepInvalid"
        assert "step 5e-324" in message["message"]
        assert "lambda_end 1.0" in message["message"]

    def test_step_count_over_the_limit_exit_code(self):
        # 1e300 steps are refused up front, in a fresh process that would otherwise run for ages
        argv = ["flow", "--problem", fixture("flow_z.json"), "--lambda-end", "1.0"]
        proc = run_python("-m", "qmaxent.cli", *argv, "--step", "1e-300")
        assert (proc.returncode, proc.stdout) == (2, "")
        message = json.loads(proc.stderr)
        assert message["error"] == "StepInvalid"
        assert "step 1e-300 needs > 1000000 steps" in message["message"]
        assert "lambda_end 1.0" in message["message"]

    def test_invalid_recorded_state_exit_code(self, capsys, tmp_path):
        psi = np.array([np.cos(0.286), np.sin(0.286)])
        document = json.loads(Path(fixture("flow_z.json")).read_text())
        document["observables"][0]["re"] = [[0.5, 0.0], [0.0, -0.5]]
        document["prior"]["re"] = np.outer(psi, psi).tolist()
        problem = tmp_path / "pure_prior.json"
        problem.write_text(json.dumps(document))
        argv = ["flow", "--problem", str(problem), "--lambda-end", "1.0", "--step", "0.1"]
        code, out, err = run_captured(capsys, argv)
        assert code == 4
        assert out == ""
        message = json.loads(err)
        assert message["error"] == "PositivityLoss"
        assert "NotPositive" in message["message"]


class TestMetric:
    def test_value(self, capsys):
        code, out, _ = run_captured(capsys, ["metric", "--problem", fixture("metric_xz.json")])
        assert code == 0
        # <(XZ + ZX)/2> vanishes for every qubit state
        assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-14)


class TestLargeObservables:
    """A complex 6x6 instance scaled by 1e7: the rounding in its products far exceeds 1e-12."""

    SCALE = 1e7

    def instance(self, tmp_path, mode, n_obs):
        rng = np.random.default_rng(3)
        observables = [rand_hermitian(rng, 6) for _ in range(n_obs)]
        state = rand_density(rng, 6, 0.01)
        scaled = [make_hermitian(self.SCALE * a.entries) for a in observables]
        doc = {
            "mode": mode,
            "observables": [operator_to_document(a) for a in scaled],
            "prior": operator_to_document(state),
        }
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(doc))
        return str(path), state, observables

    def test_metric(self, capsys, tmp_path):
        path, state, (a, b) = self.instance(tmp_path, "metric", 2)
        code, out, err = run_captured(capsys, ["metric", "--problem", path])
        assert code == 0, err
        expected = self.SCALE**2 * metric_forms(state, a, b)
        assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-12)

    def test_flow(self, capsys, tmp_path):
        path, state, (a,) = self.instance(tmp_path, "flow", 1)
        argv = ["flow", "--problem", path, "--lambda-end", "1e-10", "--step", "1e-12"]
        code, out, err = run_captured(capsys, argv)
        assert code == 0, err
        big = make_hermitian(self.SCALE * a.entries)
        expected = expectation(closed_form_flow(state, big, 1e-10), big)
        assert json.loads(out)["final_mean"] == pytest.approx(expected, rel=1e-12)

    def test_metric_of_computed_product(self, capsys, tmp_path):
        # A = XY + YX at x1e5 has entries up to 9.2e10 and a rounding asymmetry of 1.6e-5
        rng = np.random.default_rng(3)
        x, y = (1e5 * rand_hermitian(rng, 6).entries for _ in range(2))
        state = rand_density(rng, 6, 0.01)
        a = x @ y + y @ x
        doc = {
            "mode": "metric",
            "observables": [
                {"dim": 6, "re": a.real.tolist(), "im": a.imag.tolist()},
                operator_to_document(make_hermitian(x)),
            ],
            "prior": operator_to_document(state),
        }
        path = tmp_path / "product.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_captured(capsys, ["metric", "--problem", str(path)])
        assert code == 0, err
        expected = metric_forms(state, make_hermitian(a), make_hermitian(x))
        assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-12)


class TestErrorMapping:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1.5e308])
    def test_metric_overflow_exit_code(self, capsys, tmp_path, scale):
        # g(A, A) of diag(s, -s, 0) overflows; at 1.5e308 so does R_rho(A) itself
        a = operator_to_document(make_hermitian(np.diag([scale, -scale, 0.0])))
        prior = operator_to_document(make_hermitian(np.diag([0.7, 0.2, 0.1])))
        path = tmp_path / "metric.json"
        path.write_text(json.dumps({"mode": "metric", "observables": [a, a], "prior": prior}))
        code, out, err = run_captured(capsys, ["metric", "--problem", str(path)])
        assert (code, out, err.count("\n")) == (4, "", 1)
        assert json.loads(err)["error"] == "Overflow"

    def test_malformed_json(self, capsys):
        code, _, err = run_captured(
            capsys, ["estimate", "--problem", fixture("malformed.json")]
        )
        assert code == 2
        assert json.loads(err)["error"] == "InputValidationError"

    def test_missing_file(self, capsys):
        code, _, _ = run_captured(capsys, ["estimate", "--problem", "/nonexistent.json"])
        assert code == 2

    def test_document_invariant_named(self, capsys):
        code, _, err = run_captured(
            capsys, ["estimate", "--problem", fixture("bad_asymmetric.json")]
        )
        assert code == 2
        assert "symmetry" in json.loads(err)["message"]
        assert json.loads(err)["error"] == "NotHermitian"

    def test_wrong_mode(self, capsys):
        code, _, err = run_captured(capsys, ["tilt", "--problem", fixture("qubit_xz.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "name, argv",
        [("flow_z.json", ["flow", "--lambda-end", "0.5"]), ("metric_xz.json", ["metric"])],
    )
    def test_targets_refused(self, capsys, tmp_path, name, argv):
        doc = json.loads(Path(fixture(name)).read_text())
        doc["targets"] = [0.3]
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code, out, err = run_captured(capsys, argv + ["--problem", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "InputValidationError"

    @pytest.mark.parametrize("flag", ["--csv", "--output"])
    def test_unwritable_path(self, capsys, tmp_path, flag):
        # the result must not reach stdout before a failed write
        argv = ["flow", "--problem", fixture("flow_z.json"), "--lambda-end", "0.1"]
        code, out, err = run_captured(capsys, argv + [flag, str(tmp_path / "missing" / "out")])
        assert code == 2
        assert out == ""
        message = json.loads(err)
        assert message["error"] == "InputValidationError"
        assert message["message"].startswith("cannot write")

    def test_unknown_flag(self, capsys):
        code, _, err = run_captured(capsys, ["estimate", "--nope"])
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"

    def test_solver_flags_only_on_solving_subcommands(self, capsys):
        argv = ["flow", "--problem", fixture("flow_z.json"), "--lambda-end", "1.0"]
        code, out, err = run_captured(capsys, argv + ["--tol", "1e-3"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "UsageError"

    def test_bad_tolerance(self, capsys):
        code, _, _ = run_captured(
            capsys,
            ["estimate", "--problem", fixture("qubit_z.json"), "--tol", "-1"],
        )
        assert code == 2


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        argv = ["estimate", "--problem", fixture("qubit_xz.json")]
        _, first, _ = run_captured(capsys, argv)
        _, second, _ = run_captured(capsys, argv)
        assert first == second

    def test_round_trip_of_estimate_document(self, capsys):
        code, out, _ = run_captured(capsys, ["estimate", "--problem", fixture("qubit_z.json")])
        assert code == 0
        from qmaxent.documents import density_from_document, operator_to_document

        doc = json.loads(out)["estimate"]
        state = density_from_document(doc)
        assert operator_to_document(state) == {k: doc[k] for k in ("dim", "re", "im")}
