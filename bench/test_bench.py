"""The benchmark's own tests, kept out of the Tier-1 suite.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import qmaxent  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def command(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_command():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    as_spec = lambda rows: [{"name": n, "unit": u, "better": b} for n, u, b in rows]  # noqa: E731
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in SPEC["end_to_end"]] == as_spec(
        run.END_TO_END
    )
    assert SPEC["per_layer"] == as_spec(run.PER_LAYER)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = command("--workload", "flow_navigate", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {
        name: {"value": pytest.approx(result["metrics"][name]["value"]), "unit": unit}
        for name, unit, _ in run.END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "wrapped bindings 0 before and after measuring" in proc.stdout
    assert "host factor" in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (
        command("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        for _ in range(2)
    )
    results = [result_line(first), result_line(second)]
    for proc, result in zip((first, second), results):
        assert result["correct"], proc.stderr
        assert set(result["metrics"]) == {name for name, _, _ in run.PER_LAYER}
        # estimate_cold's solver failures are reported, so it exits 1
        assert proc.returncode == (1 if result["failed"] else 0)
    counts = [{name: r["metrics"][name]["value"] for name in run.EXACT} for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["operators.eigh.calls"] > 0 and counts[0]["operators.eigvalsh.calls"] > 0
    # figures come from the workload's own operations: a layer it never reaches reads 0
    integrates = workload in ("flow_navigate", "cli_oneshot")
    assert (counts[0]["flow.integrate_flow.steps"] > 0) == integrates
    assert (counts[0]["maxent.solve_maxent.calls"] > 0) == (workload != "flow_navigate")


def test_estimate_cold_failures_are_reported_not_hidden():
    proc = command("--workload", "estimate_cold", "--seed", "1", "--seconds", "3", "--trace", "0")
    result = result_line(proc)
    assert result["correct"]
    assert result["failed"] > 0 and proc.returncode == 1
    assert "FAIL workload=estimate_cold seed=1 op=" in proc.stderr
    assert "MaxIterExceeded" in proc.stderr


def test_tracing_restores_every_binding():
    assert tracing.wrapped_bindings() == 0
    tracer = tracing.Tracer()
    op = workloads.flow_navigate(1, True)[0]
    with tracer.installed():
        assert tracing.wrapped_bindings() == len(tracing._BINDINGS) + 3
        inputs = op.prepare()
        assert op.check(inputs, tracer.operation(0, lambda: op.run(inputs))) is None
    assert tracing.wrapped_bindings() == 0
    names = {s.name for s in tracer.spans}
    assert {"flow.integrate_flow", "flow.flow_to_constraint", "geometry.metric_vectors"} <= names
    assert "maxent.solve_maxent" not in names
    nested = [s for s in tracer.spans if s.name == "flow.closed_form_flow" and s.parent > 0]
    assert nested, "calls between layers are traced with their parent span"
    assert all(tracer.spans[s.parent].name == "flow.flow_to_constraint" for s in nested)


def test_crash_makes_the_run_incorrect():
    """A typed qmaxent refusal is a failure; any other exception is a wrong answer."""
    op = workloads.estimate_sizes(1, False)[0]

    def refuse(_):
        raise qmaxent.MaxIterExceeded("refused")

    def crash(_):
        raise TypeError("crashed")

    ledger = run.Ledger("estimate_sizes", 1)
    assert ledger.attempt(dataclasses.replace(op, run=refuse), 0)[1] is False
    assert ledger.correct and len(ledger.failures) == 1
    assert ledger.attempt(dataclasses.replace(op, run=crash), 1)[1] is False
    assert not ledger.correct and ledger.failures[-1][0] == "wrong"


def test_every_cli_request_runs_through_the_launcher(tmp_path):
    """A launcher that exits 0 and prints nothing would fail here, not read as fast."""
    for label, argv, expected, oracle in workloads.cli_requests(7, tmp_path):
        outcome = workloads.run_subprocess(argv, None, tmp_path)
        assert workloads.check_cli(outcome, argv[0], expected, oracle) is None, label
        assert outcome.code == expected, label
        assert outcome.maxrss_kb > 0, label
        if expected == 0:
            assert json.loads(outcome.stdout), label


def test_silent_launcher_is_a_failure():
    silent = workloads.CliOutcome(0, b"", b"", None)
    assert workloads.check_cli(silent, "estimate", 0, None) is not None
    assert workloads.check_cli(silent, "rel-entropy", 4, None) is not None


def test_wrong_estimate_is_caught():
    op = workloads.estimate_sizes(1, True)[1]
    case = op.prepare()
    solution, gradient = op.run(case)
    assert op.check(case, (solution, gradient)) is None

    class Shifted:
        residual = solution.residual
        estimate = solution.estimate
        s_max = solution.s_max + 1e-3

    assert "s_max" in op.check(case, (Shifted(), gradient))
    assert "dual gradient" in op.check(case, (solution, gradient + 1e-6))


def test_estimate_inputs_repeat_for_each_attempt():
    first, again = (workloads.estimate_sizes(3, False)[4].prepare() for _ in range(2))
    assert first.label == "n=64,m=40,#0" and len(first.observables) == 40
    assert np.array_equal(first.targets, again.targets)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = ["--workload", "estimate_sizes", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
