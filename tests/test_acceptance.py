"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from qmaxent import (
    ConstraintSet,
    classical_gibbs_oracle,
    closed_form_flow,
    entropy_sensitivity,
    expectation,
    flow_field,
    flow_to_constraint,
    gibbs_state,
    integrate_flow,
    line_element,
    lower_vector,
    make_density,
    make_hermitian,
    metric_vectors,
    raise_form,
    relative_entropy,
    solve_maxent,
    solve_prior_tilt,
    TangentDecomposition,
    trace_distance,
    von_neumann_entropy,
    zero_mean_form,
    assemble_tangent,
)
from qmaxent.cli import run

import conftest
from helpers import (
    SIGMA_X,
    SIGMA_Z,
    bloch_feasible_max_entropy,
    bloch_state,
    rand_density,
    rand_hermitian,
    rand_hermitian_radius,
    rand_unitary,
    random_feasible_instance,
    zero_pairing_tangent,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.CRITERION_LINES.append(line)
    assert ok, f"criterion {number}: {name} failed ({detail})"


def test_c01_constraint_satisfaction():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        solution = solve_maxent(random_feasible_instance(rng))
        worst = max(worst, solution.residual)
    elapsed = time.time() - start
    report(
        1,
        "constraint satisfaction on 200 random instances",
        worst <= 1e-8 and elapsed < 60.0,
        f"max residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_qubit_closed_form_oracle():
    sx, sz = make_hermitian(SIGMA_X), make_hermitian(SIGMA_Z)
    solution = solve_maxent(ConstraintSet((sx, sz), [0.3, 0.4]))
    b = np.arctanh(0.5)
    expected_multipliers = np.array([-b * 0.6, -b * 0.8])
    multiplier_err = float(np.abs(solution.multipliers - expected_multipliers).max())
    expected_state = bloch_state([0.3, 0.0, 0.4])
    state_err = trace_distance(solution.estimate, expected_state)
    # independent brute force: entropy maximized over the exactly
    # parametrized feasible slice of the Bloch ball
    grid_max, grid_r = bloch_feasible_max_entropy((sx, sz), (0.3, 0.4))
    grid_state_err = trace_distance(bloch_state(grid_r), expected_state)
    ok = (
        multiplier_err <= 1e-6
        and state_err <= 1e-8
        and solution.s_max >= grid_max - 1e-6
        and grid_state_err <= 1e-5
    )
    report(
        2,
        "qubit closed-form oracle",
        ok,
        f"multiplier err {multiplier_err:.2e}, state err {state_err:.2e}, "
        f"grid gap {grid_max - solution.s_max:.2e}",
    )


def test_c03_commuting_reduction():
    rng = np.random.default_rng(103)
    worst_diag = 0.0
    worst_off = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(3, n - 1) + 1))
        values = np.array([rng.normal(size=n) for _ in range(m)])
        observables = tuple(make_hermitian(np.diag(v)) for v in values)
        p_interior = rng.random(n)
        p_interior /= p_interior.sum()
        p_interior = 0.6 * p_interior + 0.4 / n
        targets = values @ p_interior
        solution = solve_maxent(ConstraintSet(observables, targets), tol=1e-13, max_iter=2000)
        classical = classical_gibbs_oracle(np.full(n, 1.0 / n), values, targets, tol=1e-13)
        worst_diag = max(
            worst_diag, float(np.abs(np.diag(solution.estimate.entries).real - classical).max())
        )
        off = solution.estimate.entries - np.diag(np.diag(solution.estimate.entries))
        worst_off = max(worst_off, float(np.abs(off).max()))
    report(
        3,
        "commuting reduction to the classical oracle",
        worst_diag <= 1e-10 and worst_off <= 1e-12,
        f"max diagonal err {worst_diag:.2e}, max off-diagonal {worst_off:.2e}",
    )


def test_c04_multiplier_duality():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        observables = tuple(rand_hermitian(rng, n) for _ in range(m))
        # multipliers bounded away from zero keep the relative comparison
        # well posed; the induced canonical state provides feasible targets
        lam_true = rng.uniform(0.1, 0.8, size=m) * rng.choice([-1.0, 1.0], size=m)
        reference = gibbs_state(lam_true, observables)
        targets = [expectation(reference, a) for a in observables]
        constraints = ConstraintSet(observables, targets)
        solution = solve_maxent(constraints)
        sensitivity = entropy_sensitivity(constraints)
        rel = float(np.abs((sensitivity - solution.multipliers) / solution.multipliers).max())
        worst = max(worst, rel)
    report(
        4,
        "multiplier duality via finite differences",
        worst <= 1e-3,
        f"max relative deviation {worst:.2e}",
    )


def test_c05_uniform_prior_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        rho = rand_density(rng, n)
        lhs = relative_entropy(rho, make_density(np.eye(n) / n))
        rhs = von_neumann_entropy(rho) - np.log(n)
        worst = max(worst, abs(lhs - rhs))
    report(5, "uniform-prior identity", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_c06_unitary_invariance():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        rho = rand_density(rng, n)
        u = rand_unitary(rng, n)
        rotated = make_density(u @ rho.entries @ u.conj().T)
        worst = max(worst, abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)))
    report(6, "unitary invariance of the entropy", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_c07_raise_lower_inversion():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        rho = rand_density(rng, n, min_eig=0.02)
        vector = rand_hermitian(rng, n)
        recovered = raise_form(rho, lower_vector(rho, vector))
        worst = max(worst, float(np.abs(recovered.entries - vector.entries).max()))
        form = rand_hermitian(rng, n)
        back = lower_vector(rho, raise_form(rho, form))
        worst = max(worst, float(np.abs(back.entries - form.entries).max()))
    report(7, "raise/lower inversion", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_c08_line_element_equivalence():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        rho = rand_density(rng, n, min_eig=0.02)
        dp = rng.normal(size=n)
        dp -= dp.mean()
        d = TangentDecomposition(dp=dp, dtheta=rng.normal(), h=rand_hermitian(rng, n))
        direction = assemble_tangent(rho, d)
        worst = max(
            worst, abs(line_element(rho, d) - metric_vectors(rho, direction, direction))
        )
    report(8, "line-element equivalence", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_c09_flow_correctness():
    rng = np.random.default_rng(109)
    worst_err = 0.0
    ratios = []
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rand_hermitian_radius(rng, n, 5.0)
        rho0 = rand_density(rng, n, min_eig=0.1 / n)
        exact = closed_form_flow(rho0, a, 1.0)
        e_accuracy, e_coarse, e_fine = (
            trace_distance(integrate_flow(rho0, a, 1.0, step).samples[-1].state, exact)
            for step in (1e-3, 4e-3, 2e-3)
        )
        worst_err = max(worst_err, e_accuracy)
        # the order is judged where the errors lie far above rounding: ~1e-12 at step 2e-3
        ratios.append(e_coarse / e_fine)
    ratios = np.array(ratios)

    worst_residual = 0.0
    h = 1e-5
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rand_hermitian_radius(rng, n, 4.0)
        rho0 = rand_density(rng, n, min_eig=0.05)
        lam = float(rng.uniform(-1.5, 1.5))
        fd = (
            closed_form_flow(rho0, a, lam + h).entries
            - closed_form_flow(rho0, a, lam - h).entries
        ) / (2.0 * h)
        field = flow_field(closed_form_flow(rho0, a, lam), a).entries
        worst_residual = max(worst_residual, float(np.linalg.norm(fd - field, "fro")))
    ok = (
        worst_err <= 1e-6
        and bool(np.all((ratios >= 12.0) & (ratios <= 20.0)))
        and worst_residual <= 1e-6
    )
    report(
        9,
        "flow integrator vs closed form",
        ok,
        f"max err {worst_err:.2e}, ratios [{ratios.min():.1f}, {ratios.max():.1f}], "
        f"max ODE residual {worst_residual:.2e}",
    )


def test_c10_geometric_variational_agreement():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rand_hermitian_radius(rng, n, 1.0)
        prior = rand_density(rng, n, min_eig=0.05)
        lam_true = float(rng.uniform(0.2, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        target = expectation(closed_form_flow(prior, a, lam_true), a)
        _, variational = solve_prior_tilt(prior, a, target, tol=1e-13)
        _, geometric = flow_to_constraint(prior, a, target, tol=1e-13)
        worst = max(worst, trace_distance(variational, geometric))

    prior = make_density((np.eye(2) + 0.5 * SIGMA_X) / 2)
    sz = make_hermitian(SIGMA_Z)
    expected = np.array([[0.8, 0.2], [0.2, 0.2]])
    _, tilt_state = solve_prior_tilt(prior, sz, 0.6)
    _, flow_state = flow_to_constraint(prior, sz, 0.6)
    hand = max(
        float(np.abs(tilt_state.entries - expected).max()),
        float(np.abs(flow_state.entries - expected).max()),
    )
    report(
        10,
        "geometric/variational agreement",
        worst <= 1e-10 and hand <= 1e-10,
        f"max trace distance {worst:.2e}, hand case err {hand:.2e}",
    )


def test_c11_orthogonal_transit():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = rand_hermitian(rng, n)
        rho0 = rand_density(rng, n, min_eig=0.05)
        trajectory = integrate_flow(rho0, a, 0.5, 1e-2)
        sample = trajectory.samples[int(rng.integers(0, len(trajectory.samples)))]
        centered = zero_mean_form(sample.state, a).entries
        tangent = zero_pairing_tangent(rng, n, centered)
        value = metric_vectors(sample.state, flow_field(sample.state, a), tangent)
        worst = max(worst, abs(value))
    report(11, "orthogonal transit", worst <= 1e-10, f"max pairing {worst:.2e}")


def test_c12_cli_contract(capsys, tmp_path):
    fixture_runs = [
        ["estimate", "--problem", str(FIXTURES / "qubit_xz.json")],
        ["estimate", "--problem", str(FIXTURES / "qubit_z.json")],
        ["estimate", "--problem", str(FIXTURES / "qutrit_diag.json")],
        ["estimate", "--problem", str(FIXTURES / "pair4.json")],
        ["tilt", "--problem", str(FIXTURES / "tilt_xz.json")],
        ["tilt", "--problem", str(FIXTURES / "tilt_uniform.json")],
        ["flow", "--problem", str(FIXTURES / "flow_z.json"), "--lambda-end", "1.0"],
        ["flow", "--problem", str(FIXTURES / "flow_x.json"), "--lambda-end", "0.5"],
        ["metric", "--problem", str(FIXTURES / "metric_xz.json")],
        [
            "rel-entropy",
            "--state",
            str(FIXTURES / "state_mixed.json"),
            "--prior",
            str(FIXTURES / "state_uniform.json"),
        ],
    ]
    deterministic = True
    for argv in fixture_runs:
        code_a = run(argv)
        out_a = capsys.readouterr().out
        code_b = run(argv)
        out_b = capsys.readouterr().out
        deterministic = deterministic and code_a == 0 and code_b == 0 and out_a == out_b

    exit_codes_ok = True
    code = run(["estimate", "--problem", str(FIXTURES / "malformed.json")])
    capsys.readouterr()
    exit_codes_ok &= code == 2
    code = run(["estimate", "--problem", str(FIXTURES / "infeasible_z.json")])
    capsys.readouterr()
    exit_codes_ok &= code == 3
    code = run(
        [
            "rel-entropy",
            "--state",
            str(FIXTURES / "state_pure0.json"),
            "--prior",
            str(FIXTURES / "state_pure1.json"),
        ]
    )
    capsys.readouterr()
    exit_codes_ok &= code == 4

    # fuzz corpus: random mutations of a valid problem plus random JSON shapes
    rng = np.random.default_rng(112)
    base = (FIXTURES / "qubit_xz.json").read_text()
    target = tmp_path / "fuzz.json"
    commands = ["estimate", "tilt", "flow", "metric"]
    fuzz_ok = True
    observed = set()
    for i in range(1000):
        kind = int(rng.integers(0, 4))
        if kind == 0:  # byte-level mutation
            text = list(base)
            for _ in range(int(rng.integers(1, 6))):
                pos = int(rng.integers(0, len(text)))
                action = int(rng.integers(0, 3))
                if action == 0:
                    text[pos] = chr(int(rng.integers(32, 127)))
                elif action == 1:
                    text.insert(pos, chr(int(rng.integers(32, 127))))
                else:
                    del text[pos]
            payload = "".join(text)
        elif kind == 1:  # truncation
            payload = base[: int(rng.integers(0, len(base)))]
        elif kind == 2:  # random JSON value
            def value(depth=0):
                choice = int(rng.integers(0, 6 if depth < 3 else 4))
                if choice == 0:
                    return float(rng.normal() * 10 ** int(rng.integers(-3, 4)))
                if choice == 1:
                    return int(rng.integers(-(10**6), 10**6))
                if choice == 2:
                    return (True, False, None)[int(rng.integers(0, 3))]
                if choice == 3:
                    return "".join(
                        chr(int(rng.integers(97, 123))) for _ in range(int(rng.integers(0, 8)))
                    )
                if choice == 4:
                    return [value(depth + 1) for _ in range(int(rng.integers(0, 4)))]
                return {
                    "".join(
                        chr(int(rng.integers(97, 123))) for _ in range(int(rng.integers(1, 6)))
                    ): value(depth + 1)
                    for _ in range(int(rng.integers(0, 4)))
                }

            payload = json.dumps(value())
        else:  # structured but wrong fields
            doc = json.loads(base)
            mutation = int(rng.integers(0, 5))
            if mutation == 0:
                doc["mode"] = "bogus"
            elif mutation == 1:
                doc["targets"] = ["NaN", None]
            elif mutation == 2 and doc["observables"]:
                doc["observables"][0]["dim"] = int(rng.integers(-5, 3))
            elif mutation == 3 and doc["observables"]:
                doc["observables"][0]["re"] = [[1.0]]
            else:
                doc["targets"] = [float(rng.normal() * 100)]
            payload = json.dumps(doc)
        target.write_text(payload, encoding="utf-8")
        command = commands[int(rng.integers(0, len(commands)))]
        argv = [command, "--problem", str(target)]
        if command == "flow":
            argv += ["--lambda-end", "0.5"]
        try:
            code = run(argv)
        except Exception as exc:  # pragma: no cover - the criterion itself
            fuzz_ok = False
            print(f"fuzz case {i} crashed: {exc!r}")
            break
        capsys.readouterr()
        observed.add(code)
        if code not in (0, 2, 3, 4):
            fuzz_ok = False
            print(f"fuzz case {i} returned unexpected exit code {code}")
            break

    # fixed requests for the codes the random corpus does not reach
    doc = json.loads(base)
    doc["targets"] = [0.9, 0.9]  # jointly outside the Bloch ball
    target.write_text(json.dumps(doc), encoding="utf-8")
    for argv, expected in (
        (["estimate", "--problem", str(target)], 3),
        (["estimate", "--problem", str(FIXTURES / "qubit_xz.json"), "--max-iter", "1"], 4),
    ):
        code = run(argv)
        capsys.readouterr()
        observed.add(code)
        fuzz_ok = fuzz_ok and code == expected
    fuzz_ok = fuzz_ok and {0, 2, 3, 4} <= observed

    ok = deterministic and exit_codes_ok and fuzz_ok
    report(
        12,
        "CLI determinism, exit codes, fuzz corpus",
        ok,
        f"deterministic={deterministic}, exit_codes={exit_codes_ok}, "
        f"fuzz codes seen {sorted(observed)}",
    )
