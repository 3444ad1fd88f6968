"""Workload corpora, the operation each workload times, and its oracle.

Every input comes from ``numpy.random.default_rng`` seeded by the run's
seed.  An operation is untimed ``prepare`` (building its inputs), timed
``run`` (the program's work) and ``check``, which returns ``None`` or a
reason the output is wrong.  Oracles use numpy directly (bound below,
before a traced run can wrap anything), never the qmaxent routine under
test.  A typed qmaxent error on these feasible inputs is a failure too.

Why these four:

* ``estimate_sizes`` -- few iterations and no failures, so time goes to
  per-evaluation work (eigendecompositions, states, ``ConstraintSet``).
* ``estimate_cold`` -- tiny matrices at low temperature: cost is iteration
  count and line search, and today some solves raise ``MaxIterExceeded``.
* ``flow_navigate`` -- only the flow, geometry and entropy layers; the
  BFGS solver never runs.
* ``cli_oneshot`` -- a fresh interpreter per request, the only workload
  where interpreter start, import, documents and cli show.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import qmaxent as qm
import qmaxent.cli
import qmaxent.documents

_eigh = np.linalg.eigh
_eigvalsh = np.linalg.eigvalsh

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
CLI_LAUNCH = "from qmaxent.cli import main; main()"

SIZES_GRID = ((2, 3), (8, 10), (16, 20), (32, 30), (64, 40))
SIZES_PER_POINT = 16
COLD_SCALES = (4.0, 6.0, 8.0)
COLD_PER_SCALE = 20
FLOW_TASKS = 24
FLOW_DIM = 8
FLOW_TARGETS = 20
ESTIMATE_TOL = 1e-10


@dataclass
class Op:
    label: str
    run: Callable[[object], object]  # prepared inputs -> output
    check: Callable[[object, object], "str | None"]  # (inputs, output) -> reason
    prepare: Callable[[], object] = lambda: None  # untimed; inputs are dropped after the check


# ---------------------------------------------------------------- generators


def rand_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (g + g.conj().T) / 2.0


def radius_hermitian(rng, n: int, radius: float) -> np.ndarray:
    h = rand_hermitian(rng, n)
    return h * (radius / np.abs(_eigvalsh(h)).max())


def rand_density(rng, n: int, min_eig: float) -> np.ndarray:
    p = rng.random(n)
    p = (1.0 - n * min_eig) * p / p.sum() + min_eig
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    return (u * p) @ u.conj().T


# ------------------------------------------------------------------- oracles


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(_eigvalsh(a - b)).sum())


def gibbs_entropy(lam: np.ndarray, mats: np.ndarray, targets: np.ndarray) -> float:
    """S of exp(-H)/Z, H = sum lam_k A_k, as log Z + <H>."""
    w = -_eigvalsh(np.tensordot(lam, mats, axes=1))
    shift = w.max()
    return float(shift + np.log(np.exp(w - shift).sum()) + lam @ targets)


def density_error(rho: np.ndarray) -> str | None:
    trace = float(np.trace(rho).real)
    smallest = float(_eigvalsh(rho)[0])
    if abs(trace - 1.0) > 1e-10 or smallest < -1e-10:
        return f"not a density operator: trace {trace!r}, smallest eigenvalue {smallest:.3e}"
    return None


def closed_form(rho0: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
    w, v = _eigh(a)
    e = -0.5 * lam * w
    half = (v * np.exp(e - e.max())) @ v.conj().T
    out = half @ rho0 @ half
    return out / np.trace(out).real


def log_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """-tr[rho (log rho - log sigma)] for full-rank states."""

    def logm(x):
        w, v = _eigh(x)
        return (v * np.log(w)) @ v.conj().T

    return -float(np.trace(rho @ (logm(rho) - logm(sigma))).real)


# ------------------------------------------------------ estimate_* workloads


@dataclass
class EstimateCase:
    label: str
    observables: tuple
    targets: np.ndarray
    entropy: float


def _expectations(rho: np.ndarray, observables) -> np.ndarray:
    return np.array([np.einsum("ij,ji->", rho, a.entries).real for a in observables])


def _estimate_case(label, mats, lam) -> EstimateCase:
    observables = tuple(qm.make_hermitian(a) for a in mats)
    targets = _expectations(qm.gibbs_state(lam, observables).entries, observables)
    return EstimateCase(label, observables, targets, gibbs_entropy(lam, mats, targets))


def _estimate_op(label: str, seed, n: int, m: int, scale: float, make, traced: bool) -> Op:
    """Validate and solve; the traced run adds one dual evaluation at the solved point.

    The instance is drawn afresh from its own ``seed`` before each attempt,
    so the run holds one instance at a time and ``peak_rss_mb`` tracks the
    program's memory rather than the corpus.
    """

    def prepare():
        rng = np.random.default_rng(seed)
        mats = np.stack([make(rng, n) for _ in range(m)])
        return _estimate_case(label, mats, rng.normal(0.0, scale, size=m))

    def run(case):
        constraints = qm.ConstraintSet(case.observables, case.targets)
        solution = qm.solve_maxent(constraints, tol=ESTIMATE_TOL)
        gradient = qm.dual_objective(solution.multipliers, constraints)[1] if traced else None
        return solution, gradient

    def check(case, output):
        solution, gradient = output
        if not solution.residual <= ESTIMATE_TOL:
            return f"reported residual {solution.residual:.3e} above {ESTIMATE_TOL:.0e}"
        rho = solution.estimate.entries
        residual = float(np.abs(_expectations(rho, case.observables) - case.targets).max())
        if residual > 2.0 * ESTIMATE_TOL:
            return f"recomputed residual {residual:.3e} above {2.0 * ESTIMATE_TOL:.0e}"
        if gradient is not None and float(np.abs(gradient).max()) > 2.0 * ESTIMATE_TOL:
            return f"dual gradient {float(np.abs(gradient).max()):.3e} at the solved point"
        if abs(solution.s_max - case.entropy) > 1e-6:
            return f"s_max {solution.s_max!r} differs from the reference {case.entropy!r}"
        return density_error(rho)

    return Op(label, run, check, prepare)


def estimate_sizes(seed: int, traced: bool) -> list[Op]:
    """Round robin over the (n, m) grid; observables of spectral radius 1, lam ~ N(0, 0.5^2)."""
    rounds = 2 if traced else SIZES_PER_POINT
    seeds = iter(np.random.SeedSequence(seed).spawn(rounds * len(SIZES_GRID)))
    unit = lambda rng, n: radius_hermitian(rng, n, 1.0)  # noqa: E731
    return [
        _estimate_op(f"n={n},m={m},#{i}", next(seeds), n, m, 0.5, unit, traced)
        for i in range(rounds)
        for n, m in SIZES_GRID
    ]


def estimate_cold(seed: int, traced: bool) -> list[Op]:
    """n=6, m=4, unnormalised observables, lam ~ N(0, s^2) round robin over s."""
    rounds = 4 if traced else COLD_PER_SCALE
    seeds = iter(np.random.SeedSequence(seed).spawn(rounds * len(COLD_SCALES)))
    return [
        _estimate_op(f"s={s:g},#{i}", next(seeds), 6, 4, s, rand_hermitian, traced)
        for i in range(rounds)
        for s in COLD_SCALES
    ]


# ------------------------------------------------------------- flow_navigate


@dataclass
class FlowResult:
    final: np.ndarray
    exact: np.ndarray
    routes: list = field(default_factory=list)
    metrics: list = field(default_factory=list)


def _flow_op(label: str, prior_raw: np.ndarray, a_raw: np.ndarray) -> Op:
    prior = qm.make_density(prior_raw)
    a = qm.make_hermitian(a_raw)

    def run(_):
        trajectory = qm.integrate_flow(prior, a, 1.0, 1e-3)
        result = FlowResult(
            trajectory.samples[-1].state.entries, qm.closed_form_flow(prior, a, 1.0).entries
        )
        means = np.array([s.mean for s in trajectory.samples])
        lo, hi = float(means.min()), float(means.max())
        for k in range(FLOW_TARGETS):
            target = lo + (hi - lo) * (k + 0.5) / FLOW_TARGETS
            _, geometric = qm.flow_to_constraint(prior, a, target, tol=1e-13)
            _, variational = qm.solve_prior_tilt(prior, a, target, tol=1e-13)
            result.routes.append(
                (
                    target,
                    geometric.entries,
                    variational.entries,
                    qm.relative_entropy(geometric, prior),
                    qm.relative_entropy(variational, prior),
                )
            )
        step = (len(trajectory.samples) - 1) // 10
        for sample in trajectory.samples[step::step][:10]:
            v = qm.flow_field(sample.state, a)
            result.metrics.append((sample.state.entries, qm.metric_vectors(sample.state, v, v)))
        return result

    def check(_, result: FlowResult):
        error = trace_distance(result.final, result.exact)
        if error > 1e-6:
            return f"integrate_flow is {error:.3e} from closed_form_flow in trace distance"
        error = trace_distance(result.exact, closed_form(prior_raw, a_raw, 1.0))
        if error > 1e-10:
            return f"closed_form_flow is {error:.3e} from the numpy closed form"
        for target, geometric, variational, s_geo, s_var in result.routes:
            for rho, s in ((geometric, s_geo), (variational, s_var)):
                mean = float(np.einsum("ij,ji->", rho, a_raw).real)
                if abs(mean - target) > 1e-10:
                    return f"mean {mean!r} misses target {target!r}"
                reference = log_relative_entropy(rho, prior_raw)
                if abs(s - reference) > 1e-9:
                    return f"relative entropy {s!r} differs from the reference {reference!r}"
            gap = trace_distance(geometric, variational)
            if gap > 1e-10:
                return f"flow_to_constraint and solve_prior_tilt differ by {gap:.3e} at {target!r}"
        if len(result.metrics) != 10:
            return f"{len(result.metrics)} metric samples, expected 10"
        for rho, value in result.metrics:
            mean = np.einsum("ij,ji->", rho, a_raw).real
            variance = float(np.einsum("ij,ji->", rho, a_raw @ a_raw).real - mean**2)
            if abs(value - variance) > 1e-10:
                return f"metric_vectors(V, V) {value!r} differs from Var(A) {variance!r}"
        return None

    return Op(label, run, check)


def flow_navigate(seed: int, traced: bool) -> list[Op]:
    """n=8 priors with smallest eigenvalue >= 0.1/n, observables of spectral radius 2."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(2 if traced else FLOW_TASKS):
        prior = rand_density(rng, FLOW_DIM, 0.1 / FLOW_DIM)
        a = radius_hermitian(rng, FLOW_DIM, 2.0)
        ops.append(_flow_op(f"task#{i}", prior, a))
    return ops


# --------------------------------------------------------------- cli_oneshot

KEYS = {
    "estimate": {
        "achieved", "estimate", "iterations", "lambda0", "multipliers", "residual", "s_max"
    },
    "tilt": {"achieved", "estimate", "lambda", "target"},
    "flow": {
        "final_lambda", "final_mean", "final_state", "final_trace_error", "n_samples", "step"
    },
    "metric": {"value"},
    "entropy": {"entropy_nats"},
    "rel-entropy": {"relative_entropy_nats"},
}


@dataclass
class CliOutcome:
    code: int
    stdout: bytes
    stderr: bytes
    csv: bytes | None
    maxrss_kb: int = 0  # peak resident memory of the child process


def _document(matrix: np.ndarray) -> dict:
    return {"dim": matrix.shape[0], "re": matrix.real.tolist(), "im": matrix.imag.tolist()}


def fixture_requests(csv_path: Path):
    """(label, argv, expected exit code, extra oracle) on the ``tests/fixtures`` documents."""

    def fx(name: str) -> str:
        return str(FIXTURES / name)

    flow_z = ["flow", "--problem", fx("flow_z.json"), "--lambda-end", "1.0"]
    mixed, uniform = fx("state_mixed.json"), fx("state_uniform.json")
    pure0, pure1 = fx("state_pure0.json"), fx("state_pure1.json")
    requests = [
        ("estimate qubit_xz", ["estimate", "--problem", fx("qubit_xz.json")], 0),
        ("estimate qubit_z", ["estimate", "--problem", fx("qubit_z.json")], 0),
        ("estimate qutrit_diag", ["estimate", "--problem", fx("qutrit_diag.json")], 0),
        ("estimate pair4", ["estimate", "--problem", fx("pair4.json")], 0),
        ("tilt tilt_xz", ["tilt", "--problem", fx("tilt_xz.json")], 0),
        ("tilt tilt_uniform", ["tilt", "--problem", fx("tilt_uniform.json")], 0),
        ("flow flow_z --csv", flow_z + ["--csv", str(csv_path)], 0),
        ("flow flow_x", ["flow", "--problem", fx("flow_x.json"), "--lambda-end", "0.5"], 0),
        ("metric metric_xz", ["metric", "--problem", fx("metric_xz.json")], 0),
        ("entropy state_mixed", ["entropy", "--state", mixed], 0),
        ("rel-entropy mixed||uniform", ["rel-entropy", "--state", mixed, "--prior", uniform], 0),
        ("estimate malformed", ["estimate", "--problem", fx("malformed.json")], 2),
        ("estimate infeasible_z", ["estimate", "--problem", fx("infeasible_z.json")], 3),
        ("rel-entropy pure0||pure1", ["rel-entropy", "--state", pure0, "--prior", pure1], 4),
    ]
    return [(label, argv, code, None) for label, argv, code in requests]


def cli_requests(seed: int, workdir: Path):
    """The fixture requests plus a generated estimate at (16, 20) and flow at n=8."""
    requests = fixture_requests(workdir / "flow_z.csv")
    rng = np.random.default_rng(seed)
    mats = np.stack([radius_hermitian(rng, 16, 1.0) for _ in range(20)])
    lam = rng.normal(0.0, 0.5, size=20)
    case = _estimate_case("generated n=16,m=20", mats, lam)
    problem = workdir / "estimate_16_20.json"
    problem.write_text(
        json.dumps(
            {
                "mode": "maxent",
                "observables": [_document(a.entries) for a in case.observables],
                "targets": case.targets.tolist(),
            }
        )
    )

    def estimate_oracle(result):
        if result["residual"] > ESTIMATE_TOL:
            return f"residual {result['residual']!r} above {ESTIMATE_TOL:.0e}"
        if abs(result["s_max"] - case.entropy) > 1e-6:
            return f"s_max {result['s_max']!r} differs from the reference {case.entropy!r}"
        return None

    requests.append((case.label, ["estimate", "--problem", str(problem)], 0, estimate_oracle))

    prior = rand_density(rng, FLOW_DIM, 0.1 / FLOW_DIM)
    a = radius_hermitian(rng, FLOW_DIM, 2.0)
    problem = workdir / "flow_8.json"
    problem.write_text(
        json.dumps({"mode": "flow", "observables": [_document(a)], "prior": _document(prior)})
    )
    exact = closed_form(prior, a, 1.0)

    def flow_oracle(result):
        doc = result["final_state"]
        error = trace_distance(np.array(doc["re"]) + 1j * np.array(doc["im"]), exact)
        return f"final state {error:.3e} from the closed form" if error > 1e-6 else None

    argv = ["flow", "--problem", str(problem), "--lambda-end", "1.0"]
    requests.append(("generated flow n=8", argv, 0, flow_oracle))
    return requests


def child_env() -> dict:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_subprocess(argv: list[str], csv_path: Path | None, workdir: Path) -> CliOutcome:
    """One fresh interpreter running the CLI, with ``src`` on the path.

    The child is reaped with ``os.wait4`` for its own peak memory; its
    output goes through files in ``workdir``, and it is killed after 120 s.
    """
    with (workdir / "cli.out").open("w+b") as out, (workdir / "cli.err").open("w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_LAUNCH, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=out,
            stderr=err,
        )
        killer = threading.Timer(120.0, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    csv = csv_path.read_bytes() if csv_path is not None and csv_path.exists() else None
    return CliOutcome(proc.returncode, stdout, stderr, csv, usage.ru_maxrss)


def run_in_process(argv: list[str], csv_path: Path | None, _workdir=None) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qmaxent.cli.run(argv)
    csv = csv_path.read_bytes() if csv_path is not None and csv_path.exists() else None
    return CliOutcome(code, out.getvalue().encode(), err.getvalue().encode(), csv)


def check_cli(outcome: CliOutcome, command: str, expected: int, oracle) -> str | None:
    """Exit code, then JSON shape: a launcher that runs nothing fails here."""
    if outcome.code != expected:
        return f"exit code {outcome.code}, expected {expected}"
    if expected != 0:
        if outcome.stdout:
            return "error run wrote to stdout"
        try:
            message = json.loads(outcome.stderr)
        except ValueError:
            return f"stderr is not a JSON error object: {outcome.stderr[:80]!r}"
        return None if isinstance(message, dict) and "error" in message else "no 'error' key"
    try:
        result = json.loads(outcome.stdout)
    except ValueError:
        return f"stdout is not JSON: {outcome.stdout[:80]!r}"
    if not isinstance(result, dict) or set(result) != KEYS[command]:
        return f"stdout keys {sorted(result) if isinstance(result, dict) else result!r}"
    return oracle(result) if oracle is not None else None


def cli_oneshot(seed: int, traced: bool, workdir: Path) -> list[Op]:
    """Each request in a fresh interpreter; in-process ``cli.run`` in the traced run."""
    launch = run_in_process if traced else run_subprocess
    return [_cli_op(*request, launch, workdir) for request in cli_requests(seed, workdir)]


def _cli_op(label, argv, expected, oracle, launch, workdir: Path) -> Op:
    reference: list[CliOutcome] = []
    csv = Path(argv[argv.index("--csv") + 1]) if "--csv" in argv else None

    def run(_):
        if csv is not None and csv.exists():
            csv.unlink()
        return launch(argv, csv, workdir)

    def check(_, outcome: CliOutcome):
        error = check_cli(outcome, argv[0], expected, oracle)
        if error is None and csv is not None and (outcome.csv or b"").count(b"\n") != 1002:
            error = "trajectory CSV does not have a header and 1001 rows"
        if error is not None:
            return error
        if not reference:
            reference.append(outcome)
        elif (outcome.stdout, outcome.csv) != (reference[0].stdout, reference[0].csv):
            return "output bytes differ from this request's first run"
        return None

    return Op(label, run, check)


WORKLOADS = {
    "estimate_sizes": estimate_sizes,
    "estimate_cold": estimate_cold,
    "flow_navigate": flow_navigate,
    "cli_oneshot": cli_oneshot,
}


def build(name: str, seed: int, traced: bool, workdir: Path) -> list[Op]:
    if name == "cli_oneshot":
        return cli_oneshot(seed, traced, workdir)
    return WORKLOADS[name](seed, traced)

