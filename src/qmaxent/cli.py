"""Command-line front end.

Subcommands: estimate, tilt, flow, metric, entropy, rel-entropy.  Input is
a JSON problem or state document; output is a JSON result on stdout (or
--output), plus an optional trajectory CSV for ``flow``.  Output bytes are
deterministic for a given input.  Errors print a one-line JSON object to
stderr and map to exit codes: 2 input error, 3 infeasible, 4 numerical
failure.  The console entry ``main`` freezes the import-time heap (``gc.freeze``), so the
exit collections skip it and the OS frees it; ``run``, the library path, leaves GC alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .documents import (
    density_from_document,
    operator_to_document,
    problem_from_document,
)
from .entropy import relative_entropy, von_neumann_entropy
from .errors import (
    Infeasible,
    InputValidationError,
    NumericalFailure,
)
from .flow import integrate_flow
from .geometry import metric_forms
from .maxent import ConstraintSet, solve_maxent, solve_prior_tilt
from .operators import _check_controls, expectation

__all__ = ["run", "main"]


class UsageError(InputValidationError):
    """A command line that argparse refuses."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through the JSON error path
        raise UsageError(message)


def _add_solver(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-10, help="convergence tolerance")
    p.add_argument("--max-iter", type=int, default=500, help="iteration limit")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", metavar="PATH", help="write the result JSON here instead of stdout")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qmaxent",
        description="Maximum-entropy density-operator estimation and state-space geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    estimate = sub.add_parser("estimate", help="solve a constrained maximum-entropy problem")
    estimate.add_argument("--problem", required=True, metavar="PATH")
    _add_solver(estimate)
    _add_common(estimate)

    tilt = sub.add_parser("tilt", help="tilt a prior state to one expectation target")
    tilt.add_argument("--problem", required=True, metavar="PATH")
    _add_solver(tilt)
    _add_common(tilt)

    flow = sub.add_parser("flow", help="integrate the entropic flow and emit a trajectory")
    flow.add_argument("--problem", required=True, metavar="PATH")
    flow.add_argument("--lambda-end", type=float, required=True)
    flow.add_argument("--step", type=float, default=1e-3)
    flow.add_argument("--csv", metavar="PATH", help="write lambda,mean,trace_error samples here")
    _add_common(flow)

    metric = sub.add_parser("metric", help="evaluate the statistical metric on two observables")
    metric.add_argument("--problem", required=True, metavar="PATH")
    _add_common(metric)

    entropy = sub.add_parser("entropy", help="von Neumann entropy of a state")
    entropy.add_argument("--state", required=True, metavar="PATH")
    _add_common(entropy)

    rel = sub.add_parser(
        "rel-entropy",
        help="logarithmic relative entropy (nonpositive, zero iff the states coincide)",
    )
    rel.add_argument("--state", required=True, metavar="PATH")
    rel.add_argument("--prior", required=True, metavar="PATH")
    _add_common(rel)
    return parser


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        raise InputValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputValidationError(f"{path} is not valid JSON: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputValidationError(f"cannot write {path}: {exc}") from exc


def _problem(args, mode: str):
    problem = problem_from_document(_load_json(args.problem))
    if problem.mode != mode:
        raise InputValidationError(
            f"problem mode is {problem.mode!r}, this subcommand needs {mode!r}"
        )
    return problem


def _dispatch(args):
    csv_rows = None
    if args.command == "estimate":
        problem = _problem(args, "maxent")
        if problem.prior is not None:
            raise InputValidationError(
                "relative-entropy MaxEnt with a prior is not implemented; "
                "'tilt' updates a prior toward one constraint"
            )
        constraints = ConstraintSet(problem.observables, np.array(problem.targets))
        solution = solve_maxent(constraints, tol=args.tol, max_iter=args.max_iter)
        result = {
            "achieved": list(solution.achieved),
            "estimate": operator_to_document(solution.estimate),
            "iterations": solution.iterations,
            "lambda0": solution.lambda0,
            "multipliers": list(solution.multipliers),
            "residual": solution.residual,
            "s_max": solution.s_max,
        }
    elif args.command == "tilt":
        problem = _problem(args, "prior_tilt")
        lam, state = solve_prior_tilt(
            problem.prior,
            problem.observables[0],
            problem.targets[0],
            tol=args.tol,
            max_iter=args.max_iter,
        )
        result = {
            "achieved": expectation(state, problem.observables[0]),
            "estimate": operator_to_document(state),
            "lambda": lam,
            "target": problem.targets[0],
        }
    elif args.command == "flow":
        problem = _problem(args, "flow")
        trajectory = integrate_flow(problem.prior, *problem.observables, args.lambda_end, args.step)
        samples = trajectory.samples
        traces = np.trace(np.stack([s.state.entries for s in samples]), axis1=1, axis2=2)
        errors = np.abs(traces.real - 1.0).tolist()
        final = samples[-1]
        result = {
            "final_lambda": final.lam,
            "final_mean": final.mean,
            "final_state": operator_to_document(final.state),
            "final_trace_error": errors[-1],
            "n_samples": len(samples),
            "step": trajectory.step,
        }
        csv_rows = [(s.lam, s.mean, error) for s, error in zip(samples, errors)]
    elif args.command == "metric":
        problem = _problem(args, "metric")
        result = {"value": metric_forms(problem.prior, *problem.observables)}
    elif args.command == "entropy":
        state = density_from_document(_load_json(args.state))
        result = {"entropy_nats": von_neumann_entropy(state)}
    else:  # rel-entropy
        state = density_from_document(_load_json(args.state))
        prior = density_from_document(_load_json(args.prior))
        result = {"relative_entropy_nats": relative_entropy(state, prior)}
    return result, csv_rows


def _emit_error(code: int, name: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": name, "message": message}, sort_keys=True) + "\n")
    return code


def run(argv) -> int:
    """Run one command; returns the process exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
        if "tol" in args:  # only the solving subcommands take --tol and --max-iter
            _check_controls(args.tol, args.max_iter)
        result, csv_rows = _dispatch(args)
        if csv_rows is not None and args.csv:  # before stdout, so a failed write prints nothing
            lines = ["lambda,mean,trace_error"]
            lines += [f"{lam!r},{mean!r},{err!r}" for lam, mean, err in csv_rows]
            _write(args.csv, "\n".join(lines) + "\n")
        payload = json.dumps(result, sort_keys=True) + "\n"
        if args.output:
            _write(args.output, payload)
        else:
            sys.stdout.write(payload)
        return 0
    except InputValidationError as exc:  # UsageError included
        return _emit_error(2, type(exc).__name__, str(exc))
    except Infeasible as exc:
        return _emit_error(3, "Infeasible", str(exc))
    except NumericalFailure as exc:
        return _emit_error(4, type(exc).__name__, str(exc))
    except Exception as exc:  # malformed input must never take the process down
        return _emit_error(2, "InternalError", f"{type(exc).__name__}: {exc}")


def main() -> None:
    import gc  # here alone: a library caller's collector is never touched
    gc.freeze()  # everything imported so far lives until exit; requests still collect as usual
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
