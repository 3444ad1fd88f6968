"""Benchmark of qmaxent: one named workload, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the unmodified program for S seconds of operations
(their untimed input building included) and prints the end-to-end
metrics, its times scaled to a nominal host speed (see ``REFERENCE``).
``--trace 1`` runs a fixed slice of the workload in pairs of
passes, one plain and one with every traced layer wrapped (see
``tracing.py``), and prints the per-layer metrics with the tracing
overhead.  Both runs check every output against an oracle.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Any failed operation is named on stderr, with the workload, the
operation and the seed, and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("estimate_sizes", "estimate_cold", "flow_navigate", "cli_oneshot")
# fresh interpreters timed for setup_s, spread evenly through the measured run
SETUP_REPEATS = 9
# The host's cores slow down by up to 2x for minutes at a time, as other
# tenants load them, and a fresh interpreter slows down with them.  Every
# time is scaled by the run's host factor: the mean time of a fixed task
# that runs none of the program (a fresh interpreter importing numpy: process
# start and imports, the work that dominates a CLI request and a setup) over
# its nominal time.
REFERENCE = "import numpy"
REFERENCE_NOMINAL_S = 0.2
REFERENCE_REPEATS = 20
LAYER_SETUP_REPEATS = 3
# a coarse ladder, so that the percentile a workload reports does not flip
# between runs whose operation counts differ by a few tens of percent; its
# last rung is a floor, so a run slowed by the host does not report its
# median as its tail (a cli_oneshot run holds about 40 to 60 operations)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MIN_TRACED_PAIRS = 2
MAX_TRACED_PAIRS = 40

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_TIMED = (
    "maxent.ConstraintSet",
    "maxent.solve_maxent",
    "maxent.dual_objective",
    "maxent.solve_prior_tilt",
    "flow.integrate_flow",
    "geometry.metric_forms",
    "entropy.relative_entropy",
    "entropy.von_neumann_entropy",
    "documents.problem_from_document",
    "documents.operator_to_document",
    "cli.run",
)
_CALLS = (
    "maxent.ConstraintSet",
    "maxent.solve_maxent",
    "maxent.solve_prior_tilt",
    "operators.eigh",
    "operators.eigvalsh",
)
PER_LAYER = (
    (("setup.interpreter_ms", "ms", "lower"), ("setup.import_ms", "ms", "lower"))
    + tuple((f"{name}.calls", "count", "lower") for name in _CALLS)
    + tuple((f"{name}.busy_ms", "ms", "lower") for name in _TIMED)
    + (
        ("maxent.solve_maxent.failures", "count", "lower"),
        ("maxent.solve_maxent.iterations", "count", "lower"),
        ("flow.integrate_flow.steps", "count", "lower"),
        ("flow.integrate_flow.us_per_step", "us", "lower"),
    )
    + tuple(
        (f"{layer}.self_ms", "ms", "lower")
        for layer in ("maxent", "flow", "geometry", "entropy", "documents", "cli")
    )
    + (("trace.overhead_pct", "%", "lower"),)
)
# counts that must repeat exactly between passes and between runs with one seed
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


def import_program():
    """Put ``src`` first on the path and import qmaxent from it, or exit 2."""
    if not (SRC / "qmaxent" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no qmaxent sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qmaxent

    if Path(qmaxent.__file__).resolve().parent != SRC / "qmaxent":
        sys.stderr.write(f"bench: imported qmaxent from {qmaxent.__file__}, not {SRC}\n")
        raise SystemExit(2)


# ------------------------------------------------------------ environment


def _blas_threads():
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return int(getter())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES + ("MKL_NUM_THREADS",)},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_at_start,
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


# ------------------------------------------------------------ measurement


class Ledger:
    """Attempted operations and the failures among them, by kind."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []  # (kind, op label, reason)

    def attempt(self, op, index: int, tracer=None) -> tuple[float, bool, object]:
        """Prepare, run and check one operation; returns (seconds of ``run``, passed, output).

        A typed qmaxent error on a feasible input is a failure of kind
        "error"; any other exception is a crash and, like a wrong output,
        of kind "wrong", which makes the run incorrect.
        """
        from qmaxent import QuantumMaxEntError

        self.attempted += 1
        inputs = op.prepare()

        def call():
            if tracer is None:
                return op.run(inputs)
            return tracer.operation(index, lambda: op.run(inputs))

        start = time.perf_counter()
        try:
            output = call()
        except Exception as exc:
            elapsed = time.perf_counter() - start
            kind = "error" if isinstance(exc, QuantumMaxEntError) else "wrong"
            self.failures.append((kind, op.label, f"{type(exc).__name__}: {exc}"))
            return elapsed, False, None
        elapsed = time.perf_counter() - start
        reason = op.check(inputs, output)
        if reason is not None:
            self.failures.append(("wrong", op.label, reason))
        return elapsed, reason is None, output

    @property
    def correct(self) -> bool:
        return all(kind != "wrong" for kind, _, _ in self.failures)

    def report(self) -> None:
        for (kind, label, reason), n in Counter(self.failures).items():
            sys.stderr.write(
                f"FAIL workload={self.workload} seed={self.seed} op={label!r} "
                f"{kind} ({n}x): {reason}\n"
            )


def tail_percentile(n: int) -> tuple[float, int]:
    """(percentile, operations beyond it): the highest with at least ten beyond, or the floor."""
    p = next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0), TAIL_PERCENTILES[-1])
    return p, int(n * (1.0 - p / 100.0))


def by_kind(latencies: list[float], outcomes: list[bool], kinds: int):
    """Each operation kind's mean seconds and pass fraction over the run.

    Operation ``i`` is of kind ``i % kinds`` (the workload cycles through
    its list).  The host's cores switch between two speeds about 1.5x
    apart every few seconds, so single operation times are bimodal and
    their order statistics jump between the modes from run to run; a
    kind's mean over the whole run averages the two and stays put.
    """
    seen = [range(k, len(latencies), kinds) for k in range(min(kinds, len(latencies)))]
    means = [statistics.fmean(latencies[i] for i in idx) for idx in seen]
    return means, [statistics.fmean(outcomes[i] for i in idx) for idx in seen]


def _child(code: str) -> tuple[float, str]:
    """Wall seconds of one fresh interpreter running ``code``, spawn to exit, and its stdout."""
    from workloads import child_env

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=child_env(),
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return time.perf_counter() - start, proc.stdout


def setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter to the first operation's inputs built, as seen from here."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload]
        + ["--seed", str(seed)],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - start


def setup_probe(workload: str, seed: int) -> None:
    import_program()
    import workloads

    workdir = _workdir()
    try:
        workloads.build(workload, seed, False, workdir)[0].prepare()
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _workdir() -> Path:
    path = OUT / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _wrapped_or_exit() -> None:
    import tracing

    wrapped = tracing.wrapped_bindings()
    if wrapped:
        sys.stderr.write(f"bench: {wrapped} program bindings are wrapped in an untraced run\n")
        raise SystemExit(2)


def untraced(workload: str, seed: int, seconds: float, ledger: Ledger, workdir: Path):
    import numpy
    import workloads

    ops = workloads.build(workload, seed, False, workdir)
    _wrapped_or_exit()
    ledger.attempt(ops[0], -1)  # warm-up: lazy imports and first-call costs, untimed
    latencies: list[float] = []
    outcomes: list[bool] = []
    child_rss_kb: list[int] = []
    setups: list[float] = []
    references: list[float] = []
    spent = 0.0  # wall seconds of operations, their input building included
    while spent < seconds:
        # setup probes are spread through the run, so they see the machine the operations see
        if len(setups) < SETUP_REPEATS and spent >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_seconds(workload, seed))
        if spent >= len(references) * seconds / REFERENCE_REPEATS:
            references.append(_child(REFERENCE)[0])
        start = time.monotonic()
        op = ops[len(latencies) % len(ops)]
        elapsed, ok, output = ledger.attempt(op, len(latencies))
        spent += time.monotonic() - start
        latencies.append(elapsed)
        outcomes.append(ok)
        if isinstance(output, workloads.CliOutcome):
            child_rss_kb.append(output.maxrss_kb)
    passed = sum(outcomes)
    _wrapped_or_exit()
    if workload == "cli_oneshot":
        peak_rss_mb = max(child_rss_kb) / 1024.0
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # one round of the mix runs each kind once, at its mean time; the
    # percentiles are over that round, so every kind weighs the same
    means, passing = by_kind(latencies, outcomes, len(ops))
    percentile, beyond = tail_percentile(len(latencies))
    host = statistics.fmean(references) / REFERENCE_NOMINAL_S
    measured = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(passing) / sum(means),
        "latency_p50_ms": 1e3 * float(numpy.percentile(means, 50.0)),
        "latency_tail_ms": 1e3 * float(numpy.percentile(means, percentile)),
    }
    metrics = {name: value / host for name, value in measured.items()}
    metrics["ops_per_s"] = measured["ops_per_s"] * host
    metrics["peak_rss_mb"] = peak_rss_mb
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters, "
        f"range {min(setups):.3f}..{max(setups):.3f} s",
        "ops_per_s": f"{len(means)} kinds at their mean time; {passed} "
        f"passed in {sum(latencies):.3f} s of operation time overall",
        "latency_p50_ms": f"over {len(means)} kinds at their mean time, "
        f"{len(latencies)} operations",
        "latency_tail_ms": f"p{percentile:g} likewise, {beyond} of {len(latencies)} operations "
        "beyond it",
        "peak_rss_mb": "ru_maxrss"
        + (f" of {len(child_rss_kb)} CLI children" if workload == "cli_oneshot" else ""),
    }
    for name, value in measured.items():
        notes[name] = f"measured {value:.6g} at host factor {host:.4g}; {notes[name]}"
    print(f"  host factor {host:.4g}: mean of {len(references)} fresh interpreters "
          f"running {REFERENCE!r}, {1e3 * host * REFERENCE_NOMINAL_S:.1f} ms, "
          f"over {1e3 * REFERENCE_NOMINAL_S:g} ms")
    print("  wrapped bindings 0 before and after measuring")
    return metrics, notes


def traced(workload: str, seed: int, seconds: float, ledger: Ledger, workdir: Path):
    import workloads
    from tracing import Tracer, summarize

    ops = workloads.build(workload, seed, True, workdir)
    passes, overheads, span_rows = [], [], []
    deadline = time.monotonic() + seconds

    def plain_pass() -> float:
        return sum(ledger.attempt(op, i)[0] for i, op in enumerate(ops))

    def traced_pass(tracer: Tracer) -> float:
        with tracer.installed():
            return sum(ledger.attempt(op, i, tracer)[0] for i, op in enumerate(ops))

    while len(passes) < MIN_TRACED_PAIRS or (
        time.monotonic() < deadline and len(passes) < MAX_TRACED_PAIRS
    ):
        tracer = Tracer()
        # alternate which pass of a pair goes first, so warm caches favour neither
        if len(passes) % 2 == 0:
            plain, wrapped = plain_pass(), traced_pass(tracer)
        else:
            wrapped, plain = traced_pass(tracer), plain_pass()
        overheads.append(100.0 * (wrapped / plain - 1.0))
        passes.append(summarize(tracer))
        origin = tracer.spans[0].start if tracer.spans else 0.0
        span_rows += [
            {
                "pass": len(passes) - 1,
                "op": s.op,
                "name": s.name,
                "start_us": round(1e6 * (s.start - origin), 3),
                "end_us": round(1e6 * (s.end - origin), 3),
                "parent": s.parent,
                "error": None if s.error is None else s.error.__name__,
                "count": s.count,
            }
            for s in tracer.spans
        ]

    interpreter = [_child("pass")[0] for _ in range(LAYER_SETUP_REPEATS)]
    timed_import = (
        "import time; t = time.perf_counter(); import qmaxent; print(time.perf_counter() - t)"
    )
    imports = [float(_child(timed_import)[1]) for _ in range(LAYER_SETUP_REPEATS)]

    series = {key: [p[key] for p in passes] for key in passes[0]}
    series["maxent.solve_maxent.iterations"] = series.pop("maxent.solve_maxent.count")
    series["flow.integrate_flow.steps"] = series.pop("flow.integrate_flow.count")
    # 0 where the workload integrates no flow
    series["flow.integrate_flow.us_per_step"] = [
        1e3 * p["flow.integrate_flow.busy_ms"] / max(p["flow.integrate_flow.count"], 1)
        for p in passes
    ]
    series["setup.interpreter_ms"] = [1e3 * t for t in interpreter]
    series["setup.import_ms"] = [1e3 * t for t in imports]
    series["trace.overhead_pct"] = overheads

    unsteady = [name for name in EXACT if len(set(series[name])) != 1]
    if unsteady:
        ledger.failures.append(("wrong", "traced passes", f"counts differ by pass: {unsteady}"))
    metrics, notes = {}, {}
    for name, unit, _ in PER_LAYER:
        values = series[name]
        metrics[name] = values[0] if unit == "count" else statistics.median(values)
        if unit != "count":
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            notes[name] = f"quartiles {q1:.6g}..{q3:.6g} of {len(values)} samples"
    notes["trace.overhead_pct"] += " (traced against plain passes of the same operations)"

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with spans_path.open("w", encoding="utf-8") as fh:
        for row in span_rows:
            fh.write(json.dumps(row) + "\n")
    print(f"  {len(passes)} pairs of passes over {len(ops)} operations")
    print(f"  spans: {len(span_rows)} written to {spans_path.relative_to(ROOT)}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one caller on small matrices: a second BLAS thread only adds spin-waits and
    # noise on a shared 2-core machine; every child process inherits the setting
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    load = os.getloadavg()
    import_program()
    env = environment([round(x, 2) for x in load])
    ledger = Ledger(args.workload, args.seed)
    workdir = _workdir()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    try:
        measure = traced if args.trace else untraced
        metrics, notes = measure(args.workload, args.seed, args.seconds, ledger, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    # zero on every workload but estimate_cold, so not a bounded metric; the
    # driver sees it as failed / attempted
    fail_frac = len(ledger.failures) / ledger.attempted
    print(f"  {'fail_frac':<40} {fail_frac:>14.6g} {'1':<6} "
          f"{len(ledger.failures)} of {ledger.attempted} operations")
    ledger.report()
    print(json.dumps({"environment": env}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": len(ledger.failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 1 if ledger.failures else 0


if __name__ == "__main__":
    sys.exit(main())
