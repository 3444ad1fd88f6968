"""The package runs on numpy alone."""

from __future__ import annotations

import numpy as np

from helpers import run_python


def test_import_loads_no_scipy():
    proc = run_python(
        "-c",
        "import sys, qmaxent; "
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_flow_to_constraint_without_scipy():
    # a None entry makes every import of scipy fail
    proc = run_python(
        "-c",
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from qmaxent import flow_to_constraint, make_density, make_hermitian\n"
        "prior = make_density((np.eye(2) + 0.5 * np.array([[0, 1], [1, 0]])) / 2)\n"
        "lam, _ = flow_to_constraint(prior, make_hermitian(np.diag([1.0, -1.0])), 0.6)\n"
        "print(repr(lam))",
    )
    assert proc.returncode == 0, proc.stderr
    assert abs(float(proc.stdout) + np.log(2.0)) <= 1e-10
