from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

# acceptance tests append their PASS/FAIL lines here; printed in the
# terminal summary so they are visible without -s
CRITERION_LINES: list[str] = []


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture
def eig_calls(monkeypatch) -> Counter:
    """Counts of numpy.linalg.eigh/eigvalsh calls; ``clear()`` it after building inputs."""
    counts: Counter = Counter()
    for name in ("eigh", "eigvalsh"):

        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
