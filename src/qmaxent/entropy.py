"""Von Neumann entropy and a logarithmic relative entropy.

The relative entropy here is signed so that it is nonpositive and equal to
zero exactly when both states coincide: S(rho || sigma) = -tr[rho (log rho
- log sigma)].  That is the negative of the conventional quantum
Kullback-Leibler divergence, so "maximize this quantity" means "minimize
the conventional divergence".  Results are in nats.
"""

from __future__ import annotations

import numpy as np

from .errors import SupportViolation
from .operators import (
    SUPPORT_FLOOR,
    DensityOperator,
    _common_dim,
    _eigh,
    _eigvalsh,
    _weights,
)

__all__ = ["von_neumann_entropy", "relative_entropy"]


def _entropy_of_spectrum(p: np.ndarray) -> float:
    """-sum p log p over p > 0, so 0 log 0 = 0 and rounding's negative eigenvalues drop out."""
    q = p[p > 0.0]
    s = float(-(q * np.log(q)).sum())
    # eigenvalues a hair above 1 can push the sum a hair below zero, and a
    # pure state sums to -0.0; both report +0.0
    return s if s > 0.0 else 0.0


def von_neumann_entropy(state: DensityOperator) -> float:
    """-tr(rho log rho) in nats; 0 for pure states, log(dim) for the uniform state."""
    _common_dim(state)
    return _entropy_of_spectrum(_eigvalsh(state.entries))


def relative_entropy(state: DensityOperator, prior: DensityOperator) -> float:
    """-tr[rho (log rho - log sigma)] in nats (nonpositive, maximized at rho = sigma).

    Eigenvectors of ``prior`` with eigenvalue at or below ``SUPPORT_FLOOR`` lie outside its
    support, by the prior updates' rule (``_tilt_support``); a weight of ``state`` above the
    floor on any one of them (the value would be -infinity) raises SupportViolation.
    """
    _common_dim(state, prior)
    q, v = _eigh(prior.entries)
    overlaps = _weights(state, v)
    kernel = q <= SUPPORT_FLOOR
    if (overlaps[kernel] > SUPPORT_FLOOR).any():
        raise SupportViolation(
            f"state has weight {float(overlaps[kernel].sum()):.3e} outside the prior's support"
        )
    support = ~kernel
    cross = float((np.log(q[support]) * overlaps[support]).sum())
    return _entropy_of_spectrum(_eigvalsh(state.entries)) + cross
