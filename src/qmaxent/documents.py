"""JSON document schemas for operators and problems.

Operators travel as split real/imaginary matrices so any JSON tool can
read them.  Serialization uses Python's shortest round-trip float
representation, so serialize/parse reproduces every operator bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError
from .operators import DensityOperator, HermitianOperator, _computed, _density, _hermitian, _reals

__all__ = [
    "MODES",
    "DOCUMENT_HERMITICITY_TOL",
    "Problem",
    "operator_to_document",
    "operator_from_document",
    "density_from_document",
    "problem_from_document",
]

# per mode: observable count (None: any), target count (None: one per observable) and
# whether a prior is required; a maxent document may carry one
_SHAPES = {"maxent": (None, None, False), "prior_tilt": (1, 1, True),
           "flow": (1, 0, True), "metric": (2, 0, True)}
MODES = tuple(_SHAPES)
DOCUMENT_HERMITICITY_TOL = 1e-9
MAX_DOCUMENT_DIM = 1024


def operator_to_document(op: HermitianOperator) -> dict:
    return {
        "dim": op.dim,
        "re": op.entries.real.tolist(),
        "im": op.entries.imag.tolist(),
    }


def _operator_entries(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise InputValidationError("operator document must be a JSON object")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise InputValidationError("'dim' must be an integer")
    if not 1 <= dim <= MAX_DOCUMENT_DIM:
        raise InputValidationError(f"'dim' must be in [1, {MAX_DOCUMENT_DIM}], got {dim}")
    if "re" not in doc or "im" not in doc:
        raise InputValidationError("operator document needs 're' and 'im' matrices")
    # filled part by part: re + 1j*im would turn an 'im' of -0.0 into +0.0
    m = np.empty((dim, dim), dtype=np.complex128)
    m.real, m.imag = (_reals(doc[part], f"'{part}'", shape=m.shape) for part in ("re", "im"))
    return _hermitian(m, DOCUMENT_HERMITICITY_TOL)


def operator_from_document(doc) -> HermitianOperator:
    """Parse and validate an operator document."""
    return _computed(_operator_entries(doc), HermitianOperator)


def density_from_document(doc) -> DensityOperator:
    """Parse an operator document that must describe a density operator."""
    return _density(_operator_entries(doc))


@dataclass(frozen=True, eq=False)
class Problem:
    mode: str
    observables: tuple[HermitianOperator, ...]
    targets: tuple[float, ...]
    prior: DensityOperator | None


def problem_from_document(doc) -> Problem:
    """Parse a problem document and enforce its mode's shape from ``_SHAPES``.

    Targets in a ``flow`` or ``metric`` document are refused, not dropped.
    """
    if not isinstance(doc, dict):
        raise InputValidationError("problem document must be a JSON object")
    mode = doc.get("mode")
    if mode not in MODES:
        raise InputValidationError(f"'mode' must be one of {MODES}, got {mode!r}")
    raw_observables = doc.get("observables", [])
    if not isinstance(raw_observables, list):
        raise InputValidationError("'observables' must be a list")
    observables = tuple(operator_from_document(o) for o in raw_observables)
    raw_targets = doc.get("targets", [])
    if not isinstance(raw_targets, list):
        raise InputValidationError("'targets' must be a list")
    targets = _reals(raw_targets, "'targets'", shape=(len(raw_targets),)).tolist()
    prior = density_from_document(doc["prior"]) if doc.get("prior") is not None else None

    n_obs, n_targets, needs_prior = _SHAPES[mode]
    n_obs = len(observables) if n_obs is None else n_obs
    n_targets = n_obs if n_targets is None else n_targets
    if (len(observables), len(targets)) != (n_obs, n_targets) or (needs_prior and prior is None):
        raise InputValidationError(
            f"{mode} mode needs {n_obs} observables, {n_targets} targets"
            f"{' and a prior' if needs_prior else ''}; got {len(observables)}, "
            f"{len(targets)} and {'a' if prior is not None else 'no'} prior"
        )
    return Problem(mode=mode, observables=observables, targets=tuple(targets), prior=prior)
