"""Maximum-entropy estimation of density operators and quantum state-space geometry.

The package has five layers:

* :mod:`qmaxent.operators` -- validated Hermitian/density operators,
  eigendecomposition and spectral functions, expectations, norms.
* :mod:`qmaxent.entropy` -- von Neumann entropy and a signed logarithmic
  relative entropy (nonpositive; maximized at equality).
* :mod:`qmaxent.maxent` -- canonical (Gibbs) states, the convex dual of the
  constrained entropy maximization, the multiplier solver, single-constraint
  prior tilts, and a classical scalar oracle.
* :mod:`qmaxent.geometry` -- the statistical metric, raising/lowering
  operators, line element, and zero-mean forms.
* :mod:`qmaxent.flow` -- the entropic flow field, a fixed-step integrator,
  its closed-form solution, and constraint-targeted navigation.

:mod:`qmaxent.cli` exposes everything as JSON-in/JSON-out subcommands.
"""

from .errors import (
    ConvergenceFailure,
    DependentConstraints,
    DimMismatch,
    DomainError,
    Infeasible,
    InputValidationError,
    MaxIterExceeded,
    NonSquare,
    NotHermitian,
    NotPositive,
    NotTraceless,
    NumericalFailure,
    Overflow,
    PositivityLoss,
    QuantumMaxEntError,
    SingularBase,
    StepInvalid,
    SupportViolation,
    TraceNotOne,
)
from .operators import (
    DensityOperator,
    HermitianOperator,
    apply_spectral_function,
    commutator_norm,
    eig_hermitian,
    expectation,
    hermitian_part,
    make_density,
    make_hermitian,
    trace_distance,
)
from .entropy import relative_entropy, von_neumann_entropy
from .maxent import (
    ConstraintSet,
    MaxEntSolution,
    classical_gibbs_oracle,
    dual_objective,
    entropy_sensitivity,
    gibbs_state,
    partition_function,
    solve_maxent,
    solve_prior_tilt,
)
from .geometry import (
    TangentDecomposition,
    assemble_tangent,
    line_element,
    lower_vector,
    metric_forms,
    metric_vectors,
    raise_form,
    zero_mean_form,
)
from .flow import (
    FlowSample,
    FlowTrajectory,
    closed_form_flow,
    flow_field,
    flow_to_constraint,
    integrate_flow,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintSet",
    "ConvergenceFailure",
    "DensityOperator",
    "DependentConstraints",
    "DimMismatch",
    "DomainError",
    "FlowSample",
    "FlowTrajectory",
    "HermitianOperator",
    "Infeasible",
    "InputValidationError",
    "MaxEntSolution",
    "MaxIterExceeded",
    "NonSquare",
    "NotHermitian",
    "NotPositive",
    "NotTraceless",
    "NumericalFailure",
    "Overflow",
    "PositivityLoss",
    "QuantumMaxEntError",
    "SingularBase",
    "StepInvalid",
    "SupportViolation",
    "TangentDecomposition",
    "TraceNotOne",
    "apply_spectral_function",
    "assemble_tangent",
    "classical_gibbs_oracle",
    "closed_form_flow",
    "commutator_norm",
    "dual_objective",
    "eig_hermitian",
    "entropy_sensitivity",
    "expectation",
    "flow_field",
    "flow_to_constraint",
    "gibbs_state",
    "hermitian_part",
    "integrate_flow",
    "line_element",
    "lower_vector",
    "make_density",
    "make_hermitian",
    "metric_forms",
    "metric_vectors",
    "partition_function",
    "raise_form",
    "relative_entropy",
    "solve_maxent",
    "solve_prior_tilt",
    "trace_distance",
    "von_neumann_entropy",
    "zero_mean_form",
]
