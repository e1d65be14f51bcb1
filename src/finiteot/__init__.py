"""finiteot: exact discrete optimal transport with verification suites.

Finite metric spaces, discrete measures, transport plans, an exact
Kantorovich solver (rational and float modes, a compiled kernel for
float problems), Wasserstein-p distances with the gluing construction,
and lower-semicontinuity checks.
"""

__version__ = "0.1.0"

from .coupling import (  # noqa: F401
    TransportPlan,
    is_coupling,
    marginals,
    product_coupling,
    restrict_and_normalize,
    tail_mass_bound_check,
    verify_coupling_via_test_functions,
)
from .measure import (  # noqa: F401
    DiscreteMeasure,
    TestFunction,
    dirac,
    empirical_from_samples,
    integrate,
    measures_equal,
    new_measure,
    pushforward,
)
from .space import (  # noqa: F401
    CostMatrix,
    FiniteMetricSpace,
    from_point_cloud,
    validate_metric,
)
from .solver import (  # noqa: F401
    KERNEL,
    KERNEL_INFO,
    OTSolution,
    cost_of_plan,
    solve_kantorovich,
)
