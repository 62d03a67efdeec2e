"""Simple Lawson Runge-Kutta integration toolkit.

Lawson integration applies an explicit Runge-Kutta scheme to the
integrating-factor transform of du/dt = g(u) + A u, so the stiff linear
part is handled by exact exponentials. When the abscissae are ordered
and equally spaced, one precomputed propagator exp(delta_c*h*A)
suffices ("simple" Lawson stepping). This package provides exact
tableau machinery, rooted-tree order-condition verification, a Newton
search for new gridded-abscissa schemes, stability-region analysis, and
a pseudo-spectral Navier-Stokes convergence benchmark.
"""

from .tableau import (
    Tableau,
    TableauParseError,
    abscissa_grid,
    euler_tableau,
    heun3_tableau,
    parse_tableau,
    rk4_tableau,
    rk6_tableau,
    serialize_tableau,
)
from .order_conditions import (
    OrderCondition,
    RootedTree,
    elementary_weight,
    enumerate_trees,
    order_residuals,
    verified_order,
)
from .linop import (
    LinearOperator,
    apply,
    dense_operator,
    diagonal_operator,
    expm,
    make_propagator,
)
from .integrator import (
    NonFiniteStateError,
    OdeProblem,
    StepPlan,
    integrate,
    lawson_step_general,
    make_plan,
    slrk_step,
)
from .stability import (
    RegionBoundary,
    StabilityPolynomial,
    real_axis_boundary,
    region_boundary,
    stability_polynomial,
)
from .search import (
    FloatTableau,
    SearchConfig,
    SearchResult,
    jacobian,
    multi_start_search,
    rationalize,
    residual_vector,
    search,
    uniform_c_pattern,
)
from . import navier_stokes

__version__ = "0.9.0"
