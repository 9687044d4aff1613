"""Anti-concentration functions of classical distribution families.

For a parametric family {X_a}, the anti-concentration function is
    A(y) = inf over a of P(|X_a - E[X_a]| >= y * sqrt(Var(X_a))).
Uniform, exponential, Gaussian, and Student's-t families have positive
closed forms (see the `anticoncentration` module); binomial, Poisson,
negative binomial, hypergeometric, Gamma, Pareto, Weibull, log-normal,
and Beta families have A(y) = 0, certified by explicit epsilon-witness
parameters.  The `oracle` module supplies independent Monte Carlo,
quadrature, and grid-search checks.
"""

from .anticoncentration import (
    ANTI_CONCENTRATED_FAMILIES,
    STUDENT_T_Y_MAX,
    ZERO_INFIMUM_FAMILIES,
    AValue,
    Classification,
    StudentTDetail,
    Witness,
    a_exponential,
    a_gaussian,
    a_student_t,
    a_uniform,
    classify,
    cutoff_dof,
    cutoff_ratio,
    inner_probability,
    student_t_cdf,
    witness_parameter,
    witness_ray_description,
)
from .distributions import (
    FamilyId,
    Moments,
    ParamSet,
    TailResult,
    beta_family,
    binomial,
    cdf,
    exponential,
    gamma_family,
    gaussian,
    hypergeometric,
    log_normal,
    moments,
    neg_binomial,
    pareto,
    poisson,
    sample,
    student_t,
    tail_probability,
    uniform,
    validate,
    weibull,
)
from .errors import ConvergenceError, DomainError, InternalError, SearchError
from .oracle import (
    GridAxis,
    GridSpec,
    InfimumEstimate,
    McEstimate,
    default_grid,
    derive_seeds,
    grid_infimum,
    mc_tail,
    quad_normal_symmetric_tail,
    quad_student_cdf,
)
from .specfun import (
    gauss_2f1,
    log_gamma,
    reg_inc_beta,
    reg_inc_gamma_lower,
    std_normal_cdf,
)

__version__ = "0.1.0"
