"""k-bonacci substitution combinatorics and thermodynamic formalism.

Exact language machinery for the k-bonacci substitutions, the break
function delta measuring distance to the subshift, the renormalization
operator on potentials (g + h) / delta^alpha with its explicit fixed
point, and numerical pressure estimation exhibiting the freezing phase
transition.
"""

from .errors import (
    BudgetExceededError,
    InconclusiveWindowError,
    KbonacciError,
    OutOfIndexError,
    UncertifiedConfigurationError,
)
from .potentials import CylinderFunction, Potential
from .pressure import (
    BetaCReport,
    PressureCurve,
    bispecial_ladder,
    birkhoff_bounds,
    brute_bispecials,
    default_beta_grid,
    find_beta_c,
    overlap_ratios,
    pressure_curve,
    verify_ladder,
)
from .recognition import (
    Configuration,
    CutPointSet,
    INFINITE,
    advance_break,
    brute_delta,
    cut_points,
    delta,
    delta_after_power,
    maximal_prefix,
    maximal_prefix_after_power,
    power_prefix,
    tribonacci_appendix_checks,
    verify_recognizability,
)
from .renorm import (
    ConvergenceStudy,
    convergence_study,
    eval_potential,
    fixed_point_U,
    renorm_after_power,
    renorm_power,
    verify_fixed_point,
)
from .sampling import random_certified_configuration, sample_configurations
from .spectral import (
    GrowthDecomposition,
    growth_decomposition,
    left_eigenvector,
    letter_frequencies,
    perron_root,
    tribonacci_cardan,
)
from .substitution import (
    FixedPointStream,
    Substitution,
    check_recurrence,
    kbonacci,
)
from .words import LanguageIndex, build_language, in_language

__version__ = "0.1.0"
