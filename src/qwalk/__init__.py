"""Continuous-time quantum walk on dihedral Cayley graphs.

Exact closed-form dynamics and time averages, the classical random walk
on the same graph, reciprocal eigenvalue-gap sums with their analytic
caps, and a measurement-based sampler.  The `qwalk` console script
fronts all of it.
"""

from .bounds import (
    BoundsReport,
    BudgetReport,
    ConjectureRow,
    DecomposedSum,
    QuadrantSums,
    bounds_report,
    budget_report,
    budget_time,
    case5_sum,
    conjecture_check,
    conjecture_f,
    decomposed_sum,
    eigengap_inverse_sum_bruteforce,
    quantum_bound_rhs,
    quantum_mixing_threshold,
    su3_raw,
    su_sums,
)
from .classical import (
    MixingReport,
    classical_mixing_time,
    classical_profile,
    half_uniform_distance,
)
from .dihedral import semi_cayley_adjacency
from .sampling import (
    SampleHistogram,
    SamplerConfig,
    empirical_check,
    measured_walk,
)
from .spectra import (
    classical_lower_bound,
    eigenvalues,
    full_spectrum,
    second_largest_eigenvalue,
)
from .walk import (
    AveragedWalkMatrix,
    LimitingDistribution,
    averaged_matrix,
    distance_to_limit,
    limiting_distribution,
    probability_matrix,
    probability_row,
)

__version__ = "0.1.0"
