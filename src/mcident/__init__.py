"""Identity testing of reversible Markov chains from a single trajectory.

The pipeline decides, from one trajectory of an unknown reversible chain,
whether the chain equals a reference chain or is eps-far from it under the
spectral geometric-mean distance 1 - rho(sqrt(P o Pbar)), assuming the
stationary laws are close in the max-ratio sense. Supporting machinery
(censored chains, cut LPs and their rounding, trajectory-to-iid conversion,
iid Hellinger testing) is exposed directly.
"""

__version__ = "0.1.0"

from .chain_core import (
    ProbVector,
    TransitionMatrix,
    censor,
    convex_combination,
    lazy_version,
    matrix_power,
    multiplicative_reversibilization,
    spectral_gap,
    spectral_radius_nonneg,
    stationary_distribution,
    time_reversal,
)
from .identity import (
    TestConfig,
    TestReport,
    identity_test,
    lazify_trajectory,
    property_suite,
    trajectory_budget,
)
from .iid_test import TestVerdict, iid_sample_size, iid_test
from .metrics import (
    InducedDistribution,
    chain_distance,
    hellinger,
    induced_distribution,
    internal_mass,
    ratio_distance,
)
from .partition import (
    MetricLP,
    StatePartition,
    bourgain_embed,
    find_comp,
    partition_states,
    round_to_cut,
    solve_spccc_lp,
    tail_occupancy_check,
)
from .sampling import (
    Trajectory,
    iid_generate,
    required_visits,
    simulate,
)

__all__ = [
    "__version__",
    "InducedDistribution",
    "MetricLP",
    "ProbVector",
    "StatePartition",
    "TestConfig",
    "TestReport",
    "TestVerdict",
    "Trajectory",
    "TransitionMatrix",
    "bourgain_embed",
    "censor",
    "chain_distance",
    "convex_combination",
    "find_comp",
    "hellinger",
    "identity_test",
    "iid_generate",
    "iid_sample_size",
    "iid_test",
    "induced_distribution",
    "internal_mass",
    "lazify_trajectory",
    "lazy_version",
    "matrix_power",
    "multiplicative_reversibilization",
    "partition_states",
    "property_suite",
    "ratio_distance",
    "required_visits",
    "round_to_cut",
    "simulate",
    "solve_spccc_lp",
    "spectral_gap",
    "spectral_radius_nonneg",
    "stationary_distribution",
    "tail_occupancy_check",
    "time_reversal",
    "trajectory_budget",
]
