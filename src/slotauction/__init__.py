"""Position auctions for sponsored creatives in generated content.

Winner determination under the MNL user model is solved exactly by
parametric (Newton-Dinkelbach) search over a capped matching kernel, with
the paper's linear-program reformulation kept as a size-guarded
cross-check; under the cascade model it is approximated by
a restricted-welfare search and by a monotone bucketized greedy.  VCG and
envelope-priced revenue mechanisms sit on top, and brute-force oracles make
everything checkable at desk scale.
"""

from .core import (
    Allocation,
    AugmentedAllocation,
    CASCADE,
    Instance,
    MNL,
    Permutation,
    cascade_ctr,
    mnl_ctr,
    validate_instance,
    welfare,
)
from .cascade_wdp import (
    Bucket,
    bucketize,
    budgeted_ctr,
    combined_cascade_candidates,
    combined_cascade_solver,
    exact_budgeted_matching,
    greedy_bucket,
    optimal_permutation,
    ptas_restricted_welfare,
    restricted_ctr,
    zero_suppress,
)
from .distributions import (
    CustomDistribution,
    Exponential,
    TruncatedNormal,
    Uniform,
    is_regular,
    sample,
)
from .linfrac import LpProblem, LpSolution, build_charnes_cooper, recover_allocation, solve_lp
from .mechanisms import (
    MechanismOutcome,
    SolverHandle,
    brute_cascade_solver,
    exact_mnl_solver,
    greedy_cascade_solver,
    monotonicity_audit,
    myerson,
    vcg,
)
from .mnl_wdp import WdpResult, dinkelbach_check, solve_mnl_lp, solve_mnl_wdp
from .oracle import (
    brute_force_restricted,
    brute_force_wdp_cascade,
    brute_force_wdp_mnl,
    enumerate_matchings,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
