"""Max-3SAT formulas compiled into linearly realizable assignment-tree MDPs.

The pipeline: parse a 3-CNF formula, build the binary assignment-tree MDP
whose terminal rewards are satisfied fractions, construct the policy
parameterization and realizability feature/weight vectors for the greedy
and softmax policy classes, evaluate policies exactly, extract assignments
from near-optimal policies, and verify every identity exhaustively at
desk scale.
"""

from .cnf import (
    Assignment,
    Clause,
    ClauseUniverse,
    CnfError,
    Formula,
    enumerate_universe,
    is_zeta_satisfiable,
    occurrence_bound,
    parse_dimacs,
    satisfied_fraction,
    universe_block_sizes,
)
from .features import (
    PolicyParams,
    RealizabilityFeature,
    RealizabilityWeight,
    f_threshold,
    greedy_action,
    greedy_weight,
    psp_feature,
    realizability_feature,
    softmax_prob,
    softmax_weight,
)
from .mdp import (
    ACTIONS,
    ZERO_REWARD,
    MdpError,
    MdpInstance,
    State,
    build_mdp,
    generative_query,
    initial_state,
    reward,
    stage,
    step,
)
from .policies import (
    Trajectory,
    best_greedy,
    enumerate_trajectories,
    eval_q_greedy,
    eval_q_softmax,
    sample_trajectory,
    state_value_greedy,
    state_value_softmax,
)
from .reduction import (
    ReductionError,
    ReductionReport,
    RlSolver,
    calibration_t,
    decide_max3sat,
    empirical_mcdiarmid,
    epsilon_bound_greedy,
    epsilon_bound_softmax,
    exact_solver,
    extract_assignment_greedy,
    extract_assignment_softmax,
    gap3sat_to_delta_b,
    mcdiarmid_tail,
    planted_instance,
)
from .verify import (
    SuiteResult,
    check_construction_scaling,
    check_realizability_greedy,
    check_realizability_softmax,
    check_reduction_roundtrip,
    random_formula,
    run_suites,
)

__version__ = "0.1.0"
