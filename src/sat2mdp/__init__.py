"""Max-3SAT formulas compiled into linearly realizable assignment-tree MDPs.

The pipeline: parse a 3-CNF formula, build the binary assignment-tree MDP
whose terminal rewards are satisfied fractions, construct the policy
parameterization and realizability feature/weight vectors for the greedy
and softmax policy classes, evaluate policies exactly, extract assignments
from near-optimal policies, and verify every identity exhaustively at
desk scale.

Importing the package loads none of its submodules.  A public name is
looked up in ``_EXPORTS``; its first read imports the submodule that
defines it and binds the name here (PEP 562), so a command loads only the
modules it runs.  numpy is imported only by the functions that build
arrays, and ``verify`` only by the ``verify`` command.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "Assignment", "Clause", "ClauseUniverse", "CnfError", "Formula",
            "enumerate_universe", "is_zeta_satisfiable", "occurrence_bound", "parse_dimacs",
            "satisfied_fraction", "universe_block_sizes",
        ),
        "cnf",
    ),
    **dict.fromkeys(
        (
            "PolicyParams", "RealizabilityFeature", "RealizabilityWeight", "f_threshold",
            "greedy_action", "greedy_weight", "psp_feature", "realizability_feature",
            "softmax_prob", "softmax_weight",
        ),
        "features",
    ),
    **dict.fromkeys(
        (
            "ACTIONS", "ZERO_REWARD", "MdpError", "MdpInstance", "State", "build_mdp",
            "generative_query", "initial_state", "reward", "stage", "step",
        ),
        "mdp",
    ),
    **dict.fromkeys(
        (
            "Trajectory", "best_greedy", "enumerate_trajectories", "eval_q_greedy",
            "eval_q_softmax", "sample_trajectory", "state_value_greedy", "state_value_softmax",
        ),
        "policies",
    ),
    **dict.fromkeys(
        (
            "ReductionError", "ReductionReport", "RlSolver", "calibration_t", "decide_max3sat",
            "empirical_mcdiarmid", "epsilon_bound_greedy", "epsilon_bound_softmax",
            "exact_solver", "extract_assignment_greedy", "extract_assignment_softmax",
            "mcdiarmid_tail", "planted_instance",
        ),
        "reduction",
    ),
    **dict.fromkeys(
        (
            "SuiteResult", "check_construction_scaling", "check_realizability_greedy",
            "check_realizability_softmax", "check_reduction_roundtrip", "random_formula",
            "run_suites",
        ),
        "verify",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # Any other name, a submodule's included, is an AttributeError, so
    # ``from sat2mdp import cli`` goes on to import the submodule.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
