"""The package's public names, pinned: adding or dropping an export is a
deliberate edit of ``EXPORTS``."""

import types

import pytest

import sat2mdp
import sat2mdp.features
import sat2mdp.mdp

EXPORTS = {
    # cnf
    "Assignment", "Clause", "ClauseUniverse", "CnfError", "Formula", "enumerate_universe",
    "is_zeta_satisfiable", "occurrence_bound", "parse_dimacs", "satisfied_fraction",
    "universe_block_sizes",
    # features
    "PolicyParams", "RealizabilityFeature", "RealizabilityWeight", "f_threshold",
    "greedy_action", "greedy_weight", "psp_feature", "realizability_feature", "softmax_prob",
    "softmax_weight",
    # mdp
    "ACTIONS", "ZERO_REWARD", "MdpError", "MdpInstance", "State", "build_mdp",
    "generative_query", "initial_state", "reward", "stage", "step",
    # policies
    "Trajectory", "best_greedy", "enumerate_trajectories", "eval_q_greedy", "eval_q_softmax",
    "sample_trajectory", "state_value_greedy", "state_value_softmax",
    # reduction
    "ReductionError", "ReductionReport", "RlSolver", "calibration_t", "decide_max3sat",
    "empirical_mcdiarmid", "epsilon_bound_greedy", "epsilon_bound_softmax", "exact_solver",
    "extract_assignment_greedy", "extract_assignment_softmax", "mcdiarmid_tail",
    "planted_instance",
    # verify
    "SuiteResult", "check_construction_scaling", "check_realizability_greedy",
    "check_realizability_softmax", "check_reduction_roundtrip", "random_formula",
    "run_suites",
}

# second copies of the next-state rule and the greedy roll-out; they live
# in tests/reference.py, beside the tests that hold the package to them
REFERENCE_ONLY = ("transition", "is_terminal", "lookahead_state")


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes of the package
    # depends on what else this process has imported
    public = {
        name for name in dir(sat2mdp)
        if not name.startswith("_") and not isinstance(getattr(sat2mdp, name), types.ModuleType)
    }
    assert public == EXPORTS


@pytest.mark.parametrize("module", [sat2mdp, sat2mdp.mdp, sat2mdp.features])
@pytest.mark.parametrize("name", REFERENCE_ONLY)
def test_reference_functions_are_not_in_the_package(module, name):
    assert not hasattr(module, name)
