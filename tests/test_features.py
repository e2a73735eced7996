import ast
import math
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sat2mdp.policies
from sat2mdp import (
    Clause,
    Formula,
    PolicyParams,
    RealizabilityFeature,
    best_greedy,
    build_mdp,
    eval_q_greedy,
    eval_q_softmax,
    f_threshold,
    greedy_action,
    greedy_weight,
    psp_feature,
    realizability_feature,
    softmax_prob,
    softmax_weight,
)
from sat2mdp.cnf import leaf_counts
from sat2mdp.mdp import MdpError, initial_state, reward, stage, step
from sat2mdp.policies import iter_states
from sat2mdp.reduction import SOFTMAX_SATURATION
from sat2mdp.verify import random_formula

from conftest import formulas
from reference import is_terminal, lookahead_state, to_dimacs, transition


def satisfied_by(clause, prefix):
    """Some literal of the clause is assigned and true under the 0/1 prefix."""
    return any(abs(v) <= len(prefix) and prefix[abs(v) - 1] == (v > 0) for v in clause.to_ints())


def falsified_by(clause, prefix):
    """Every literal of the clause is assigned and false under the 0/1 prefix."""
    return all(abs(v) <= len(prefix) and prefix[abs(v) - 1] != (v > 0) for v in clause.to_ints())


class TestPspFeature:
    def test_stage_one(self):
        assert psp_feature(1, 1, 3) == (1, 0, 0)
        assert psp_feature(1, 0, 3) == (-1, 0, 0)

    def test_stage_three(self):
        assert psp_feature(3, 1, 3) == (0, 0, 1)

    def test_one_hot_everywhere(self):
        for d_prime in (1, 4, 7):
            for h in range(1, d_prime + 1):
                for action in (0, 1):
                    vec = psp_feature(h, action, d_prime)
                    nonzero = [(i, v) for i, v in enumerate(vec) if v != 0]
                    assert nonzero == [(h - 1, 1 if action else -1)]

    def test_range_checked(self):
        with pytest.raises(ValueError):
            psp_feature(4, 1, 3)

    def test_action_checked(self):
        with pytest.raises(ValueError) as info:
            psp_feature(1, 2, 3)
        assert str(info.value) == "action must be 0 or 1, got 2"


class TestGreedyAction:
    def test_all_positive_picks_true(self):
        params = PolicyParams((1.0, 1.0, 1.0))
        assert all(greedy_action(h, params) == 1 for h in (1, 2, 3))

    def test_tie_goes_to_false(self):
        assert greedy_action(1, PolicyParams((0.0, 1.0))) == 0

    def test_negative_picks_false(self):
        assert greedy_action(1, PolicyParams((-0.5,))) == 0

    def test_threshold_boundary_values(self):
        assert f_threshold(PolicyParams((0.0, 3.2)), 1) == 0
        assert f_threshold(PolicyParams((0.0, 3.2)), 2) == 1

    def test_agrees_with_threshold_function(self):
        # the argmax tie rule and the 0/1 threshold are the same function
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            raw = rng.uniform(-2, 2, size=n)
            raw[rng.random(n) < 0.2] = 0.0
            params = PolicyParams(tuple(float(v) for v in raw))
            for h in range(1, n + 1):
                assert greedy_action(h, params) == f_threshold(params, h)
        for signs in product((-1.0, 0.0, 1.0), repeat=3):
            params = PolicyParams(signs)
            for h in (1, 2, 3):
                assert greedy_action(h, params) == f_threshold(params, h)

    @pytest.mark.parametrize("h", [0, 4])
    @pytest.mark.parametrize(
        "per_stage",
        [greedy_action, lambda h, params: f_threshold(params, h), softmax_prob],
        ids=["greedy_action", "f_threshold", "softmax_prob"],
    )
    def test_stage_range_checked(self, per_stage, h):
        with pytest.raises(ValueError) as info:
            per_stage(h, PolicyParams((1.0, -1.0, 1.0)))
        assert str(info.value) == f"stage h={h} out of range [1, 3]"


class TestPolicyParamsRecord:
    def test_vectors_are_instance_fields(self):
        # both per-stage vectors are set at construction, as plain instance
        # attributes, with no descriptor on the class to run on each read
        params = PolicyParams((0.4, -1.0, 0.0))
        assert vars(params)["greedy_actions"] == (1, 0, 0)
        assert vars(params)["softmax_probs"] == tuple(softmax_prob(h, params) for h in (1, 2, 3))
        for name in ("greedy_actions", "softmax_probs"):
            assert all(name not in vars(cls) for cls in PolicyParams.__mro__)

    def test_no_cached_property_in_the_package(self):
        # every record fills its derived fields in __post_init__
        def names(node):
            for child in ast.walk(node):
                if isinstance(child, ast.Name):
                    yield child.id
                elif isinstance(child, ast.Attribute):
                    yield child.attr
                elif isinstance(child, ast.alias):
                    yield child.name

        package = Path(sat2mdp.policies.__file__).parent
        sites = [
            path.stem
            for path in sorted(package.glob("*.py"))
            if "cached_property" in names(ast.parse(path.read_text()))
        ]
        assert sites == []


class TestSoftmaxProb:
    def test_zero_is_even(self):
        assert softmax_prob(1, PolicyParams((0.0,))) == 0.5

    def test_saturation(self):
        assert softmax_prob(1, PolicyParams((15.0,))) > 1 - 1e-9
        assert softmax_prob(1, PolicyParams((-15.0,))) < 1e-9

    def test_definitional_form(self):
        got = softmax_prob(1, PolicyParams((1.0,)))
        want = math.e / (math.e + 1 / math.e)
        assert abs(got - want) < 1e-15

    def test_extreme_inputs_stable(self):
        assert softmax_prob(1, PolicyParams((800.0,))) == 1.0
        assert softmax_prob(1, PolicyParams((-800.0,))) == 0.0


class TestUndecidedMultiset:
    """The undecided instances, as ``Formula.split`` returns their remaining keys."""

    def test_shrinking_example(self, shrink_formula):
        _, got = shrink_formula.split((0, 0))
        counted = Counter(tuple(Clause(key).to_ints()) for key in got)
        assert counted == Counter({(-4, 5): 2, (3, -6, 7): 1})

    def test_example1_after_10(self, example1):
        assert example1.split((1, 0))[1] == [Clause.from_ints([-3]).key]

    def test_empty_prefix_keeps_all_clauses(self, example1):
        assert example1.split(()) == (0, [c.key for c in example1.clauses])


class TestRealizabilityFeature:
    def test_example1_feature_cell(self, example1_instance):
        phi = realizability_feature(example1_instance, (1, -1, -1), 0)
        assert phi.b == 1
        neg_x3 = example1_instance.universe.index_of(Clause.from_ints([-3]).key)
        assert phi.y_counts == {neg_x3: 1}
        assert phi.clause_count == 2
        assert phi.dim == 27

    def test_no_clause_on_x1_gives_zero_b(self):
        instance = build_mdp(Formula.from_ints(3, [[2, 3]]))
        phi = realizability_feature(instance, (-1, -1, -1), 1)
        assert phi.b == 0

    def test_status_counts_partition(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            formula = random_formula(n, rng)
            instance = build_mdp(formula)
            for state in iter_states(n):
                for action in (0, 1):
                    phi = realizability_feature(instance, state, action)
                    prefix = state[: stage(state) - 1] + (action,)
                    falsified = sum(1 for c in formula.clauses if falsified_by(c, prefix))
                    assert phi.b + falsified + phi.y_sum == formula.clause_count

    def test_b_bounded_by_decided_exhaustive_n8(self):
        rng = np.random.default_rng(8)
        formula = random_formula(8, rng, clause_count=10)
        instance = build_mdp(formula)
        for state in iter_states(8):
            for action in (0, 1):
                phi = realizability_feature(instance, state, action)
                assert phi.b <= formula.clause_count - phi.y_sum

    def test_terminal_rejected(self, example1_instance):
        with pytest.raises(MdpError):
            realizability_feature(example1_instance, (1, 0, 1), 0)

    def test_wrong_length_rejected(self, example1_instance):
        # a prefix-form state of length 5 is not a state of the 3-variable MDP
        with pytest.raises(MdpError, match="state length 5 != n=3"):
            realizability_feature(example1_instance, (0, 0, 0, 0, -1), 1)
        with pytest.raises(MdpError, match="state length 2 != n=3"):
            realizability_feature(example1_instance, (-1, -1), 1)

    def test_b_above_the_decided_count_rejected(self):
        # three instances, one undecided: at most two can be satisfied
        with pytest.raises(ValueError) as info:
            RealizabilityFeature(b=3, y_counts={0: 1}, clause_count=3, dim=7)
        assert str(info.value) == "b=3 exceeds decided count 2"

    def test_dot_across_dimensions_rejected(self, example1_instance):
        phi = realizability_feature(example1_instance, (1, -1, -1), 0)
        other = build_mdp(Formula.from_ints(2, [[1, 2]]))
        weight = greedy_weight(other, PolicyParams((1.0, 1.0)), 1)
        with pytest.raises(ValueError) as info:
            phi.dot(weight)
        assert str(info.value) == "dimension mismatch: feature 27 vs weight 9"


class TestLookaheadState:
    def test_fills_tail_from_thresholds(self):
        params = PolicyParams((1.0, 1.0, 1.0))
        assert lookahead_state((1, -1, -1), 0, params) == (1, 0, 1)

    def test_terminal_unchanged(self):
        params = PolicyParams((-1.0, -1.0, -1.0))
        assert lookahead_state((1, 0, 1), 0, params) == (1, 0, 1)

    @pytest.mark.parametrize(
        "state, theta",
        [((-1, -1), (1.0, 1.0, 1.0)), ((1, -1, -1), (1.0, 1.0)), ((1, -1, -1), (1.0,) * 4)],
    )
    def test_theta_length_checked(self, state, theta):
        # a long theta' used to be cut to the state's length, a short one to
        # fail on a stage out of range
        message = f"theta' has {len(theta)} entries, state needs {len(state)}"
        with pytest.raises(ValueError, match=message):
            lookahead_state(state, 0, PolicyParams(theta))

    def test_action_checked_before_theta(self):
        with pytest.raises(MdpError, match="action must be 0 or 1, got 2"):
            lookahead_state((-1, -1, -1), 2, PolicyParams((1.0, 1.0)))

    def test_matches_explicit_rollout(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            params = PolicyParams(tuple(float(v) for v in rng.uniform(-1, 1, size=n)))
            h = int(rng.integers(1, n + 1))
            state = tuple(int(v) for v in rng.integers(0, 2, size=h - 1)) + (-1,) * (n - h + 1)
            action = int(rng.integers(0, 2))
            current = transition(state, action)
            while not is_terminal(current):
                current = transition(current, greedy_action(stage(current), params))
            assert lookahead_state(state, action, params) == current


class TestGreedyWeight:
    def test_example1_dot_recovers_q(self, example1_instance):
        params = PolicyParams((1.0, 1.0, 1.0))
        phi = realizability_feature(example1_instance, (1, -1, -1), 0)
        theta2 = greedy_weight(example1_instance, params, 2)
        neg_x3 = example1_instance.universe.index_of(Clause.from_ints([-3]).key)
        assert theta2.entry(neg_x3) == 0  # look-ahead sets x3 = 1
        assert phi.dot(theta2) == Fraction(1, 2)

    def test_last_stage_is_all_zero(self, example1_instance):
        params = PolicyParams((1.0, -1.0, 1.0))
        w = greedy_weight(example1_instance, params, 3)
        assert not w.m_dense().any()

    def test_assigned_variable_coordinates_are_zero(self, example1_instance):
        params = PolicyParams((1.0, 1.0, 1.0))
        w = greedy_weight(example1_instance, params, 2)
        universe = example1_instance.universe
        for i, row in enumerate(universe.keys.tolist()):
            clause = Clause(tuple(k for k in row if k >= 0))
            if (clause.key[0] >> 1) + 1 <= 2:
                assert w.entry(i) == 0

    def test_head_and_entries_binary(self, example1_instance):
        params = PolicyParams((-1.0, 1.0, -1.0))
        for h in (1, 2, 3):
            w = greedy_weight(example1_instance, params, h)
            assert set(np.unique(w.m_dense())) <= {0, 1}

    def test_live_entries_match_lookahead_truth(self, example1_instance):
        params = PolicyParams((-1.0, 1.0, 1.0))
        h = 1
        w = greedy_weight(example1_instance, params, h)
        continuation = tuple(f_threshold(params, j) for j in (1, 2, 3))
        for i, row in enumerate(example1_instance.universe.keys.tolist()):
            clause = Clause(tuple(k for k in row if k >= 0))
            if (clause.key[0] >> 1) + 1 > h:
                assert w.entry(i) == int(satisfied_by(clause, continuation))

    def test_stage_range_checked(self, example1_instance):
        with pytest.raises(ValueError):
            greedy_weight(example1_instance, PolicyParams((1.0, 1.0, 1.0)), 4)


class TestSoftmaxWeight:
    def test_fair_coin_entries(self):
        formula = Formula.from_ints(4, [[1]])
        instance = build_mdp(formula)
        params = PolicyParams((0.0, 0.0, 0.0, 0.0))
        w = softmax_weight(instance, params, 1)
        by_size = {1: 0.5, 2: 0.75, 3: 0.875}
        for i, row in enumerate(instance.universe.keys.tolist()):
            clause = Clause(tuple(k for k in row if k >= 0))
            if (clause.key[0] >> 1) + 1 > 1:
                assert w.entry(i) == pytest.approx(by_size[len(clause.key)], abs=1e-15)
            else:
                assert w.entry(i) == 0.0

    def test_entries_are_probabilities(self, example1_instance):
        w = softmax_weight(example1_instance, PolicyParams((1.5, -2.5, 0.1)), 1)
        m = w.m_dense()
        assert np.all(m >= 0.0) and np.all(m <= 1.0)

    def test_saturated_matches_greedy(self, example1_instance):
        for signs in product((0, 1), repeat=3):
            params = PolicyParams.from_signs(signs, magnitude=20.0)
            for h in (1, 2, 3):
                soft = softmax_weight(example1_instance, params, h).m_dense()
                hard = greedy_weight(example1_instance, params, h).m_dense()
                assert np.max(np.abs(soft - hard)) < 1e-6


@st.composite
def cells(draw):
    """A small instance, one non-terminal state, an action and a sign pattern."""
    formula = draw(formulas(max_n=6))
    n = formula.n
    h = draw(st.integers(1, n))
    prefix = draw(st.lists(st.sampled_from((0, 1)), min_size=h - 1, max_size=h - 1))
    state = tuple(prefix) + (-1,) * (n - h + 1)
    bits = tuple(draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n)))
    return build_mdp(formula), state, draw(st.sampled_from((0, 1))), bits


class TestRealizabilityProperties:
    # the tolerances are those of the softmax suite (1e-9) and criterion 8 (1e-6)
    @settings(max_examples=100, deadline=None)
    @given(cells())
    def test_greedy_q_is_dot_exactly(self, cell):
        instance, state, action, bits = cell
        params = PolicyParams.from_signs(bits)
        phi = realizability_feature(instance, state, action)
        w = greedy_weight(instance, params, stage(state))
        assert eval_q_greedy(instance, params, state, action) == phi.dot(w)

    @settings(max_examples=50, deadline=None)
    @given(formulas(max_n=6), st.data())
    def test_greedy_q_is_leaf_count_at_every_cell(self, formula, data):
        # the scalar API against the leaf table the greedy suite reads: the
        # cell at stage h with prefix-and-action bits P rolls out under
        # pattern p to leaf (P << (n - h)) | (p & (2^(n - h) - 1))
        n, C = formula.n, formula.clause_count
        bits = data.draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
        p = int("".join(map(str, bits)), 2)
        instance = build_mdp(formula)
        params = PolicyParams.from_signs(bits)
        leaves = leaf_counts(formula)
        for state in iter_states(n):
            h = stage(state)
            w = greedy_weight(instance, params, h)
            for action in (0, 1):
                P = int("".join(map(str, state[: h - 1] + (action,))), 2)
                leaf = (P << (n - h)) | (p & ((1 << (n - h)) - 1))
                phi = realizability_feature(instance, state, action)
                q = eval_q_greedy(instance, params, state, action)
                assert q == Fraction(leaves[leaf], C) == phi.dot(w)

    @settings(max_examples=100, deadline=None)
    @given(cells(), st.data())
    def test_softmax_q_is_dot(self, cell, data):
        instance, state, action, _ = cell
        theta = data.draw(
            st.lists(st.floats(-3.0, 3.0), min_size=instance.n, max_size=instance.n)
        )
        params = PolicyParams.from_values(theta)
        phi = realizability_feature(instance, state, action)
        w = softmax_weight(instance, params, stage(state))
        assert abs(eval_q_softmax(instance, params, state, action) - phi.dot(w)) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(cells())
    def test_saturated_softmax_q_is_greedy_q(self, cell):
        instance, state, action, bits = cell
        soft = PolicyParams.from_signs(bits, SOFTMAX_SATURATION)
        hard = PolicyParams.from_signs(bits)
        greedy_q = eval_q_greedy(instance, hard, state, action)
        assert abs(eval_q_softmax(instance, soft, state, action) - float(greedy_q)) <= 1e-6


def parity(state):
    """The parity policy: each action is the parity of the assigned prefix."""
    return sum(state[: stage(state) - 1]) % 2


def repeat_previous(state):
    """Repeat the previous action; a roll-out asks it only past the root."""
    return state[stage(state) - 2]


def rollout_q(instance, policy, state, action):
    """q of a policy that reads the prefix, so lies outside Pi: rolled out
    through the reference ``transition`` and scored by ``reward``."""
    state = transition(state, action)
    while not is_terminal(state):
        state = transition(state, policy(state))
    return reward(instance, state)


def exact_rank(rows):
    """Rank of equal-length rows, by Gaussian elimination over Fractions."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        for r in range(rank + 1, len(matrix)):
            if matrix[r][col]:
                factor = matrix[r][col] / top[col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], top)]
        rank += 1
    return rank


def unrealizable_stages(instance, q_of):
    """The stages h < n at which no weight realizes q_of(state, action).

    Stage h stacks the [b, y] rows of its 2^h cells, over the universe
    coordinates some row uses (the others are zero in every row and leave
    the rank alone); q is realizable there exactly when appending the
    column C * q leaves the rank unchanged.  At stage n every cell is a
    leaf, whose q is b / C for any policy.
    """
    C = instance.formula.clause_count
    stages = []
    for h in range(1, instance.n):
        cells = [(prefix + (-1,) * (instance.n - h + 1), action)
                 for prefix in product((0, 1), repeat=h - 1) for action in (0, 1)]
        phis = [realizability_feature(instance, state, action) for state, action in cells]
        coordinates = sorted(set().union(*(phi.y_counts for phi in phis)))
        rows = [[phi.b] + [phi.y_counts.get(i, 0) for i in coordinates] for phi in phis]
        q = [C * q_of(state, action) for state, action in cells]
        if exact_rank([row + [v] for row, v in zip(rows, q)]) > exact_rank(rows):
            stages.append(h)
    return stages


def greedy_unrealizable(formula):
    """(sign pattern, stages) for each pattern whose q, read through
    ``policies.eval_q_greedy``, fails the rank test somewhere."""
    instance = build_mdp(formula)
    out = []
    for bits in product((0, 1), repeat=formula.n):
        params = PolicyParams.from_signs(bits)
        stages = unrealizable_stages(
            instance, lambda s, a: sat2mdp.policies.eval_q_greedy(instance, params, s, a)
        )
        if stages:
            out.append((bits, stages))
    return out


# formulas built so that both policies outside Pi fail the rank test: the
# minimal witness (x2) first, then (n, clauses) pairs with the one clause's
# variables past x1
RANK_WITNESSES = [(2, [[2]]), (3, [[3]]), (3, [[2, 3]]), (4, [[4]]), (4, [[2, -4]])]
# the fixed family for the Pi side: the witnesses, then two random formulas per n
RANK_FAMILY = {
    **{f"witness{i}": Formula.from_ints(n, clauses)
       for i, (n, clauses) in enumerate(RANK_WITNESSES)},
    **{f"random-n{n}-{i}": random_formula(n, np.random.default_rng(10 * n + i), 3, 2 * n)
       for n in (3, 4, 5) for i in range(2)},
}
OUTSIDE_PI = {"parity": parity, "repeat_previous": repeat_previous}


class TestPartialRealizability:
    # the minimal witness: on (x2) with n = 2 both root actions leave the one
    # clause undecided, so they share one feature, but the parity policy
    # sets x2 = x1 and earns 0 after action 0 and 1 after action 1; no
    # weight realizes its q, while every greedy pattern's q is a dot
    instance = build_mdp(Formula.from_ints(2, [[2]]))
    root = initial_state(2)

    def test_parity_policy_is_not_realizable(self):
        phis = [realizability_feature(self.instance, self.root, a) for a in (0, 1)]
        assert phis[0] == phis[1]
        assert [rollout_q(self.instance, parity, self.root, a) for a in (0, 1)] == [0, 1]

    @pytest.mark.parametrize("bits", list(product((0, 1), repeat=2)))
    def test_greedy_patterns_are_realizable(self, bits):
        params = PolicyParams.from_signs(bits)
        w = greedy_weight(self.instance, params, 1)
        for action in (0, 1):
            phi = realizability_feature(self.instance, self.root, action)
            assert eval_q_greedy(self.instance, params, self.root, action) == phi.dot(w)


class TestRankWitness:
    """Partial realizability by exact rank, per stage: every greedy sign
    pattern's q lies in the span of its stage's features, and the q of a
    policy that reads the prefix need not."""

    @pytest.mark.parametrize("name", RANK_FAMILY)
    def test_every_greedy_pattern_passes(self, name):
        assert greedy_unrealizable(RANK_FAMILY[name]) == []

    @pytest.mark.parametrize("name", sorted(OUTSIDE_PI))
    def test_policies_outside_pi_fail(self, name):
        policy = OUTSIDE_PI[name]
        passing = []
        for n, clauses in RANK_WITNESSES:
            formula = Formula.from_ints(n, clauses)
            instance = build_mdp(formula)
            if not unrealizable_stages(instance, lambda s, a: rollout_q(instance, policy, s, a)):
                passing.append(to_dimacs(formula))
        # the rate on random formulas, reported beside the result, not asserted
        rng = np.random.default_rng(0)
        drawn = [random_formula(n, rng, 3, 2 * n) for n in (3, 4, 5) for _ in range(30)]
        failing = sum(
            bool(unrealizable_stages(instance, lambda s, a: rollout_q(instance, policy, s, a)))
            for instance in map(build_mdp, drawn)
        )
        assert passing == [], (
            f"{name} passes the rank test on {passing}; it fails on {failing} of "
            f"{len(drawn)} random formulas (n = 3, 4, 5, seed 0)"
        )

    def test_prefix_dependent_rollout_fails(self, monkeypatch):
        # eval_q_greedy with a roll-out that flips the pattern's later
        # actions when x1 = 1: a policy that reads the prefix
        def flipped(instance, params, state, action):
            h, nxt = step(instance, state, action)
            leaf = nxt[:h] + tuple(a ^ nxt[0] for a in params.greedy_actions[h:])
            return instance.formula.fraction_of[instance.formula.split(leaf)[0]]

        monkeypatch.setattr(sat2mdp.policies, "eval_q_greedy", flipped)
        assert any(greedy_unrealizable(formula) for formula in RANK_FAMILY.values())


def leaf_values(instance):
    """``reward`` of every leaf in product order: a prefix's completions are one slice."""
    return [reward(instance, leaf) for leaf in product((0, 1), repeat=instance.n)]


def best_completion(values, n, prefix):
    """The largest leaf value over the completions of a 0/1 prefix."""
    start = sum(bit << (n - 1 - i) for i, bit in enumerate(prefix))
    return max(values[start:start + (1 << (n - len(prefix)))])


def optimal_q(instance):
    """q*: ``rollout_q`` of the policy that plays the first action whose best
    completion is largest, scored by brute force over the leaves."""
    values = leaf_values(instance)

    def first_maximizer(state):
        prefix = state[: stage(state) - 1]
        best = [best_completion(values, instance.n, prefix + (a,)) for a in (0, 1)]
        return best.index(max(best))

    return lambda state, action: rollout_q(instance, first_maximizer, state, action)


# (x1 | x3) & (x2 | ~x3): after x1 = x2 = 0 each clause alone can still be
# satisfied, but x3 cannot satisfy both
OPTIMAL_Q_WITNESS = Formula.from_ints(3, [[1, 3], [2, -3]])


class TestOptimalQ:
    """Partial q^pi-realizability sits between q*- and q^pi-realizability: on
    this construction every pi in Pi is realizable, q* need not be, and the
    optimum from the root is still attained inside Pi."""

    def test_optimal_q_fails_at_stage_2(self):
        instance = build_mdp(OPTIMAL_Q_WITNESS)
        # the rate on random formulas, reported beside the result, not asserted
        rng = np.random.default_rng(0)
        drawn = [Formula.from_ints(n, c) for n, c in RANK_WITNESSES] + [
            random_formula(n, rng, 3, 2 * n) for n in (3, 4, 5, 6) for _ in range(30)
        ]
        failing = sum(bool(unrealizable_stages(instance, optimal_q(instance)))
                      for instance in map(build_mdp, drawn))
        assert unrealizable_stages(instance, optimal_q(instance)) == [2], (
            f"q* fails the rank test on {failing} of {len(drawn)} formulas "
            f"(the rank witnesses, then n = 3..6 at seed 0)"
        )

    def test_every_greedy_pattern_passes_on_the_witness(self):
        assert greedy_unrealizable(OPTIMAL_Q_WITNESS) == []

    @pytest.mark.parametrize("name", RANK_FAMILY)
    def test_optimum_from_the_root_is_attained_in_pi(self, name):
        instance = build_mdp(RANK_FAMILY[name])
        assert best_greedy(instance)[1] == max(leaf_values(instance))

    def test_per_clause_maximum_is_realizable(self):
        # negative control: each clause's best completion on its own, summed,
        # is not q* but is linear in the features, so it passes where the
        # joint maximum fails: the test measures the joint maximum
        instance = build_mdp(OPTIMAL_Q_WITNESS)
        per_clause = [build_mdp(Formula(3, (clause,))) for clause in OPTIMAL_Q_WITNESS.clauses]

        def summed(state, action):
            prefix = transition(state, action)[: stage(state)]
            return sum(best_completion(leaf_values(one), 3, prefix) for one in per_clause) / 2

        assert unrealizable_stages(instance, summed) == []


class TestPolicyParams:
    def test_sign_parsing(self):
        assert PolicyParams.from_signs("+-+").theta_prime == (1.0, -1.0, 1.0)
        assert PolicyParams.from_signs((1, 0, 1)).theta_prime == (1.0, -1.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PolicyParams((float("nan"),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PolicyParams(())

    def test_sign_string_checked(self):
        with pytest.raises(ValueError) as info:
            PolicyParams.from_signs("+x-y")
        assert str(info.value) == "sign string may only contain '+'/'-', got ['x', 'y']"
