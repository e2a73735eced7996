import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sat2mdp import (
    Clause,
    Formula,
    PolicyParams,
    build_mdp,
    eval_q_greedy,
    eval_q_softmax,
    f_threshold,
    greedy_action,
    greedy_weight,
    lookahead_state,
    psp_feature,
    realizability_feature,
    softmax_prob,
    softmax_weight,
    transition,
)
from sat2mdp.cnf import leaf_counts
from sat2mdp.mdp import MdpError, is_terminal, stage
from sat2mdp.policies import iter_states
from sat2mdp.reduction import SOFTMAX_SATURATION
from sat2mdp.verify import random_formula

from conftest import formulas


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
        assert phi.to_json()["scale_den"] == 2
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

    def test_json_export(self, example1_instance):
        phi = realizability_feature(example1_instance, (1, -1, -1), 0)
        data = phi.to_json()
        assert data["scale_den"] == 2
        assert len(data["entries"]) == 27
        assert data["entries"][0] == 1


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
        for i, clause in enumerate(universe.entries):
            if clause.min_variable <= 2:
                assert w.entry(i) == 0

    def test_head_and_entries_binary(self, example1_instance):
        params = PolicyParams((-1.0, 1.0, -1.0))
        for h in (1, 2, 3):
            w = greedy_weight(example1_instance, params, h)
            assert w.to_json()["entries"][0] == 1
            assert set(np.unique(w.m_dense())) <= {0, 1}

    def test_live_entries_match_lookahead_truth(self, example1_instance):
        params = PolicyParams((-1.0, 1.0, 1.0))
        h = 1
        w = greedy_weight(example1_instance, params, h)
        continuation = tuple(f_threshold(params, j) for j in (1, 2, 3))
        for i, clause in enumerate(example1_instance.universe.entries):
            if clause.min_variable > h:
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
        for i, clause in enumerate(instance.universe.entries):
            if clause.min_variable > 1:
                assert w.entry(i) == pytest.approx(by_size[len(clause)], abs=1e-15)
            else:
                assert w.entry(i) == 0.0

    def test_head_is_exactly_one(self, example1_instance):
        w = softmax_weight(example1_instance, PolicyParams((0.3, -0.7, 2.0)), 2)
        assert w.to_json()["entries"][0] == "1"

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

    def test_json_uses_decimal_strings(self, example1_instance):
        w = softmax_weight(example1_instance, PolicyParams((0.0, 0.0, 0.0)), 1)
        data = w.to_json()
        assert data["entries"][0] == "1"
        assert all(isinstance(e, str) for e in data["entries"])


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
