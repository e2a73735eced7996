import ast
import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sat2mdp import (
    Formula,
    PolicyParams,
    best_greedy,
    build_mdp,
    enumerate_trajectories,
    eval_q_greedy,
    eval_q_softmax,
    greedy_weight,
    realizability_feature,
    reward,
    sample_trajectory,
    state_value_greedy,
    state_value_softmax,
)
from sat2mdp.cnf import CnfError
from sat2mdp.features import greedy_action, softmax_prob, softmax_weight
from sat2mdp.mdp import MdpError, initial_state, stage, step
from sat2mdp import policies
from sat2mdp.policies import iter_states, softmax_q_of_split
from sat2mdp.verify import random_formula

from conftest import formulas
from reference import lookahead_state

ALL_TRUE = PolicyParams((1.0, 1.0, 1.0))


class TestEvalQGreedy:
    def test_example1_golden_cell(self, example1_instance):
        assert eval_q_greedy(example1_instance, ALL_TRUE, (1, -1, -1), 0) == Fraction(1, 2)

    def test_root_true_full_reward(self, example1_instance):
        assert eval_q_greedy(example1_instance, ALL_TRUE, (-1, -1, -1), 1) == 1

    def test_terminal_rejected(self, example1_instance):
        with pytest.raises(MdpError):
            eval_q_greedy(example1_instance, ALL_TRUE, (0, 1, 0), 1)

    def test_equals_lookahead_leaf_reward(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            formula = random_formula(n, rng)
            instance = build_mdp(formula)
            params = PolicyParams(tuple(float(v) for v in rng.uniform(-2, 2, size=n)))
            h = int(rng.integers(1, n + 1))
            state = tuple(int(v) for v in rng.integers(0, 2, size=h - 1)) + (-1,) * (n - h + 1)
            action = int(rng.integers(0, 2))
            leaf = lookahead_state(state, action, params)
            assert eval_q_greedy(instance, params, state, action) == reward(instance, leaf)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_stage_check_per_call(self, n):
        # the checked step is the only state check: the leaf is built from
        # its prefix, not walked to through transition()
        instance = build_mdp(random_formula(n, np.random.default_rng(n)))
        params = PolicyParams.from_signs([n % 2] * n)
        cells = [(state, action) for state in iter_states(n) for action in (0, 1)]
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is stage.__code__:
                calls += 1

        sys.setprofile(profile)
        try:
            for state, action in cells:
                eval_q_greedy(instance, params, state, action)
        finally:
            sys.setprofile(None)
        assert calls == len(cells)

    def test_values_in_unit_interval(self, example1_instance):
        for state in iter_states(3):
            for action in (0, 1):
                q = eval_q_greedy(example1_instance, ALL_TRUE, state, action)
                assert 0 <= q <= 1


class TestEvalQSoftmax:
    def test_uniform_policy_root(self, example1_instance):
        params = PolicyParams((0.0, 0.0, 0.0))
        # four equiprobable leaves of the True subtree; (1,0,1) pays 1/2
        got = eval_q_softmax(example1_instance, params, (-1, -1, -1), 1)
        assert got == pytest.approx(7 / 8, abs=1e-15)

    def test_saturated_matches_greedy(self, example1_instance):
        params = PolicyParams((20.0, 20.0, 20.0))
        for state in iter_states(3):
            for action in (0, 1):
                soft = eval_q_softmax(example1_instance, params, state, action)
                hard = float(eval_q_greedy(example1_instance, ALL_TRUE, state, action))
                assert abs(soft - hard) < 1e-6

    def test_wrong_length_rejected(self, example1_instance):
        params = PolicyParams((0.5,) * 3)
        with pytest.raises(MdpError, match="state length 2 != n=3"):
            eval_q_softmax(example1_instance, params, (-1, -1), 1)
        with pytest.raises(MdpError, match="state length 4 != n=3"):
            eval_q_softmax(example1_instance, params, (0, -1, -1, -1), 1)

    def test_dp_equals_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            formula = random_formula(n, rng)
            instance = build_mdp(formula)
            params = PolicyParams(tuple(float(v) for v in rng.uniform(-3, 3, size=n)))
            h = int(rng.integers(1, n + 1))
            state = tuple(int(v) for v in rng.integers(0, 2, size=h - 1)) + (-1,) * (n - h + 1)
            action = int(rng.integers(0, 2))
            dp = eval_q_softmax(instance, params, state, action)
            brute = sum(
                t.probability * float(reward(instance, t.final))
                for t in enumerate_trajectories(instance, params, state, action)
            )
            assert abs(dp - brute) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(formulas(max_n=5), st.data())
    def test_split_evaluator_is_eval_q_softmax_bitwise(self, formula, data):
        # the softmax suite scores each cell from its split, kept across
        # theta' draws, and one full probability vector per draw
        n = formula.n
        theta = data.draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n))
        instance = build_mdp(formula)
        params = PolicyParams(tuple(theta))
        probs = [softmax_prob(j, params) for j in range(1, n + 1)]
        for state in iter_states(n):
            for action in (0, 1):
                h, nxt = step(instance, state, action)
                split = formula.split(nxt[:h])
                got = softmax_q_of_split(split, probs, formula.clause_count)
                assert got == eval_q_softmax(instance, params, state, action)


class TestTrajectories:
    def test_no_free_stages_single_trajectory(self, example1_instance):
        params = PolicyParams((0.0, 0.0, 0.0))
        got = enumerate_trajectories(example1_instance, params, (0, 1, -1), 1)
        assert len(got) == 1
        assert got[0].probability == 1.0
        assert got[0].final == (0, 1, 1)

    def test_root_has_four(self, example1_instance):
        params = PolicyParams((0.3, -0.2, 0.9))
        got = enumerate_trajectories(example1_instance, params, (-1, -1, -1), 1)
        assert len(got) == 4
        assert sum(t.probability for t in got) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_policy_equiprobable(self, example1_instance):
        params = PolicyParams((0.0, 0.0, 0.0))
        got = enumerate_trajectories(example1_instance, params, (-1, -1, -1), 0)
        assert all(t.probability == pytest.approx(0.25, abs=1e-15) for t in got)

    def test_finals_are_prefix_action_suffix(self, example1_instance):
        # one trajectory per suffix, in itertools.product order, each named
        # by its leaf
        params = PolicyParams((1.0, -1.0, 0.5))
        for state in iter_states(3):
            prefix = state[: stage(state) - 1]
            for action in (0, 1):
                got = enumerate_trajectories(example1_instance, params, state, action)
                suffixes = product((0, 1), repeat=3 - len(prefix) - 1)
                assert [t.final for t in got] == [
                    prefix + (action,) + suffix for suffix in suffixes
                ]

    def test_cap(self):
        # 21 free stages after the root action, one over the cap
        instance = build_mdp(Formula.from_ints(22, [[22]]))
        with pytest.raises(MdpError, match="cap"):
            enumerate_trajectories(instance, PolicyParams((1.0,) * 22), initial_state(22), 1)

    def test_wrong_length_rejected(self, example1_instance):
        for state in ((-1, -1), (0, 0, 0, 0, -1)):
            with pytest.raises(MdpError, match=f"state length {len(state)} != n=3"):
                enumerate_trajectories(example1_instance, ALL_TRUE, state, 1)


class TestSampleTrajectory:
    def test_deterministic_given_seed(self, example1_instance):
        params = PolicyParams((0.4, -0.8, 1.2))
        a = sample_trajectory(example1_instance, params, 123)
        b = sample_trajectory(example1_instance, params, 123)
        assert a == b

    def test_saturated_walks_all_true(self, example1_instance):
        params = PolicyParams((20.0, 20.0, 20.0))
        traj = sample_trajectory(example1_instance, params, 7)
        assert traj.final == (1, 1, 1)

    def test_monte_carlo_mean_matches_expectation(self):
        rng = np.random.default_rng(3)
        formula = random_formula(6, rng, clause_count=8)
        instance = build_mdp(formula)
        params = PolicyParams(tuple(float(v) for v in rng.uniform(-1, 1, size=6)))
        trials = 20000
        seeds = np.random.SeedSequence(11).generate_state(trials, dtype=np.uint64)
        total = 0.0
        for s in seeds:
            traj = sample_trajectory(instance, params, int(s))
            total += float(reward(instance, traj.final))
        mean = total / trials
        expected = state_value_softmax(instance, params, initial_state(6))
        sigma = math.sqrt(max(expected * (1 - expected), 1e-6) / trials)
        assert abs(mean - expected) < 3 * sigma + 1e-9

    def test_one_function_draws_every_episode(self):
        # the package's only call of an attribute named ``random`` is the one
        # softmax draw, so no second sampler can read the generator its own way
        def random_calls(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "random"):
                    yield inner
                yield from random_calls(child, inner)

        package = Path(policies.__file__).parent
        sites = [
            site
            for path in sorted(package.glob("*.py"))
            for site in random_calls(ast.parse(path.read_text()), path.stem)
        ]
        assert sites == ["policies._draw_leaves"]


class TestBestGreedy:
    def test_example1_reaches_one(self, example1_instance):
        params, value = best_greedy(example1_instance)
        assert value == 1
        leaf = tuple(greedy_action(h, params) for h in (1, 2, 3))
        assert reward(example1_instance, leaf) == 1

    def test_contradiction_caps_at_half(self, contradiction):
        _, value = best_greedy(build_mdp(contradiction))
        assert value == Fraction(1, 2)

    def test_matches_assignment_brute_force(self):
        # roll-out oracle: every sign pattern played through the MDP, first best kept
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            formula = random_formula(n, rng, clause_count=2 * n)
            instance = build_mdp(formula)
            values = {
                bits: state_value_greedy(instance, PolicyParams.from_signs(bits), initial_state(n))
                for bits in product((0, 1), repeat=n)
            }
            best_value = max(values.values())
            first = next(bits for bits, value in values.items() if value == best_value)
            params, value = best_greedy(instance)
            assert params == PolicyParams.from_signs(first)
            assert value == best_value

    def test_cap(self):
        instance = build_mdp(Formula.from_ints(25, [[25]]))
        with pytest.raises(CnfError, match="cap"):
            best_greedy(instance)


class TestIdentities:
    def test_decomposition(self, example1_instance):
        # q equals (satisfied count + undecided/continuation product) / |C|,
        # recomputed from the raw integer parts
        for signs in product((0, 1), repeat=3):
            params = PolicyParams.from_signs(signs)
            for state in iter_states(3):
                h = stage(state)
                w = greedy_weight(example1_instance, params, h)
                for action in (0, 1):
                    phi = realizability_feature(example1_instance, state, action)
                    inner = sum(m * w.entry(i) for i, m in phi.y_counts.items())
                    q = eval_q_greedy(example1_instance, params, state, action)
                    assert q == Fraction(phi.b + inner, 2)

    def test_telescoping_along_greedy_trajectories(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            formula = random_formula(n, rng)
            instance = build_mdp(formula)
            for signs in product((0, 1), repeat=n):
                params = PolicyParams.from_signs(signs)
                state = initial_state(n)
                parts = []
                for h in range(1, n + 1):
                    action = greedy_action(h, params)
                    phi = realizability_feature(instance, state, action)
                    w = greedy_weight(instance, params, h)
                    inner = sum(m * w.entry(i) for i, m in phi.y_counts.items())
                    parts.append((phi.b, inner))
                    state = state[: h - 1] + (action,) + state[h:]
                for h in range(2, n + 1):
                    b_prev, in_prev = parts[h - 2]
                    b_cur, in_cur = parts[h - 1]
                    assert in_prev - in_cur == b_cur - b_prev


class TestStateValue:
    def test_greedy_v_is_q_at_greedy_action(self, example1_instance):
        for state in iter_states(3):
            action = greedy_action(stage(state), ALL_TRUE)
            v = state_value_greedy(example1_instance, ALL_TRUE, state)
            assert v == eval_q_greedy(example1_instance, ALL_TRUE, state, action)
            assert 0 <= v <= 1

    def test_softmax_v_mixes_q(self, example1_instance):
        params = PolicyParams((0.0, 0.0, 0.0))
        for state in iter_states(3):
            mix = 0.5 * eval_q_softmax(example1_instance, params, state, 0)
            mix += 0.5 * eval_q_softmax(example1_instance, params, state, 1)
            assert state_value_softmax(example1_instance, params, state) == pytest.approx(
                mix, abs=1e-15
            )


class TestThetaLength:
    @pytest.mark.parametrize("entries", [2, 4])
    @pytest.mark.parametrize(
        "call",
        [
            lambda inst, p: eval_q_greedy(inst, p, (1, -1, -1), 0),
            lambda inst, p: eval_q_softmax(inst, p, (1, -1, -1), 0),
            lambda inst, p: enumerate_trajectories(inst, p, (1, -1, -1), 0),
            lambda inst, p: sample_trajectory(inst, p, 0),
            lambda inst, p: greedy_weight(inst, p, 2),
            lambda inst, p: softmax_weight(inst, p, 2),
        ],
        ids=["eval_q_greedy", "eval_q_softmax", "enumerate_trajectories",
             "sample_trajectory", "greedy_weight", "softmax_weight"],
    )
    def test_wrong_length_rejected(self, example1_instance, call, entries):
        params = PolicyParams((1.0,) * entries)
        with pytest.raises(ValueError, match=f"theta' has {entries} entries, instance needs 3"):
            call(example1_instance, params)
