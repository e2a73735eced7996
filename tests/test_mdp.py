import sys
import threading
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sat2mdp.mdp
from sat2mdp import (
    ZERO_REWARD,
    Formula,
    MdpError,
    PolicyParams,
    best_greedy,
    build_mdp,
    enumerate_trajectories,
    eval_q_greedy,
    eval_q_softmax,
    generative_query,
    initial_state,
    realizability_feature,
    reward,
    satisfied_fraction,
    stage,
    step,
)
from sat2mdp.features import _greedy_continuation, greedy_weight
from sat2mdp.verify import random_formula

from conftest import formulas
from reference import depth_first_solve, is_terminal, transition


class TestBuild:
    def test_example1_dimensions(self, example1_instance):
        inst = example1_instance
        assert inst.horizon == 4
        assert inst.d == 27
        assert inst.d_prime == 3
        assert inst.implied_state_count == 15

    def test_n1_dimensions(self):
        inst = build_mdp(Formula.from_ints(1, [[1]]))
        assert inst.horizon == 2
        assert inst.d == 3
        assert inst.d_prime == 1

    def test_dimension_grows_cubically(self):
        # d = Theta(n^3): the ratio at doubled n approaches 8
        d10 = build_mdp(Formula.from_ints(10, [[1]])).d
        d20 = build_mdp(Formula.from_ints(20, [[1]])).d
        assert 6 < d20 / d10 < 10
        for n in (1, 5, 9):
            inst = build_mdp(Formula.from_ints(n, [[1]]))
            assert inst.horizon == n + 1
            assert inst.d == 1 + inst.universe.size

    def test_instances_of_one_n_share_one_universe(self):
        a = build_mdp(Formula.from_ints(4, [[1, -2], [3]]))
        b = build_mdp(Formula.from_ints(4, [[-4, 2, 1]]))
        assert a.universe is b.universe
        assert build_mdp(Formula.from_ints(5, [[5]])).universe.n == 5
        # the continuation cache is keyed on the universe, so a second
        # instance of the same n hits the first instance's entry
        params = PolicyParams.from_signs("+-+-")
        greedy_weight(a, params, 1)
        before = _greedy_continuation.cache_info()
        greedy_weight(b, params, 2)
        after = _greedy_continuation.cache_info()
        assert after.hits == before.hits + 1
        assert after.currsize == before.currsize

    def test_json_descriptor(self, example1_instance):
        data = example1_instance.to_json()
        assert data["H"] == 4 and data["d"] == 27 and data["d_prime"] == 3


class TestStates:
    def test_initial_and_stage(self):
        s = initial_state(3)
        assert s == (-1, -1, -1)
        assert stage(s) == 1
        assert stage((0, 1, -1)) == 3
        assert stage((0, 1, 1)) == 4

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=8).map(tuple))
    @example((-1, 0, -1))
    @example((2, -1, -1))
    def test_prefix_form_enforced(self, state):
        # oracle: reject an entry outside {-1, 0, 1} or a 0/1 after a -1;
        # otherwise h = 1 + the number of leading assigned entries
        seen_unassigned = False
        valid = True
        for v in state:
            if v not in (-1, 0, 1) or (v != -1 and seen_unassigned):
                valid = False
            seen_unassigned = seen_unassigned or v == -1
        if not valid:
            with pytest.raises(MdpError, match="prefix form"):
                stage(state)
            return
        leading = 0
        while leading < len(state) and state[leading] != -1:
            leading += 1
        assert stage(state) == 1 + leading
        assert stage(list(state)) == 1 + leading
        assert is_terminal(state) == (leading == len(state))

    def test_terminal_detection(self):
        assert not is_terminal((-1, -1))
        assert is_terminal((0, 1))


class TestTransition:
    def test_root_true(self):
        assert transition((-1, -1, -1), 1) == (1, -1, -1)

    def test_left_subtree(self):
        assert transition((0, -1, -1), 0) == (0, 0, -1)

    def test_terminal_rejected(self):
        with pytest.raises(MdpError, match="terminal"):
            transition((1, 0, 1), 0)

    def test_bad_action(self):
        with pytest.raises(MdpError):
            transition((-1, -1), 2)


class TestReward:
    def test_bad_leaves_pay_half(self, example1_instance):
        assert reward(example1_instance, (0, 1, 0)) == Fraction(1, 2)
        assert reward(example1_instance, (1, 0, 1)) == Fraction(1, 2)

    def test_good_leaf_pays_one(self, example1_instance):
        assert reward(example1_instance, (0, 0, 0)) == 1

    def test_internal_states_pay_zero(self, example1_instance):
        assert reward(example1_instance, (0, -1, -1)) == 0


class TestGenerativeQuery:
    def test_blue_subtree(self, example1_instance):
        assert generative_query(example1_instance, (1, -1, -1), 0) == ((1, 0, -1), 0)

    def test_blue_terminal(self, example1_instance):
        assert generative_query(example1_instance, (1, 0, -1), 1) == (
            (1, 0, 1),
            Fraction(1, 2),
        )

    def test_true_branch_full_reward(self, example1_instance):
        assert generative_query(example1_instance, (0, 0, -1), 1) == ((0, 0, 1), 1)

    def test_shared_zero_before_the_leaf(self, example1_instance):
        # clients may test the pre-leaf reward by identity
        assert generative_query(example1_instance, (1, -1, -1), 0)[1] is ZERO_REWARD
        assert reward(example1_instance, (1, -1, -1)) is ZERO_REWARD
        assert generative_query(example1_instance, (0, 0, -1), 0)[1] is not ZERO_REWARD

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_next_state_matches_transition(self, n):
        # step builds the action and the free tail afresh; transition
        # slices the tail from the state
        instance = build_mdp(Formula.from_ints(n, [[-n]]))
        for assigned in range(n):
            state = (1, 0) * (assigned // 2) + (1,) * (assigned % 2) + (-1,) * (n - assigned)
            for action in (0, 1):
                assert step(instance, state, action) == (
                    assigned + 1, transition(state, action)
                )

    @pytest.mark.parametrize("action", [True, np.int64(1), 1.0, False, np.int64(0), 0.0])
    @pytest.mark.parametrize("state", [
        (np.int64(1), -1, -1, -1),
        (True, np.bool_(False), -1, -1),
        tuple(np.array([0, 1, 1, -1])),
        np.array([1, 0, -1, -1]),
        (1, -1.0, -1.0, -1.0),
    ], ids=["numpy-prefix", "bool-prefix", "numpy-all", "ndarray", "float-tail"])
    def test_next_state_entry_types(self, state, action):
        # the action and every tail entry of a next state are plain ints,
        # whatever the caller passed; prefix entries stay as step got them
        instance = build_mdp(Formula.from_ints(4, [[1, -2, 4]]))
        h, nxt = step(instance, state, action)
        assert nxt == transition(state, action)
        prefix = tuple(state)[: h - 1]
        assert nxt[: h - 1] == prefix and list(map(type, nxt[: h - 1])) == list(map(type, prefix))
        assert all(type(v) is int for v in nxt[h - 1:])
        got, _ = generative_query(instance, state, action)
        assert got == nxt and all(type(v) is int for v in got)

    def test_pure(self, example1_instance):
        first = generative_query(example1_instance, (-1, -1, -1), 1)
        assert all(
            generative_query(example1_instance, (-1, -1, -1), 1) == first
            for _ in range(5)
        )


def _oracle_query(instance, state, action):
    """transition followed by reward: the pair, or the MdpError message."""
    try:
        nxt = transition(state, action)
        return nxt, reward(instance, nxt)
    except MdpError as exc:
        return str(exc)


# actions a caller may pass: valid ones, and values step must refuse
_HOSTILE_ACTIONS = st.sampled_from((0, 1, 0, 1, -1, 2, None, "1"))


@st.composite
def _states(draw, n):
    """A state for n variables: mostly length n, in prefix form or with
    arbitrary entries, sometimes one entry short or long."""
    length = draw(st.sampled_from((n, n, n, n - 1, n + 1)))
    assigned = draw(st.integers(0, length))
    prefix_form = tuple(draw(st.lists(st.integers(0, 1), min_size=assigned, max_size=assigned)))
    prefix_form += (-1,) * (length - assigned)
    arbitrary = tuple(draw(st.lists(st.integers(-2, 2), min_size=length, max_size=length)))
    return draw(st.sampled_from((prefix_form, prefix_form, arbitrary)))


@st.composite
def _query_inputs(draw):
    n = draw(st.integers(1, 6))
    state = draw(_states(n))
    action = draw(_HOSTILE_ACTIONS)
    return n, draw(st.integers(0, 2**16)), state, action


def _assert_query_matches_oracle(instance, state, action):
    """Assert that generative_query gives the oracle's answer, its pair or
    its MdpError message; return the pair, or None after an error."""
    expected = _oracle_query(instance, state, action)
    if isinstance(expected, str):
        with pytest.raises(MdpError) as info:
            generative_query(instance, state, action)
        assert str(info.value) == expected
        return None
    got = generative_query(instance, state, action)
    assert got == expected
    assert type(got[0]) is tuple and type(got[1]) is Fraction
    return got


class TestFusedQueryOracle:
    @settings(max_examples=400, deadline=None)
    @given(_query_inputs())
    @example((3, 0, (0, -1, -1), 1))  # valid, reward 0
    @example((3, 0, (0, 1, -1), 0))  # valid, leaf reward
    @example((3, 0, (-1, 0, -1), 1))  # not in prefix form
    @example((3, 0, (0, -1, -1), 2))  # bad action
    @example((3, 0, (0, -1, -1), 1 + 0j))  # an action equal to 1 that int() refuses
    @example((3, 0, (0, 1, 1), 0))  # terminal
    @example((3, 0, (0, 1), 2))  # bad action checked before length
    @example((3, 0, (0, 1), 1))  # terminal of the wrong length
    @example((3, 0, (-1, -1), 1))  # wrong length
    def test_matches_transition_then_reward(self, case):
        n, seed, state, action = case
        instance = build_mdp(random_formula(n, np.random.default_rng(seed)))
        _assert_query_matches_oracle(instance, state, action)


@st.composite
def _coerced(draw, state):
    """The state with one assigned entry replaced by an equal bool, numpy
    int or float, which ``stage`` accepts and the path must not cache."""
    assigned = [i for i, v in enumerate(state) if v != -1]
    if not assigned:
        return tuple(state)
    i = draw(st.sampled_from(assigned))
    kind = draw(st.sampled_from((bool, np.int64, float)))
    return state[:i] + (kind(state[i]),) + state[i + 1:]


class TestChainedQueryOracle:
    """A query from a state on the instance's path takes the fast path;
    every answer is still the oracle's."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**16), st.data())
    def test_chain_matches_transition_then_reward(self, n, seed, data):
        rng = np.random.default_rng(seed)
        instance = build_mdp(random_formula(n, rng))
        # another instance, of another n, whose own last answer is passed in
        other = build_mdp(random_formula(n + 1, rng))
        # two chains interleave their queries on the one instance, and each
        # restarts from one shared root object, as the solver's sweep does
        root = initial_state(n)
        chains, other_last, leaves, earlier = [root, root], initial_state(n + 1), [], []
        refilled = list(root)  # one list object, refilled in place before each use
        sources = (
            "last", "last", "last", "root", "earlier", "backtrack", "backtrack", "coerced",
            "copy", "list", "refilled", "refilled", "leaf", "arbitrary", "other",
        )
        for _ in range(data.draw(st.integers(1, 4 * n + 4))):
            chain = data.draw(st.integers(0, 1))
            last = chains[chain]
            source = data.draw(st.sampled_from(sources))
            if source == "root":
                state = root
            elif source == "earlier" and earlier:
                state = data.draw(st.sampled_from(earlier))
            elif source == "backtrack" and stage(last) > 1:
                # an ancestor of the chain's last state, as a depth-first
                # client queries after the subtree under it
                h = stage(last)
                state = data.draw(st.sampled_from([root] + [
                    s for s in earlier if stage(s) < h and s[: stage(s) - 1] == last[: stage(s) - 1]
                ]))
            elif source == "coerced":
                state = data.draw(_coerced(last))
            elif source == "copy":
                state = tuple(list(last))
            elif source == "list":
                state = list(last)
            elif source == "refilled":
                refilled[:] = data.draw(st.sampled_from((last, root)))
                state = refilled
            elif source == "leaf" and leaves:
                state = data.draw(st.sampled_from(leaves))
            elif source == "arbitrary":
                state = data.draw(_states(n))
            elif source == "other":
                state, _ = generative_query(other, other_last, data.draw(st.sampled_from((0, 1))))
                other_last = initial_state(n + 1) if is_terminal(state) else state
            else:  # "last", or "earlier", "backtrack" or "leaf" before there is one
                state = last
            got = _assert_query_matches_oracle(instance, state, data.draw(_HOSTILE_ACTIONS))
            if got is not None:
                if is_terminal(got[0]):
                    leaves.append(got[0])
                    chains[chain] = root
                else:
                    earlier.append(got[0])
                    chains[chain] = got[0]

    @pytest.mark.parametrize("state", [None, ()], ids=["None", "empty"])
    @pytest.mark.parametrize("action", [0, 1])
    def test_fresh_instance_refuses_what_step_refuses(self, state, action):
        # every path entry starts at a private sentinel: None, which a
        # caller may pass, and the shared empty tuple must both reach step
        formula = Formula.from_ints(3, [[1, -2]])
        with pytest.raises(Exception) as want:
            step(build_mdp(formula), state, action)
        with pytest.raises(want.type) as got:
            generative_query(build_mdp(formula), state, action)
        assert str(got.value) == str(want.value)

    def test_query_from_a_returned_leaf_is_terminal(self, example1_instance):
        state = initial_state(3)
        for action in (1, 0, 1):
            state, _ = generative_query(example1_instance, state, action)
        terminal = r"^cannot transition from terminal state \(1, 0, 1\)$"
        for action in (0, 1):
            with pytest.raises(MdpError, match=terminal):
                generative_query(example1_instance, state, action)

    def test_threads_sharing_one_instance_get_the_oracle_answers(self):
        # four threads walk random paths from one shared root on one
        # instance, switching every microsecond: each path entry is swapped
        # whole, so no answer pairs one state with another state's answer
        n = 6
        instance = build_mdp(random_formula(n, np.random.default_rng(7)))
        root = initial_state(n)
        expected = {}
        for bits in product((0, 1), repeat=n):
            state = root
            for action in bits:
                expected[state, action] = _oracle_query(instance, state, action)
                state = expected[state, action][0]
        wrong = []

        def walk(seed):
            rng = np.random.default_rng(seed)
            for _ in range(4000):
                state = root
                for action in rng.integers(0, 2, size=n).tolist():
                    got = generative_query(instance, state, action)
                    if got != expected[state, action]:
                        wrong.append((state, action, got))
                    state = got[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def _recount(formula, assignment):
    """Satisfied instances under a full assignment, straight off the signed ints."""
    return sum(
        any((v > 0) == bool(assignment[abs(v) - 1]) for v in clause.to_ints())
        for clause in formula.clauses
    )


class TestRewardTable:
    """Leaf rewards and satisfied fractions are read from a per-formula table."""

    @settings(max_examples=100, deadline=None)
    @given(formulas())
    def test_every_leaf_pays_its_recount(self, formula):
        instance = build_mdp(formula)
        for leaf in product((0, 1), repeat=formula.n):
            want = Fraction(_recount(formula, leaf), formula.clause_count)
            nxt, r = generative_query(instance, leaf[:-1] + (-1,), leaf[-1])
            assert nxt == leaf
            for got in (r, satisfied_fraction(formula, leaf)):
                assert type(got) is Fraction and got == want


# Every (state, action) entry point, called with a theta' of length n.
_STATE_ACTION_FUNCTIONS = {
    "realizability_feature": lambda instance, params, s, a: realizability_feature(instance, s, a),
    "eval_q_greedy": eval_q_greedy,
    "eval_q_softmax": eval_q_softmax,
    "enumerate_trajectories": enumerate_trajectories,
}


class TestStepErrorParity:
    @pytest.mark.parametrize("name", sorted(_STATE_ACTION_FUNCTIONS))
    @settings(max_examples=150, deadline=None)
    @given(_query_inputs())
    @example((3, 0, (0, -1, -1), 2))  # bad action
    @example((3, 0, (0, -1, -1), -1))  # bad action
    @example((3, 0, (0, 1, 1), 0))  # terminal
    @example((3, 0, (0, 1, 1), 2))  # bad action checked before terminal
    @example((3, 0, (-1, 0, -1), 5))  # prefix form checked before action
    @example((3, 0, (-1, -1, -1, -1), 1))  # too long
    @example((3, 0, (-1, -1), 1))  # too short
    def test_same_errors_as_transition_then_reward(self, name, case):
        n, seed, state, action = case
        rng = np.random.default_rng(seed)
        instance = build_mdp(random_formula(n, rng))
        params = PolicyParams.from_values(rng.uniform(-2.0, 2.0, size=n))
        expected = _oracle_query(instance, state, action)
        fn = _STATE_ACTION_FUNCTIONS[name]
        if isinstance(expected, str):
            with pytest.raises(MdpError) as info:
                fn(instance, params, state, action)
            assert str(info.value) == expected
        else:
            fn(instance, params, state, action)


class TestPathStructure:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_path_pays_its_leaf(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        formula = random_formula(n, rng)
        instance = build_mdp(formula)
        for assignment in product((0, 1), repeat=n):
            state = initial_state(n)
            total = Fraction(0)
            steps = 0
            for action in assignment:
                state, r = generative_query(instance, state, action)
                total += r
                steps += 1
            assert steps == n and is_terminal(state)
            assert state == assignment
            assert total == satisfied_fraction(formula, assignment)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_depth_first_walk_steps_once_per_solve(self, n, monkeypatch):
        # the walk comes back to each state on its path after the subtree
        # under it; every such query finds the state on the query path
        formula = random_formula(n, np.random.default_rng(n))
        params, best = best_greedy(build_mdp(formula))
        steps, queries = [], []
        original = sat2mdp.mdp.step
        monkeypatch.setattr(sat2mdp.mdp, "step", lambda *args: steps.append(args) or original(*args))
        for solves in (1, 2):
            instance = build_mdp(formula)

            def query(state, action):
                queries.append((state, action))
                return generative_query(instance, state, action)

            assert depth_first_solve(query, n) == (best, params.greedy_actions)
            assert len(queries) == solves * (2 ** (n + 1) - 2)
            assert len(steps) == solves

    def test_n10_exhaustive_path_sweep(self):
        rng = np.random.default_rng(99)
        formula = random_formula(10, rng, clause_count=15)
        instance = build_mdp(formula)
        for assignment in product((0, 1), repeat=10):
            state = initial_state(10)
            for action in assignment:
                state = transition(state, action)
            assert reward(instance, state) == satisfied_fraction(formula, assignment)
