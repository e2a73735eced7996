import dataclasses
import importlib
import itertools
import json
import math
import pkgutil
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sat2mdp
import sat2mdp.features
import sat2mdp.mdp
import sat2mdp.policies
import sat2mdp.verify
from sat2mdp import (
    Formula,
    PolicyParams,
    build_mdp,
    decide_max3sat,
    exact_solver,
    extract_assignment_greedy,
    extract_assignment_softmax,
    generative_query,
    occurrence_bound,
    sample_trajectory,
    softmax_prob,
    softmax_weight,
)
from sat2mdp.mdp import MdpError, initial_state, stage
from sat2mdp.policies import iter_states
from sat2mdp.verify import (
    SUITES,
    SuiteResult,
    check_construction_scaling,
    check_realizability_greedy,
    check_realizability_softmax,
    check_reduction_roundtrip,
    random_formula,
    run_suites,
    softmax_weight_by_enumeration,
)

import reference
from conftest import call_counts, formulas, replay
from golden.make_digests import DIGESTS, FAULTS, faulted_run, softmax_binds, suite_digest


class TestRandomFormula:
    def test_occurrence_bound_enforced(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            formula = random_formula(n, rng, max_occurrences=3)
            assert occurrence_bound(formula) <= 3
            assert formula.clause_count >= 1

    def test_deterministic_given_seed(self):
        a = random_formula(6, np.random.default_rng(5))
        b = random_formula(6, np.random.default_rng(5))
        assert a == b


class TestWeightEnumerationOracle:
    def test_matches_closed_form_small(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            formula = random_formula(n, rng)
            instance = build_mdp(formula)
            params = PolicyParams(tuple(float(v) for v in rng.uniform(-2, 2, size=n)))
            for h in range(1, n + 1):
                heads, m = softmax_weight_by_enumeration(instance, [params], h)
                assert abs(heads[0] - 1.0) <= 1e-12
                closed = softmax_weight(instance, params, h).m_dense()
                assert float(np.max(np.abs(closed - m[0]))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(formulas(max_n=4), st.data())
    def test_batch_rows_are_the_per_draw_sums_bitwise(self, formula, data):
        n = formula.n
        instance = build_mdp(formula)
        thetas = data.draw(
            st.lists(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
                     min_size=1, max_size=6),
            label="thetas",
        )
        batch = [PolicyParams(tuple(theta)) for theta in thetas]
        keys, min_var = instance.universe.keys, instance.universe.min_var
        valid = keys >= 0
        var0 = np.where(valid, keys >> 1, 0)
        neg = np.where(valid, keys & 1, 0)
        for h in range(1, n + 1):
            heads, m = softmax_weight_by_enumeration(instance, batch, h)
            assert heads.shape == (len(batch),) and m.shape == (len(batch), instance.d - 1)
            for i, params in enumerate(batch):
                # one draw's sum over continuations, with Python-float weights
                probs = [softmax_prob(j, params) for j in range(h + 1, n + 1)]
                head, row = 0.0, np.zeros(instance.d - 1)
                values = np.zeros(n, dtype=np.int64)
                for suffix in itertools.product((0, 1), repeat=n - h):
                    p = 1.0
                    for j, a in enumerate(suffix):
                        p *= probs[j] if a == 1 else 1.0 - probs[j]
                    values[h:] = suffix
                    sat = (valid & (values[var0] != neg)).any(axis=1) & (min_var > h)
                    head += p
                    row += p * sat
                assert heads[i] == head and np.array_equal(m[i], row)
            single_heads, single_m = softmax_weight_by_enumeration(instance, batch[:1], h)
            assert single_heads[0] == heads[0] and np.array_equal(single_m[0], m[0])

    def test_cap_before_universe(self, monkeypatch):
        def refuse(n):
            raise AssertionError("the universe was built before the cap check")

        monkeypatch.setattr("sat2mdp.mdp.enumerate_universe", refuse)
        instance = build_mdp(Formula.from_ints(22, [[22]]))
        with pytest.raises(MdpError, match="cap"):
            softmax_weight_by_enumeration(instance, [PolicyParams((0.5,) * 22)], 1)

    @pytest.mark.parametrize("theta, h", [
        ((0.3, -0.2, 0.5, 9.0), 1),
        ((0.3, -0.2, 0.5), 0),
        ((0.3, -0.2, 0.5), 4),
        ((0.3, -0.2), 3),
    ])
    def test_refuses_what_the_closed_form_refuses(self, example1_instance, theta, h):
        params = PolicyParams(theta)
        with pytest.raises(ValueError) as closed:
            softmax_weight(example1_instance, params, h)
        with pytest.raises(ValueError) as single:
            softmax_weight_by_enumeration(example1_instance, [params], h)
        # one bad draw refuses the whole batch, wherever it sits
        valid = PolicyParams((0.1, 0.2, 0.3))
        with pytest.raises(ValueError) as batched:
            softmax_weight_by_enumeration(example1_instance, [valid, params], h)
        assert str(single.value) == str(batched.value) == str(closed.value)


class TestGreedySuite:
    def test_small_sweep_passes(self):
        result = check_realizability_greedy(n_max=4, formulas_per_n=4, seed=0)
        assert result.passed
        assert result.cases > 500

    def test_deterministic(self):
        a = check_realizability_greedy(n_max=3, formulas_per_n=3, seed=1)
        b = check_realizability_greedy(n_max=3, formulas_per_n=3, seed=1)
        assert a.canonical_json() == b.canonical_json()

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            check_realizability_greedy(n_max=9)

    def test_fractions_built_per_formula_not_per_cell(self):
        # counted rather than timed: a passing sweep builds only each
        # formula's table of C + 1 fractions, and no q is rolled out
        result, counts = call_counts(
            lambda: check_realizability_greedy(n_max=4, formulas_per_n=2, seed=5),
            fraction=Fraction.__new__,
            eval_q_greedy=sat2mdp.policies.eval_q_greedy,
        )
        rng = np.random.default_rng(5)
        tables = sum(
            random_formula(n, rng).clause_count + 1 for n in range(1, 5) for _ in range(2)
        )
        assert result.passed
        assert counts == {"fraction": tables, "eval_q_greedy": 0}


class TestLookaheadLeafIndex:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_greedy_rollout_leaf_is_cell_bits_then_pattern_low_bit(self, n):
        # the suite's look-ahead reads the leaf of (pattern p, stage n - 1
        # cell with prefix-and-action bits P) at index (P << 1) | (p & 1);
        # lookahead_state walks the roll-out that index stands for
        for p, signs in enumerate(itertools.product((0, 1), repeat=n)):
            params = PolicyParams.from_signs(signs)
            for P, bits in enumerate(itertools.product((0, 1), repeat=n - 1)):
                state = bits[:-1] + (-1, -1)
                leaf = reference.lookahead_state(state, bits[-1], params)
                assert int("".join(map(str, leaf)), 2) == (P << 1) | (p & 1)


class TestSoftmaxSuite:
    def test_small_sweep_passes(self):
        result = check_realizability_softmax(
            n_max=3, formulas_per_n=3, thetas_per_formula=5, seed=0
        )
        assert result.passed

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            check_realizability_softmax(n_max=6)


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        (check_realizability_greedy, {"n_max": 0}),
        (check_realizability_greedy, {"n_max": -3}),
        (check_realizability_greedy, {"formulas_per_n": 0}),
        (check_realizability_softmax, {"n_max": 0}),
        (check_realizability_softmax, {"formulas_per_n": 0}),
        (check_realizability_softmax, {"thetas_per_formula": 0}),
        (check_reduction_roundtrip, {"count": 0}),
        (check_reduction_roundtrip, {"count": -1}),
    ],
)
def test_empty_sweep_rejected(suite, kwargs):
    # a suite that checks nothing must not report a pass
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        suite(**kwargs)


def count_feature_calls(monkeypatch):
    calls = []
    original = sat2mdp.features.realizability_feature

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sat2mdp.features, "realizability_feature", counting)
    return calls


def cell_count(n_max, formulas_per_n):
    # 2^n - 1 non-terminal states per n-variable formula, two actions each
    return sum(formulas_per_n * 2 * (2**n - 1) for n in range(1, n_max + 1))


class TestOneFeaturePerCell:
    def test_greedy(self, monkeypatch):
        calls = count_feature_calls(monkeypatch)
        assert check_realizability_greedy(n_max=4, formulas_per_n=2, seed=3).passed
        assert len(calls) == cell_count(4, 2)

    @pytest.mark.parametrize("thetas", [1, 4])
    def test_softmax_independent_of_thetas(self, monkeypatch, thetas):
        calls = count_feature_calls(monkeypatch)
        result = check_realizability_softmax(
            n_max=3, formulas_per_n=2, thetas_per_formula=thetas, seed=3
        )
        assert result.passed
        assert len(calls) == cell_count(3, 2)


def every_cell(n):
    return {(tuple(state), action) for state in iter_states(n) for action in (0, 1)}


class TestPolicyIndependentWorkOnce:
    """Work that depends on the formula alone is done once per formula,
    not once per policy; counted rather than timed."""

    def test_softmax_evaluates_only_the_root_per_draw(self):
        n_max, formulas_per_n, thetas = 3, 2, 4
        result, counts = call_counts(
            lambda: check_realizability_softmax(
                n_max=n_max, formulas_per_n=formulas_per_n, thetas_per_formula=thetas, seed=3
            ),
            eval_q_softmax=sat2mdp.policies.eval_q_softmax,
            enumerate_trajectories=sat2mdp.policies.enumerate_trajectories,
        )
        draws = n_max * formulas_per_n * thetas
        assert result.passed
        assert counts == {"eval_q_softmax": 2 * draws, "enumerate_trajectories": 2 * draws}

    @pytest.mark.parametrize("thetas", [1, 4])
    def test_softmax_weight_oracle_once_per_stage(self, thetas):
        # one batched oracle run per (formula, h), over all of the formula's draws
        n_max, formulas_per_n = 3, 2
        result, counts = call_counts(
            lambda: check_realizability_softmax(
                n_max=n_max, formulas_per_n=formulas_per_n, thetas_per_formula=thetas, seed=3
            ),
            batched=softmax_weight_by_enumeration,
        )
        assert result.passed
        stages = formulas_per_n * sum(range(1, n_max + 1))
        assert counts == {"batched": stages}

    def test_softmax_rewards_independent_of_thetas(self):
        # each of a formula's 2^n root leaves is read once, whatever the draws
        calls = [
            call_counts(
                lambda: check_realizability_softmax(
                    n_max=3, formulas_per_n=2, thetas_per_formula=thetas, seed=3
                ),
                reward=sat2mdp.mdp.reward,
            )[1]["reward"]
            for thetas in (1, 4)
        ]
        assert calls[0] == calls[1] == 2 * sum(2**n for n in range(1, 4))

    def test_greedy_lookahead_reads_each_leaf_once(self, monkeypatch):
        # every (sign pattern, stage n - 1 cell) pair is still looked ahead,
        # by the leaf's index rather than a state walk, and reward reads
        # each of the formula's 2^n leaves at most once
        original = sat2mdp.verify.reward
        leaves = {}

        def recording(instance, state):
            # keyed by id, with the instance held so that no id is reused
            leaves.setdefault(id(instance), (instance, []))[1].append(tuple(state))
            return original(instance, state)

        monkeypatch.setattr(sat2mdp.verify, "reward", recording)
        result, counts = call_counts(
            lambda: check_realizability_greedy(n_max=6, formulas_per_n=1, seed=0),
            step=sat2mdp.mdp.step,
            eval_q_greedy=sat2mdp.policies.eval_q_greedy,
        )
        assert result.passed
        # one checked step per feature cell, 2(2^n - 1) cells per formula,
        # and none to walk a roll-out
        assert counts["step"] == sum(2 * (2**n - 1) for n in range(1, 7)) == 240
        # nor is any cell rolled out through the package's greedy q
        assert counts["eval_q_greedy"] == 0
        # one table of 2^n leaf rewards per formula, one formula per n
        assert sum(len(got) for _, got in leaves.values()) == sum(2**n for n in range(1, 7)) == 126
        assert leaves
        for instance, got in leaves.values():
            assert len(got) == len(set(got)) <= 2**instance.n


class TestOneDerivationPerPolicy:
    """Every reader of a policy's whole per-stage vector shares one
    derivation of it: n per-stage calls per ``PolicyParams``, however many
    weights, cells, roll-outs and extractions read it."""

    N = 5
    THETA = (0.4, -1.0, 0.0, 2.5, -0.3)

    @pytest.fixture
    def instance(self):
        return build_mdp(random_formula(self.N, np.random.default_rng(0)))

    def cells(self, at_stage=None):
        return [(state, action) for state in iter_states(self.N) for action in (0, 1)
                if at_stage in (None, stage(state))]

    def test_greedy_readers(self, instance):
        def read_all():
            params = PolicyParams(self.THETA)
            for h in range(1, self.N + 1):
                sat2mdp.features.greedy_weight(instance, params, h)
            for state, action in self.cells(at_stage=self.N - 1):
                reference.lookahead_state(state, action, params)
            for state, action in self.cells():
                sat2mdp.policies.eval_q_greedy(instance, params, state, action)
            return extract_assignment_greedy(params, self.N)

        extracted, counts = call_counts(
            read_all,
            greedy_action=sat2mdp.features.greedy_action,
            f_threshold=sat2mdp.features.f_threshold,
        )
        assert extracted == (1, 0, 0, 1, 0)
        assert counts == {"greedy_action": self.N, "f_threshold": 0}

    def test_softmax_readers(self, instance):
        root = initial_state(self.N)

        def read_all():
            params = PolicyParams(self.THETA)
            for h in range(1, self.N + 1):
                softmax_weight(instance, params, h)
                softmax_weight_by_enumeration(instance, [params], h)
            for state, action in self.cells():
                sat2mdp.policies.eval_q_softmax(instance, params, state, action)
            for action in (0, 1):
                sat2mdp.policies.enumerate_trajectories(instance, params, root, action)
            sample_trajectory(instance, params, 0)
            extract_assignment_softmax(params, self.N, mode="round")
            extract_assignment_softmax(params, self.N, mode="sample", seed=0)

        _, counts = call_counts(read_all, softmax_prob=softmax_prob)
        assert counts == {"softmax_prob": self.N}


class TestTieRuleReadsPlayedActions:
    def test_flipped_stage_one_action_is_caught(self, monkeypatch):
        # the stage-1 action reaches extraction alone: no live weight entry
        # and no roll-out past a stage h >= 1 reads it, so only the tie-rule
        # check, which reads the played vector, can see it go wrong
        post_init = PolicyParams.__post_init__

        def flipped(params):
            post_init(params)
            first, *rest = params.greedy_actions
            object.__setattr__(params, "greedy_actions", (1 - first, *rest))

        monkeypatch.setattr(PolicyParams, "__post_init__", flipped)
        result = check_realizability_greedy(n_max=4, formulas_per_n=3, seed=0)
        assert {(f["kind"], f["h"]) for f in result.failures} == {("tie_rule_mismatch", 1)}
        per_n = Counter(f["n"] for f in result.failures)
        assert per_n == {n: 3 * 2**n for n in range(1, 5)}
        assert extract_assignment_greedy(PolicyParams.from_signs("+-+"), 3) == (0, 0, 1)


class TestFaultStaysWithItsPolicy:
    """A q that is off for one policy fails that policy's cells and no other's."""

    def test_greedy_sign_pattern(self, monkeypatch):
        # the suite reads every q numerator (C times q) from the formula's
        # leaf counts through _q_numerators, one row per sign pattern
        original = sat2mdp.verify._q_numerators
        faulty = (1, 0)

        def off_by_one_clause(formula):
            q = original(formula)
            if formula.n == len(faulty):
                q[int("".join(map(str, faulty)), 2)] += 1
            return q

        monkeypatch.setattr(sat2mdp.verify, "_q_numerators", off_by_one_clause)
        result = check_realizability_greedy(n_max=3, formulas_per_n=1, seed=0)
        mismatches = [f for f in result.failures if f["kind"] == "dot_mismatch"]
        assert {tuple(f["signs"]) for f in result.failures} == {faulty}
        assert {(tuple(f["state"]), f["action"]) for f in mismatches} == every_cell(2)
        assert len(mismatches) == len(every_cell(2))
        for f in mismatches:
            assert Fraction(f["q"]) - Fraction(f["dot"]) == Fraction(1, len(f["formula"]))

    def test_softmax_theta_draw(self, monkeypatch):
        # the suite scores every cell's q with softmax_q_of_split, from the
        # cell's split and one probability vector per theta' draw, so a draw
        # is named here by its probability vector
        original = sat2mdp.verify.softmax_q_of_split
        draws = []

        def off_by_one_clause(split, probs, clause_count):
            q = original(split, probs, clause_count)
            draw = tuple(probs)
            if draw not in draws:
                draws.append(draw)
            # the second of the three draws on the 2-variable formula
            if draws.index(draw) == 4:
                q += 1.0 / clause_count
            return q

        def probs_of(theta):
            params = PolicyParams(tuple(theta))
            return tuple(softmax_prob(j, params) for j in range(1, len(theta) + 1))

        monkeypatch.setattr(sat2mdp.verify, "softmax_q_of_split", off_by_one_clause)
        result = check_realizability_softmax(
            n_max=3, formulas_per_n=1, thetas_per_formula=3, seed=0
        )
        assert len(draws) == 9
        mismatches = [f for f in result.failures if f["kind"] == "dot_mismatch"]
        assert {probs_of(f["theta"]) for f in result.failures} == {draws[4]}
        assert {(tuple(f["state"]), f["action"]) for f in mismatches} == every_cell(2)
        assert len(mismatches) == len(every_cell(2))


class TestInjectedFaultRecords:
    """Under each deliberately wrong function of ``golden.make_digests.FAULTS``
    the suite's failure records, not only its pass, match their digest byte
    for byte."""

    RECORDS = {"softmax-continuation": 308, "softmax-reward": 48, "greedy-reward": 1360}

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_records_match_golden(self, name):
        golden = json.loads(DIGESTS.read_text())
        result = faulted_run(name)
        assert len(result.failures) == self.RECORDS[name]
        if name.startswith("softmax") and not softmax_binds(golden):
            pytest.skip("softmax digests were recorded under other Python or numpy versions")
        assert suite_digest(result) == golden["faults"][name]


class TestFeatureFaultStaysWithItsCell:
    """A phi whose b is one too low fails its own cell under every sign
    pattern, and the telescoping check once for each pattern whose greedy
    trajectory passes through it; nothing else fails."""

    @pytest.mark.parametrize("fault_stage", ["first", "last"])
    def test_greedy(self, monkeypatch, fault_stage):
        original = sat2mdp.verify._feature_cells
        faulted = []

        def lowered(instance):
            cells = original(instance)
            n = instance.n
            target = 1 if fault_stage == "first" else n
            for i, (state, h, action, phi) in enumerate(cells):
                # b >= 1 keeps the lowered feature valid
                if h == target and phi.b >= 1:
                    cells[i] = (state, h, action, dataclasses.replace(phi, b=phi.b - 1))
                    faulted.append((instance.formula, state, h, action))
                    break
            return cells

        monkeypatch.setattr(sat2mdp.verify, "_feature_cells", lowered)
        result = check_realizability_greedy(n_max=4, formulas_per_n=3, seed=0)
        expected = []
        for formula, state, h, action in faulted:
            clauses = json.dumps(formula.to_json()["clauses"])
            n = formula.n
            for bits in itertools.product((0, 1), repeat=n):
                expected.append(("dot_mismatch", clauses, bits, tuple(state), action))
                on_path = bits[: h - 1] == state[: h - 1] and bits[h - 1] == action
                if on_path and n >= 2:
                    # the cell's trajectory neighbour: stage 2 after the
                    # first stage, stage n - 1 before the last
                    expected.append(("telescoping", clauses, bits, 2 if h == 1 else n))
        got = []
        for f in result.failures:
            key = (f["kind"], json.dumps(f["formula"]), tuple(f["signs"]))
            if f["kind"] == "dot_mismatch":
                got.append(key + (tuple(f["state"]), f["action"]))
                C = len(f["formula"])
                assert Fraction(f["dot"]) == Fraction(f["q"]) - Fraction(1, C)
            else:
                got.append(key + (f["h"],))
        assert any(k[0] == "telescoping" for k in expected)
        assert sorted(got) == sorted(expected)


class TestScalingSuite:
    def test_small_run(self, monkeypatch):
        monkeypatch.setattr(sat2mdp.verify, "SCALING_N_LIST", (4, 8, 16))
        result = check_construction_scaling(seed=0)
        assert result.passed, result.sorted_failures()
        assert result.cases == 16 + 4
        assert result.params["size_check_max"] == 16
        for values in result.measured.values():
            assert set(values) == {"universe", "features", "greedy_weights", "softmax_weights"}


class TestRoundtripSuite:
    def test_small_run(self):
        result = check_reduction_roundtrip(count=10, n=7, seed=0)
        assert result.passed, result.sorted_failures()

    def test_premise_guard(self):
        with pytest.raises(ValueError):
            check_reduction_roundtrip(count=1, n=4, delta="0.1", epsilon="0.2")

    @pytest.mark.parametrize("n", [25, 10**30])
    def test_cap_before_planting(self, monkeypatch, n):
        # the exact solver refuses n > 24, so no instance is planted first;
        # planting a huge n would allocate n-sized arrays
        def fail(*args, **kwargs):
            raise AssertionError("planted an instance above the cap")

        monkeypatch.setattr(sat2mdp.verify, "planted_instance", fail)
        with pytest.raises(ValueError, match="cap"):
            check_reduction_roundtrip(count=1, n=n)

    def test_empirical_tail_record_replays(self, monkeypatch):
        # E[R] raised by the calibrated t (1.35 here) puts the threshold at
        # about E[R] itself, so the tail check fails with a rate that depends
        # on every input; the record alone replays the check through its
        # table entry, which fails again with the recorded values
        original = sat2mdp.reduction.state_value_softmax
        monkeypatch.setattr(
            sat2mdp.reduction, "state_value_softmax", lambda *args: original(*args) + 1.35
        )
        result = check_reduction_roundtrip(count=1, n=6, seed=3)
        failures = json.loads(result.canonical_json())["failures"]
        [record] = [f for f in failures if f["kind"] == "empirical_tail"]
        assert record["check"] == "empirical_tail"
        assert 0 < record["empirical"] < 1
        # the same empirical rate and bound, and the check failed again
        assert replay(record) == [record]

    def test_softmax_decide_record_replays(self, monkeypatch):
        # decide's sampled extraction made to ignore the policy and draw each
        # bit uniformly from the seed: at seed 1 the drawn assignment
        # satisfies 5/6 of the formula, below 1 - delta but not below
        # 1 - 2 delta, so the achieved value and the failed comparisons depend
        # on the formula, the seed and delta; with the fault still in place
        # the record alone replays the check through its table entry and
        # rebuilds the comparisons, and the same ones fail
        original = sat2mdp.reduction.extract_assignment_softmax

        def uniform(params, n, mode="round", seed=None):
            if mode != "sample":
                return original(params, n, mode, seed)
            return tuple(int(bit) for bit in np.random.default_rng(seed).integers(0, 2, n))

        monkeypatch.setattr(sat2mdp.reduction, "extract_assignment_softmax", uniform)
        result = check_reduction_roundtrip(count=1, n=6, seed=1)
        failures = json.loads(result.canonical_json())["failures"]
        [record] = [f for f in failures if f["kind"] == "softmax_decide"]
        assert record["check"] == "softmax_decide"
        n, seed = record["n"], record["seed"]
        formula = Formula.from_ints(n, record["formula"])
        delta, epsilon = Fraction(record["delta"]), Fraction(record["epsilon"])
        instance = build_mdp(formula)
        params = exact_solver(instance, partial(generative_query, instance), epsilon, "softmax")
        soft = decide_max3sat(formula, delta, exact_solver, "softmax", epsilon, seed=seed,
                              extraction_mode="sample")
        comparisons = (
            soft.decision,
            extract_assignment_softmax(params, n, mode="round") == (
                extract_assignment_greedy(params, n)
            ),
            soft.extracted == sample_trajectory(instance, params, seed).final,
        )
        assert record["achieved"] == "5/6"
        assert Fraction(record["achieved"]) == soft.achieved_fraction
        assert comparisons == (False, True, False)
        assert replay(record) == [record]

    def test_expected_no_record_replays(self, monkeypatch):
        # decide's recount made 2/5 too high on one-variable formulas: the
        # contradiction then achieves 9/10, exactly 1 - delta at delta = 1/10,
        # so it decides Yes; with the fault still in place the record alone
        # replays the check through its table entry, which fails again at
        # the recorded value
        original = sat2mdp.reduction.satisfied_fraction

        def raised(formula, assignment):
            value = original(formula, assignment)
            return value + Fraction(2, 5) if formula.n == 1 else value

        monkeypatch.setattr(sat2mdp.reduction, "satisfied_fraction", raised)
        result = check_reduction_roundtrip(count=1, n=4, seed=0)
        # one case per check: the failing contradiction counts one, as a passing one does
        assert result.cases == 7
        failures = json.loads(result.canonical_json())["failures"]
        [record] = [f for f in failures if f["kind"] == "expected_no"]
        assert record["check"] == "contradiction"
        assert record["achieved"] == "9/10"
        # the recorded value decides Yes: a report's decision is
        # achieved >= 1 - delta, which ReductionReport enforces
        assert Fraction(record["achieved"]) >= 1 - Fraction(record["delta"])
        assert replay(record) == [record]

    def test_softmax_budget_record_replays(self, monkeypatch):
        # a calibration point twice too large takes the planted n = 64
        # formula's budget from 0.065 to about -0.32; with the fault still in
        # place the record's inputs alone, through the check's table entry,
        # give the same budget again
        original = sat2mdp.reduction.calibration_t
        monkeypatch.setattr(sat2mdp.reduction, "calibration_t", lambda *args: 2 * original(*args))
        result = check_reduction_roundtrip(count=1, n=4, seed=0)
        failures = json.loads(result.canonical_json())["failures"]
        [record] = [f for f in failures if f["kind"] == "softmax_bound_positivity"]
        assert (record["v_star"], record["H"], record["b"], record["C"]) == ("1/1", 65, 3, 64)
        assert (record["delta"], record["p0"]) == ("9/20", 0.125)
        assert -0.33 < record["budget"] < -0.31
        assert record["check"] == "softmax_budget"
        assert replay(record) == [record]
        monkeypatch.undo()
        assert 0.064 < sat2mdp.epsilon_bound_softmax(
            1, 65, 3, 64, Fraction(9, 20), 0.125
        ) < 0.065

    @pytest.mark.parametrize("delta", ["1/2", "3/4"])
    def test_contradiction_premise_guard(self, delta):
        # at delta >= 1/2 a contradiction's 1/2 reaches 1 - delta, so its
        # expected "No" would be a false failure; the suite refuses to run
        with pytest.raises(ValueError, match="delta < 1/2"):
            check_reduction_roundtrip(count=1, n=4, delta=delta, epsilon="1/20")


class TestSuiteResult:
    def test_failures_sorted_canonically(self):
        result = SuiteResult(
            suite="demo",
            cases=2,
            failures=[{"kind": "z", "n": 2}, {"kind": "a", "n": 1}],
            seed=0,
            params={},
        )
        kinds = [f["kind"] for f in result.sorted_failures()]
        assert kinds == sorted(kinds)
        assert not result.passed

    def test_canonical_json_excludes_timing(self):
        result = SuiteResult(suite="demo", cases=1, failures=[], seed=0, params={}, wall_time=1.5,
                             measured={"slopes": {"universe": 2.5}})
        data = json.loads(result.canonical_json())
        assert "wall_time_s" not in data and "measured" not in data
        assert data["passed"] is True
        assert result.to_json()["measured"] == {"slopes": {"universe": 2.5}}

    def test_run_suites_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suites(["nope"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("suite, name", [(check_realizability_softmax, "tol")])
def test_tolerance_must_be_finite_and_nonnegative(suite, name, value):
    # a NaN or infinite tolerance would switch its check off
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        suite(**{name: value})


# which suites reach which operations, [] for none; TestCoverageManifest runs
# every suite with a call counter on each op and asserts this map exactly
SUITE_COVERAGE: dict[str, list[str]] = {
    "features.psp_feature": [],
    "features.greedy_action": [
        "realizability_greedy", "realizability_softmax", "construction_scaling",
        "reduction_roundtrip",
    ],
    "features.f_threshold": ["realizability_greedy"],
    "features.softmax_prob": [
        "realizability_greedy", "realizability_softmax", "construction_scaling",
        "reduction_roundtrip",
    ],
    "features.realizability_feature": [
        "realizability_greedy", "realizability_softmax", "construction_scaling"
    ],
    "features.greedy_weight": ["realizability_greedy", "construction_scaling"],
    "features.softmax_weight": ["realizability_softmax", "construction_scaling"],
    "policies.eval_q_greedy": [],
    "policies.eval_q_softmax": ["realizability_softmax", "reduction_roundtrip"],
    "policies.softmax_q_of_split": ["realizability_softmax", "reduction_roundtrip"],
    "policies.enumerate_trajectories": ["realizability_softmax"],
    "policies.best_greedy": ["reduction_roundtrip"],
    "policies.sample_trajectory": ["reduction_roundtrip"],
    "reduction.extract_assignment_greedy": ["reduction_roundtrip"],
    "reduction.extract_assignment_softmax": ["reduction_roundtrip"],
    "reduction.decide_max3sat": ["reduction_roundtrip"],
    "reduction.epsilon_bound_greedy": ["reduction_roundtrip"],
    "reduction.mcdiarmid_tail": ["reduction_roundtrip"],
    "reduction.epsilon_bound_softmax": ["reduction_roundtrip"],
    "reduction.empirical_mcdiarmid": ["reduction_roundtrip"],
}

# each suite at the smallest parameters that still reach its last two
# stages; the scaling suite has none, and runs at its constants
SMALLEST_SUITE_RUNS = {
    "realizability_greedy": lambda: check_realizability_greedy(n_max=2, formulas_per_n=1),
    "realizability_softmax": lambda: check_realizability_softmax(
        n_max=2, formulas_per_n=1, thetas_per_formula=1
    ),
    "construction_scaling": check_construction_scaling,
    "reduction_roundtrip": lambda: check_reduction_roundtrip(count=1, n=3),
}


@pytest.mark.parametrize("suite", SMALLEST_SUITE_RUNS)
def test_two_runs_at_one_seed_give_one_canonical_json(monkeypatch, suite):
    # the scaling suite at small sizes, its caps lifted so that timing noise
    # cannot fail a run: its times and slopes stay out of canonical_json
    monkeypatch.setattr(sat2mdp.verify, "SCALING_N_LIST", (2, 4))
    monkeypatch.setattr(sat2mdp.verify, "SCALING_GREEDY_SLOPE_MAX", math.inf)
    monkeypatch.setattr(sat2mdp.verify, "SCALING_SOFTMAX_SLOPE_MAX", math.inf)
    first, second = SMALLEST_SUITE_RUNS[suite](), SMALLEST_SUITE_RUNS[suite]()
    assert first.passed and second.passed
    assert first.canonical_json() == second.canonical_json()


class TestCoverageManifest:
    def test_listed_suites_reach_each_operation(self, monkeypatch):
        modules = [sat2mdp] + [
            importlib.import_module(f"sat2mdp.{info.name}")
            for info in pkgutil.iter_modules(sat2mdp.__path__)
        ]
        called: set[str] = set()

        def counting(dotted, fn):
            def wrapper(*args, **kwargs):
                called.add(dotted)
                return fn(*args, **kwargs)

            return wrapper

        for dotted in SUITE_COVERAGE:
            module_name, op = dotted.split(".")
            original = getattr(importlib.import_module(f"sat2mdp.{module_name}"), op)
            wrapper = counting(dotted, original)
            # bind the wrapper wherever the op was imported, not only where it is defined
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
        reached = {dotted: [] for dotted in SUITE_COVERAGE}
        for suite, run in SMALLEST_SUITE_RUNS.items():
            called.clear()
            assert run().suite == suite
            for dotted in called:
                reached[dotted].append(suite)
        assert {k: sorted(v) for k, v in SUITE_COVERAGE.items()} == {
            k: sorted(v) for k, v in reached.items()
        }

    def test_every_listed_operation_exists(self):
        for dotted in SUITE_COVERAGE:
            module_name, op = dotted.split(".")
            module = getattr(sat2mdp, module_name, None) or __import__(
                f"sat2mdp.{module_name}", fromlist=[op]
            )
            assert hasattr(module, op), f"manifest names a missing operation {dotted}"

    def test_every_suite_reference_exists(self):
        for dotted, suites in SUITE_COVERAGE.items():
            for suite in suites:
                assert any(fn.__name__.endswith(suite.split("_")[-1]) or suite in fn.__name__
                           for fn in SUITES.values()), f"{dotted} points at unknown suite {suite}"

    def test_manifest_covers_all_core_operations(self):
        expected = {
            "features.psp_feature",
            "features.greedy_action",
            "features.f_threshold",
            "features.softmax_prob",
            "features.realizability_feature",
            "features.greedy_weight",
            "features.softmax_weight",
            "policies.eval_q_greedy",
            "policies.eval_q_softmax",
            "policies.enumerate_trajectories",
            "policies.best_greedy",
            "policies.sample_trajectory",
            "reduction.extract_assignment_greedy",
            "reduction.extract_assignment_softmax",
            "reduction.decide_max3sat",
            "reduction.epsilon_bound_greedy",
            "reduction.mcdiarmid_tail",
            "reduction.epsilon_bound_softmax",
            "reduction.empirical_mcdiarmid",
        }
        assert expected <= set(SUITE_COVERAGE)
