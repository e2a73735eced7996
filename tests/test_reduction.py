import math
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sat2mdp import (
    ZERO_REWARD,
    CnfError,
    Formula,
    MdpInstance,
    PolicyParams,
    ReductionError,
    ReductionReport,
    best_greedy,
    build_mdp,
    calibration_t,
    decide_max3sat,
    empirical_mcdiarmid,
    epsilon_bound_greedy,
    epsilon_bound_softmax,
    exact_solver,
    extract_assignment_greedy,
    extract_assignment_softmax,
    is_zeta_satisfiable,
    mcdiarmid_tail,
    occurrence_bound,
    planted_instance,
    satisfied_fraction,
)
from sat2mdp import mdp, reduction
from sat2mdp.cnf import leaf_counts
from sat2mdp.mdp import generative_query, initial_state
from sat2mdp.policies import sample_trajectory, state_value_softmax
from sat2mdp.verify import random_formula

from conftest import call_counts
from reference import sample_leaf


class TestExtraction:
    def test_greedy_all_true(self):
        assert extract_assignment_greedy(PolicyParams((1.0, 1.0, 1.0)), 3) == (1, 1, 1)

    def test_greedy_sign_reading(self):
        assert extract_assignment_greedy(PolicyParams((-1.0, 1.0, -1.0)), 3) == (0, 1, 0)

    def test_greedy_leaf_is_policy_value(self, example1_instance):
        from sat2mdp.policies import state_value_greedy

        params = PolicyParams((-1.0, 1.0, -1.0))
        extracted = extract_assignment_greedy(params, 3)
        assert satisfied_fraction(example1_instance.formula, extracted) == (
            state_value_greedy(example1_instance, params, (-1, -1, -1))
        )

    @pytest.mark.parametrize("extract", [extract_assignment_greedy, extract_assignment_softmax])
    def test_theta_length_checked(self, extract):
        with pytest.raises(ReductionError) as info:
            extract(PolicyParams((1.0, -1.0)), 3)
        assert str(info.value) == "theta' has 2 entries, expected n=3"

    def test_softmax_round_saturated(self):
        assert extract_assignment_softmax(PolicyParams((20.0, 20.0, 20.0)), 3) == (1, 1, 1)

    def test_softmax_round_tie_rule(self):
        assert extract_assignment_softmax(PolicyParams((0.0, 0.0, 0.0)), 3) == (0, 0, 0)

    def test_softmax_sample_reproducible(self):
        params = PolicyParams((0.5, -0.5, 0.2))
        a = extract_assignment_softmax(params, 3, mode="sample", seed=4)
        assert a == extract_assignment_softmax(params, 3, mode="sample", seed=4)

    def test_softmax_sample_needs_seed(self):
        with pytest.raises(ReductionError):
            extract_assignment_softmax(PolicyParams((0.0,)), 1, mode="sample")
        # a negative seed is refused by name, not by numpy's bare "expected
        # non-negative integer"; round mode reads no seed
        with pytest.raises(ReductionError, match="seed >= 0, got -1"):
            extract_assignment_softmax(PolicyParams((0.0,)), 1, mode="sample", seed=-1)
        assert extract_assignment_softmax(PolicyParams((1.0,)), 1, mode="round", seed=-1) == (1,)

    def test_softmax_sample_mean_tracks_probabilities(self):
        rng = np.random.default_rng(1)
        formula = random_formula(5, rng, clause_count=8)
        instance = build_mdp(formula)
        params = PolicyParams(tuple(float(v) for v in rng.uniform(-1, 1, size=5)))
        trials = 10000
        total = 0.0
        for s in range(trials):
            x = extract_assignment_softmax(params, 5, mode="sample", seed=s)
            total += float(satisfied_fraction(formula, x))
        expected = state_value_softmax(instance, params, initial_state(5))
        sigma = math.sqrt(max(expected * (1 - expected), 1e-6) / trials)
        assert abs(total / trials - expected) < 3 * sigma + 1e-9


class TestDecide:
    def test_example1_yes(self, example1):
        report = decide_max3sat(example1, "0.1", exact_solver, "greedy", "0.05")
        assert report.decision
        assert report.achieved_fraction == 1
        assert satisfied_fraction(example1, report.extracted) == 1

    def test_contradiction_no(self, contradiction):
        report = decide_max3sat(contradiction, "0.1", exact_solver, "greedy", "0.05")
        assert not report.decision
        assert report.achieved_fraction == Fraction(1, 2)

    def test_epsilon_precondition(self, example1):
        with pytest.raises(ReductionError, match="delta/2"):
            decide_max3sat(example1, "0.1", exact_solver, "greedy", "0.2")

    def test_delta_domain(self, example1):
        with pytest.raises(ReductionError):
            decide_max3sat(example1, "0")

    def test_unknown_policy_class(self, example1):
        with pytest.raises(ReductionError) as info:
            decide_max3sat(example1, "0.1", exact_solver, "argmax", "0.05")
        assert str(info.value) == "unknown policy class 'argmax'"

    def test_report_decision_must_match_its_fraction(self, contradiction):
        # 1/2 falls short of 1 - delta = 9/10, so the report cannot say Yes
        with pytest.raises(ReductionError) as info:
            ReductionReport(True, (1,), Fraction(1, 2), Fraction(1, 20), Fraction(1, 10),
                            "greedy", contradiction)
        assert str(info.value) == "report decision contradicts its achieved fraction"

    def test_planted_instances_always_yes(self):
        delta, eps = Fraction(1, 10), Fraction(1, 20)
        zeta = 1 - delta + 2 * eps
        for seed in range(25):
            formula, _ = planted_instance(8, 20, zeta, seed=seed)
            report = decide_max3sat(formula, delta, exact_solver, "greedy", eps)
            assert report.decision
            assert satisfied_fraction(formula, report.extracted) >= 1 - delta

    def test_softmax_class_round_mode(self, example1):
        report = decide_max3sat(
            example1, "0.1", exact_solver, "softmax", "0.05", extraction_mode="round"
        )
        assert report.decision and report.achieved_fraction == 1

    def test_softmax_budget_enforced_when_v_star_known(self, example1):
        # |C| = 2 makes the concentration term enormous; the chain must refuse
        with pytest.raises(ReductionError, match="infeasible"):
            decide_max3sat(example1, "0.1", exact_solver, "softmax", "0.05", v_star=1)

    def test_softmax_budget_skip_recorded(self, example1):
        report = decide_max3sat(example1, "0.1", exact_solver, "softmax", "0.05")
        assert "skipped" in report.bound_details["budget_check"]

    @pytest.mark.parametrize(
        "mode, seed, message",
        [("bogus", 0, "unknown extraction mode 'bogus'"),
         ("sample", None, "seed >= 0, got None"),
         ("sample", -1, "seed >= 0, got -1")],
    )
    def test_softmax_extraction_checked_before_the_solver(self, example1, mode, seed, message):
        # a bad mode or seed is refused before the MDP is built, so before
        # the solver's n 2^n queries; the greedy class reads neither
        calls = []

        def counting(instance, query, epsilon, policy_class):
            calls.append(policy_class)
            return exact_solver(instance, query, epsilon, policy_class)

        def refuse(formula):
            raise AssertionError("built the MDP before checking the extraction arguments")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "build_mdp", refuse)
            with pytest.raises(ReductionError, match=message):
                decide_max3sat(example1, "0.1", counting, "softmax", "0.05", seed=seed,
                               extraction_mode=mode)
        assert calls == []
        report = decide_max3sat(example1, "0.1", counting, "greedy", "0.05", seed=seed,
                                extraction_mode=mode)
        assert report.decision and calls == ["greedy"]

    def test_solver_failure_wrapped(self, example1):
        def broken(instance, query, epsilon, policy_class):
            raise RuntimeError("boom")

        with pytest.raises(ReductionError, match="solver failed: boom"):
            decide_max3sat(example1, "0.1", broken, "greedy", "0.05")

    def test_report_json(self, example1):
        report = decide_max3sat(example1, "0.1", exact_solver, "greedy", "0.05")
        data = report.to_json()
        assert data["decision"] == "Yes"
        assert data["achieved_fraction"] == "1/1"
        assert data["delta"] == "1/10"
        recovered = Formula.from_ints(data["formula"]["n"], data["formula"]["clauses"])
        assert satisfied_fraction(recovered, tuple(data["extracted"])) == 1

    def test_exact_solver_uses_only_generative_access(self, example1_instance):
        calls = []

        def counting_query(state, action):
            calls.append((state, action))
            return generative_query(example1_instance, state, action)

        params = exact_solver(example1_instance, counting_query, Fraction(1, 20), "greedy")
        assert calls, "solver must interact through the generative access"
        assert extract_assignment_greedy(params, 3) in {(0, 0, 0), (1, 1, 1), (0, 0, 1),
                                                        (0, 1, 1), (1, 0, 0), (1, 1, 0)}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_solver_query_count_and_argmax(self, n):
        # n queries per sign pattern, n * 2^n in all, and the first best pattern
        instance = build_mdp(random_formula(n, np.random.default_rng(100 + n)))
        calls = 0

        def counting_query(state, action):
            nonlocal calls
            calls += 1
            return generative_query(instance, state, action)

        params = exact_solver(instance, counting_query, Fraction(1, 20), "greedy")
        assert calls == n * 2**n
        assert params == best_greedy(instance)[0]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_solver_checks_each_query_state_once(self, n, monkeypatch):
        # one stage() call per solve: the first query from the root runs
        # step, once, and puts the root on the instance's path; every later
        # query, the root's included, starts from a state on that path
        instance = build_mdp(random_formula(n, np.random.default_rng(200 + n)))
        counts = {"stage": 0, "query": 0}
        real_stage = mdp.stage

        def counting_stage(state):
            counts["stage"] += 1
            return real_stage(state)

        def counting_query(state, action):
            counts["query"] += 1
            return generative_query(instance, state, action)

        monkeypatch.setattr(mdp, "stage", counting_stage)
        exact_solver(instance, counting_query, Fraction(1, 20), "greedy")
        assert counts["query"] == n * 2**n
        assert counts["stage"] == 1

    @pytest.mark.parametrize("zero", [Fraction(0), 0], ids=["fresh_fraction", "int"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_solver_reads_any_zero_before_the_leaf(self, n, zero):
        # the shared zero is skipped by identity; a zero that is another
        # object must still count as zero, not shift the argmax
        instance = build_mdp(random_formula(n, np.random.default_rng(300 + n)))
        calls = 0

        def foreign_zero_query(state, action):
            nonlocal calls
            calls += 1
            nxt, r = generative_query(instance, state, action)
            return nxt, (zero if r is ZERO_REWARD else r)

        params = exact_solver(instance, foreign_zero_query, Fraction(1, 20), "greedy")
        assert calls == n * 2**n
        assert params == exact_solver(
            instance, partial(generative_query, instance), Fraction(1, 20), "greedy"
        )

    def test_exact_solver_call_budget(self):
        # per-query overhead, counted rather than timed: one stage() per
        # solve (the first root query; the rest start from states on the
        # instance's path), no Fraction.__bool__ at all, no Fraction
        # comparison (each pattern's total is compared in integers), and n a
        # plain instance attribute, with no descriptor on the class to run
        # per query
        n = 6
        instance = build_mdp(random_formula(n, np.random.default_rng(406)))
        assert vars(instance)["n"] == n
        assert all("n" not in vars(cls) for cls in MdpInstance.__mro__)
        watched = {
            Fraction.__bool__.__code__: "bool",
            Fraction._richcmp.__code__: "richcmp",
            mdp.stage.__code__: "stage",
            generative_query.__code__: "query",
        }
        counts = dict.fromkeys(watched.values(), 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                counts[watched[frame.f_code]] += 1

        query = partial(generative_query, instance)
        sys.setprofile(profile)
        try:
            exact_solver(instance, query, Fraction(1, 20), "greedy")
        finally:
            sys.setprofile(None)
        assert counts["query"] == n * 2**n, counts
        assert counts["stage"] == 1, counts
        assert counts["bool"] == 0, counts
        assert counts["richcmp"] == 0, counts

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_solver_returns_the_first_maximizer_of_fresh_rewards(self, n):
        # every leaf reward a fresh Fraction equal to the MDP's, every other
        # one an int 0: equal totals are distinct objects, and the strict
        # comparison still keeps the first best pattern in sweep order
        instance = build_mdp(random_formula(n, np.random.default_rng(600 + n)))

        def fresh_query(state, action):
            nxt, r = generative_query(instance, state, action)
            return nxt, (0 if r is ZERO_REWARD else Fraction(r.numerator, r.denominator))

        params = exact_solver(instance, fresh_query, Fraction(1, 20), "greedy")
        assert params == best_greedy(instance)[0]

    def test_exact_solver_breaks_ties_by_sweep_order(self):
        # seven of the eight patterns satisfy (x1 | x2 | x3); the first of
        # them in sweep order, x = (0, 0, 1), is the one returned
        instance = build_mdp(Formula.from_ints(3, [[1, 2, 3]]))
        params = exact_solver(
            instance, partial(generative_query, instance), Fraction(1, 20), "greedy"
        )
        assert extract_assignment_greedy(params, 3) == (0, 0, 1)

    @pytest.mark.parametrize("policy_class", ["greedy", "softmax"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_decide_queries_through_the_module_name(self, n, policy_class, monkeypatch):
        # the benchmark traces queries by replacing ``reduction.generative_query``
        # with a wrapper; the access decide_max3sat hands the solver is bound
        # at call time, so the wrapper sees every one of the n * 2^n queries
        formula = random_formula(n, np.random.default_rng(700 + n))
        plain = decide_max3sat(formula, "0.1", policy_class=policy_class)
        calls = 0

        def counting_query(*args, **kwargs):
            nonlocal calls
            calls += 1
            return generative_query(*args, **kwargs)

        monkeypatch.setattr(reduction, "generative_query", counting_query)
        traced = decide_max3sat(formula, "0.1", policy_class=policy_class)
        assert calls == n * 2**n
        assert traced == plain

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_solver_builds_each_state_once(self, n):
        # the path builds each of the tree's 2^(n+1) - 2 non-root states
        # once per sweep, however often the n * 2^n queries reach it, and
        # a leaf's reward is the carried prefix OR, with no Formula.split
        instance = build_mdp(random_formula(n, np.random.default_rng(500 + n)))
        returned = []

        def keeping_query(state, action):
            answer = generative_query(instance, state, action)
            returned.append(answer[0])  # kept alive, so no id is reused
            return answer

        params, counts = call_counts(
            lambda: exact_solver(instance, keeping_query, Fraction(1, 20), "greedy"),
            split=Formula.split,
        )
        assert len(returned) == n * 2**n
        assert len({id(state) for state in returned}) == 2 ** (n + 1) - 2
        assert counts == {"split": 0}
        assert params == best_greedy(instance)[0]

    def test_exact_solver_sums_rewards_before_the_leaf(self):
        # only patterns (0, 0) and (0, 1) satisfy (~x1); a query that pays 2
        # for action 1 at the root outweighs that, so the sum, not the leaf
        # reward alone, must decide the argmax
        instance = build_mdp(Formula.from_ints(2, [[-1]]))

        def paying_query(state, action):
            nxt, r = generative_query(instance, state, action)
            if state == initial_state(2) and action == 1:
                r += 2
            return nxt, r

        plain = exact_solver(
            instance, lambda s, a: generative_query(instance, s, a), Fraction(1, 20), "greedy"
        )
        paid = exact_solver(instance, paying_query, Fraction(1, 20), "greedy")
        assert extract_assignment_greedy(plain, 2) == (0, 0)
        assert extract_assignment_greedy(paid, 2) == (1, 0)


class TestBounds:
    def test_greedy_epsilon(self):
        assert epsilon_bound_greedy("0.1") == Fraction(1, 20)
        assert epsilon_bound_greedy(Fraction(1, 8)) == Fraction(1, 16)
        with pytest.raises(ReductionError):
            epsilon_bound_greedy(0)

    def test_tail_at_zero(self):
        assert mcdiarmid_tail(0.0, 4, 3, 10) == 1.0

    def test_tail_doubling_clauses_fourth_power(self):
        base = mcdiarmid_tail(0.05, 6, 3, 30)
        assert mcdiarmid_tail(0.05, 6, 3, 60) == pytest.approx(base ** 4, rel=1e-12)

    def test_tail_calibration_point(self):
        for H, b, C in [(13, 3, 12), (4, 2, 2), (21, 3, 60)]:
            t = calibration_t(H, b, C, 1 / 8)
            assert abs(mcdiarmid_tail(t, H, b, C) - 1 / 8) < 1e-15

    def test_tail_monotonicity_grid(self):
        for t in (0.01, 0.05, 0.2):
            for H in (2, 5, 9):
                for b in (1, 2, 3):
                    for C in (5, 20, 80):
                        v = mcdiarmid_tail(t, H, b, C)
                        assert mcdiarmid_tail(t * 1.5, H, b, C) <= v
                        assert mcdiarmid_tail(t, H, b, C * 2) <= v
                        assert mcdiarmid_tail(t, H + 2, b, C) >= v
                        assert mcdiarmid_tail(t, H, b + 1, C) >= v

    def test_tail_rejects_bad_parameters(self):
        with pytest.raises(ReductionError):
            mcdiarmid_tail(-0.1, 4, 3, 10)
        with pytest.raises(ReductionError):
            mcdiarmid_tail(0.1, 0, 3, 10)

    def test_softmax_epsilon_formula(self):
        v_star, H, b, C, delta, p0 = 0.97, 13, 3, 600, 0.1, 1 / 8
        want = v_star - 0.9 - 3 * math.sqrt(H * math.log(8) / 2) / C
        got = epsilon_bound_softmax(v_star, H, b, C, delta, p0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_softmax_epsilon_positive_for_large_formulas(self):
        assert epsilon_bound_softmax(1.0, 11, 3, 1000, 0.1, 1 / 8) > 0

    def test_softmax_epsilon_can_flag_infeasible(self):
        assert epsilon_bound_softmax(1.0, 11, 3, 5, 0.1, 1 / 8) <= 0

    def test_softmax_epsilon_domain(self):
        with pytest.raises(ReductionError):
            epsilon_bound_softmax(1.0, 11, 3, 5, 0, 1 / 8)
        with pytest.raises(ReductionError):
            epsilon_bound_softmax(1.0, 11, 3, 5, 0.1, 0)


class TestPlantedInstances:
    @pytest.mark.parametrize("seed", range(8))
    def test_guarantee_holds(self, seed):
        zeta = Fraction(9, 10)
        formula, planted = planted_instance(8, 20, zeta, seed=seed)
        assert satisfied_fraction(formula, planted) >= zeta
        ok, _, value = is_zeta_satisfiable(formula, zeta)
        assert ok and value >= zeta

    def test_occurrence_cap_respected(self):
        formula, _ = planted_instance(12, 12, Fraction(1), seed=0, max_occurrences=3)
        assert occurrence_bound(formula) <= 3

    def test_capacity_exhaustion_raises(self):
        with pytest.raises(ReductionError, match="capacity"):
            planted_instance(2, 10, Fraction(1), seed=0, max_occurrences=1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_variables_rejected(self, n):
        with pytest.raises(ReductionError, match=f"need n >= 1, got {n}"):
            planted_instance(n, 5, Fraction(1), seed=0)

    def test_no_clauses_rejected(self):
        with pytest.raises(ReductionError) as info:
            planted_instance(3, 0, Fraction(1), seed=0)
        assert str(info.value) == "need at least one clause"

    def test_unsatisfied_tail_present(self):
        # zeta < 1 leaves clauses the planted assignment falsifies
        formula, planted = planted_instance(10, 30, Fraction(8, 10), seed=3)
        assert satisfied_fraction(formula, planted) < 1


# theta' entries: the saturated values +-20, the tie value 0, and anything between
THETAS = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.sampled_from((0.0, 20.0, -20.0)) | st.floats(-20.0, 20.0),
                       min_size=n, max_size=n)
)


class TestSoftmaxDraw:
    @settings(max_examples=60, deadline=None)
    @given(THETAS, st.integers(1, 16), st.integers(0, 2**64 + 5))
    def test_every_episode_is_the_scalar_draw(self, theta, trials, seed):
        # successive sample_trajectory calls on one generator, sampled
        # extraction at the seed and the Monte-Carlo tail's scored leaves each
        # read the generator as tests/reference.py's one-double-per-stage loop
        # does, and a trajectory's probability is its stage-order product
        n = len(theta)
        params = PolicyParams(tuple(theta))
        probs = params.softmax_probs
        instance = build_mdp(Formula.from_ints(n, [[v] for v in range(1, n + 1)]))
        episodes, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(trials):
            trajectory = sample_trajectory(instance, params, episodes)
            leaf = sample_leaf(probs, reference)
            probability = 1.0
            for p, a in zip(probs, leaf):
                probability *= p if a == 1 else 1.0 - p
            assert trajectory.final == leaf
            assert type(trajectory.probability) is float and trajectory.probability == probability

        assert extract_assignment_softmax(params, n, mode="sample", seed=seed) == (
            sample_leaf(probs, np.random.default_rng(seed))
        )

        scored = []
        real = reduction._leaf_indices

        def recording(leaves):
            scored.extend(map(tuple, leaves.tolist()))
            return real(leaves)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "_leaf_indices", recording)
            empirical_mcdiarmid(instance, params, trials, 0.0, seed=seed)
        reference = np.random.default_rng(seed)
        assert scored == [sample_leaf(probs, reference) for _ in range(trials)]


class TestEmpiricalMcdiarmid:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 64), st.integers(0, 2**64 + 5))
    def test_leaves_are_sampled_trajectory_finals(self, n, trials, seed):
        # the leaves the check scores are exactly the finals of successive
        # sample_trajectory episodes on one default_rng(seed), and the result
        # is the one a trajectory-by-trajectory count gives
        rng = np.random.default_rng(seed)
        formula = random_formula(n, rng)
        instance = build_mdp(formula)
        params = PolicyParams(tuple(float(v) for v in rng.uniform(-2, 2, size=n)))
        t = 0.05
        scored = []
        real = reduction._leaf_indices

        def recording(leaves):
            # each leaf is one row, read as its index in the leaf-count table
            scored.extend(map(tuple, leaves.tolist()))
            return real(leaves)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "_leaf_indices", recording)
            got = empirical_mcdiarmid(instance, params, trials, t, seed=seed)

        episodes = np.random.default_rng(seed)
        finals = [sample_trajectory(instance, params, episodes).final for _ in range(trials)]
        assert scored == finals
        assert all(type(v) is int for leaf in scored for v in leaf)
        threshold = state_value_softmax(instance, params, initial_state(n)) - t
        hits = sum(float(satisfied_fraction(formula, leaf)) <= threshold for leaf in finals)
        assert got[0] == hits / trials
        assert got[1] == mcdiarmid_tail(
            t, instance.horizon, occurrence_bound(formula), formula.clause_count
        )

    @pytest.mark.parametrize("n, seed", [(1, 0), (3, 1), (6, 2), (9, 3), (12, 4)])
    def test_triple_matches_trajectory_loop(self, n, seed):
        # reference: successive sample_trajectory episodes on one
        # default_rng(seed), scored with satisfied_fraction
        rng = np.random.default_rng(100 + seed)
        formula = random_formula(n, rng, clause_count=3 * n)
        instance = build_mdp(formula)
        params = PolicyParams(tuple(float(v) for v in rng.uniform(-2, 2, size=n)))
        trials = 400
        episodes = np.random.default_rng(seed)
        values = [
            float(satisfied_fraction(formula, sample_trajectory(instance, params, episodes).final))
            for _ in range(trials)
        ]
        expected = state_value_softmax(instance, params, initial_state(n))
        rates = []
        for t in (0.0, 0.05, 0.2):
            hits = sum(v <= expected - t for v in values)
            bound = mcdiarmid_tail(
                t, instance.horizon, occurrence_bound(formula), formula.clause_count
            )
            slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
            reference = (hits / trials, bound, hits / trials <= bound + slack)
            assert empirical_mcdiarmid(instance, params, trials, t, seed=seed) == reference
            rates.append(hits / trials)
        # the leaves straddle the threshold, so the count is not trivial
        assert 0 < max(rates) < 1

    def test_cap_before_any_draw(self, monkeypatch):
        # leaves are scored from the 2^n leaf-count table, so the check has
        # the sweep's cap, refused before a single episode is drawn
        def refuse(*args):
            raise AssertionError("drew episodes above the cap")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        instance = build_mdp(Formula.from_ints(25, [[25]]))
        with pytest.raises(CnfError, match="brute-force cap exceeded: n=25 > 24"):
            empirical_mcdiarmid(instance, PolicyParams((0.5,) * 25), 10, 0.0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_checked(self, example1_instance, trials):
        with pytest.raises(ReductionError) as info:
            empirical_mcdiarmid(example1_instance, PolicyParams((0.2, -0.3, 0.4)), trials, 0.1)
        assert str(info.value) == f"trials must be >= 1, got {trials}"

    def test_threshold_is_inclusive(self, example1_instance):
        # saturated theta' plays leaf (1, 0, 1) in every episode, so E[R] is
        # its reward, 1/2, exactly; at t = 0 that leaf sits on the threshold
        params = PolicyParams.from_signs((1, 0, 1), reduction.SOFTMAX_SATURATION)
        assert empirical_mcdiarmid(example1_instance, params, 50, 0.0, seed=4) == (1.0, 1.0, True)

    def test_deviation_one_never_hit(self, example1_instance):
        params = PolicyParams((0.2, -0.3, 0.4))
        empirical, _, ok = empirical_mcdiarmid(example1_instance, params, 500, 1.0, seed=1)
        assert empirical == 0.0 and ok

    def test_zero_deviation_trivially_passes(self, example1_instance):
        params = PolicyParams((0.2, -0.3, 0.4))
        empirical, bound, ok = empirical_mcdiarmid(example1_instance, params, 200, 0.0, seed=2)
        assert bound == 1.0 and ok

    def test_calibrated_point_on_bounded_instance(self):
        formula, _ = planted_instance(12, 12, Fraction(1), seed=5, max_occurrences=3)
        instance = build_mdp(formula)
        rng = np.random.default_rng(9)
        params = PolicyParams(tuple(float(v) for v in rng.uniform(-1, 1, size=12)))
        t = calibration_t(instance.horizon, occurrence_bound(formula), 12, 1 / 8)
        empirical, bound, ok = empirical_mcdiarmid(instance, params, 5000, t, seed=6)
        assert ok
        assert empirical <= bound + 3 * math.sqrt(bound * (1 - bound) / 5000)


class TestSoftmaxChain:
    """The sampled softmax decision where the chain's premise holds: a budget
    epsilon <= v* + delta - t - 1 that is positive, and a solver whose policy
    is epsilon-optimal without being saturated.  The claim is a Yes with
    probability >= 1 - p0, checked as a Yes count over fixed seeds."""

    P0 = Fraction(1, 8)
    SEEDS = range(200)

    @pytest.fixture(scope="class")
    def chain(self):
        """The n = 64 planted formula, its budget, and the planted signs at the
        smallest magnitude, by bisection on the closed-form root value, whose
        value is within the budget of v* = 1: the weakest policy the premise
        allows.  b = 3 and C = n, with v* = 1 and delta = 9/20: the smallest
        planted size whose budget is positive by a margin (0.004 at n = 48)."""
        formula, planted = planted_instance(64, 64, 1, seed=64, max_occurrences=3)
        instance = build_mdp(formula)
        budget = epsilon_bound_softmax(1, instance.horizon, occurrence_bound(formula),
                                       formula.clause_count, Fraction(9, 20), float(self.P0))
        root = initial_state(instance.n)
        low, high = 0.0, reduction.SOFTMAX_SATURATION
        for _ in range(40):
            middle = (low + high) / 2
            value = state_value_softmax(instance, PolicyParams.from_signs(planted, middle), root)
            low, high = (low, middle) if 1 - value <= budget else (middle, high)
        return formula, instance, PolicyParams.from_signs(planted, high), budget

    def yes_count(self, formula, params, delta, epsilon):
        def solver(instance, query, eps, policy_class):
            return params

        return sum(
            decide_max3sat(formula, delta, solver, "softmax", epsilon, seed=seed,
                           extraction_mode="sample", p0=self.P0, v_star=1).decision
            for seed in self.SEEDS
        )

    def claim_floor(self):
        k, p0 = len(self.SEEDS), float(self.P0)
        return k * (1 - p0) - 3 * math.sqrt(k * p0 * (1 - p0))

    def test_budget_is_positive_and_the_policy_unsaturated(self, chain):
        formula, instance, params, budget = chain
        assert occurrence_bound(formula) == 3 and round(budget, 3) == 0.065
        value = state_value_softmax(instance, params, initial_state(instance.n))
        assert 1 - budget <= value < 0.95
        # each stage plays against its planted sign about one time in four
        assert max(params.softmax_probs) < 0.8

    def test_epsilon_within_budget_is_accepted_and_recorded(self, chain):
        formula, _, params, budget = chain
        report = decide_max3sat(formula, Fraction(9, 20), lambda *args: params, "softmax", budget,
                                seed=0, p0=self.P0, v_star=1)
        assert report.bound_details["epsilon_budget"] == budget
        assert float(report.epsilon_used) == budget

    def test_epsilon_above_budget_is_refused(self, chain):
        formula, _, _, budget = chain

        def never(*args):
            raise AssertionError("solver called past the budget")

        with pytest.raises(ReductionError, match="exceeds the softmax budget"):
            decide_max3sat(formula, Fraction(9, 20), never, "softmax", math.nextafter(budget, 1),
                           seed=0, p0=self.P0, v_star=1)

    def test_yes_count_meets_the_claim(self, chain):
        formula, _, params, budget = chain
        assert self.yes_count(formula, params, Fraction(9, 20), budget) >= self.claim_floor()

    def test_uniform_policy_fails_the_claim(self):
        # negative control: below 1 - delta the count is far under the floor,
        # so the claim's assertion can fail
        formula, _ = planted_instance(1024, 1024, 1, seed=1024, max_occurrences=3)
        instance = build_mdp(formula)
        delta = Fraction(3, 25)
        budget = epsilon_bound_softmax(1, instance.horizon, occurrence_bound(formula),
                                       formula.clause_count, delta, float(self.P0))
        uniform = PolicyParams((0.0,) * 1024)
        assert state_value_softmax(instance, uniform, initial_state(1024)) == 0.875 < 1 - delta
        assert 0 < budget
        assert self.yes_count(formula, uniform, delta, budget) < self.claim_floor()


def spending_adversary(overspend=Fraction(0)):
    """A greedy solver that is epsilon-optimal and spends all of its slack: the
    first sign pattern, in sweep order, of least value at or above the
    optimum minus epsilon, read from the formula's leaf counts.  ``overspend``
    widens its slack past epsilon."""

    def solve(instance, query, epsilon, policy_class):
        counts = leaf_counts(instance.formula).tolist()
        C = instance.formula.clause_count
        floor = Fraction(max(counts), C) - epsilon - overspend
        index = counts.index(min(c for c in counts if Fraction(c, C) >= floor))
        return PolicyParams.from_signs([(index >> s) & 1 for s in range(instance.n - 1, -1, -1)])

    return solve


def optimum_family(k, C):
    """k contradictory unit pairs beside C - 2k unit clauses on three more
    variables, one, two and the rest of them: all-ones satisfies every clause
    but one of each pair, so opt = 1 - k/C, and leaves of each value from
    opt down to opt - 3/C exist."""
    pairs = [clause for v in range(1, k + 1) for clause in ([v], [-v])]
    rest = [[k + 1]] + [[k + 2]] * 2 + [[k + 3]] * (C - 2 * k - 3)
    return Formula.from_ints(k + 3, pairs + rest)


class TestEpsilonOptimalAdversary:
    """Any epsilon-optimal solver decides delta-Max-3SAT through the greedy
    chain, with epsilon <= delta/2: Yes when opt >= 1 - delta + epsilon, No
    when opt < 1 - delta; between the two either answer is allowed."""

    DELTA, EPSILON, C = Fraction(1, 4), Fraction(1, 8), 16

    # k -> where opt = 1 - k/16 sits against 1 - delta = 12/16 and 1 - delta + epsilon = 14/16
    PLACEMENTS = {1: "above", 2: "at", 3: "inside", 4: "inside", 5: "below"}

    def placement(self, opt):
        high, low = 1 - self.DELTA + self.EPSILON, 1 - self.DELTA
        if opt > high:
            return "above"
        if opt == high:
            return "at"
        return "inside" if opt >= low else "below"

    @pytest.mark.parametrize("k", PLACEMENTS)
    def test_the_chain_claims_hold(self, k):
        formula = optimum_family(k, self.C)
        opt = Fraction(int(leaf_counts(formula).max()), self.C)
        assert opt == 1 - Fraction(k, self.C)
        assert self.placement(opt) == self.PLACEMENTS[k]
        report = decide_max3sat(formula, self.DELTA, spending_adversary(), "greedy", self.EPSILON)
        # the whole slack is spent, yet the claims hold
        assert report.achieved_fraction == opt - self.EPSILON
        if self.placement(opt) in ("above", "at"):
            assert report.decision
        if self.placement(opt) == "below":
            assert not report.decision

    def test_overspending_by_one_clause_answers_wrongly(self):
        # negative control: at opt = 1 - delta + epsilon the chain claims Yes
        formula = optimum_family(2, self.C)
        overspent = spending_adversary(Fraction(1, self.C))
        report = decide_max3sat(formula, self.DELTA, overspent, "greedy", self.EPSILON)
        assert report.achieved_fraction == 1 - self.DELTA - Fraction(1, self.C)
        assert not report.decision
