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
    gap3sat_to_delta_b,
    is_zeta_satisfiable,
    mcdiarmid_tail,
    occurrence_bound,
    planted_instance,
    satisfied_fraction,
)
from sat2mdp import mdp, reduction
from sat2mdp.mdp import generative_query, initial_state
from sat2mdp.policies import sample_trajectory, state_value_softmax
from sat2mdp.verify import random_formula


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
        # one stage() call per generative query: the step is checked once,
        # not once in transition and again in reward
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
        assert counts["stage"] == counts["query"]

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
        # query, no Fraction.__bool__ at all, and the MdpInstance.n getter
        # at most once, not once per query
        n = 6
        instance = build_mdp(random_formula(n, np.random.default_rng(406)))
        n_getter = vars(MdpInstance)["n"]
        watched = {
            Fraction.__bool__.__code__: "bool",
            getattr(n_getter, "func", getattr(n_getter, "fget", None)).__code__: "n",
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
        assert counts["query"] == counts["stage"] == n * 2**n, counts
        assert counts["bool"] == 0, counts
        assert counts["n"] <= 1, counts

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


class TestGapTransform:
    def test_identity_copy(self, example1):
        out = gap3sat_to_delta_b(example1, 3, "0.05", "0.1")
        assert out.clauses == example1.clauses and out.n == example1.n

    def test_occurrence_violation(self):
        f = Formula.from_ints(2, [[1], [1], [1], [1, 2]])
        with pytest.raises(ReductionError, match="occurrence"):
            gap3sat_to_delta_b(f, 3, "0.05", "0.1")

    def test_parameter_ordering(self, example1):
        with pytest.raises(ReductionError, match="delta > epsilon"):
            gap3sat_to_delta_b(example1, 3, "0.1", "0.05")


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

    def test_unsatisfied_tail_present(self):
        # zeta < 1 leaves clauses the planted assignment falsifies
        formula, planted = planted_instance(10, 30, Fraction(8, 10), seed=3)
        assert satisfied_fraction(formula, planted) < 1


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
