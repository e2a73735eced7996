import importlib
import json
import pkgutil

import numpy as np
import pytest

import sat2mdp
from sat2mdp import Formula, PolicyParams, build_mdp, occurrence_bound, softmax_weight
from sat2mdp.mdp import MdpError
from sat2mdp.verify import (
    SUITE_COVERAGE,
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
                head, m = softmax_weight_by_enumeration(instance, params, h)
                assert abs(head - 1.0) <= 1e-12
                closed = softmax_weight(instance, params, h).m_dense()
                assert float(np.max(np.abs(closed - m))) <= 1e-12

    def test_cap_before_universe(self, monkeypatch):
        def refuse(n):
            raise AssertionError("the universe was built before the cap check")

        monkeypatch.setattr("sat2mdp.mdp.enumerate_universe", refuse)
        instance = build_mdp(Formula.from_ints(22, [[22]]))
        with pytest.raises(MdpError, match="cap"):
            softmax_weight_by_enumeration(instance, PolicyParams((0.5,) * 22), 1)


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


class TestSoftmaxSuite:
    def test_small_sweep_passes(self):
        result = check_realizability_softmax(
            n_max=3, formulas_per_n=3, thetas_per_formula=5, seed=0
        )
        assert result.passed

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            check_realizability_softmax(n_max=6)


class TestScalingSuite:
    def test_small_run(self):
        result = check_construction_scaling(n_list=(4, 8, 16), size_check_max=16, seed=0)
        assert result.passed, result.sorted_failures()
        assert set(result.params["slopes"]) == {
            "universe",
            "features",
            "greedy_weights",
            "softmax_weights",
        }


class TestRoundtripSuite:
    def test_small_run(self):
        result = check_reduction_roundtrip(count=10, n=7, seed=0)
        assert result.passed, result.sorted_failures()

    def test_premise_guard(self):
        with pytest.raises(ValueError):
            check_reduction_roundtrip(count=1, n=4, delta="0.1", epsilon="0.2")


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
        result = SuiteResult(suite="demo", cases=1, failures=[], seed=0, params={}, wall_time=1.5)
        data = json.loads(result.canonical_json())
        assert "wall_time_s" not in data
        assert data["passed"] is True

    def test_run_suites_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suites(["nope"])


# each suite at the smallest parameters that still reach its last two stages
SMALLEST_SUITE_RUNS = {
    "realizability_greedy": lambda: check_realizability_greedy(n_max=2, formulas_per_n=1),
    "realizability_softmax": lambda: check_realizability_softmax(
        n_max=2, formulas_per_n=1, thetas_per_formula=1
    ),
    "construction_scaling": lambda: check_construction_scaling(n_list=(1, 2), size_check_max=1),
    "reduction_roundtrip": lambda: check_reduction_roundtrip(count=1, n=3),
}


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
            "features.lookahead_state",
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
            "reduction.gap3sat_to_delta_b",
            "reduction.empirical_mcdiarmid",
        }
        assert expected <= set(SUITE_COVERAGE)
