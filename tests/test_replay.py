"""Every failure kind of every suite replays from its record alone.

Each kind has a fault that makes a suite emit it.  With the fault in place
the suite runs small (the scaling suite, which has no size to set, at its
constants), and the check the record names, called with only the
record's fields for its parameters (``conftest.replay``), must return the
same record again.  A manifest test ties every check of ``verify._CHECKS``
to at least one fault, so a check added without one fails.
"""

import dataclasses
import json
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import sat2mdp.features
import sat2mdp.reduction
import sat2mdp.verify
from sat2mdp.mdp import stage
from sat2mdp.verify import (
    _CHECKS,
    check_construction_scaling,
    check_realizability_greedy,
    check_realizability_softmax,
    check_reduction_roundtrip,
)

from conftest import replay
from golden.make_digests import (
    FAULTS as DIGEST_FAULTS,
    GREEDY_FAULT_SUITE,
    SOFTMAX_FAULT_SUITE,
)


def swap(monkeypatch, module, name, fault):
    """Put ``fault(original)`` in place of ``module.name`` for the test."""
    monkeypatch.setattr(module, name, fault(getattr(module, name)))


def shifted_fraction(by):
    """decide's achieved fraction moved by ``by``."""
    return lambda monkeypatch: swap(
        monkeypatch, sat2mdp.reduction, "satisfied_fraction",
        lambda original: lambda formula, assignment: original(formula, assignment) + by,
    )


def complemented_certificate(monkeypatch):
    # decide reports the complement of the assignment it scored, so the
    # recount disagrees with the achieved 1 and falls below 1 - delta
    def fault(original):
        def decide(*args, **kwargs):
            report = original(*args, **kwargs)
            return dataclasses.replace(report, extracted=tuple(1 - v for v in report.extracted))

        return decide

    swap(monkeypatch, sat2mdp.verify, "decide_max3sat", fault)


def lower_sweep_optimum(monkeypatch):
    # best_greedy reports a value one clause below the optimum
    def fault(original):
        def best(instance):
            params, value = original(instance)
            return params, value - Fraction(1, instance.formula.clause_count)

        return best

    swap(monkeypatch, sat2mdp.verify, "best_greedy", fault)


def raised_on_one_variable(monkeypatch):
    # the contradiction's 1/2 raised by 2/5 to 9/10, exactly 1 - delta
    def fault(original):
        def raised(formula, assignment):
            value = original(formula, assignment)
            return value + Fraction(2, 5) if formula.n == 1 else value

        return raised

    swap(monkeypatch, sat2mdp.reduction, "satisfied_fraction", fault)


def halved_greedy_bound(monkeypatch):
    swap(monkeypatch, sat2mdp.verify, "epsilon_bound_greedy",
         lambda original: lambda delta: original(delta) / 2)


def doubled_tail(monkeypatch):
    swap(monkeypatch, sat2mdp.verify, "mcdiarmid_tail",
         lambda original: lambda t, H, b, C: 2 * original(t, H, b, C))


def uniform_sampled_extraction(monkeypatch):
    # sampled extraction ignores the policy and draws each bit uniformly
    def fault(original):
        def extract(params, n, mode="round", seed=None):
            if mode != "sample":
                return original(params, n, mode, seed)
            return tuple(int(bit) for bit in np.random.default_rng(seed).integers(0, 2, n))

        return extract

    swap(monkeypatch, sat2mdp.reduction, "extract_assignment_softmax", fault)


def raised_softmax_value(monkeypatch):
    # E[R] raised by 1.35 puts the tail threshold at about E[R] itself
    swap(monkeypatch, sat2mdp.reduction, "state_value_softmax",
         lambda original: lambda *args: original(*args) + 1.35)


def doubled_calibration(monkeypatch):
    # the n = 64 budget formula's budget falls from 0.065 to about -0.32
    swap(monkeypatch, sat2mdp.reduction, "calibration_t",
         lambda original: lambda *args: 2 * original(*args))


def digest_fault(name):
    """The fault of ``golden.make_digests.FAULTS[name]``."""
    _, _, module, attr, fault = DIGEST_FAULTS[name]
    return lambda monkeypatch: swap(monkeypatch, module, attr, fault)


def leaf_counts_one_high(monkeypatch):
    # every leaf satisfies one clause more than it does, so every q is off
    swap(monkeypatch, sat2mdp.verify, "leaf_counts",
         lambda original: lambda formula: original(formula) + 1)


def changed_feature(change):
    """``change(phi, instance, h)`` in place of each feature phi of stage h."""
    def fault(original):
        def feature(instance, state, action):
            return change(original(instance, state, action), instance, stage(state))

        return feature

    return lambda monkeypatch: swap(monkeypatch, sat2mdp.features, "realizability_feature", fault)


# one satisfied clause fewer at stage 1, where b >= 1 keeps the feature valid:
# the cell's <phi, w> and its trajectory neighbour's at stage 2 disagree
lowered_first_stage = changed_feature(
    lambda phi, instance, h: dataclasses.replace(phi, b=phi.b - 1) if h == 1 and phi.b else phi)
# one phantom undecided clause at the last stage, on cells with a falsified
# clause, b unchanged: the stage's weight is zero, so q and <phi, w> still agree
phantom_last_clause = changed_feature(
    lambda phi, instance, h: dataclasses.replace(phi, y_counts={**phi.y_counts, 0: 1})
    if h == instance.n and phi.b < phi.clause_count else phi)


def inverted_threshold(monkeypatch):
    swap(monkeypatch, sat2mdp.verify, "f_threshold",
         lambda original: lambda params, h: 1 - original(params, h))


def oracle_heads_high(monkeypatch):
    # the oracle's probabilities sum to a little over 1, its weights unchanged
    def fault(original):
        def oracle(instance, batch, h):
            heads, m = original(instance, batch, h)
            return heads + 1e-9, m

        return oracle

    swap(monkeypatch, sat2mdp.verify, "softmax_weight_by_enumeration", fault)


def widest_block_one_high(monkeypatch):
    swap(monkeypatch, sat2mdp.verify, "universe_block_sizes",
         lambda original: lambda n: original(n)[:2] + (original(n)[2] + 1,))


def greedy_slope_cap_zero(monkeypatch):
    monkeypatch.setattr(sat2mdp.verify, "SCALING_GREEDY_SLOPE_MAX", 0)


ROUNDTRIP = partial(check_reduction_roundtrip, count=1, n=4, seed=0)
GREEDY = partial(check_realizability_greedy, **GREEDY_FAULT_SUITE)
SOFTMAX = partial(check_realizability_softmax, **SOFTMAX_FAULT_SUITE)
SCALING = partial(check_construction_scaling, seed=0)
# kind, prefixed by its suite where two suites emit it -> (the check that
# emits it, a fault that makes it, the suite run)
FAULTS = {
    "expected_yes": ("planted_decision", shifted_fraction(Fraction(-1, 5)), ROUNDTRIP),
    "certificate_recount": ("planted_decision", shifted_fraction(Fraction(1, 10)), ROUNDTRIP),
    "certificate_below_threshold": ("planted_decision", complemented_certificate, ROUNDTRIP),
    "optimum_cross_check": ("planted_decision", lower_sweep_optimum, ROUNDTRIP),
    "expected_no": ("contradiction", raised_on_one_variable, ROUNDTRIP),
    "greedy_bound": ("greedy_bound", halved_greedy_bound, ROUNDTRIP),
    "tail_calibration": ("tail_calibration", doubled_tail, ROUNDTRIP),
    "softmax_decide": ("softmax_decide", uniform_sampled_extraction,
                       partial(check_reduction_roundtrip, count=1, n=6, seed=1)),
    "empirical_tail": ("empirical_tail", raised_softmax_value,
                       partial(check_reduction_roundtrip, count=1, n=6, seed=3)),
    "softmax_bound_positivity": ("softmax_budget", doubled_calibration, ROUNDTRIP),
    "greedy-dot_mismatch": ("realizability_greedy", leaf_counts_one_high, GREEDY),
    "last_stage_form": ("realizability_greedy", phantom_last_clause, GREEDY),
    "telescoping": ("realizability_greedy", lowered_first_stage, GREEDY),
    "tie_rule_mismatch": ("realizability_greedy", inverted_threshold, GREEDY),
    "lookahead_form": ("realizability_greedy", digest_fault("greedy-reward"), GREEDY),
    "head_sum": ("realizability_softmax", oracle_heads_high, SOFTMAX),
    "weight_oracle": ("realizability_softmax", digest_fault("softmax-continuation"), SOFTMAX),
    "dp_vs_enumeration": ("realizability_softmax", digest_fault("softmax-reward"), SOFTMAX),
    "softmax-dot_mismatch": ("realizability_softmax", digest_fault("softmax-continuation"),
                             SOFTMAX),
    "universe_size": ("universe_size", widest_block_one_high, SCALING),
    "slope": ("slope", greedy_slope_cap_zero, SCALING),
}


def test_every_check_has_a_fault():
    assert {check for check, _, _ in FAULTS.values()} == set(_CHECKS)


@pytest.mark.parametrize("name", FAULTS)
def test_record_replays_from_itself(monkeypatch, name):
    check, fault, suite = FAULTS[name]
    kind = name.rpartition("-")[2]
    fault(monkeypatch)
    failures = json.loads(suite().canonical_json())["failures"]
    records = [f for f in failures if f["kind"] == kind]
    assert records and {f["check"] for f in records} == {check}
    if suite.func is check_reduction_roundtrip:
        # a roundtrip fault makes exactly one record of its kind; a
        # realizability or scaling fault may make many
        assert len(records) == 1
    # with the fault still in place: the first record's inputs alone, and
    # the same failure comes back
    assert records[0] in replay(records[0])
