"""Every failure kind of the roundtrip suite replays from its record alone.

Each kind has a fault that makes the suite emit it.  With the fault in
place the suite runs small, and the check the record names, called with
only the record's fields for its parameters (``conftest.replay_roundtrip``),
must return the same record again.  A manifest test ties every check of
``verify._ROUNDTRIP_CHECKS`` to at least one fault, so a check added
without one fails.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

import sat2mdp.reduction
import sat2mdp.verify
from sat2mdp.verify import _ROUNDTRIP_CHECKS, check_reduction_roundtrip

from conftest import replay_roundtrip


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


def transform_ignores_b(monkeypatch):
    # the transform checks the formula's own bound, never one below it
    swap(monkeypatch, sat2mdp.verify, "gap3sat_to_delta_b",
         lambda original: lambda formula, b, epsilon, delta: original(
             formula, max(b, sat2mdp.occurrence_bound(formula)), epsilon, delta))


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


SMALL = dict(count=1, n=4, seed=0)
# kind -> (the check that emits it, a fault that makes it, the suite's parameters)
FAULTS = {
    "expected_yes": ("planted_decision", shifted_fraction(Fraction(-1, 5)), SMALL),
    "certificate_recount": ("planted_decision", shifted_fraction(Fraction(1, 10)), SMALL),
    "certificate_below_threshold": ("planted_decision", complemented_certificate, SMALL),
    "optimum_cross_check": ("planted_decision", lower_sweep_optimum, SMALL),
    "expected_no": ("contradiction", raised_on_one_variable, SMALL),
    "greedy_bound": ("greedy_bound", halved_greedy_bound, SMALL),
    "tail_calibration": ("tail_calibration", doubled_tail, SMALL),
    "gap_transform_identity": ("gap_transform", transform_ignores_b, SMALL),
    "softmax_decide": ("softmax_decide", uniform_sampled_extraction, dict(count=1, n=6, seed=1)),
    "empirical_tail": ("empirical_tail", raised_softmax_value, dict(count=1, n=6, seed=3)),
    "softmax_bound_positivity": ("softmax_budget", doubled_calibration, SMALL),
}


def test_every_check_has_a_fault():
    assert {check for check, _, _ in FAULTS.values()} == set(_ROUNDTRIP_CHECKS)


@pytest.mark.parametrize("kind", FAULTS)
def test_record_replays_from_itself(monkeypatch, kind):
    check, fault, suite = FAULTS[kind]
    fault(monkeypatch)
    failures = json.loads(check_reduction_roundtrip(**suite).canonical_json())["failures"]
    [record] = [f for f in failures if f["kind"] == kind]
    assert record["check"] == check
    # with the fault still in place: the record's inputs alone, and the
    # same failure comes back
    assert record in replay_roundtrip(record)

