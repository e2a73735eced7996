"""Relabelling relations: the chain checked against renamed, re-signed and
reordered copies of its own input.

The satisfied count of an assignment does not change when the variables
are renamed, a variable's polarity is flipped in every clause, or the
clauses are reordered, provided the assignment is renamed and flipped with
them.  So every quantity below maps across ``relabel`` exactly.  The other
exact oracles recompute a quantity a second way on the same formula, so a
fault that both ways share, such as how a literal maps to a stage or which
half of the count table holds x1, passes them; it breaks these relations.
The relabelled copy also reads back from its own DIMACS text unchanged.
Polarity flips alone keep the stage order, so under them the q value and
the realizability dot product of a cell are unchanged too, for either
policy class, with the state and action flipped and theta' negated at the
flipped stages: negating theta'_h swaps the greedy action and complements
the softmax probability of stage h.  The greedy pairs are equal exactly,
the softmax pairs within 1e-9.  A fault that treats both polarities
alike, such as reading every literal's sign bit inverted, commutes with
the flips and passes these pairs; the realizability identity catches it,
as does the softmax relation's last check, the copy's dot product against
the original's q.  Under the full relabelling, with theta' negated at the
flipped variables and moved with them, softmax ``decide`` in round mode
reads the relabelled assignment, so its decision and achieved fraction
are unchanged.
"""

import random
from fractions import Fraction
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from sat2mdp import (
    ACTIONS,
    Formula,
    PolicyParams,
    build_mdp,
    decide_max3sat,
    eval_q_greedy,
    eval_q_softmax,
    exact_solver,
    generative_query,
    greedy_weight,
    initial_state,
    is_zeta_satisfiable,
    parse_dimacs,
    realizability_feature,
    softmax_weight,
    stage,
)
from sat2mdp import reduction
from sat2mdp.cnf import leaf_counts

from conftest import formulas
from reference import to_dimacs


def relabel(formula, perm, flips, order):
    """The formula whose clause i is the original's clause ``order[i]``,
    with variable v renamed ``perm[v - 1] + 1`` and its literals negated
    when ``flips[v - 1]``."""
    return Formula.from_ints(formula.n, [
        [(perm[abs(lit) - 1] + 1) * (-1 if (lit < 0) != flips[abs(lit) - 1] else 1)
         for lit in formula.clauses[i].to_ints()]
        for i in order
    ])


def relabel_index(i, n, perm, flips):
    """The index in the relabelled copy (x1 the high bit) of the assignment
    that satisfies the same clauses as the original's assignment i."""
    j = 0
    for v in range(n):
        bit = ((i >> (n - 1 - v)) & 1) ^ flips[v]
        j |= bit << (n - 1 - perm[v])
    return j


@st.composite
def relabellings(draw):
    """(formula, its relabelled copy, perm, flips) for a formula of n <= 8."""
    formula = draw(formulas())
    n = formula.n
    rng = random.Random(draw(st.integers(0, 2**32)))
    perm = rng.sample(range(n), n)
    flips = [rng.random() < 0.5 for _ in range(n)]
    order = rng.sample(range(formula.clause_count), formula.clause_count)
    return formula, relabel(formula, perm, flips, order), perm, flips


@st.composite
def flipped_cells(draw):
    """Pairs of cells (instance, params, state, action), one pair per stage
    and action: a random cell of a formula of n <= 8, and the same cell of
    its copy under polarity flips alone, its state and action flipped and
    theta' negated at the flipped stages.  Every theta'_h is nonzero, so
    its negation flips the greedy action."""
    formula = draw(formulas())
    n = formula.n
    rng = random.Random(draw(st.integers(0, 2**32)))
    flips = [rng.randrange(2) for _ in range(n)]
    copy = relabel(formula, range(n), flips, range(formula.clause_count))
    theta = [rng.choice((-1, 1)) * rng.uniform(0.25, 3.0) for _ in range(n)]
    instance, copy_instance = build_mdp(formula), build_mdp(copy)
    params = PolicyParams(tuple(theta))
    copy_params = PolicyParams(tuple(-t if f else t for t, f in zip(theta, flips)))
    cells = []
    for h in range(1, n + 1):
        prefix = [rng.randrange(2) for _ in range(h - 1)]
        copy_prefix = [v ^ f for v, f in zip(prefix, flips)]
        tail = (-1,) * (n - h + 1)
        for action in ACTIONS:
            cells.append((
                (instance, params, tuple(prefix) + tail, action),
                (copy_instance, copy_params, tuple(copy_prefix) + tail, action ^ flips[h - 1]),
            ))
    return cells


@st.composite
def relabelled_thetas(draw):
    """(formula, its relabelled copy, theta', the copy's theta'): the copy's
    entry for variable perm[v] + 1 is theta'_v, negated when v is flipped.
    Every entry is nonzero, so its negation flips the rounded bit."""
    formula, copy, perm, flips = draw(relabellings())
    rng = random.Random(draw(st.integers(0, 2**32)))
    theta = [rng.choice((-1, 1)) * rng.uniform(0.25, 3.0) for _ in range(formula.n)]
    copy_theta = [0.0] * formula.n
    for v, t in enumerate(theta):
        copy_theta[perm[v]] = -t if flips[v] else t
    return formula, copy, theta, copy_theta


def _softmax_round_decide(formula, theta, delta):
    """Softmax decide in round mode with a solver that returns theta'."""
    params = PolicyParams(tuple(theta))
    report = decide_max3sat(formula, delta, lambda *args: params, "softmax",
                            extraction_mode="round")
    return report.decision, report.achieved_fraction


def _dot(weight_of, instance, params, state, action):
    weight = weight_of(instance, params, stage(state))
    return realizability_feature(instance, state, action).dot(weight)


def _solver_value(formula):
    """The value of exact_solver's pattern, its rewards read through
    generative access on the instance the solver swept."""
    instance = build_mdp(formula)
    query = partial(generative_query, instance)
    state, total = initial_state(formula.n), Fraction(0)
    for action in exact_solver(instance, query, Fraction(1, 10), "greedy").greedy_actions:
        state, r = query(state, action)
        total += r
    return total


class TestRelabelling:
    @settings(max_examples=40, deadline=None)
    @given(relabellings())
    def test_dimacs_round_trip_gives_an_equal_formula(self, case):
        _, copy, _, _ = case
        assert parse_dimacs(to_dimacs(copy)) == copy

    @settings(max_examples=40, deadline=None)
    @given(relabellings())
    def test_leaf_counts_map_entry_for_entry(self, case):
        formula, copy, perm, flips = case
        counts, copy_counts = leaf_counts(formula), leaf_counts(copy)
        for i in range(2**formula.n):
            assert copy_counts[relabel_index(i, formula.n, perm, flips)] == counts[i]

    @settings(max_examples=40, deadline=None)
    @given(relabellings(), st.fractions(0, 1))
    def test_zeta_satisfiability_is_unchanged(self, case, zeta):
        formula, copy, perm, flips = case
        ok, argmax, value = is_zeta_satisfiable(formula, zeta)
        assert is_zeta_satisfiable(copy, zeta)[::2] == (ok, value)
        # tie rules differ, so the mapped argmax is a maximizer, not the argmax
        index = int("".join(map(str, argmax)), 2)
        assert leaf_counts(copy)[relabel_index(index, formula.n, perm, flips)] == max(
            leaf_counts(formula))

    @settings(max_examples=40, deadline=None)
    @given(relabellings())
    def test_solver_value_is_unchanged(self, case):
        formula, copy, _, _ = case
        assert _solver_value(copy) == _solver_value(formula)

    @settings(max_examples=40, deadline=None)
    @given(relabellings(), st.sampled_from((Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))))
    def test_greedy_decision_is_unchanged(self, case, delta):
        formula, copy, _, _ = case
        report, copy_report = decide_max3sat(formula, delta), decide_max3sat(copy, delta)
        assert copy_report.decision == report.decision
        assert copy_report.achieved_fraction == report.achieved_fraction

    @settings(max_examples=40, deadline=None)
    @given(relabelled_thetas(), st.sampled_from((Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))))
    def test_softmax_round_decision_is_unchanged(self, case, delta):
        formula, copy, theta, copy_theta = case
        assert _softmax_round_decide(copy, copy_theta, delta) == _softmax_round_decide(
            formula, theta, delta)

    def test_softmax_round_relation_fails_under_a_polarity_fault(self, monkeypatch):
        # rounding that reads 1 only above p = 0.9 treats theta'_h and
        # -theta'_h unalike, so it does not commute with the flips: on (x1)
        # at theta' = 0.5 it reads x1 = 0, and on the flipped copy (~x1) at
        # theta' = -0.5 it reads x1 = 0 too, which satisfies the copy
        original = reduction.extract_assignment_softmax

        def high_threshold(params, n, mode="round", seed=None):
            if mode != "round":
                return original(params, n, mode, seed)
            return tuple(1 if p > 0.9 else 0 for p in params.softmax_probs)

        monkeypatch.setattr(reduction, "extract_assignment_softmax", high_threshold)
        formula = Formula.from_ints(1, [[1]])
        copy = relabel(formula, [0], [True], [0])
        delta = Fraction(1, 10)
        assert _softmax_round_decide(formula, [0.5], delta) == (False, 0)
        assert _softmax_round_decide(copy, [-0.5], delta) == (True, 1)

    @settings(max_examples=40, deadline=None)
    @given(flipped_cells())
    def test_greedy_q_is_unchanged_under_polarity_flips(self, cells):
        for cell, copy_cell in cells:
            assert eval_q_greedy(*copy_cell) == eval_q_greedy(*cell)

    @settings(max_examples=40, deadline=None)
    @given(flipped_cells())
    def test_realizability_dot_is_unchanged_under_polarity_flips(self, cells):
        for cell, copy_cell in cells:
            assert _dot(greedy_weight, *copy_cell) == _dot(greedy_weight, *cell)

    @settings(max_examples=40, deadline=None)
    @given(flipped_cells())
    def test_softmax_q_and_dot_are_unchanged_under_polarity_flips(self, cells):
        for cell, copy_cell in cells:
            assert abs(eval_q_softmax(*copy_cell) - eval_q_softmax(*cell)) <= 1e-9
            dot = _dot(softmax_weight, *copy_cell)
            assert abs(dot - _dot(softmax_weight, *cell)) <= 1e-9
            assert abs(dot - eval_q_softmax(*cell)) <= 1e-9
