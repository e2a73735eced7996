"""Exact policy evaluation on the assignment-tree MDP.

A roll-out from (state, action) is named by its leaf: the assigned prefix,
the action, then the policy's later actions, the slice ``[h:]`` of the
params' ``greedy_actions`` (or ``softmax_probs``).  Each entry point takes
one checked ``mdp.step`` and builds the leaf directly; ``transition`` and
``reward`` stay in ``mdp`` as the references that leaf and its value are
tested against.  A greedy q is one checked step plus the leaf its sign
pattern names, returned as an exact Fraction from the formula's table of
satisfied fractions.  Softmax values sum per-clause satisfaction
probabilities (polynomial, over ``Formula.split`` of the prefix) in one
evaluator, ``softmax_q_of_split``, which the softmax suite also calls on
splits it keeps across policies; ``enumerate_trajectories`` lists every
continuation's leaf with its probability and is the independent oracle
they are checked against.
``best_greedy`` reads the best sign pattern off ``cnf.is_zeta_satisfiable``:
sign pattern x plays assignment x, and actions depend on the stage only, so
the best assignment is the best greedy policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .cnf import ENUMERATION_CAP, is_zeta_satisfiable
from .features import PolicyParams, check_theta, greedy_action, softmax_prob
from .mdp import ACTIONS, MdpError, MdpInstance, State, stage, step


@dataclass(frozen=True)
class Trajectory:
    """A roll-out, named by its leaf, and the probability of reaching it."""

    final: State
    probability: float


def eval_q_greedy(
    instance: MdpInstance, params: PolicyParams, state: Sequence[int], action: int
) -> Fraction:
    """q(state, action) under the greedy policy: apply the action, then roll out.

    The roll-out's leaf is the checked step's prefix followed by the
    pattern's actions for the later stages; its value is read from the
    formula's fraction table, as ``generative_query`` reads it.
    """
    h, nxt = step(instance, state, action)
    check_theta(instance, params)
    leaf = nxt[:h] + params.greedy_actions[h:]
    formula = instance.formula
    return formula.fraction_of[formula.split(leaf)[0]]


def state_value_greedy(
    instance: MdpInstance, params: PolicyParams, state: Sequence[int]
) -> Fraction:
    return eval_q_greedy(instance, params, state, greedy_action(stage(state), params))


def eval_q_softmax(
    instance: MdpInstance,
    params: PolicyParams,
    state: Sequence[int],
    action: int,
) -> float:
    """Expected terminal reward after (state, action) under the softmax policy.

    ``softmax_q_of_split`` of the checked step's prefix and the params'
    ``softmax_probs``.
    """
    h, nxt = step(instance, state, action)
    check_theta(instance, params)
    formula = instance.formula
    return softmax_q_of_split(formula.split(nxt[:h]), params.softmax_probs, formula.clause_count)


def softmax_q_of_split(
    split: tuple[int, Sequence[tuple[int, ...]]], probs: Sequence[float], clause_count: int
) -> float:
    """Expected satisfied fraction of a prefix's split under independent draws.

    ``split`` is ``Formula.split`` of the prefix and ``probs[v - 1]`` is the
    probability that variable v draws 1 (the variable of literal key k is
    k >> 1); only the variables past the prefix are read.  Sums per-clause
    satisfaction probabilities: a clause left undecided by the prefix is
    satisfied unless every one of its literals draws false.
    """
    satisfied, undecided = split
    acc = float(satisfied)
    for key in undecided:
        p_all_false = 1.0
        for k in key:
            p_true = probs[k >> 1]
            p_all_false *= p_true if k & 1 else 1.0 - p_true
        acc += 1.0 - p_all_false
    return acc / clause_count


def state_value_softmax(
    instance: MdpInstance, params: PolicyParams, state: Sequence[int]
) -> float:
    h = stage(state)
    p1 = softmax_prob(h, params)
    q0 = eval_q_softmax(instance, params, state, 0)
    q1 = eval_q_softmax(instance, params, state, 1)
    return (1.0 - p1) * q0 + p1 * q1


def enumerate_trajectories(
    instance: MdpInstance,
    params: PolicyParams,
    state: Sequence[int],
    action: int,
) -> list[Trajectory]:
    """All 2^(H-h-1) continuations of (state, action), with their probabilities.

    The given action is taken with probability 1; only the later stages
    contribute probability factors.  MdpError above ``ENUMERATION_CAP``
    free stages.
    """
    h, nxt = step(instance, state, action)
    check_theta(instance, params)
    free = instance.n - h
    if free > ENUMERATION_CAP:
        raise MdpError(f"{free} free stages exceed the enumeration cap {ENUMERATION_CAP}")
    p1 = params.softmax_probs[h:]
    prefix = nxt[:h]
    out: list[Trajectory] = []
    for suffix in product(ACTIONS, repeat=free):
        probability = 1.0
        for p, a in zip(p1, suffix):
            probability *= p if a == 1 else 1.0 - p
        out.append(Trajectory(final=prefix + suffix, probability=probability))
    return out


def sample_trajectory(
    instance: MdpInstance,
    params: PolicyParams,
    seed: int | np.random.Generator,
) -> Trajectory:
    """One full episode from the initial state under the softmax policy.

    Reproducible: the same integer seed always yields the same trajectory.
    """
    check_theta(instance, params)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    actions = []
    probability = 1.0
    for p1 in params.softmax_probs:
        action = 1 if rng.random() < p1 else 0
        actions.append(action)
        probability *= p1 if action == 1 else 1.0 - p1
    return Trajectory(final=tuple(actions), probability=probability)


def best_greedy(instance: MdpInstance) -> tuple[PolicyParams, Fraction]:
    """The first best of all 2^n sign patterns and its value at the root.

    Every greedy policy behaves like one of these patterns (actions depend
    only on the stage), and pattern x rolls out to assignment x, so the
    exhaustive assignment sweep is exact over the whole class; its
    lexicographically first argmax is the first best pattern in
    ``itertools.product`` order.  The sweep raises CnfError above its cap.
    """
    _, argmax, value = is_zeta_satisfiable(instance.formula, 0)
    return PolicyParams.from_signs(argmax), value


def iter_states(n: int) -> Iterable[State]:
    """All non-terminal states in stage order."""
    for h in range(1, n + 1):
        for prefix in product((0, 1), repeat=h - 1):
            yield prefix + (-1,) * (n - h + 1)
