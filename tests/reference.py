"""Reference versions of the MDP's next-state rule, the greedy roll-out and
the softmax episode's draw, a depth-first client of generative access, and
the DIMACS writer.

The package has one implementation of each: ``mdp.step`` is its next-state
rule, ``eval_q_greedy`` builds the greedy roll-out's leaf from the
slice ``greedy_actions[h:]``, and ``policies._draw_leaves`` draws every
softmax episode's leaf.  The functions here are second, independent
copies, with their own checks, that no package code calls; the tests hold
the package's paths to them:

* ``transition`` followed by ``mdp.reward`` is what ``generative_query``
  and ``step`` must return, with the same errors in the same order;
* ``is_terminal`` reads a state's stage, for walks that stop at a leaf;
* ``lookahead_state`` is the leaf of the greedy roll-out from a
  state-action pair, the leaf the greedy suite reads by index and
  ``eval_q_greedy`` scores;
* ``sample_leaf`` is one softmax episode's leaf, drawn one double at a
  time, stage 1 first: what ``sample_trajectory``, sampled extraction and
  the Monte-Carlo tail must each draw from the same generator state;
* ``depth_first_solve`` is an exhaustive solver that, unlike the
  package's sweep, backtracks: it queries each state's second action after
  the whole subtree under its first, as a depth-first planner does;
* ``to_dimacs`` writes a formula as DIMACS text.  The package only reads
  DIMACS; the golden corpus writes its inputs with this writer, and the
  round-trip tests hold ``parse_dimacs`` to inverting it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from sat2mdp.cnf import Formula
from sat2mdp.features import PolicyParams
from sat2mdp.mdp import ACTIONS, MdpError, State, initial_state, stage

if TYPE_CHECKING:
    import numpy as np


def is_terminal(state: Sequence[int]) -> bool:
    return stage(state) > len(state)


def transition(state: Sequence[int], action: int) -> State:
    """Deterministic next state: the first -1 entry becomes the action value."""
    values = tuple(state)
    h = stage(values)
    if action not in ACTIONS:
        raise MdpError(f"action must be 0 or 1, got {action!r}")
    if h > len(values):
        raise MdpError(f"cannot transition from terminal state {values}")
    return values[: h - 1] + (action,) + values[h:]


def lookahead_state(state: Sequence[int], action: int, params: PolicyParams) -> State:
    """Terminal state reached from (state, action) by following the greedy policy.

    A terminal input is returned unchanged.  Otherwise MdpError for an
    action outside ``ACTIONS``, then ValueError unless theta' has one entry
    per variable of the state.
    """
    values = tuple(state)
    h = stage(values)
    if h > len(values):
        return values
    if action not in (0, 1):
        raise MdpError(f"action must be 0 or 1, got {action!r}")
    if params.d_prime != len(values):
        raise ValueError(f"theta' has {params.d_prime} entries, state needs {len(values)}")
    return values[: h - 1] + (action,) + params.greedy_actions[h:]


def sample_leaf(probs: Sequence[float], rng: np.random.Generator) -> tuple[int, ...]:
    """One episode's leaf: stage h plays 1 when the generator's next double is
    below ``probs[h - 1]``, one ``rng.random()`` per stage in stage order."""
    return tuple(1 if rng.random() < p else 0 for p in probs)


def depth_first_solve(
    query: Callable[[State, int], tuple[State, Fraction]], n: int
) -> tuple[Fraction, tuple[int, ...]]:
    """(best value, first best assignment) over all 2^n leaves, by a
    depth-first walk through generative access from a fresh root.

    Plays action 0 before action 1 below every state, sums every nonzero
    reward on the way down, and keeps the first maximizer by a strict
    ``>``, so the assignment is the lexicographically first best one.  One
    query per non-root state: 2^(n+1) - 2 in all.
    """
    best: list = [Fraction(-1), ()]

    def visit(state: State, prefix: tuple[int, ...], total: Fraction) -> None:
        for action in ACTIONS:
            nxt, r = query(state, action)
            value = total + r if r else total
            if len(prefix) + 1 < n:
                visit(nxt, prefix + (action,), value)
            elif value > best[0]:
                best[:] = value, prefix + (action,)

    visit(initial_state(n), (), Fraction(0))
    return best[0], best[1]


def to_dimacs(formula: Formula) -> str:
    """The problem line, then one 0-terminated line of signed literals per clause."""
    lines = [f"p cnf {formula.n} {formula.clause_count}"]
    lines += [" ".join(map(str, c.to_ints())) + " 0" for c in formula.clauses]
    return "\n".join(lines) + "\n"
