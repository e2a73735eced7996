"""The assignment-tree MDP built from a formula.

States are n-tuples over {-1, 0, 1} whose assigned entries form a prefix;
stage h has h-1 assigned variables.  ``stage`` is the one state check:
every function that takes a state gets h from it, reads the prefix as
``values[:h - 1]``, and treats h > n as terminal.  Taking action a at
stage h writes a into the first unassigned slot.  Reward is 0 everywhere
except terminal states, which pay the exact satisfied fraction of the
formula; every reward before the leaf is one shared exact zero,
``ZERO_REWARD``, so a client may test a reward by identity
(``r is ZERO_REWARD``) before paying for ``Fraction.__bool__``.
``step`` is the one (state, action) check: every function that takes a
state-action pair calls it for the stage and the next state, so all of
them raise the same errors in the same order.  ``generative_query`` is
``step`` plus the leaf reward: ``Formula.split``'s count of the leaf, a
popcount over the formula's clause bitsets, looked up in the formula's
table of satisfied fractions.  ``transition`` and ``reward`` are the
references: ``generative_query`` returns what ``transition`` followed by
``reward`` would, with the same errors, and the policy evaluators build
their leaves without either, so both keep every check for the tests that
hold those paths to them.  The 2^(n+1) - 1 states are never materialized;
everything is computed on demand from the formula.  An ``MdpInstance``
holds only the formula: its dimensions are closed forms.  The Theta(n^3)
clause universe depends on n alone: every instance of one n reads one
universe, enumerated on first use and kept for the process, so paths that
never read it (the exhaustive solver, and its cap check) never pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from .cnf import (
    ClauseUniverse,
    Formula,
    enumerate_universe,
    satisfied_fraction,
    universe_block_sizes,
)

State = tuple[int, ...]
ACTIONS = (0, 1)

# The reward of every non-terminal state; Fractions are immutable, so one
# shared instance spares a construction per query, and clients may test a
# reward against it by identity.
ZERO_REWARD = Fraction(0)


class MdpError(ValueError):
    """Invalid state, action, or query against the constructed MDP."""


@cache
def _universe(n: int) -> ClauseUniverse:
    """The one clause universe over n variables, enumerated on the first request."""
    return enumerate_universe(n)


@dataclass(frozen=True, eq=False)
class MdpInstance:
    """A formula and the dimensions of its MDP.

    horizon H = n + 1, policy-parameter dimension d_prime = n, and
    realizability dimension d = 1 + |universe|, from the closed-form block
    sizes; ``universe`` is shared by every instance of n.  The formula is
    frozen, so every dimension is computed once and cached.
    """

    formula: Formula

    action_count = len(ACTIONS)

    @cached_property
    def n(self) -> int:
        return self.formula.n

    @cached_property
    def horizon(self) -> int:
        return self.n + 1

    @cached_property
    def d_prime(self) -> int:
        return self.n

    @cached_property
    def _next_tails(self) -> dict[int, list[State]]:
        """_next_tails[a][k]: (a,) then k entries -1, for k < n.

        The part of a next state from the slot that action a writes on;
        ``step`` joins it to the state's assigned prefix.
        """
        return {a: [(a,) + (-1,) * k for k in range(self.n)] for a in ACTIONS}

    @cached_property
    def d(self) -> int:
        return 1 + sum(universe_block_sizes(self.n))

    @property
    def universe(self) -> ClauseUniverse:
        return _universe(self.n)

    @property
    def implied_state_count(self) -> int:
        return 2 ** (self.n + 1) - 1

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "H": self.horizon,
            "d": self.d,
            "d_prime": self.d_prime,
            "action_count": self.action_count,
            "implied_state_count": self.implied_state_count,
            "formula": self.formula.to_json(),
        }


def build_mdp(formula: Formula) -> MdpInstance:
    """Construct the MDP instance for a formula; no clause universe is built."""
    return MdpInstance(formula)


def initial_state(n: int) -> State:
    return (-1,) * n


def stage(state: Sequence[int]) -> int:
    """1 + number of assigned entries; ranges over [1, n+1].

    The MDP's one state check: raises ``MdpError`` unless the state is a
    run of 0/1 entries followed only by -1 entries.  The assigned prefix
    is ``values[:h - 1]``, and the state is terminal when h > len(values).
    """
    values = tuple(state)
    free = values.count(-1)
    h = len(values) + 1 - free
    # every other entry is 0/1, and the -1 entries are the last ``free``
    if values.count(0) + values.count(1) != h - 1 or (free and values.index(-1) != h - 1):
        raise MdpError(f"state {values} is not in prefix form: 0/1 entries, then only -1")
    return h


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


def reward(instance: MdpInstance, state: Sequence[int]) -> Fraction:
    """0 before the final stage; exact satisfied fraction at a terminal state."""
    values = tuple(state)
    h = stage(values)
    if len(values) != instance.n:
        raise MdpError(f"state length {len(values)} != n={instance.n}")
    if h <= instance.n:
        return ZERO_REWARD
    return satisfied_fraction(instance.formula, values)


def step(instance: MdpInstance, state: Sequence[int], action: int) -> tuple[int, State]:
    """The one checked (state, action) step: (stage h of the state, next state).

    Raises ``MdpError`` when the state is not in prefix form, the action is
    not in ``ACTIONS``, the state is terminal, or its length is not n, in
    that order: the order of ``transition`` followed by ``reward``.  The
    next state of a valid step is in prefix form by construction.
    """
    values = tuple(state)
    h = stage(values)
    if action not in ACTIONS:
        raise MdpError(f"action must be 0 or 1, got {action!r}")
    size = len(values)
    if h > size:
        raise MdpError(f"cannot transition from terminal state {values}")
    if size != instance.n:
        raise MdpError(f"state length {size} != n={instance.n}")
    # ``stage`` has proved values[h - 1:] all -1, so the next state is the
    # prefix plus a shared (action, -1, ..., -1) tail of the same length
    return h, values[: h - 1] + instance._next_tails[action][size - h]


def generative_query(
    instance: MdpInstance, state: Sequence[int], action: int
) -> tuple[State, Fraction]:
    """Simulator access: (next state, reward of the next state). Deterministic.

    Equal to ``(nxt, reward(instance, nxt))`` for ``nxt = transition(state,
    action)``, raising the same errors in the same order through ``step``.
    The leaf is counted directly: ``step`` has just built and checked it.
    """
    h, nxt = step(instance, state, action)
    if h < len(nxt):
        return nxt, ZERO_REWARD
    formula = instance.formula
    return nxt, formula.fraction_of[formula.split(nxt)[0]]
