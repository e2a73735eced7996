"""The assignment-tree MDP built from a formula.

States are n-tuples over {-1, 0, 1} whose assigned entries form a prefix;
stage h has h-1 assigned variables.  ``stage`` is the one state check:
every function that takes a state gets h from it, reads the prefix as
``values[:h - 1]``, and treats h > n as terminal.  Taking action a at
stage h writes a into the first unassigned slot: the next state is the
prefix, then a, then the free tail, with a and every tail entry a plain
int.  Reward is 0 everywhere except terminal states, which pay the exact
satisfied fraction of the formula; every reward before the leaf is one
shared exact zero, ``ZERO_REWARD``, so a client may test a reward by
identity (``r is ZERO_REWARD``) before paying for ``Fraction.__bool__``.
``step`` is the one (state, action) check: every function that takes a
state-action pair calls it for the stage and the next state, so all of
them raise the same errors in the same order.  ``generative_query`` is
``step`` plus the leaf reward: the count of the leaf's satisfied clause
instances, a popcount over the OR of one clause bitset per variable
(``Formula.value_bits``), looked up in the formula's table of satisfied
fractions.

Each instance keeps the query path its queries walk, a list of n + 2
slots.  Slot 0, the cursor, holds the stage of the last returned state,
where the next query most likely starts, or 1 after a leaf is built,
where a sweep restarts from its root.  Slot h, for h = 1..n, holds the
entry ``(state, acc, action, answer)``: a stage-h state, the OR of
``value_bits`` over its assigned prefix, and the action and ``(next
state, reward)`` of the last query from it.  Slot n + 1, the stage past a
leaf that a repeated leaf query sets, holds a sentinel, and every entry
starts as it: a private state object with an action that no caller can
pass.  One rule finds a query's entry: its state, by identity, not
equality, at the cursor's entry, then at each stage from n down to 1.  A
query from an entry's state skips ``step`` and its four ``stage`` scans.
The entry's last action returns the last answer as is; the other action
builds the next state from the state itself, ORs in one more bitset, and
replaces the entry and its child's.  That is sound because every state on
the path is a plain tuple of plain ints that ``step`` checked, in prefix
form and of length n, or that the instance built from one; a tuple cannot
change, and the entry holds a reference to it, so no other object can
take its id.  Every other query, a list or an equal copy included, goes
through ``step`` once, so every error keeps its type, message and order,
and then joins the path, as a plain int copy if it is not plain.  Each
entry is a self-consistent tuple swapped whole and read once per lookup,
so a reader never pairs one state with another state's answer; callers
that interleave queries on one instance, threads included, only miss the
fast path.  So the exact solver's sweep, n * 2^n queries from one root
object, and a depth-first walk each run ``step`` once, build each of the
2^(n+1) - 2 non-root states once, and OR one bitset per state built.

``step`` is the package's one next-state rule; the tests keep an
independent one, ``transition`` in ``tests/reference.py``, and hold
``generative_query`` to what that ``transition`` followed by ``reward``
returns, with the same errors in the same order.  ``reward`` keeps every
check: the policy evaluators build their leaves without it.  The
2^(n+1) - 1 states are never materialized; everything is computed on
demand from the formula.  An ``MdpInstance`` is a frozen record of the
formula, its dimensions (closed forms) and the query path, all set at
construction in O(n).  The Theta(n^3) clause universe depends on n alone:
every instance of one n reads one universe, enumerated on first use and
kept for the process, so paths that never read it (the exhaustive solver,
and its cap check) never pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
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

# The action of a path entry that has answered no query yet: no caller can
# pass this object, so such an entry's answer is never read.
_NO_ACTION = object()

# What the lookup reads when a query's state is not on the path: its action
# matches no caller's, so the query goes through ``step``.
_MISS = (None, 0, _NO_ACTION, None)


class MdpError(ValueError):
    """Invalid state, action, or query against the constructed MDP."""


@cache
def _universe(n: int) -> ClauseUniverse:
    """The one clause universe over n variables, enumerated on the first request."""
    return enumerate_universe(n)


@dataclass(frozen=True, eq=False)
class MdpInstance:
    """A formula and the dimensions of its MDP, set once at construction.

    horizon H = n + 1, policy-parameter dimension d_prime = n, and
    realizability dimension d = 1 + |universe|, from the closed-form block
    sizes; ``universe`` is shared by every instance of n.
    """

    formula: Formula
    n: int = field(init=False, compare=False, repr=False)
    horizon: int = field(init=False, compare=False, repr=False)
    d_prime: int = field(init=False, compare=False, repr=False)
    d: int = field(init=False, compare=False, repr=False)
    # the query path: its slots and its one lookup rule are in the module docstring
    _path: list = field(init=False, compare=False, repr=False)

    action_count = len(ACTIONS)

    def __post_init__(self) -> None:
        n = self.formula.n
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "horizon", n + 1)
        object.__setattr__(self, "d_prime", n)
        object.__setattr__(self, "d", 1 + sum(universe_block_sizes(n)))
        object.__setattr__(self, "_path", [1] + [(object(), 0, _NO_ACTION, None)] * (n + 1))

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
    that order: the order of the tests' reference ``transition`` followed
    by ``reward``.  The next state of a valid step is in prefix form by
    construction.
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
    # ``stage`` has proved values[h - 1:] all -1; the action, equal to 0 or
    # 1, and the free tail are written as plain ints, whatever their type
    return h, values[: h - 1] + (1 if action == 1 else 0,) + (-1,) * (size - h)


def generative_query(
    instance: MdpInstance, state: Sequence[int], action: int
) -> tuple[State, Fraction]:
    """Simulator access: (next state, reward of the next state). Deterministic.

    Equal to ``(nxt, reward(instance, nxt))`` for the next state ``nxt``
    of ``step``, raising the same errors in the same order.  The state is
    looked up on the instance's query path by the one rule of the module
    docstring.  A state not found there goes through ``step`` once and
    joins the path; one that is not a plain tuple of plain ints (a list,
    or a bool, numpy or float entry) joins as its plain int copy, and the
    action as the plain int that ``step`` wrote.  Every answer not already
    on the path is built by the same code below: the next state is a copy
    of the state with the action stored in its first free slot.
    """
    path = instance._path
    h = path[0]
    entry = path[h]
    if entry[0] is not state:
        for h in range(instance.n, 0, -1):
            entry = path[h]
            if entry[0] is state:
                break
        else:
            entry = _MISS
    if action is entry[2]:
        path[0] = h + 1
        return entry[3]
    formula = instance.formula
    if entry is not _MISS and type(action) is int and action in ACTIONS:
        acc = entry[1]
    else:
        h, nxt = step(instance, state, action)
        if type(state) is not tuple or not all(type(v) is int for v in state):
            # rebuilt from what ``step`` read, so an iterator is read only once
            state = tuple(map(int, nxt[: h - 1])) + (-1,) * (instance.n - h + 1)
        action = nxt[h - 1]
        acc = 0
        for bits, v in zip(formula.value_bits, state[: h - 1]):
            acc |= bits[v]
    nxt = list(state)
    nxt[h - 1] = action
    nxt = tuple(nxt)
    held = acc | formula.value_bits[h - 1][action]
    if h < instance.n:
        answer = nxt, ZERO_REWARD
        path[h + 1] = (nxt, held, _NO_ACTION, None)
        path[0] = h + 1
    else:
        answer = nxt, formula.fraction_of[held.bit_count()]
        path[0] = 1
    path[h] = (state, acc, action, answer)
    return answer
