"""Reference versions of the MDP's next-state rule and the greedy roll-out.

The package has one implementation of each: ``mdp.step`` is its next-state
rule, and ``eval_q_greedy`` builds the greedy roll-out's leaf from the
slice ``greedy_actions[h:]``.  The functions here are second, independent
copies, with their own checks, that no package code calls; the tests hold
the package's paths to them:

* ``transition`` followed by ``mdp.reward`` is what ``generative_query``
  and ``step`` must return, with the same errors in the same order;
* ``is_terminal`` reads a state's stage, for walks that stop at a leaf;
* ``lookahead_state`` is the leaf of the greedy roll-out from a
  state-action pair, the leaf the greedy suite reads by index and
  ``eval_q_greedy`` scores.
"""

from __future__ import annotations

from typing import Sequence

from sat2mdp.features import PolicyParams
from sat2mdp.mdp import ACTIONS, MdpError, State, stage


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
