"""Feature and weight vectors for the two policy classes.

Two vector families live here:

* policy-parameterization vectors: the one-hot stage feature (+-1 at
  coordinate h) and the weight theta' that induces a greedy policy (sign
  of theta'_h picks the action) or a softmax policy (logistic in theta'_h).
  ``PolicyParams`` owns both per-stage vectors (``greedy_actions``,
  ``softmax_probs``); a roll-out's tail past stage h is their slice [h:].

* realizability vectors: for a state-action pair, the feature packs
  [satisfied-count, undecided-clause multiplicities] / |C| over the clause
  universe, read off ``Formula.split`` of the extended prefix and located
  with the universe's arithmetic ``index_of``; the stage weight packs
  [1, per-clause continuation result], where the continuation entry of a
  clause on wholly-unassigned variables is its truth value (greedy) or
  satisfaction probability (softmax) under the policy's roll-out, and 0
  for any clause touching an assigned variable.

Greedy-path arithmetic is exact (ints and Fractions); softmax entries are
64-bit floats.  Weights never read the state or action: they are built
from (formula, theta', h) alone.  The per-clause continuation results are
computed in one vectorized pass over the universe's literal-key matrix,
cached per (universe, policy), so per (n, policy): every instance of one
n shares one universe.  Each is sliced by stage with its min-variable array.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .cnf import ClauseUniverse
from .mdp import MdpInstance, MdpError, State, stage, step

GREEDY = "greedy"
SOFTMAX = "softmax"


@dataclass(frozen=True)
class PolicyParams:
    """The weight vector theta' shared by both policy classes."""

    theta_prime: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.theta_prime:
            raise ValueError("theta_prime must be non-empty")
        if any(not math.isfinite(v) for v in self.theta_prime):
            raise ValueError("theta_prime entries must be finite")

    @property
    def d_prime(self) -> int:
        return len(self.theta_prime)

    @cached_property
    def greedy_actions(self) -> tuple[int, ...]:
        """The greedy policy's action at every stage 1..d'."""
        return tuple(greedy_action(h, self) for h in range(1, self.d_prime + 1))

    @cached_property
    def softmax_probs(self) -> tuple[float, ...]:
        """The softmax policy's probability of action 1 at every stage 1..d'."""
        return tuple(softmax_prob(h, self) for h in range(1, self.d_prime + 1))

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "PolicyParams":
        return cls(tuple(float(v) for v in values))

    @classmethod
    def from_signs(cls, signs: Sequence[int] | str, magnitude: float = 1.0) -> "PolicyParams":
        """Sign pattern to parameters: '+-+' or (1, 0, 1) style bits.

        Entries <= 0 (or '-') become -magnitude, positive ones +magnitude.
        """
        if isinstance(signs, str):
            bad = set(signs) - set("+-")
            if bad:
                raise ValueError(f"sign string may only contain '+'/'-', got {sorted(bad)}")
            bits = [1 if ch == "+" else 0 for ch in signs]
        else:
            bits = [1 if v > 0 else 0 for v in signs]
        return cls(tuple(magnitude if b else -magnitude for b in bits))

    def to_json(self) -> dict:
        return {"theta_prime": list(self.theta_prime)}


def psp_feature(h: int, action: int, d_prime: int) -> tuple[int, ...]:
    """One-hot stage feature: +1 at coordinate h for action 1, -1 for action 0."""
    if not 1 <= h <= d_prime:
        raise ValueError(f"stage h={h} out of range [1, {d_prime}]")
    if action not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {action!r}")
    vec = [0] * d_prime
    vec[h - 1] = 1 if action == 1 else -1
    return tuple(vec)


def greedy_action(h: int, params: PolicyParams) -> int:
    """argmax over actions of <one-hot feature, theta'>; ties go to action 0."""
    _check_stage(h, params)
    return 1 if params.theta_prime[h - 1] > 0 else 0


def f_threshold(params: PolicyParams, h: int) -> int:
    """0 if theta'_h <= 0 else 1. Coincides with greedy_action by construction."""
    _check_stage(h, params)
    return 0 if params.theta_prime[h - 1] <= 0 else 1


def softmax_prob(h: int, params: PolicyParams) -> float:
    """Probability of action 1 at stage h: e^t / (e^t + e^-t) for t = theta'_h."""
    _check_stage(h, params)
    t = params.theta_prime[h - 1]
    # logistic(2t), evaluated on the stable side
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-2.0 * t))
    e = math.exp(2.0 * t)
    return e / (1.0 + e)


def _check_stage(h: int, params: PolicyParams) -> None:
    if not 1 <= h <= params.d_prime:
        raise ValueError(f"stage h={h} out of range [1, {params.d_prime}]")


@dataclass(frozen=True)
class RealizabilityFeature:
    """The (1/|C|) * [satisfied-count, undecided multiplicities] vector.

    ``y_counts`` stores the nonzero coordinates of the multiplicity block
    sparsely; ``dim`` is the full vector length 1 + |universe|.
    """

    b: int
    y_counts: dict[int, int] = field(repr=False)
    clause_count: int
    dim: int

    def __post_init__(self) -> None:
        # satisfied instances can never outnumber the decided ones
        if self.b > self.clause_count - self.y_sum:
            raise ValueError(
                f"b={self.b} exceeds decided count {self.clause_count - self.y_sum}"
            )

    @property
    def y_sum(self) -> int:
        return sum(self.y_counts.values())

    def dot(self, weight: "RealizabilityWeight") -> Fraction | float:
        """Inner product with a stage weight, including the 1/|C| scale.

        The weight's head coordinate is 1, so the sum starts at b; it is an
        exact Fraction against greedy weights, a float against softmax ones.
        """
        if weight.dim != self.dim:
            raise ValueError(f"dimension mismatch: feature {self.dim} vs weight {weight.dim}")
        acc = self.b
        for idx, mult in self.y_counts.items():
            acc += mult * weight.entry(idx)
        if weight.kind == GREEDY:
            return Fraction(acc, self.clause_count)
        return acc / self.clause_count

    def to_json(self) -> dict:
        """The scale 1/|C| and the dense unscaled entries [b, y_1, ..., y_{d-1}]."""
        entries = [self.b] + [0] * (self.dim - 1)
        for idx, mult in self.y_counts.items():
            entries[1 + idx] = mult
        return {"scale_num": 1, "scale_den": self.clause_count, "entries": entries}


def realizability_feature(
    instance: MdpInstance, state: Sequence[int], action: int
) -> RealizabilityFeature:
    """Feature of (state, action): counts after extending the prefix by the action."""
    h, nxt = step(instance, state, action)
    b, undecided = instance.formula.split(nxt[:h])
    return RealizabilityFeature(
        b=b,
        y_counts=Counter(map(instance.universe.index_of, undecided)),
        clause_count=instance.formula.clause_count,
        dim=instance.d,
    )


@dataclass(frozen=True, eq=False)
class RealizabilityWeight:
    """Stage weight [1, m] over universe coordinates.

    m[i] is nonzero only for clauses whose smallest variable exceeds the
    stage cutoff h; there it carries the clause's truth value under the
    greedy continuation, the policy's ``greedy_actions`` (0/1 int), or its
    satisfaction probability under the softmax continuation (float in
    [0, 1]).  The greedy suite's tie-rule check holds ``greedy_actions``
    equal to ``f_threshold``.  The dense vector is materialized lazily;
    building the weight itself is O(1) after a cached per-(universe,
    policy) pass.
    """

    kind: str
    cutoff: int
    _min_var: np.ndarray = field(repr=False)
    _continuation: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self._min_var) + 1

    def entry(self, index: int) -> int | float:
        """m[index] as a Python scalar: the continuation's entry if live, else 0.

        A greedy entry is the continuation's bool, which counts as 0 or 1.
        """
        if self._min_var.item(index) > self.cutoff:
            return self._continuation.item(index)
        return 0

    def m_dense(self) -> np.ndarray:
        """The m block as a dense array (int8 for greedy, float64 for softmax)."""
        live = self._min_var > self.cutoff
        if self.kind == GREEDY:
            return (live & self._continuation).astype(np.int8)
        return np.where(live, self._continuation, 0.0)

    def to_json(self) -> dict:
        if self.kind == GREEDY:
            entries: list = [1] + [int(v) for v in self.m_dense()]
        else:
            entries = ["1"] + [repr(float(v)) for v in self.m_dense()]
        return {"scale_num": 1, "scale_den": 1, "entries": entries}


@lru_cache(maxsize=512)
def _greedy_continuation(universe: ClauseUniverse, pattern: tuple[int, ...]) -> np.ndarray:
    """Truth value of every universe clause under the full look-ahead assignment."""
    values = np.asarray(pattern, dtype=np.int64)[universe.var0]
    lit_true = universe.valid & (values != universe.neg)
    return lit_true.any(axis=1)


@lru_cache(maxsize=512)
def _softmax_continuation(universe: ClauseUniverse, probs: tuple[float, ...]) -> np.ndarray:
    """Satisfaction probability of every universe clause under independent draws."""
    p_true_var = np.asarray(probs, dtype=np.float64)[universe.var0]
    p_lit_true = np.where(universe.neg, 1.0 - p_true_var, p_true_var)
    p_lit_false = np.where(universe.valid, 1.0 - p_lit_true, 1.0)
    return 1.0 - p_lit_false.prod(axis=1)


def check_theta(instance: MdpInstance, params: PolicyParams) -> None:
    """ValueError unless theta' has one entry per stage of the instance."""
    if params.d_prime != instance.d_prime:
        raise ValueError(
            f"theta' has {params.d_prime} entries, instance needs {instance.d_prime}"
        )


def _check_weight_stage(instance: MdpInstance, params: PolicyParams, h: int) -> None:
    check_theta(instance, params)
    if not 1 <= h <= instance.horizon - 1:
        raise ValueError(f"stage h={h} out of range [1, {instance.horizon - 1}]")


def greedy_weight(instance: MdpInstance, params: PolicyParams, h: int) -> RealizabilityWeight:
    """Stage-h weight for the greedy policy induced by theta'. State-independent.

    Its continuation is ``params.greedy_actions``, which the greedy suite's
    tie-rule check holds equal to ``f_threshold``."""
    _check_weight_stage(instance, params, h)
    continuation = _greedy_continuation(instance.universe, params.greedy_actions)
    return RealizabilityWeight(GREEDY, h, instance.universe.min_var, continuation)


def softmax_weight(instance: MdpInstance, params: PolicyParams, h: int) -> RealizabilityWeight:
    """Stage-h weight for the softmax policy induced by theta'. State-independent."""
    _check_weight_stage(instance, params, h)
    continuation = _softmax_continuation(instance.universe, params.softmax_probs)
    return RealizabilityWeight(SOFTMAX, h, instance.universe.min_var, continuation)


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

