"""Deciding near-satisfiability of a formula through an RL solver.

The decision pipeline: compile the formula into its MDP, hand the solver
generative access, read the returned policy parameters back as a variable
assignment, and answer Yes when the assignment satisfies at least a
1 - delta fraction of clause instances.  The concentration-bound helpers
(tail bound, calibration point, softmax epsilon budget) and the
instance-transform and planted-instance generators used by the
verification suites live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable

import numpy as np

from .cnf import (
    BRUTE_FORCE_CAP,
    Assignment,
    Formula,
    leaf_counts,
    occurrence_bound,
    satisfied_fraction,
)
from .features import PolicyParams
from .mdp import ZERO_REWARD, MdpInstance, State, build_mdp, generative_query, initial_state
from .policies import state_value_softmax

# Sign patterns handed to softmax extraction are scaled this far out so the
# per-stage action probabilities are saturated to ~1e-18 of 0 or 1.
SOFTMAX_SATURATION = 20.0

GenerativeAccess = Callable[[State, int], tuple[State, Fraction]]
RlSolver = Callable[[MdpInstance, GenerativeAccess, Fraction, str], PolicyParams]


class ReductionError(ValueError):
    """Violated precondition or failed solver call in the decision pipeline."""


def as_fraction(value: Fraction | int | float | str) -> Fraction:
    """Exact conversion; floats are read via their shortest decimal repr.

    ReductionError for a zero denominator, such as the string "1/0".
    """
    try:
        return Fraction(str(value) if isinstance(value, float) else value)
    except ZeroDivisionError:
        raise ReductionError(f"{value!r} has a zero denominator") from None


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class ReductionReport:
    """Self-verifying certificate: the decision plus everything to recheck it."""

    decision: bool
    extracted: Assignment
    achieved_fraction: Fraction
    epsilon_used: Fraction
    delta: Fraction
    policy_class: str
    formula: Formula
    bound_details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.decision != (self.achieved_fraction >= 1 - self.delta):
            raise ReductionError("report decision contradicts its achieved fraction")

    def to_json(self) -> dict:
        return {
            "decision": "Yes" if self.decision else "No",
            "extracted": list(self.extracted),
            "achieved_fraction": frac_str(self.achieved_fraction),
            "epsilon": frac_str(self.epsilon_used),
            "delta": frac_str(self.delta),
            "policy_class": self.policy_class,
            "formula": self.formula.to_json(),
            "bound_details": self.bound_details,
        }


def extract_assignment_greedy(params: PolicyParams, n: int) -> Assignment:
    """Read the assignment the greedy policy plays: x_h = the stage-h action."""
    if params.d_prime != n:
        raise ReductionError(f"theta' has {params.d_prime} entries, expected n={n}")
    return params.greedy_actions


def extract_assignment_softmax(
    params: PolicyParams,
    n: int,
    mode: str = "round",
    seed: int | None = None,
) -> Assignment:
    """Assignment from a softmax policy.

    mode="round": x_h = 1 iff the stage-h probability of action 1 is >= 1/2
    (ties go to 0, mirroring the greedy tie rule).  mode="sample": draw each
    x_h independently, reproducibly from the seed.
    """
    if params.d_prime != n:
        raise ReductionError(f"theta' has {params.d_prime} entries, expected n={n}")
    if mode == "round":
        return tuple(1 if p > 0.5 else 0 for p in params.softmax_probs)
    if mode == "sample":
        if seed is None:
            raise ReductionError("sample mode needs an explicit seed")
        rng = np.random.default_rng(seed)
        return tuple(1 if rng.random() < p else 0 for p in params.softmax_probs)
    raise ReductionError(f"unknown extraction mode {mode!r}")


def exact_solver(
    instance: MdpInstance,
    query: GenerativeAccess,
    epsilon: Fraction,
    policy_class: str,
) -> PolicyParams:
    """Brute-force reference solver: 0-optimal, so epsilon-optimal for any epsilon.

    Sweeps every sign pattern and evaluates each one purely through the
    generative access, n queries per pattern: the greedy policy of pattern
    x plays x_h at stage h, so the bits are played as actions directly.
    Every nonzero reward received is summed; zero ones are skipped, which
    spares an exact addition on each query before the leaf.  The MDP's
    shared zero, ``ZERO_REWARD``, is skipped by identity, without a call
    to ``Fraction.__bool__``; any other zero still reads as falsy, so the
    sum is exact for every query.  Each total starts at that same zero and
    takes its first other reward as is, so a pattern whose only other
    reward is the leaf's costs no addition and no truth test at all.
    For the softmax class the winning pattern is scaled to saturation so
    extraction recovers the same assignment.
    """
    if instance.n > BRUTE_FORCE_CAP:
        raise ReductionError(f"brute-force cap exceeded: n={instance.n} > {BRUTE_FORCE_CAP}")
    best_bits: tuple[int, ...] | None = None
    best_value = Fraction(-1)
    root = initial_state(instance.n)
    for bits in product((0, 1), repeat=instance.n):
        state = root
        total = ZERO_REWARD
        for action in bits:
            state, r = query(state, action)
            if r is not ZERO_REWARD:
                if total is ZERO_REWARD:
                    total = r
                elif r:
                    total += r
        if total > best_value:
            best_bits, best_value = bits, total
    assert best_bits is not None
    magnitude = SOFTMAX_SATURATION if policy_class == "softmax" else 1.0
    return PolicyParams.from_signs(best_bits, magnitude=magnitude)


def epsilon_bound_greedy(delta: Fraction | float | str) -> Fraction:
    """Largest solver tolerance the greedy decision chain supports: delta / 2."""
    d = as_fraction(delta)
    if not 0 < d < 1:
        raise ReductionError(f"delta must be in (0, 1), got {d}")
    return d / 2


def mcdiarmid_tail(t: float, H: int, b: int, C: int) -> float:
    """Bounded-difference tail bound exp(-2 t^2 C^2 / (H b^2)) for the terminal reward."""
    if not t >= 0:
        raise ReductionError(f"t must be nonnegative, got {t}")
    if min(H, b, C) < 1:
        raise ReductionError(f"H, b, C must be positive, got {(H, b, C)}")
    return math.exp(-2.0 * t * t * C * C / (H * b * b))


def calibration_t(H: int, b: int, C: int, p0: float) -> float:
    """The deviation at which the tail bound equals p0: (b/C) sqrt(H ln(1/p0) / 2).

    ReductionError when that is not a finite float, as for a subnormal p0,
    whose reciprocal overflows to inf.
    """
    if not 0.0 < p0 < 1.0:
        raise ReductionError(f"p0 must be in (0, 1), got {p0}")
    if min(H, b, C) < 1:
        raise ReductionError(f"H, b, C must be positive, got {(H, b, C)}")
    t = (b / C) * math.sqrt(H * math.log(1.0 / p0) / 2.0)
    if not math.isfinite(t):
        raise ReductionError(f"calibration point is not finite for p0={p0}")
    return t


def epsilon_bound_softmax(
    v_star: float, H: int, b: int, C: int, delta: float, p0: float
) -> float:
    """Solver-tolerance budget for the softmax chain.

    v* + delta - (b/C) sqrt(H ln(1/p0) / 2) - 1.  May be negative; a
    nonpositive value means the instance is too small for the chain.
    """
    if delta <= 0:
        raise ReductionError(f"delta must be positive, got {delta}")
    return float(v_star) + float(delta) - calibration_t(H, b, C, p0) - 1.0


def gap3sat_to_delta_b(
    formula: Formula,
    b: int,
    epsilon: Fraction | float | str,
    delta: Fraction | float | str,
) -> Formula:
    """Recast a gap instance as a bounded-occurrence decision instance.

    The clause list is copied verbatim; only the parameter obligations are
    checked (occurrence bound respected, delta > epsilon).
    """
    eps, d = as_fraction(epsilon), as_fraction(delta)
    if d <= eps:
        raise ReductionError(f"need delta > epsilon, got delta={d}, epsilon={eps}")
    actual = occurrence_bound(formula)
    if actual > b:
        raise ReductionError(f"occurrence bound violated: some variable is in {actual} > {b} clauses")
    return Formula(formula.n, formula.clauses)


def decide_max3sat(
    formula: Formula,
    delta: Fraction | float | str,
    solver: RlSolver = exact_solver,
    policy_class: str = "greedy",
    epsilon: Fraction | float | str | None = None,
    seed: int = 0,
    extraction_mode: str = "sample",
    p0: Fraction | float | str = Fraction(1, 8),
    v_star: Fraction | float | str | None = None,
) -> ReductionReport:
    """Decide whether some assignment satisfies >= 1 - delta of the clauses.

    Builds the MDP, runs the solver against generative access, extracts an
    assignment from the returned parameters (deterministically for greedy;
    rounded or sampled for softmax), and recomputes the achieved fraction
    from scratch.  Preconditions: epsilon <= delta/2 for the greedy class;
    for softmax, epsilon must fit the concentration budget whenever v* is
    supplied (otherwise the check is recorded as skipped).
    """
    d = as_fraction(delta)
    if not 0 < d < 1:
        raise ReductionError(f"delta must be in (0, 1), got {d}")
    if policy_class not in ("greedy", "softmax"):
        raise ReductionError(f"unknown policy class {policy_class!r}")
    eps = epsilon_bound_greedy(d) if epsilon is None else as_fraction(epsilon)
    if eps <= 0:
        raise ReductionError(f"epsilon must be positive, got {eps}")

    instance = build_mdp(formula)
    b = occurrence_bound(formula)
    C = formula.clause_count
    H = instance.horizon
    p0_f = float(as_fraction(p0))
    t_cal = calibration_t(H, b, C, p0_f)
    details: dict = {
        "b": b,
        "clause_count": C,
        "H": H,
        "p0": p0_f,
        "t_calibration": t_cal,
        "tail_bound_at_t": mcdiarmid_tail(t_cal, H, b, C),
    }

    if policy_class == "greedy":
        if eps > d / 2:
            raise ReductionError(f"greedy chain needs epsilon <= delta/2, got {eps} > {d / 2}")
        details["epsilon_cap"] = frac_str(d / 2)
    else:
        if v_star is not None:
            v = float(as_fraction(v_star))
            budget = epsilon_bound_softmax(v, H, b, C, float(d), p0_f)
            details["epsilon_budget"] = budget
            details["v_star"] = v
            if budget <= 0:
                raise ReductionError(
                    f"softmax chain infeasible: epsilon budget {budget:.6g} <= 0 "
                    f"(horizon too short for v*={v})"
                )
            if float(eps) > budget:
                raise ReductionError(
                    f"epsilon {float(eps):.6g} exceeds the softmax budget {budget:.6g}"
                )
        else:
            details["epsilon_budget"] = None
            details["budget_check"] = "skipped: v* not supplied"

    try:
        params = solver(instance, partial(generative_query, instance), eps, policy_class)
    except ReductionError:
        raise
    except Exception as exc:  # solver is third-party code; keep the context
        raise ReductionError(f"solver failed: {exc}") from exc

    if policy_class == "greedy":
        extracted = extract_assignment_greedy(params, formula.n)
    else:
        extracted = extract_assignment_softmax(
            params, formula.n, mode=extraction_mode, seed=seed
        )
        details["extraction_mode"] = extraction_mode

    achieved = satisfied_fraction(formula, extracted)
    return ReductionReport(
        decision=achieved >= 1 - d,
        extracted=extracted,
        achieved_fraction=achieved,
        epsilon_used=eps,
        delta=d,
        policy_class=policy_class,
        formula=formula,
        bound_details=details,
    )


def _leaf_indices(leaves: np.ndarray) -> np.ndarray:
    """Each row's index in ``cnf.leaf_counts``: its 0/1 entries, x1 first, read in binary."""
    return leaves @ (1 << np.arange(leaves.shape[1] - 1, -1, -1))


def empirical_mcdiarmid(
    instance: MdpInstance,
    params: PolicyParams,
    trials: int,
    t: float,
    seed: int = 0,
) -> tuple[float, float, bool]:
    """Monte-Carlo check of the lower-tail bound at deviation t.

    Estimates Pr[R(leaf) <= E[R] - t] over independent softmax episodes and
    compares it against the analytic bound plus three standard errors of
    sampling slack.  Returns (empirical tail, bound, passed).  The episodes
    are those of one generator: leaf i is the ``final`` of the i-th of
    ``trials`` successive ``sample_trajectory(instance, params, rng)`` calls
    on ``rng = np.random.default_rng(seed)``.  Each leaf is scored from the
    formula's table of leaf counts, so CnfError above ``BRUTE_FORCE_CAP``
    variables, before any episode is drawn.
    """
    if trials < 1:
        raise ReductionError(f"trials must be >= 1, got {trials}")
    formula = instance.formula
    counts_of = leaf_counts(formula)
    expected = state_value_softmax(instance, params, initial_state(instance.n))
    threshold = expected - t
    b = occurrence_bound(formula)
    C = formula.clause_count
    bound = mcdiarmid_tail(t, instance.horizon, b, C)
    # The episode's leaf is all the check reads.  ``sample_trajectory`` takes
    # one ``rng.random()`` per stage, so successive episodes on one generator
    # read its doubles n at a time, in order: row i of ``draws`` holds the
    # draws of episode i, and leaf i is that episode's ``final`` without the
    # episode around it.  Each leaf's satisfied count is read from the leaf
    # table at the leaf's bit index, and its float from the formula's
    # fractions, the value ``float(satisfied_fraction(...))`` would give.
    draws = np.random.default_rng(seed).random((trials, instance.n))
    counts = counts_of[_leaf_indices((draws < params.softmax_probs).astype(np.int64))]
    as_float = np.array([float(f) for f in formula.fraction_of])
    hits = int(np.count_nonzero(as_float[counts] <= threshold))
    empirical = hits / trials
    slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
    return empirical, bound, empirical <= bound + slack


def planted_instance(
    n: int,
    clause_count: int,
    zeta: Fraction | float | str,
    seed: int = 0,
    max_occurrences: int | None = None,
) -> tuple[Formula, Assignment]:
    """Random instance with a known assignment satisfying >= zeta of the clauses.

    A planted assignment is drawn first; ceil(zeta * clause_count) clauses
    are generated to contain at least one literal the assignment makes
    true, and the remainder are falsified by it outright.  The planted
    optimum is therefore >= zeta by construction.  With max_occurrences
    set, no variable is used in more clauses than that; generation raises
    if the capacity cannot accommodate clause_count clauses.
    """
    if n < 1:
        raise ReductionError(f"need n >= 1, got {n}")
    z = as_fraction(zeta)
    if not 0 <= z <= 1:
        raise ReductionError(f"zeta must be in [0, 1], got {z}")
    if clause_count < 1:
        raise ReductionError("need at least one clause")
    rng = np.random.default_rng(seed)
    planted: Assignment = tuple(int(v) for v in rng.integers(0, 2, size=n))
    k_good = math.ceil(z * clause_count)
    remaining = [max_occurrences] * (n + 1) if max_occurrences is not None else None

    def draw_vars(k: int) -> list[int]:
        pool = (
            [v for v in range(1, n + 1) if remaining[v] > 0]
            if remaining is not None
            else list(range(1, n + 1))
        )
        if not pool:
            raise ReductionError(
                f"occurrence capacity exhausted after {len(clauses)} clauses"
            )
        chosen = rng.choice(pool, size=min(k, len(pool)), replace=False)
        out = [int(v) for v in chosen]
        if remaining is not None:
            for v in out:
                remaining[v] -= 1
        return out

    clauses: list[list[int]] = []
    for i in range(clause_count):
        variables = draw_vars(3)
        signs = {v: int(rng.integers(0, 2)) for v in variables}
        if i < k_good:
            # force one witness literal to agree with the planted assignment
            witness = variables[int(rng.integers(0, len(variables)))]
            signs[witness] = planted[witness - 1]
        else:
            # every literal disagrees with the planted assignment
            signs = {v: 1 - planted[v - 1] for v in variables}
        clauses.append([v if signs[v] == 1 else -v for v in variables])

    order = rng.permutation(len(clauses))
    formula = Formula.from_ints(n, [clauses[i] for i in order])
    return formula, planted
