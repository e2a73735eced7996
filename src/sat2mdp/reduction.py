"""Deciding near-satisfiability of a formula through an RL solver.

The decision pipeline: compile the formula into its MDP, hand the solver
generative access, read the returned policy parameters back as a variable
assignment, and answer Yes when the assignment satisfies at least a
1 - delta fraction of clause instances.  The concentration-bound helpers
(tail bound, calibration point, softmax epsilon budget) and the
planted-instance generator used by the verification suites live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from types import MethodType
from typing import TYPE_CHECKING, Callable

from .cnf import (
    BRUTE_FORCE_CAP,
    Assignment,
    Formula,
    _check_cap,
    leaf_counts,
    occurrence_bound,
    satisfied_fraction,
)
from .features import PolicyParams
from .mdp import ZERO_REWARD, MdpInstance, State, build_mdp, generative_query, initial_state
from .policies import _draw_leaves, state_value_softmax

if TYPE_CHECKING:  # each function that builds an array imports numpy itself
    import numpy as np

# Sign patterns handed to softmax extraction are scaled this far out so the
# per-stage action probabilities are saturated to ~1e-18 of 0 or 1.
SOFTMAX_SATURATION = 20.0

GenerativeAccess = Callable[[State, int], tuple[State, Fraction | int]]
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

    mode="round": x_h = 1 iff the stage-h probability of action 1 is above
    1/2, so a probability of exactly 1/2 gives 0, mirroring the greedy tie
    rule.  mode="sample": the leaf of ``sample_trajectory`` at ``seed``, one ``_draw_leaves``
    episode.  ``_check_extraction`` refuses a bad mode or seed.
    """
    if params.d_prime != n:
        raise ReductionError(f"theta' has {params.d_prime} entries, expected n={n}")
    _check_extraction(mode, seed)
    if mode == "round":
        return tuple(1 if p > 0.5 else 0 for p in params.softmax_probs)
    return tuple(_draw_leaves(params.softmax_probs, seed, 1)[0].tolist())


def _check_extraction(mode: str, seed: int | None) -> None:
    """ReductionError for an unknown mode, and in sample mode for a missing or negative seed."""
    if mode not in ("round", "sample"):
        raise ReductionError(f"unknown extraction mode {mode!r}")
    if mode == "sample" and (seed is None or seed < 0):
        raise ReductionError(f"sample mode needs a seed >= 0, got {seed}")


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
    The rewards of a ``GenerativeAccess`` are Fractions or ints, so each
    total is compared with the best one so far by integer
    cross-multiplication of their ``numerator`` and ``denominator`` (both
    denominators are positive), exactly as ``>`` would, without
    ``Fraction.__gt__``'s type checks; the comparison is strict, so the
    first best pattern in sweep order is returned.  For the softmax class
    the winning pattern is scaled to saturation so extraction recovers the
    same assignment.
    """
    _check_cap("brute-force", "n", instance.n, BRUTE_FORCE_CAP, ReductionError)
    best_bits: tuple[int, ...] | None = None
    best_num, best_den = -1, 1
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
        if total.numerator * best_den > best_num * total.denominator:
            best_bits, best_num, best_den = bits, total.numerator, total.denominator
    assert best_bits is not None
    magnitude = SOFTMAX_SATURATION if policy_class == "softmax" else 1.0
    return PolicyParams.from_signs(best_bits, magnitude=magnitude)


def epsilon_bound_greedy(delta: Fraction | float | str) -> Fraction:
    """Largest solver tolerance the greedy decision chain supports: delta / 2."""
    d = as_fraction(delta)
    if not 0 < d < 1:
        raise ReductionError(f"delta must be in (0, 1), got {d}")
    return d / 2


def _check_sizes(H: int, b: int, C: int) -> None:
    """ReductionError unless H, b and C are positive and each fits a float."""
    if min(H, b, C) < 1:
        raise ReductionError(f"H, b, C must be positive, got {(H, b, C)}")
    for name, value in (("H", H), ("b", b), ("C", C)):
        try:
            float(value)
        except OverflowError:
            raise ReductionError(f"{name} is too large for a float: {value}") from None


def mcdiarmid_tail(t: float, H: int, b: int, C: int) -> float:
    """Bounded-difference tail bound exp(-2 t^2 C^2 / (H b^2)) for the terminal reward.

    ReductionError for a t that is not a number >= 0 (a NaN or a negative t),
    and when H b^2 is too large for a float, although H and b fit.  An
    infinite t gives 0.0.
    """
    if not t >= 0:  # false for a NaN as well
        raise ReductionError(f"t must be a number >= 0, got {t}")
    _check_sizes(H, b, C)
    try:
        return math.exp(-2.0 * t * t * C * C / (H * b * b))
    except OverflowError:
        raise ReductionError(f"H * b^2 is too large for a float: H={H}, b={b}") from None


def calibration_t(H: int, b: int, C: int, p0: float) -> float:
    """The deviation at which the tail bound equals p0: (b/C) sqrt(H ln(1/p0) / 2).

    ReductionError when that is not a finite float, as for a subnormal p0,
    whose reciprocal overflows to inf.
    """
    if not 0.0 < p0 < 1.0:
        raise ReductionError(f"p0 must be in (0, 1), got {p0}")
    _check_sizes(H, b, C)
    t = (b / C) * math.sqrt(H * math.log(1.0 / p0) / 2.0)
    if not math.isfinite(t):
        raise ReductionError(f"calibration point is not finite for p0={p0}")
    return t


def _checked_p0(p0: Fraction | float | str) -> float:
    """p0 read exactly and checked in (0, 1) before its float conversion;
    ReductionError outside (0, 1), and for a p0 whose float is 0.0 or 1.0."""
    p = as_fraction(p0)
    if not 0 < p < 1:
        raise ReductionError(f"p0 must be in (0, 1), got {p0}")
    p_float = float(p)
    if p_float == 0.0:
        raise ReductionError(f"p0 is too small for a float: {p0}")
    if p_float == 1.0:
        raise ReductionError(f"p0 is too close to 1 for a float: {p0}")
    return p_float


def _checked_v_star(v_star: Fraction | float | str) -> Fraction:
    """v* read exactly; ReductionError outside [0, 1], where this MDP's values lie."""
    v = as_fraction(v_star)
    if not 0 <= v <= 1:
        raise ReductionError(f"v* must be in [0, 1], got {v_star}")
    return v


def epsilon_bound_softmax(
    v_star: Fraction | float | str,
    H: int,
    b: int,
    C: int,
    delta: Fraction | float | str,
    p0: float,
) -> float:
    """Solver-tolerance budget for the softmax chain.

    v* + delta - (b/C) sqrt(H ln(1/p0) / 2) - 1.  May be negative; a
    nonpositive value means the instance is too small for the chain.
    ReductionError for a v* outside [0, 1], where this MDP's values lie,
    for a delta that is not positive, and for one too large for a float;
    v* and delta are checked exactly before any float conversion.
    """
    v = _checked_v_star(v_star)
    d = as_fraction(delta)
    if d <= 0:
        raise ReductionError(f"delta must be positive, got {delta}")
    try:
        d_float = float(d)
    except OverflowError:
        raise ReductionError(f"delta is too large for a float: {delta}") from None
    return float(v) + d_float - calibration_t(H, b, C, p0) - 1.0


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
    supplied (otherwise the check is recorded as skipped).  A supplied v*
    must lie in [0, 1] for either class, though only softmax reads it.
    Softmax's extraction mode and seed are checked before the MDP is built.
    """
    d = as_fraction(delta)
    cap = epsilon_bound_greedy(d)
    if policy_class not in ("greedy", "softmax"):
        raise ReductionError(f"unknown policy class {policy_class!r}")
    eps = cap if epsilon is None else as_fraction(epsilon)
    if eps <= 0:
        raise ReductionError(f"epsilon must be positive, got {eps}")
    if policy_class == "softmax":
        _check_extraction(extraction_mode, seed)

    instance = build_mdp(formula)
    b = occurrence_bound(formula)
    C = formula.clause_count
    H = instance.horizon
    p0_f = _checked_p0(p0)
    t_cal = calibration_t(H, b, C, p0_f)
    details: dict = {
        "b": b,
        "clause_count": C,
        "H": H,
        "p0": p0_f,
        "t_calibration": t_cal,
        "tail_bound_at_t": mcdiarmid_tail(t_cal, H, b, C),
    }

    v = None if v_star is None else _checked_v_star(v_star)
    if policy_class == "greedy":
        if eps > cap:
            raise ReductionError(f"greedy chain needs epsilon <= delta/2, got {eps} > {cap}")
        details["epsilon_cap"] = frac_str(cap)
    else:
        if v is not None:
            budget = epsilon_bound_softmax(v, H, b, C, d, p0_f)
            details["epsilon_budget"] = budget
            details["v_star"] = float(v)
            if budget <= 0:
                raise ReductionError(
                    f"softmax chain infeasible: epsilon budget {budget:.6g} <= 0 "
                    f"(horizon too short for v*={float(v)})"
                )
            if float(eps) > budget:
                raise ReductionError(
                    f"epsilon {float(eps):.6g} exceeds the softmax budget {budget:.6g}"
                )
        else:
            details["epsilon_budget"] = None
            details["budget_check"] = "skipped: v* not supplied"

    try:
        params = solver(instance, MethodType(generative_query, instance), eps, policy_class)
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
    import numpy as np

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
    sampling slack.  Returns (empirical tail, bound, passed).  The leaves are
    ``policies._draw_leaves``' batch of ``trials`` at ``seed``, those of as many
    successive ``sample_trajectory`` calls on ``default_rng(seed)``.  Each is
    scored from the formula's table of leaf counts, as the float that
    ``float(satisfied_fraction(...))`` would give; so CnfError above
    ``BRUTE_FORCE_CAP`` variables, before any episode is drawn.
    """
    import numpy as np

    if trials < 1:
        raise ReductionError(f"trials must be >= 1, got {trials}")
    formula = instance.formula
    counts_of = leaf_counts(formula)
    expected = state_value_softmax(instance, params, initial_state(instance.n))
    threshold = expected - t
    b = occurrence_bound(formula)
    C = formula.clause_count
    bound = mcdiarmid_tail(t, instance.horizon, b, C)
    counts = counts_of[_leaf_indices(_draw_leaves(params.softmax_probs, seed, trials))]
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
    import numpy as np

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
    # no clause holds a variable twice, so a capacity of clause_count never binds
    remaining = [clause_count if max_occurrences is None else max_occurrences] * (n + 1)

    def draw_vars(k: int) -> list[int]:
        pool = [v for v in range(1, n + 1) if remaining[v] > 0]
        if not pool:
            raise ReductionError(
                f"occurrence capacity exhausted after {len(clauses)} clauses"
            )
        chosen = rng.choice(pool, size=min(k, len(pool)), replace=False)
        out = [int(v) for v in chosen]
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
