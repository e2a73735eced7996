"""Named verification suites with machine-readable results.

Each suite sweeps a seeded family of random instances and records every
violated identity with enough inputs to reproduce it.  Suites are
deterministic given their seed; failures are sorted canonically before
serialization so the canonical JSON is stable (it leaves out wall time
and ``measured``, the scaling suite's times and slopes).

The realizability feature phi(s, a) depends on the formula alone and only
the weight depends on the policy, so the greedy and softmax suites build
phi once per formula (``_feature_cells``) and check that one table against
every policy's weight.  Both run through one sweep loop (``_sweep``) and
read one table of each formula's 2^n leaf rewards (``_leaf_rewards``).
For the greedy class the check is one identity of integer numerators per
formula, Q = 1 b^T + M Y^T over every (sign pattern, cell) pair: Q is read
from the formula's table of 2^n leaf counts (``cnf.leaf_counts``), b and Y
stack phi's satisfied counts and undecided multiplicities, and M stacks
every pattern's stage weight.  Fractions are built only for the failures
recorded, and the look-ahead check compares q with the reward table at
each roll-out leaf's index as integer arrays.  The tests hold the scalar
evaluators (``policies.eval_q_greedy``, ``RealizabilityFeature.dot``) to
the same table, and the leaf index to the reference roll-out
``lookahead_state`` in ``tests/reference.py``.

For the softmax class only the probabilities depend on theta': each cell's
prefix is split once per formula, the probability vector is built once per
theta' draw, and each cell's q is ``policies.softmax_q_of_split`` of the
two, the evaluator ``eval_q_softmax`` runs.  Every theta' of a formula is
drawn before its checks, and the enumeration-defined weight oracle
(``softmax_weight_by_enumeration``) runs once per (formula, h) over all of
the formula's draws: which clauses a continuation satisfies does not depend
on theta', only its probability does.  The trajectory-enumeration oracle at
the root still runs per draw.

Every suite is a list of (check name, inputs) cases run through one table,
``_CHECKS``.  A check takes JSON keyword inputs and returns (cases,
failures), each failure a dict with a ``kind``; ``_run`` sums the cases and
records each failure as ``{"check": name, **inputs, **found}``.  A softmax
failure's ``thetas`` is its own ``theta`` alone, in place of the formula's
batch.  One record of each suite, each under a deliberately wrong function::

    {"check": "realizability_greedy", "formula": [[1, -2]], "n": 2,
     "signs": [0, 0], "kind": "tie_rule_mismatch", "h": 1}
    {"check": "realizability_softmax", "formula": [[-1]], "n": 1, "thetas": [[0.5]], "tol": 1e-09,
     "weight_tol": 1e-12, "theta": [0.5], "h": 1, "kind": "head_sum", "head": 1.000000001}
    {"check": "universe_size", "n": 1, "kind": "universe_size", "counted": [2, 0, 0],
     "closed_form": [2, 0, 1]}
    {"check": "greedy_bound", "delta": "1/10", "expected": "1/20", "kind": "greedy_bound"}

So one rule replays any record: call ``_CHECKS[r["check"]]`` with the
record's fields for that check's parameters.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from . import features as ft
from .cnf import (
    BRUTE_FORCE_CAP,
    ENUMERATION_CAP,
    Clause,
    Formula,
    _check_cap,
    enumerate_universe,
    is_zeta_satisfiable,
    leaf_counts,
    occurrence_bound,
    satisfied_fraction,
    universe_block_sizes,
)
from .features import PolicyParams, f_threshold
from .mdp import (
    ACTIONS,
    MdpError,
    MdpInstance,
    State,
    build_mdp,
    generative_query,
    reward,
    stage,
    step,
)
from .policies import (
    best_greedy,
    enumerate_trajectories,
    eval_q_softmax,
    iter_states,
    sample_trajectory,
    softmax_q_of_split,
)
from .reduction import (
    _leaf_indices,
    as_fraction,
    calibration_t,
    decide_max3sat,
    empirical_mcdiarmid,
    epsilon_bound_greedy,
    epsilon_bound_softmax,
    exact_solver,
    extract_assignment_greedy,
    extract_assignment_softmax,
    frac_str,
    mcdiarmid_tail,
    planted_instance,
)

# Largest n_max each exhaustive suite accepts: the greedy sweep is O(4^n)
# per formula, and the softmax suite's weight oracle enumerates 2^(n-h)
# continuations per stage on top of that.
GREEDY_SUITE_N_MAX = 8
SOFTMAX_SUITE_N_MAX = 5
# Settings no CLI flag sets: the softmax suite's tolerance for its weight
# and trajectory oracles, and the scaling suite's timed sizes (universe
# sizes are counted up to the largest) and slope caps.
SOFTMAX_WEIGHT_TOL = 1e-12
SCALING_N_LIST = (5, 10, 20, 40)
SCALING_GREEDY_SLOPE_MAX = 3.5
SCALING_SOFTMAX_SLOPE_MAX = 4.5


@dataclass
class SuiteResult:
    suite: str
    cases: int
    failures: list[dict]
    seed: int | None
    params: dict
    wall_time: float = 0.0
    measured: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def sorted_failures(self) -> list[dict]:
        return sorted(self.failures, key=lambda f: json.dumps(f, sort_keys=True, default=str))

    def to_json(self, timed: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.sorted_failures(),
            "seed": self.seed,
            "params": self.params,
            "passed": self.passed,
        }
        if timed:
            out["wall_time_s"] = round(self.wall_time, 6)
            out["measured"] = self.measured
        return out

    def canonical_json(self) -> str:
        """Byte-stable serialization: canonical failure order, no timing or ``measured``."""
        return json.dumps(self.to_json(timed=False), sort_keys=True, default=str)


def random_formula(
    n: int,
    rng: np.random.Generator,
    max_occurrences: int = 3,
    clause_count: int | None = None,
) -> Formula:
    """Random formula with every variable in at most max_occurrences clauses.

    Clause sizes are drawn from {1, 2, 3} as capacity allows; generation
    stops early if no variable has occurrences left, so the result may be
    shorter than requested (but never empty).
    """
    return Formula.from_ints(n, _random_clauses(n, rng, max_occurrences, clause_count))


def _random_clauses(n: int, rng: np.random.Generator, max_occurrences: int = 3,
                    clause_count: int | None = None) -> list[list[int]]:
    """``random_formula``'s clauses, as ``to_json`` writes them, without a ``Formula``."""
    target = clause_count if clause_count is not None else max(1, n)
    remaining = [max_occurrences] * (n + 1)
    clauses: list[list[int]] = []
    for _ in range(target):
        pool = [v for v in range(1, n + 1) if remaining[v] > 0]
        if not pool:
            break
        size = min(int(rng.integers(1, 4)), len(pool))
        chosen = rng.choice(pool, size=size, replace=False)
        lits = []
        for v in chosen:
            v = int(v)
            remaining[v] -= 1
            lits.append(v if int(rng.integers(0, 2)) == 1 else -v)
        clauses.append(lits)
    return [Clause.from_ints(c).to_ints() for c in clauses]


def _require_positive(**counts: int) -> None:
    """ValueError for a sweep size below 1: a suite that checks nothing must not pass."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _feature_cells(
    instance: MdpInstance,
) -> list[tuple[State, int, int, ft.RealizabilityFeature]]:
    """(state, h, action, phi) for every non-terminal cell of the instance.

    In ``iter_states`` order, both actions per state.  phi never reads the
    policy, so one table serves every policy a suite checks on the formula.
    """
    cells = []
    for state in iter_states(instance.n):
        h = stage(state)
        for action in ACTIONS:
            cells.append((state, h, action, ft.realizability_feature(instance, state, action)))
    return cells


def _leaf_rewards(instance: MdpInstance) -> list[Fraction]:
    """``reward`` of each of the 2^n leaves, in ``cnf.leaf_counts`` order
    (x1 the high bit): the one reward table both realizability suites read,
    built once per formula."""
    return [reward(instance, leaf) for leaf in product((0, 1), repeat=instance.n)]


def _run(
    suite: str, cases: Iterable[tuple[str, dict]], seed: int | None, params: dict, started: float,
) -> SuiteResult:
    """Each (check name, inputs) case is one call of ``_CHECKS[name]``; its
    cases are summed and each failure is recorded as
    ``{"check": name, **inputs, **found}``."""
    count, failures = 0, []
    for name, inputs in cases:
        checked, found = _CHECKS[name](**inputs)
        count += checked
        failures += [{"check": name, **inputs, **f} for f in found]
    return SuiteResult(suite, count, failures, seed, params, time.perf_counter() - started)


def _formula_inputs(formula: Formula) -> dict:
    return {"formula": formula.to_json()["clauses"], "n": formula.n}


def _sweep(
    suite: str, n_max: int, formulas_per_n: int, seed: int,
    inputs: Callable[[int, np.random.Generator], dict], **params,
) -> SuiteResult:
    """The check named ``suite`` on ``formulas_per_n`` random formulas per n
    up to n_max, each with ``inputs(n, rng)`` drawn after it from the same
    generator; ``params`` are recorded after n_max and formulas_per_n."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    cases = ((suite, {"formula": _random_clauses(n, rng), "n": n, **inputs(n, rng)})
             for n in range(1, n_max + 1) for _ in range(formulas_per_n))
    params = {"n_max": n_max, "formulas_per_n": formulas_per_n, **params}
    return _run(suite, cases, seed, params, started)


def _q_numerators(formula: Formula) -> np.ndarray:
    """Q[p, c]: C times the greedy q of cell c under sign pattern p.

    Pattern p plays bit n - j of p at stage j (x1 is the high bit), and
    cells are in ``_feature_cells`` order, so the cell at stage h with
    prefix-and-action bits P is column 2^h - 2 + P.  Its roll-out leaf
    is P followed by the pattern's last n - h bits, read from the
    formula's table of 2^n leaf counts.
    """
    n = formula.n
    leaves = leaf_counts(formula)
    patterns = np.arange(2**n)[:, None]
    return np.hstack([
        leaves[(np.arange(2**h) << (n - h)) | (patterns & ((1 << (n - h)) - 1))]
        for h in range(1, n + 1)
    ])


def _realizability_greedy(formula: list, n: int) -> tuple[int, list[dict]]:
    """(cases, failures) of the greedy checks on one formula, every sign pattern.

    Row p of each matrix below is the pattern whose bits spell p, x1
    first; column c is the c-th cell of ``_feature_cells``.  ``q`` holds C
    times each q (``_q_numerators``); ``dots`` holds C times each
    <phi, w>, 1 b^T + M Y^T stage by stage, where b and Y are the cells'
    satisfied counts and undecided multiplicities and row p of M is
    pattern p's stage weight.  Y and M keep only the universe coordinates
    that some cell's multiplicities name, since Y is zero on the others.
    """
    cnf = Formula.from_ints(n, formula)
    C = cnf.clause_count
    instance = build_mdp(cnf)
    cells = _feature_cells(instance)
    b = np.array([phi.b for *_, phi in cells], dtype=np.int64)
    y = np.zeros((len(cells), instance.d - 1), dtype=np.int64)
    for c, (*_, phi) in enumerate(cells):
        for idx, mult in phi.y_counts.items():
            y[c, idx] = mult
    used = np.flatnonzero(y.any(axis=0))
    y = y[:, used]
    patterns = list(product((0, 1), repeat=n))
    params_of = [PolicyParams.from_signs(bits) for bits in patterns]
    q = _q_numerators(cnf)
    dots = np.empty_like(q)
    for h in range(1, n + 1):
        cols = slice(2**h - 2, 2 ** (h + 1) - 2)
        m = np.stack([ft.greedy_weight(instance, params, h).m_dense() for params in params_of])
        dots[:, cols] = b[cols] + m[:, used] @ y[cols].T
    # each failure names its sign pattern, and its cell where it has one
    def where(c: int) -> dict:
        state, _, action, _ = cells[c]
        return {"state": list(state), "action": action}

    passed = q == dots
    found = [{"signs": list(patterns[p]), **where(c), "kind": "dot_mismatch",
              "q": frac_str(Fraction(int(q[p, c]), C)),
              "dot": frac_str(Fraction(int(dots[p, c]), C))}
             for p, c in zip(*np.nonzero(~passed))]
    # last decision stage: a full assignment leaves no undecided clause, so
    # a cell that passes has an all-zero y row and q = b / C
    last = 2**n - 2
    found += [{"signs": list(patterns[p]), **where(last + c), "kind": "last_stage_form"}
              for p, c in zip(*np.nonzero(passed[:, last:] & y[last:].any(axis=1)))]
    # telescoping: consecutive cells of the greedy trajectory from the root
    # have the same inner product b + <y, m>; pattern p's stage-h cell has
    # prefix-and-action bits p >> (n - h)
    stages = np.arange(1, n + 1)
    rows = np.arange(len(patterns))[:, None]
    trace = dots[rows, 2**stages - 2 + (rows >> (n - stages))]
    found += [{"signs": list(patterns[p]), "kind": "telescoping", "h": int(i) + 2}
              for p, i in zip(*np.nonzero(trace[:, :-1] != trace[:, 1:]))]
    found += [{"signs": list(patterns[p]), "kind": "tie_rule_mismatch", "h": h}
              for p, params in enumerate(params_of) for h in range(1, n + 1)
              if params.greedy_actions[h - 1] != f_threshold(params, h)]
    # one stage out, q must equal the reward of the greedy roll-out's leaf,
    # at the index ``_q_numerators`` reads at h = n - 1: the cell's bits P,
    # then the pattern's last bit (no cells when n = 1); q / C equals the
    # reward num / (C * den) exactly when q * den == num
    num, den = np.array([(r.numerator * C, r.denominator) for r in _leaf_rewards(instance)],
                        dtype=np.int64).T
    first = 2 ** (n - 1) - 2
    ahead = np.arange(max(0, first), last)
    leaves = ((ahead - first) << 1) | (rows & 1)
    found += [{"signs": list(patterns[p]), **where(ahead[i]), "kind": "lookahead_form"} for p, i in
              zip(*np.nonzero(passed[:, ahead] & (q[:, ahead] * den[leaves] != num[leaves])))]
    # per pattern: n tie-rule checks, one per cell, n - 1 telescoping steps
    return len(patterns) * (2 * n - 1 + len(cells)), found


def check_realizability_greedy(
    n_max: int = 6,
    formulas_per_n: int = 20,
    seed: int = 0,
) -> SuiteResult:
    """Exact linear realizability of greedy q-values on random instances.

    For every formula, every sign pattern, and every non-terminal
    (state, action): the rolled-out q equals the feature/weight inner
    product as a rational, with zero tolerance.  One feature table serves
    every greedy policy, so per formula this is one identity of integer
    numerators, Q = 1 b^T + M Y^T, checked as integer arrays: Q holds C
    times each q, read from the formula's 2^n leaf counts; b and Y are the
    cells' satisfied counts and undecided multiplicities, built once per
    formula; row p of M is pattern p's stage weight.  A passing last-stage
    cell must leave no undecided clause and one a stage earlier must equal
    its roll-out leaf's reward; telescoping must hold along each greedy
    trajectory, and the played actions, ``greedy_actions``, which weights,
    roll-outs and extraction read, must agree with ``f_threshold``.
    ValueError when n_max or formulas_per_n is below 1 or n_max is above
    the cap.
    """
    _require_positive(n_max=n_max, formulas_per_n=formulas_per_n)
    _check_cap("greedy suite", "n_max", n_max, GREEDY_SUITE_N_MAX, ValueError)
    return _sweep("realizability_greedy", n_max, formulas_per_n, seed,
                  lambda n, rng: {}, tolerance=0)


def softmax_weight_by_enumeration(
    instance: MdpInstance, batch: Sequence[PolicyParams], h: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-h weights of every policy in ``batch`` from the definition:
    probability-weighted sums over all continuations of the
    per-continuation 0/1 weight vectors.

    Returns (heads, m), row i belonging to ``batch[i]``.  Which clauses a
    continuation satisfies does not depend on the policy, so each
    continuation is scored once and weighted by every policy's probability
    of it.  The continuations are walked in ``itertools.product`` order and
    each row is updated with the operations a single policy's sum would
    use, so row i is bitwise the batch-of-one result for ``batch[i]``.
    Exponential in n - h; this is the oracle the closed form is checked
    against.  MdpError above ``ENUMERATION_CAP`` free stages.
    """
    for params in batch:
        ft._check_weight_stage(instance, params, h)
    n = instance.n
    _check_cap("enumeration", "n-h", n - h, ENUMERATION_CAP, MdpError)
    universe = instance.universe
    live = universe.min_var > h
    probs = np.array([params.softmax_probs[h:] for params in batch]).reshape(len(batch), n - h)
    head = np.zeros(len(batch), dtype=np.float64)
    m = np.zeros((len(batch), universe.size), dtype=np.float64)
    values = np.zeros(n, dtype=np.int64)
    for suffix in product((0, 1), repeat=n - h):
        p = np.ones(len(batch), dtype=np.float64)
        for j, a in enumerate(suffix):
            p *= probs[:, j] if a == 1 else 1.0 - probs[:, j]
        values[h:] = suffix
        lit_true = universe.valid & (values[universe.var0] != universe.neg)
        sat = lit_true.any(axis=1) & live
        head += p
        m += p[:, None] * sat
    return head, m


def _realizability_softmax(
    formula: list, n: int, thetas: list, tol: float, weight_tol: float,
) -> tuple[int, list[dict]]:
    """(cases, failures) of the softmax checks on one formula, over its
    theta' draws ``thetas``; a failure's ``thetas`` is its ``theta`` alone."""
    cnf = Formula.from_ints(n, formula)
    instance = build_mdp(cnf)
    cells = _feature_cells(instance)
    # the split of each cell's checked step prefix, as eval_q_softmax takes it
    splits = [
        cnf.split(step(instance, state, action)[1][:h])
        for state, h, action, _ in cells
    ]
    rewards = [float(r) for r in _leaf_rewards(instance)]
    batch = [PolicyParams(tuple(theta)) for theta in thetas]
    weights = [
        {h: ft.softmax_weight(instance, params, h) for h in range(1, n + 1)}
        for params in batch
    ]
    draws = [{"thetas": [theta], "theta": theta} for theta in thetas]
    cases, found = 0, []
    # the weight-definition check, one oracle run per stage over every draw
    for h in range(1, n + 1):
        cases += len(batch)
        heads, m_oracle = softmax_weight_by_enumeration(instance, batch, h)
        closed = np.stack([w[h].m_dense() for w in weights])
        diffs = np.max(np.abs(closed - m_oracle), axis=1)
        for draw, head, diff in zip(draws, heads.tolist(), diffs.tolist()):
            if abs(head - 1.0) > weight_tol:
                found.append({**draw, "h": h, "kind": "head_sum", "head": head})
            if diff > weight_tol:
                found.append({**draw, "h": h, "kind": "weight_oracle", "max_diff": diff})
    root = (-1,) * n
    for draw, params, w in zip(draws, batch, weights):
        for action in ACTIONS:
            cases += 1
            dp = eval_q_softmax(instance, params, root, action)
            trajs = enumerate_trajectories(instance, params, root, action)
            leaves = _leaf_indices(np.array([traj.final for traj in trajs]))
            brute = 0.0
            for traj, leaf in zip(trajs, leaves.tolist()):
                brute += traj.probability * rewards[leaf]
            if abs(dp - brute) > weight_tol:
                found.append({**draw, "action": action, "kind": "dp_vs_enumeration",
                              "dp": dp, "enumeration": brute})
        for (state, h, action, phi), split in zip(cells, splits):
            cases += 1
            q = softmax_q_of_split(split, params.softmax_probs, cnf.clause_count)
            got = phi.dot(w[h])
            if abs(q - got) > tol:
                found.append({**draw, "state": list(state), "action": action,
                              "kind": "dot_mismatch", "q": q, "dot": got})
    return cases, found


def check_realizability_softmax(
    n_max: int = 5,
    formulas_per_n: int = 10,
    thetas_per_formula: int = 50,
    tol: float = 1e-9,
    seed: int = 0,
) -> SuiteResult:
    """Linear realizability of softmax q-values plus the weight-definition check.

    q (per-clause probability path) must match the feature/weight inner
    product within tol on every non-terminal cell, and the closed-form
    weights must match the enumeration-defined weights within
    ``SOFTMAX_WEIGHT_TOL``, which inputs and params record as weight_tol.
    The features, each cell's split and each leaf's reward are built
    once per formula; the probability vector is built once per theta' draw
    and scores every cell's q from its split.  ValueError when n_max,
    formulas_per_n or thetas_per_formula is below 1, n_max is above the cap,
    or tol is not finite and >= 0.
    """
    _require_positive(
        n_max=n_max, formulas_per_n=formulas_per_n, thetas_per_formula=thetas_per_formula
    )
    if not (math.isfinite(tol) and tol >= 0):
        # a NaN or infinite tol would switch its check off
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    _check_cap("softmax suite", "n_max", n_max, SOFTMAX_SUITE_N_MAX, ValueError)
    tols = {"tol": tol, "weight_tol": SOFTMAX_WEIGHT_TOL}

    def inputs(n: int, rng: np.random.Generator) -> dict:
        # a formula's theta' draws come right after it, before the next formula
        thetas = [[float(v) for v in rng.uniform(-3.0, 3.0, size=n)]
                  for _ in range(thetas_per_formula)]
        return {"thetas": thetas, **tols}

    return _sweep("realizability_softmax", n_max, formulas_per_n, seed, inputs,
                  thetas_per_formula=thetas_per_formula, **tols)


def _timed(fn) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def check_construction_scaling(seed: int = 0) -> SuiteResult:
    """Polynomial-time construction: exact universe sizes and log-log slopes.

    Universe block sizes are compared against their closed forms for every
    n up to the largest of ``SCALING_N_LIST``.  Wall times for universe
    enumeration, a full stage sweep of features, and all-stage weight
    construction are fitted with a log-log slope over ``SCALING_N_LIST``;
    a slope above its cap (``SCALING_SOFTMAX_SLOPE_MAX`` for the softmax
    weights, ``SCALING_GREEDY_SLOPE_MAX`` for the rest) fails.  The times
    and slopes go to ``measured``, out of ``canonical_json``, though a
    slope failure carries its times, to replay from.
    """
    n_list = list(SCALING_N_LIST)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    timings: dict[str, list[float]] = {"universe": [], "features": [], "greedy_weights": [], "softmax_weights": []}
    for n in n_list:
        formula = random_formula(n, rng)
        instance = build_mdp(formula)
        signs = tuple(int(v) for v in rng.integers(0, 2, size=n))
        g_params = PolicyParams.from_signs(signs)
        s_params = PolicyParams(tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=n)))

        timings["universe"].append(_timed(lambda: enumerate_universe(n)))

        def feature_sweep() -> None:
            for h in range(1, n + 1):
                state = (0,) * (h - 1) + (-1,) * (n - h + 1)
                ft.realizability_feature(instance, state, 0)

        timings["features"].append(_timed(feature_sweep))

        def greedy_sweep() -> None:
            ft._greedy_continuation.cache_clear()
            for h in range(1, n + 1):
                ft.greedy_weight(instance, g_params, h)

        timings["greedy_weights"].append(_timed(greedy_sweep))

        def softmax_sweep() -> None:
            ft._softmax_continuation.cache_clear()
            for h in range(1, n + 1):
                ft.softmax_weight(instance, s_params, h)

        timings["softmax_weights"].append(_timed(softmax_sweep))

    cases = [("universe_size", {"n": n}) for n in range(1, max(n_list) + 1)] + [
        ("slope", {"item": name, "n_list": n_list, "times_s": times,
                   "cap": SCALING_SOFTMAX_SLOPE_MAX if name == "softmax_weights"
                   else SCALING_GREEDY_SLOPE_MAX})
        for name, times in timings.items()
    ]
    params = {
        "n_list": n_list,
        "greedy_slope_max": SCALING_GREEDY_SLOPE_MAX,
        "softmax_slope_max": SCALING_SOFTMAX_SLOPE_MAX,
        "size_check_max": max(n_list),
    }
    result = _run("construction_scaling", cases, seed, params, started)
    result.measured = {
        "slopes": {name: _fit_slope(n_list, times) for name, times in timings.items()},
        "timings_s": timings,
    }
    return result


def _universe_size(n: int) -> tuple[int, list[dict]]:
    """The universe's clause count of each width is its closed form."""
    widths = (enumerate_universe(n).keys >= 0).sum(axis=1)
    counted = np.bincount(widths, minlength=4)[1:].tolist()
    closed_form = list(universe_block_sizes(n))
    return 1, [] if counted == closed_form else [
        {"kind": "universe_size", "counted": counted, "closed_form": closed_form}]


def _fit_slope(n_list: Sequence[int], times_s: Sequence[float]) -> float:
    """The least-squares slope of log(times_s) against log(n_list)."""
    return float(np.polyfit(np.log(n_list), np.log(times_s), 1)[0])


def _slope(item: str, n_list: list, times_s: list, cap: float) -> tuple[int, list[dict]]:
    """The log-log slope of the times measured for ``item`` over n_list is at most cap."""
    slope = _fit_slope(n_list, times_s)
    return 1, [{"kind": "slope", "slope": slope}] if slope > cap else []


def _planted_decision(formula: list, n: int, planted: list, i: int, delta: str,
                      epsilon: str) -> tuple[int, list[dict]]:
    """A planted (1 - delta + 2 epsilon)-satisfiable instance decides Yes, with a
    certificate an independent recount re-verifies; ``planted`` is recorded,
    not read."""
    cnf, d, eps = Formula.from_ints(n, formula), Fraction(delta), Fraction(epsilon)
    report = decide_max3sat(cnf, d, exact_solver, "greedy", eps)
    if not report.decision:
        return 1, [{"kind": "expected_yes", "achieved": frac_str(report.achieved_fraction)}]
    hit = sum(any((lit > 0) == (report.extracted[abs(lit) - 1] == 1) for lit in clause)
              for clause in formula)
    failures = []
    if Fraction(hit, len(formula)) != report.achieved_fraction:
        failures.append({"kind": "certificate_recount"})
    if Fraction(hit, len(formula)) < 1 - d:
        failures.append({"kind": "certificate_below_threshold"})
    if i < 10:
        # the sweep's optimum, through best_greedy and directly, against the
        # exact solver's, which is reached through generative queries alone
        _, best_value = best_greedy(build_mdp(cnf))
        ok, _, zmax = is_zeta_satisfiable(cnf, 1 - d + 2 * eps)
        if best_value != zmax or zmax != report.achieved_fraction or not ok:
            failures.append({"kind": "optimum_cross_check"})
    return 1, failures


def _contradiction(formula: list, n: int, delta: str, epsilon: str) -> tuple[int, list[dict]]:
    """x1 and not x1 achieve exactly 1/2, short of 1 - delta, so decide No."""
    report = decide_max3sat(Formula.from_ints(n, formula), Fraction(delta), exact_solver,
                            "greedy", Fraction(epsilon))
    if report.decision or report.achieved_fraction != Fraction(1, 2):
        return 1, [{"kind": "expected_no", "achieved": frac_str(report.achieved_fraction)}]
    return 1, []


def _greedy_bound(delta: str, expected: str) -> tuple[int, list[dict]]:
    """The greedy chain's epsilon bound at delta is ``expected``."""
    failed = epsilon_bound_greedy(Fraction(delta)) != Fraction(expected)
    return 1, [{"kind": "greedy_bound"}] if failed else []


def _tail_calibration(H: int, b: int, C: int, p0: float) -> tuple[int, list[dict]]:
    """The McDiarmid tail at the t calibrated for p0 is p0 again, within 1e-15."""
    failed = abs(mcdiarmid_tail(calibration_t(H, b, C, p0), H, b, C) - p0) > 1e-15
    return 1, [{"kind": "tail_calibration"}] if failed else []


def _softmax_decide(formula: list, n: int, delta: str, epsilon: str,
                    seed: int) -> tuple[int, list[dict]]:
    """Softmax decide with sampled extraction answers Yes, round mode reads theta'
    as greedy extraction does, and the sample is the seed's softmax episode leaf."""
    cnf, eps = Formula.from_ints(n, formula), Fraction(epsilon)
    inst = build_mdp(cnf)
    params = exact_solver(inst, partial(generative_query, inst), eps, "softmax")
    soft = decide_max3sat(cnf, Fraction(delta), exact_solver, "softmax", eps, seed=seed,
                          extraction_mode="sample")
    rounded = extract_assignment_softmax(params, n, mode="round")
    # both take one _draw_leaves episode at the seed: decide must pass its seed and mode on
    if (not soft.decision or rounded != extract_assignment_greedy(params, n)
            or soft.extracted != sample_trajectory(inst, params, seed).final):
        return 1, [{"kind": "softmax_decide", "achieved": frac_str(soft.achieved_fraction)}]
    return 1, []


def _empirical_tail(formula: list, n: int, theta: list, t: float, trials: int,
                    seed: int) -> tuple[int, list[dict]]:
    """The tail rate of ``trials`` softmax episodes at t is within the McDiarmid bound."""
    inst = build_mdp(Formula.from_ints(n, formula))
    emp, bound, ok = empirical_mcdiarmid(inst, PolicyParams(tuple(theta)), trials, t, seed)
    return 1, [] if ok else [{"kind": "empirical_tail", "empirical": emp, "bound": bound}]


def _softmax_budget(v_star: str, H: int, b: int, C: int, delta: str,
                    p0: float) -> tuple[int, list[dict]]:
    """The softmax chain's epsilon budget is positive."""
    budget = epsilon_bound_softmax(Fraction(v_star), H, b, C, Fraction(delta), p0)
    return 1, [] if budget > 0 else [{"kind": "softmax_bound_positivity", "budget": budget}]


# every suite's checks: JSON keyword inputs -> (cases, failures), each
# failure a dict with a "kind"; ``_run`` records each as {"check": name,
# **inputs, **found}, so the record alone replays it
_CHECKS: dict[str, Callable[..., tuple[int, list[dict]]]] = {
    "realizability_greedy": _realizability_greedy,
    "realizability_softmax": _realizability_softmax,
    "universe_size": _universe_size,
    "slope": _slope,
    "planted_decision": _planted_decision,
    "contradiction": _contradiction,
    "greedy_bound": _greedy_bound,
    "tail_calibration": _tail_calibration,
    "softmax_decide": _softmax_decide,
    "empirical_tail": _empirical_tail,
    "softmax_budget": _softmax_budget,
}


def check_reduction_roundtrip(
    count: int = 100,
    n: int = 10,
    delta: Fraction | float | str = Fraction(1, 10),
    epsilon: Fraction | float | str = Fraction(1, 20),
    seed: int = 0,
) -> SuiteResult:
    """Planted near-satisfiable instances all decide Yes with verified certificates.

    Instances are generated to be (1 - delta + 2 epsilon)-satisfiable, so
    the exact solver must answer Yes; each certificate is re-verified by an
    independent clause-by-clause recount.  A contradictory instance must
    answer No, and the bound helpers and both extraction modes are
    exercised on the side; each case is one call of a ``_CHECKS`` entry.
    ValueError when count is below 1, n exceeds the brute-force cap,
    epsilon exceeds delta/2 or delta is not below 1/2.
    """
    _require_positive(count=count)
    # before planting: the exact solver would refuse the first instance
    _check_cap("brute-force", "n", n, BRUTE_FORCE_CAP, ValueError)
    d, eps = as_fraction(delta), as_fraction(epsilon)
    if eps > d / 2:
        raise ValueError(f"roundtrip premise needs epsilon <= delta/2, got {eps} > {d / 2}")
    if d >= Fraction(1, 2):
        # the contradiction check needs its 1/2 to fall short of 1 - delta
        raise ValueError(f"roundtrip premise needs delta < 1/2, got {d}")
    started = time.perf_counter()
    zeta = 1 - d + 2 * eps
    chain = {"delta": frac_str(d), "epsilon": frac_str(eps)}
    cases = []
    for i in range(count):
        formula, planted = planted_instance(n, clause_count=3 * n, zeta=zeta, seed=seed + i)
        cases.append(("planted_decision", {**_formula_inputs(formula), "planted": list(planted),
                                           "i": i, **chain}))
    # a contradictory pair can never reach 1 - delta
    cases.append(("contradiction", {"formula": [[1], [-1]], "n": 1, **chain}))
    # side checks: bounds, extraction modes, concentration
    sample_formula, _ = planted_instance(n, clause_count=n, zeta=zeta, seed=seed + count,
                                         max_occurrences=3)
    sample = _formula_inputs(sample_formula)
    theta = [float(v) for v in np.random.default_rng(seed).uniform(-1, 1, size=n)]
    t = calibration_t(build_mdp(sample_formula).horizon, occurrence_bound(sample_formula),
                      sample_formula.clause_count, 0.125)
    # a formula whose budget is positive: satisfiable, so v* = 1, with
    # H = 65, b = 3 and C = 64, where delta = 9/20 leaves a budget of 0.065
    budget_formula, planted = planted_instance(64, 64, 1, seed=64, max_occurrences=3)
    cases += [
        ("greedy_bound", {"delta": "1/10", "expected": "1/20"}),
        ("tail_calibration", {"H": 13, "b": 3, "C": 12, "p0": 0.125}),
        ("softmax_decide", {**sample, **chain, "seed": seed}),
        ("empirical_tail", {**sample, "theta": theta, "t": t, "trials": 2000, "seed": seed}),
        ("softmax_budget", {
            "v_star": frac_str(satisfied_fraction(budget_formula, planted)),
            "H": build_mdp(budget_formula).horizon, "b": occurrence_bound(budget_formula),
            "C": budget_formula.clause_count, "delta": "9/20", "p0": 0.125,
        }),
    ]
    return _run("reduction_roundtrip", cases, seed, {"count": count, "n": n, **chain}, started)


SUITES = {
    "greedy": check_realizability_greedy,
    "softmax": check_realizability_softmax,
    "scaling": check_construction_scaling,
    "roundtrip": check_reduction_roundtrip,
}


def run_suites(names: Sequence[str], overrides: dict | None = None) -> list[SuiteResult]:
    """Run the named suites with optional per-suite keyword overrides.

    Every name is checked before any suite runs.
    """
    overrides = overrides or {}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return [SUITES[name](**overrides.get(name, {})) for name in names]
