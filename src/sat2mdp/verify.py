"""Named verification suites with machine-readable results.

Each suite sweeps a seeded family of random instances and records every
violated identity with enough inputs to reproduce it.  Suites are
deterministic given their seed; failures are sorted canonically before
serialization so result JSON is stable (wall time is reported separately
and excluded from the canonical form).

The realizability feature phi(s, a) depends on the formula alone and only
the weight depends on the policy, so the greedy and softmax suites build
phi once per formula (``_feature_cells``) and check that one table against
every policy's weight.  For the greedy class that check is one identity of
integer numerators per formula, Q = 1 b^T + M Y^T over every (sign
pattern, cell) pair: Q is read from the formula's table of 2^n leaf counts
(``cnf.leaf_counts``), b and Y stack phi's satisfied counts and undecided
multiplicities, and M stacks every pattern's stage weight.  Fractions are
built only for the failures recorded, and the look-ahead check reads each
leaf's reward once per formula and compares it with q as integers.  The
scalar evaluators (``policies.eval_q_greedy``, ``RealizabilityFeature.dot``)
are held to the same table by the tests.

For the softmax class only the probabilities depend on theta': each cell's
prefix is split once per formula, the probability vector is built once per
theta' draw, and each cell's q is ``policies.softmax_q_of_split`` of the
two, the evaluator ``eval_q_softmax`` runs.  Every theta' of a formula is
drawn before its checks, and the enumeration-defined weight oracle
(``softmax_weights_by_enumeration``) runs once per (formula, h) over all of
the formula's draws: which clauses a continuation satisfies does not depend
on theta', only its probability does.  The trajectory-enumeration oracle at
the root still runs per draw, and each root leaf's reward is read once per
formula.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Sequence

import numpy as np

from . import features as ft
from .cnf import (
    BRUTE_FORCE_CAP,
    ENUMERATION_CAP,
    Formula,
    enumerate_universe,
    is_zeta_satisfiable,
    leaf_counts,
    occurrence_bound,
    universe_block_sizes,
)
from .features import PolicyParams, f_threshold, greedy_action
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
    gap3sat_to_delta_b,
    mcdiarmid_tail,
    planted_instance,
)

# Largest n_max each exhaustive suite accepts: the greedy sweep is O(4^n)
# per formula, and the softmax suite's weight oracle enumerates 2^(n-h)
# continuations per stage on top of that.
GREEDY_SUITE_N_MAX = 8
SOFTMAX_SUITE_N_MAX = 5


@dataclass
class SuiteResult:
    suite: str
    cases: int
    failures: list[dict]
    seed: int | None
    params: dict
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def sorted_failures(self) -> list[dict]:
        return sorted(self.failures, key=lambda f: json.dumps(f, sort_keys=True, default=str))

    def to_json(self, include_wall_time: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.sorted_failures(),
            "seed": self.seed,
            "params": self.params,
            "passed": self.passed,
        }
        if include_wall_time:
            out["wall_time_s"] = round(self.wall_time, 6)
        return out

    def canonical_json(self) -> str:
        """Byte-stable serialization: canonical failure order, no timing."""
        return json.dumps(self.to_json(include_wall_time=False), sort_keys=True, default=str)


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
    return Formula.from_ints(n, clauses)


def _require_positive(**counts: int) -> None:
    """ValueError for a sweep size below 1: a suite that checks nothing must not pass."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _require_tolerance(**tolerances: float) -> None:
    """ValueError unless each tolerance is finite and >= 0: a NaN or infinite
    one would switch its check off."""
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


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


def _greedy_formula_failures(formula: Formula) -> tuple[int, list[dict]]:
    """(cases, failures) of the greedy checks on one formula, every sign pattern.

    Row p of each matrix below is the pattern whose bits spell p, x1
    first; column c is the c-th cell of ``_feature_cells``.  ``q`` holds C
    times each q (``_q_numerators``); ``dots`` holds C times each
    <phi, w>, 1 b^T + M Y^T stage by stage, where b and Y are the cells'
    satisfied counts and undecided multiplicities and row p of M is
    pattern p's stage weight.
    """
    n, C = formula.n, formula.clause_count
    instance = build_mdp(formula)
    cells = _feature_cells(instance)
    b = np.array([phi.b for *_, phi in cells], dtype=np.int64)
    y = np.zeros((len(cells), instance.d - 1), dtype=np.int64)
    for c, (*_, phi) in enumerate(cells):
        for idx, mult in phi.y_counts.items():
            y[c, idx] = mult
    patterns = list(product((0, 1), repeat=n))
    params_of = [PolicyParams.from_signs(bits) for bits in patterns]
    q = _q_numerators(formula)
    dots = np.empty_like(q)
    for h in range(1, n + 1):
        cols = slice(2**h - 2, 2 ** (h + 1) - 2)
        m = np.stack([ft.greedy_weight(instance, params, h).m_dense() for params in params_of])
        dots[:, cols] = b[cols] + m @ y[cols].T
    clauses = formula.to_json()["clauses"]
    failures: list[dict] = []

    def fail(p: int, kind: str, c: int | None = None, **extra) -> None:
        record = {"formula": clauses, "n": n, "signs": list(patterns[p])}
        if c is not None:
            state, _, action, _ = cells[c]
            record |= {"state": list(state), "action": action}
        failures.append({**record, "kind": kind, **extra})

    passed = q == dots
    for p, c in zip(*np.nonzero(~passed)):
        fail(p, "dot_mismatch", c, q=frac_str(Fraction(int(q[p, c]), C)),
             dot=frac_str(Fraction(int(dots[p, c]), C)))
    # last decision stage: no undecided clause is left, so
    # q = (b + <y, m>) / C reduces to b / C
    last = 2**n - 2
    for p, c in zip(*np.nonzero(passed[:, last:] & (q[:, last:] != b[last:]))):
        fail(p, "last_stage_form", last + c)
    # telescoping: consecutive cells of the greedy trajectory from the root
    # have the same inner product b + <y, m>; pattern p's stage-h cell has
    # prefix-and-action bits p >> (n - h)
    stages = np.arange(1, n + 1)
    rows = np.arange(len(patterns))[:, None]
    trace = dots[rows, 2**stages - 2 + (rows >> (n - stages))]
    for p, i in zip(*np.nonzero(trace[:, :-1] != trace[:, 1:])):
        fail(p, "telescoping", h=int(i) + 2)
    # one stage out, q must equal the look-ahead leaf reward (stage n - 1
    # has no cells when n = 1), read once per distinct leaf and kept as the
    # integers (C * numerator, denominator), so that q = q_row[c] / C equals
    # it exactly when q_row[c] * denominator == C * numerator; the tie rules
    # are checked per pattern too
    penultimate = range(max(0, 2 ** (n - 1) - 2), last)
    leaf_rewards: dict[State, tuple[int, int]] = {}
    for p, (params, q_row, passed_row) in enumerate(zip(params_of, q.tolist(), passed.tolist())):
        for h in range(1, n + 1):
            if greedy_action(h, params) != f_threshold(params, h):
                fail(p, "tie_rule_mismatch", h=h)
        for c in penultimate:
            if passed_row[c]:
                state, _, action, _ = cells[c]
                leaf = ft.lookahead_state(state, action, params)
                if leaf not in leaf_rewards:
                    r = reward(instance, leaf)
                    leaf_rewards[leaf] = (r.numerator * C, r.denominator)
                num, den = leaf_rewards[leaf]
                if q_row[c] * den != num:
                    fail(p, "lookahead_form", c)
    # per pattern: n tie-rule checks, one per cell, n - 1 telescoping steps
    return len(patterns) * (2 * n - 1 + len(cells)), failures


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
    formula; row p of M is pattern p's stage weight.  The final two stages
    are additionally checked against their closed forms, the telescoping
    identity is checked along each greedy trajectory, and the two
    tie-breaking rules are checked to agree.  ValueError when n_max or
    formulas_per_n is below 1 or n_max is above the cap.
    """
    _require_positive(n_max=n_max, formulas_per_n=formulas_per_n)
    if n_max > GREEDY_SUITE_N_MAX:
        raise ValueError(f"full greedy sweep is O(4^n); n_max={n_max} > {GREEDY_SUITE_N_MAX}")
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    cases = 0
    for n in range(1, n_max + 1):
        for _ in range(formulas_per_n):
            formula_cases, formula_failures = _greedy_formula_failures(
                random_formula(n, rng, max_occurrences=3)
            )
            cases += formula_cases
            failures += formula_failures
    return SuiteResult(
        suite="realizability_greedy",
        cases=cases,
        failures=failures,
        seed=seed,
        params={"n_max": n_max, "formulas_per_n": formulas_per_n, "tolerance": 0},
        wall_time=time.perf_counter() - started,
    )


def softmax_weights_by_enumeration(
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
    if n - h > ENUMERATION_CAP:
        raise MdpError(f"{n - h} free stages exceed the enumeration cap {ENUMERATION_CAP}")
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


def softmax_weight_by_enumeration(
    instance: MdpInstance, params: PolicyParams, h: int
) -> tuple[float, np.ndarray]:
    """(head, m) of one policy's stage-h weight from the definition: the
    batch of one of ``softmax_weights_by_enumeration``.  MdpError above
    ``ENUMERATION_CAP`` free stages."""
    heads, m = softmax_weights_by_enumeration(instance, [params], h)
    return heads.item(0), m[0]


def check_realizability_softmax(
    n_max: int = 5,
    formulas_per_n: int = 10,
    thetas_per_formula: int = 50,
    tol: float = 1e-9,
    weight_tol: float = 1e-12,
    seed: int = 0,
) -> SuiteResult:
    """Linear realizability of softmax q-values plus the weight-definition check.

    q (per-clause probability path) must match the feature/weight inner
    product within tol on every non-terminal cell, and the closed-form
    weights must match the enumeration-defined weights within weight_tol.
    The features, each cell's split and each root leaf's reward are built
    once per formula; the probability vector is built once per theta' draw
    and scores every cell's q from its split.  ValueError when n_max,
    formulas_per_n or thetas_per_formula is below 1, n_max is above the cap,
    or tol or weight_tol is not finite and >= 0.
    """
    _require_positive(
        n_max=n_max, formulas_per_n=formulas_per_n, thetas_per_formula=thetas_per_formula
    )
    _require_tolerance(tol=tol, weight_tol=weight_tol)
    if n_max > SOFTMAX_SUITE_N_MAX:
        raise ValueError(
            f"trajectory-sum oracle is exponential; n_max={n_max} > {SOFTMAX_SUITE_N_MAX}"
        )
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    cases = 0
    for n in range(1, n_max + 1):
        for _ in range(formulas_per_n):
            formula = random_formula(n, rng, max_occurrences=3)
            instance = build_mdp(formula)
            cells = _feature_cells(instance)
            # the split of each cell's checked step prefix, as eval_q_softmax takes it
            splits = [
                formula.split(step(instance, state, action)[1][:h])
                for state, h, action, _ in cells
            ]
            root_rewards: dict[State, float] = {}
            clauses = formula.to_json()["clauses"]
            # every draw of the formula first: the suite draws nothing else
            # inside a formula, so the generator's order is unchanged
            thetas = [
                tuple(float(v) for v in rng.uniform(-3.0, 3.0, size=n))
                for _ in range(thetas_per_formula)
            ]
            batch = [PolicyParams(theta) for theta in thetas]
            weights = [
                {h: ft.softmax_weight(instance, params, h) for h in range(1, n + 1)}
                for params in batch
            ]
            repros = [{"formula": clauses, "n": n, "theta": list(theta)} for theta in thetas]
            # the weight-definition check, one oracle run per stage over every draw
            for h in range(1, n + 1):
                cases += len(batch)
                heads, m_oracle = softmax_weights_by_enumeration(instance, batch, h)
                closed = np.stack([w[h].m_dense() for w in weights])
                diffs = np.max(np.abs(closed - m_oracle), axis=1)
                for repro, head, diff in zip(repros, heads.tolist(), diffs.tolist()):
                    if abs(head - 1.0) > weight_tol:
                        failures.append({**repro, "h": h, "kind": "head_sum", "head": head})
                    if diff > weight_tol:
                        failures.append({**repro, "h": h, "kind": "weight_oracle", "max_diff": diff})
            for repro, params, w in zip(repros, batch, weights):
                root = (-1,) * n
                for action in ACTIONS:
                    cases += 1
                    dp = eval_q_softmax(instance, params, root, action)
                    brute = 0.0
                    for traj in enumerate_trajectories(instance, params, root, action):
                        if traj.final not in root_rewards:
                            root_rewards[traj.final] = float(reward(instance, traj.final))
                        brute += traj.probability * root_rewards[traj.final]
                    if abs(dp - brute) > weight_tol:
                        failures.append(
                            {**repro, "action": action, "kind": "dp_vs_enumeration",
                             "dp": dp, "enumeration": brute}
                        )
                for (state, h, action, phi), split in zip(cells, splits):
                    cases += 1
                    q = softmax_q_of_split(split, params.softmax_probs, formula.clause_count)
                    got = phi.dot(w[h])
                    if abs(q - got) > tol:
                        failures.append(
                            {
                                **repro,
                                "state": list(state),
                                "action": action,
                                "kind": "dot_mismatch",
                                "q": q,
                                "dot": got,
                            }
                        )
    return SuiteResult(
        suite="realizability_softmax",
        cases=cases,
        failures=failures,
        seed=seed,
        params={
            "n_max": n_max,
            "formulas_per_n": formulas_per_n,
            "thetas_per_formula": thetas_per_formula,
            "tol": tol,
            "weight_tol": weight_tol,
        },
        wall_time=time.perf_counter() - started,
    )


def _timed(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def check_construction_scaling(
    n_list: Sequence[int] = (5, 10, 20, 40),
    greedy_slope_max: float = 3.5,
    softmax_slope_max: float = 4.5,
    size_check_max: int = 40,
    seed: int = 0,
) -> SuiteResult:
    """Polynomial-time construction: exact universe sizes and log-log slopes.

    Universe block sizes are compared against their closed forms for every
    n up to size_check_max.  Wall times for universe enumeration, a full
    stage sweep of features, and all-stage weight construction are fitted
    with a log-log slope over n_list; slopes above the caps fail.
    ValueError unless both caps are finite and >= 0.
    """
    _require_tolerance(greedy_slope_max=greedy_slope_max, softmax_slope_max=softmax_slope_max)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    cases = 0
    for n in range(1, size_check_max + 1):
        cases += 1
        widths = (enumerate_universe(n).keys >= 0).sum(axis=1)
        by_len = np.bincount(widths, minlength=4)[1:].tolist()
        if tuple(by_len) != universe_block_sizes(n):
            failures.append(
                {"n": n, "kind": "universe_size", "counted": by_len,
                 "closed_form": list(universe_block_sizes(n))}
            )

    timings: dict[str, list[float]] = {"universe": [], "features": [], "greedy_weights": [], "softmax_weights": []}
    for n in n_list:
        formula = random_formula(n, rng, max_occurrences=3, clause_count=n)
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

    slopes: dict[str, float] = {}
    log_n = np.log(np.asarray(n_list, dtype=float))
    for name, times in timings.items():
        cases += 1
        slope = float(np.polyfit(log_n, np.log(np.asarray(times)), 1)[0])
        slopes[name] = slope
        cap = softmax_slope_max if name == "softmax_weights" else greedy_slope_max
        if slope > cap:
            failures.append(
                {"kind": "slope", "item": name, "slope": slope, "cap": cap,
                 "times_s": times}
            )
    return SuiteResult(
        suite="construction_scaling",
        cases=cases,
        failures=failures,
        seed=seed,
        params={
            "n_list": list(n_list),
            "greedy_slope_max": greedy_slope_max,
            "softmax_slope_max": softmax_slope_max,
            "size_check_max": size_check_max,
            "slopes": slopes,
            "timings_s": timings,
        },
        wall_time=time.perf_counter() - started,
    )


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
    exercised on the side.  ValueError when count is below 1, n exceeds
    the brute-force cap, epsilon exceeds delta/2 or delta is not below 1/2.
    """
    _require_positive(count=count)
    if n > BRUTE_FORCE_CAP:
        # before planting: the exact solver would refuse the first instance
        raise ValueError(f"brute-force cap exceeded: n={n} > {BRUTE_FORCE_CAP}")
    d, eps = as_fraction(delta), as_fraction(epsilon)
    if eps > d / 2:
        raise ValueError(f"roundtrip premise needs epsilon <= delta/2, got {eps} > {d / 2}")
    if d >= Fraction(1, 2):
        # the contradiction check needs its 1/2 to fall short of 1 - delta
        raise ValueError(f"roundtrip premise needs delta < 1/2, got {d}")
    started = time.perf_counter()
    failures: list[dict] = []
    cases = 0
    zeta = 1 - d + 2 * eps
    for i in range(count):
        cases += 1
        formula, planted = planted_instance(n, clause_count=3 * n, zeta=zeta, seed=seed + i)
        report = decide_max3sat(formula, d, exact_solver, "greedy", eps)
        repro = {"formula": formula.to_json()["clauses"], "planted": list(planted), "i": i,
                 "delta": frac_str(d), "epsilon": frac_str(eps)}
        if not report.decision:
            failures.append({**repro, "kind": "expected_yes",
                             "achieved": frac_str(report.achieved_fraction)})
            continue
        # independent recount of the certificate
        hit = 0
        for clause in formula.clauses:
            for lit in clause.to_ints():
                v = report.extracted[abs(lit) - 1]
                if (lit > 0 and v == 1) or (lit < 0 and v == 0):
                    hit += 1
                    break
        if Fraction(hit, formula.clause_count) != report.achieved_fraction:
            failures.append({**repro, "kind": "certificate_recount"})
        if Fraction(hit, formula.clause_count) < 1 - d:
            failures.append({**repro, "kind": "certificate_below_threshold"})
        if i < 10:
            # the sweep's optimum, through best_greedy and directly, against the
            # exact solver's, which is reached through generative queries alone
            _, best_value = best_greedy(build_mdp(formula))
            ok, _, zmax = is_zeta_satisfiable(formula, zeta)
            if best_value != zmax or zmax != report.achieved_fraction or not ok:
                failures.append({**repro, "kind": "optimum_cross_check"})

    # a contradictory pair can never reach 1 - delta
    cases += 1
    contradiction = Formula.from_ints(1, [[1], [-1]])
    report = decide_max3sat(contradiction, d, exact_solver, "greedy", eps)
    if report.decision or report.achieved_fraction != Fraction(1, 2):
        failures.append({"kind": "expected_no", "formula": contradiction.to_json()["clauses"]})

    # side checks: bounds, transforms, extraction modes, concentration
    cases += 1
    if epsilon_bound_greedy(Fraction(1, 10)) != Fraction(1, 20):
        failures.append({"kind": "greedy_bound"})
    cases += 1
    t8 = calibration_t(13, 3, 12, 0.125)
    if abs(mcdiarmid_tail(t8, 13, 3, 12) - 0.125) > 1e-15:
        failures.append({"kind": "tail_calibration"})
    cases += 1
    sample_formula, _ = planted_instance(
        n, clause_count=n, zeta=zeta, seed=seed + count, max_occurrences=3
    )
    if gap3sat_to_delta_b(sample_formula, 3, eps / 2, d).clauses != sample_formula.clauses:
        failures.append({"kind": "gap_transform_identity"})
    cases += 1
    inst = build_mdp(sample_formula)
    soft_params = exact_solver(inst, partial(generative_query, inst), eps, "softmax")
    soft = decide_max3sat(sample_formula, d, exact_solver, "softmax", eps, seed=seed,
                          extraction_mode="sample")
    rounded = extract_assignment_softmax(soft_params, n, mode="round")
    # sampled extraction draws as one softmax episode does, so it is that episode's leaf
    sampled_leaf = sample_trajectory(inst, soft_params, seed).final
    if (not soft.decision or rounded != extract_assignment_greedy(soft_params, n)
            or soft.extracted != sampled_leaf):
        failures.append({"kind": "softmax_decide", "formula": sample_formula.to_json()["clauses"],
                         "n": n, "delta": frac_str(d), "epsilon": frac_str(eps), "seed": seed,
                         "achieved": frac_str(soft.achieved_fraction)})
    cases += 1
    params = PolicyParams(tuple(float(v) for v in np.random.default_rng(seed).uniform(-1, 1, size=n)))
    t = calibration_t(inst.horizon, occurrence_bound(sample_formula),
                      sample_formula.clause_count, 0.125)
    emp, bound, ok = empirical_mcdiarmid(inst, params, trials=2000, t=t, seed=seed)
    if not ok:
        # the call's inputs, so the record replays it on its own
        failures.append({"kind": "empirical_tail", "formula": sample_formula.to_json()["clauses"],
                         "n": n, "theta": list(params.theta_prime), "t": t, "trials": 2000,
                         "seed": seed, "empirical": emp, "bound": bound})
    cases += 1
    if epsilon_bound_softmax(1.0, 4, 2, 200, 0.1, 0.125) <= 0:
        failures.append({"kind": "softmax_bound_positivity"})

    return SuiteResult(
        suite="reduction_roundtrip",
        cases=cases,
        failures=failures,
        seed=seed,
        params={"count": count, "n": n, "delta": frac_str(d), "epsilon": frac_str(eps)},
        wall_time=time.perf_counter() - started,
    )


# which suites reach which operations, [] for none; a test runs every suite
# with a call counter on each op and asserts this map exactly
SUITE_COVERAGE: dict[str, list[str]] = {
    "features.psp_feature": [],
    "features.greedy_action": [
        "realizability_greedy", "construction_scaling", "reduction_roundtrip"
    ],
    "features.f_threshold": ["realizability_greedy"],
    "features.softmax_prob": [
        "realizability_softmax", "construction_scaling", "reduction_roundtrip"
    ],
    "features.realizability_feature": [
        "realizability_greedy", "realizability_softmax", "construction_scaling"
    ],
    "features.greedy_weight": ["realizability_greedy", "construction_scaling"],
    "features.softmax_weight": ["realizability_softmax", "construction_scaling"],
    "features.lookahead_state": ["realizability_greedy"],
    "policies.eval_q_greedy": [],
    "policies.eval_q_softmax": ["realizability_softmax", "reduction_roundtrip"],
    "policies.softmax_q_of_split": ["realizability_softmax", "reduction_roundtrip"],
    "policies.enumerate_trajectories": ["realizability_softmax"],
    "policies.best_greedy": ["reduction_roundtrip"],
    "policies.sample_trajectory": ["reduction_roundtrip"],
    "reduction.extract_assignment_greedy": ["reduction_roundtrip"],
    "reduction.extract_assignment_softmax": ["reduction_roundtrip"],
    "reduction.decide_max3sat": ["reduction_roundtrip"],
    "reduction.epsilon_bound_greedy": ["reduction_roundtrip"],
    "reduction.mcdiarmid_tail": ["reduction_roundtrip"],
    "reduction.epsilon_bound_softmax": ["reduction_roundtrip"],
    "reduction.gap3sat_to_delta_b": ["reduction_roundtrip"],
    "reduction.empirical_mcdiarmid": ["reduction_roundtrip"],
}

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
