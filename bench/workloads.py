"""The three workloads, their inputs and their output oracles.

A workload is set up once from the workload seed, then run as rounds.
A round is a fixed list of ops, one per (size, command) pair, so every
whole round has the same mix of op kinds; round r uses instance r mod
POOL of each size.  Each op is a callable that does the measured work and
a check that validates its output with code that does not come from
``sat2mdp``: clauses are recounted from their signed-integer lists, and
sizes and case counts come from closed forms computed here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from sat2mdp import cli, features, mdp, policies, reduction, verify

DELTA = Fraction(1, 10)
EPSILON = Fraction(1, 20)
ZETA = 1 - DELTA + 2 * EPSILON
POOL = 4  # instances per size; the last one of each size is a known No in decide-planted
SOFTMAX_TOL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # error message, or None when correct
    decision_n: int | None = None  # n of a decide op, whose query count is asserted


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def _seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


# -- independent oracles -------------------------------------------------------

def read_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Variable count and signed-integer clauses of a DIMACS CNF text."""
    n = 0
    clauses: list[list[int]] = []
    pending: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line[0] in "c%":
            continue
        if line[0] == "p":
            n = int(line.split()[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit:
                pending.append(lit)
            else:
                clauses.append(pending)
                pending = []
    return n, clauses


def _lit_true(lit: int, value: int) -> bool:
    return value == (1 if lit > 0 else 0)


def count_satisfied(clauses: list[list[int]], assignment) -> int:
    return sum(1 for c in clauses if any(_lit_true(l, assignment[abs(l) - 1]) for l in c))


def prefix_counts(clauses: list[list[int]], prefix) -> tuple[int, int]:
    """(satisfied, undecided) clause instances under an assigned prefix."""
    h = len(prefix)
    sat = undecided = 0
    for c in clauses:
        if any(abs(l) <= h and _lit_true(l, prefix[abs(l) - 1]) for l in c):
            sat += 1
        elif any(abs(l) > h for l in c):
            undecided += 1
    return sat, undecided


def universe_dimension(n: int) -> int:
    """d = 1 + 2n + C(2n,2) - n + C(2n,3) - 2n^2 + 2n."""
    return 1 + 2 * n + math.comb(2 * n, 2) - n + math.comb(2 * n, 3) - 2 * n * n + 2 * n


def greedy_slice_cases(n_max: int) -> int:
    return sum(2**n * (2 * n - 1 + 2 * (2**n - 1)) for n in range(1, n_max + 1))


def softmax_slice_cases(n_max: int, thetas: int) -> int:
    return thetas * sum(n + 2 ** (n + 1) for n in range(1, n_max + 1))


def _planted(n: int, seed: int) -> list[list[int]]:
    formula, _ = reduction.planted_instance(n, 3 * n, ZETA, seed=seed)
    return [c.to_ints() for c in formula.clauses]


# -- decide-planted ------------------------------------------------------------

class DecidePlanted:
    """In-process CLI calls: decide (greedy), decide (softmax, sampled), solve."""

    name = "decide-planted"
    sizes = (8, 10, 12)
    round_s = 1.9  # one round on the seed code, 2-core Xeon at 2.0 GHz, when contended

    def setup(self, seed: int, workdir: Path) -> None:
        self.instances: dict[tuple[int, int], tuple[Path, bool, Fraction]] = {}
        for n in self.sizes:
            for i in range(POOL):
                clauses = _planted(n, _seed(seed, n, i))
                yes = i < POOL - 1
                if yes:
                    optimum = Fraction(1)  # zeta = 1: the planted assignment satisfies all
                else:
                    # each pair (x_v), (~x_v) has exactly one satisfied clause, so
                    # the optimum is (C + k) / (C + 2k), below 1 - delta once k > C/8
                    base = len(clauses)
                    k = base // 8 + 1
                    for v in range(1, k + 1):
                        clauses += [[v], [-v]]
                    optimum = Fraction(base + k, base + 2 * k)
                    assert optimum < 1 - DELTA
                path = workdir / f"decide-{n}-{i}.cnf"
                body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
                path.write_text(f"p cnf {n} {len(clauses)}\n" + body)
                self.instances[(n, i)] = (path, yes, optimum)

    def round(self, r: int) -> list[Op]:
        ops = []
        common = ["--delta", str(DELTA), "--epsilon", str(EPSILON)]
        for n in self.sizes:
            path, yes, optimum = self.instances[(n, r % POOL)]
            commands = {
                "decide-greedy": ["decide", str(path), *common, "--class", "greedy"],
                "decide-softmax": ["decide", str(path), *common, "--class", "softmax",
                                   "--mode", "sample", "--seed", str(r)],
                "solve": ["solve", str(path)],
            }
            for label, argv in commands.items():
                is_decide = label != "solve"
                ops.append(Op(
                    label=f"{label}-n{n}",
                    run=lambda argv=argv: _run_cli(argv),
                    check=(lambda out, p=path, y=yes: _check_decide(out, p, y)) if is_decide
                    else (lambda out, p=path, o=optimum: _check_solve(out, p, o)),
                    decision_n=n if is_decide else None,
                ))
        return ops


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_decide(result: tuple[int, str], path: Path, yes: bool) -> str | None:
    code, stdout = result
    if code != (0 if yes else 1):
        return f"exit code {code}, expected {'Yes' if yes else 'No'}"
    report = json.loads(stdout)
    if report["decision"] != ("Yes" if yes else "No"):
        return f"decision {report['decision']} contradicts exit code"
    _, clauses = read_dimacs(path.read_text())
    recount = Fraction(count_satisfied(clauses, report["extracted"]), len(clauses))
    if recount != Fraction(report["achieved_fraction"]):
        return f"achieved_fraction {report['achieved_fraction']} but recount gives {recount}"
    if yes and recount < 1 - DELTA:
        return f"Yes certificate satisfies only {recount}"
    return None


def _check_solve(result: tuple[int, str], path: Path, optimum: Fraction) -> str | None:
    code, stdout = result
    if code != 0:
        return f"exit code {code}"
    report = json.loads(stdout)
    _, clauses = read_dimacs(path.read_text())
    recount = Fraction(count_satisfied(clauses, report["assignment"]), len(clauses))
    if not recount == Fraction(report["value"]) == optimum:
        return f"value {report['value']}, recount {recount}, known optimum {optimum}"
    return None


# -- compile-large -------------------------------------------------------------

class CompileLarge:
    """build_mdp plus features, weights and q = phi.w at every stage."""

    name = "compile-large"
    sizes = (20, 30, 40)
    round_s = 2.2

    def setup(self, seed: int, workdir: Path) -> None:
        self.instances = {}
        for n in self.sizes:
            for i in range(POOL):
                formula, _ = reduction.planted_instance(n, 3 * n, ZETA, seed=_seed(seed, n, i))
                rng = _rng(seed, n, i, 1)
                signs = [int(v) for v in rng.integers(0, 2, size=n)]
                theta = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=n))
                self.instances[(n, i)] = (formula, signs, theta)

    def round(self, r: int) -> list[Op]:
        ops = []
        for n in self.sizes:
            formula, signs, theta = self.instances[(n, r % POOL)]
            ops.append(Op(
                label=f"compile-n{n}",
                run=lambda f=formula, g=signs, t=theta: self._compile(f, g, t),
                check=lambda rows, f=formula, g=signs: self._check(rows, f, g),
            ))
        return ops

    @staticmethod
    def _compile(formula, signs, theta) -> tuple[int, list[tuple]]:
        """d, and per (stage, action) on the greedy path: feature counts, q and dots."""
        n = formula.n
        instance = mdp.build_mdp(formula)
        greedy = features.PolicyParams.from_signs(signs)
        softmax = features.PolicyParams(theta)
        rows = []
        state = (-1,) * n
        for h in range(1, n + 1):
            gw = features.greedy_weight(instance, greedy, h)
            sw = features.softmax_weight(instance, softmax, h)
            for action in (0, 1):
                phi = features.realizability_feature(instance, state, action)
                rows.append((
                    phi.b, phi.y_sum,
                    policies.eval_q_greedy(instance, greedy, state, action), phi.dot(gw),
                    policies.eval_q_softmax(instance, softmax, state, action), phi.dot(sw),
                ))
            state = state[: h - 1] + (signs[h - 1],) + state[h:]
        return instance.d, rows

    @staticmethod
    def _check(result, formula, signs) -> str | None:
        d, rows = result
        n = formula.n
        if d != universe_dimension(n):
            return f"d={d}, closed form {universe_dimension(n)}"
        clauses = [c.to_ints() for c in formula.clauses]
        C = len(clauses)
        for i, (b, y_sum, q, dot_g, q_s, dot_s) in enumerate(rows):
            h, action = i // 2 + 1, i % 2
            prefix = tuple(signs[: h - 1]) + (action,)
            if (b, y_sum) != prefix_counts(clauses, prefix):
                return f"h={h} a={action}: feature counts {(b, y_sum)} != recount"
            leaf = prefix + tuple(signs[h:])
            if not q == dot_g == Fraction(count_satisfied(clauses, leaf), C):
                return f"h={h} a={action}: greedy q={q} dot={dot_g}"
            if not abs(q_s - dot_s) <= SOFTMAX_TOL:
                return f"h={h} a={action}: softmax q={q_s!r} dot={dot_s!r}"
        return None


# -- verify-sweep --------------------------------------------------------------

class VerifySweep:
    """One seed's slice of the acceptance sweeps per op."""

    name = "verify-sweep"
    round_s = 0.75
    greedy_n_max = 6
    softmax_n_max = 5
    thetas = 10
    tail_n = 10
    trials = 2000
    p0 = 0.125

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.tail = []
        for i in range(POOL):
            formula, _ = reduction.planted_instance(
                self.tail_n, 3 * self.tail_n, ZETA, seed=_seed(seed, self.tail_n, i))
            theta = tuple(float(v) for v in _rng(seed, i, 2).uniform(-1.0, 1.0, size=self.tail_n))
            self.tail.append((formula, theta))

    def round(self, r: int) -> list[Op]:
        s = _seed(self.seed, r, 3)
        formula, theta = self.tail[r % POOL]
        return [Op(label="slice",
                   run=lambda: self._slice(formula, theta, s),
                   check=lambda res: self._check_slice(res, formula))]

    def _slice(self, formula, theta, seed: int) -> tuple:
        greedy = verify.check_realizability_greedy(
            n_max=self.greedy_n_max, formulas_per_n=1, seed=seed)
        softmax = verify.check_realizability_softmax(
            n_max=self.softmax_n_max, formulas_per_n=1, thetas_per_formula=self.thetas, seed=seed)
        instance = mdp.build_mdp(formula)
        _, _, t = self._calibration([c.to_ints() for c in formula.clauses])
        tail = reduction.empirical_mcdiarmid(
            instance, features.PolicyParams(theta), trials=self.trials, t=t, seed=seed)
        return greedy, softmax, tail

    def _check_slice(self, result, formula) -> str | None:
        greedy, softmax, tail = result
        return (_check_suite(greedy, greedy_slice_cases(self.greedy_n_max))
                or _check_suite(softmax, softmax_slice_cases(self.softmax_n_max, self.thetas))
                or self._check_tail(tail, formula))

    def _calibration(self, clauses: list[list[int]]) -> tuple[int, int, float]:
        """(C, b, t): clause count, occurrence bound and the p0 calibration point."""
        C, H = len(clauses), self.tail_n + 1
        b = max(sum(1 for c in clauses for l in c if abs(l) == v)
                for v in range(1, self.tail_n + 1))
        return C, b, (b / C) * math.sqrt(H * math.log(1.0 / self.p0) / 2.0)

    def _check_tail(self, result, formula) -> str | None:
        empirical, bound, passed = result
        C, b, t = self._calibration([c.to_ints() for c in formula.clauses])
        H = self.tail_n + 1
        expected = math.exp(-2.0 * t * t * C * C / (H * b * b))
        slack = 3.0 * math.sqrt(expected * (1.0 - expected) / self.trials)
        if not math.isclose(bound, expected, rel_tol=1e-12):
            return f"bound {bound!r}, closed form {expected!r}"
        if not (passed and 0.0 <= empirical <= expected + slack):
            return f"tail check failed: empirical {empirical}, bound {bound}"
        return None


def _check_suite(result, cases: int) -> str | None:
    if not result.passed:
        return f"{result.suite}: {len(result.failures)} failures"
    if result.cases != cases:
        return f"{result.suite}: {result.cases} cases, analytic count {cases}"
    return None


WORKLOADS = {w.name: w for w in (DecidePlanted, CompileLarge, VerifySweep)}
