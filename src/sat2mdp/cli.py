"""Command-line front end.

Subcommands: reduce, eval, decide, solve, extract, bound, verify.  JSON
results go to --out or standard output; human summaries go to standard
error.  decide exits 0 for Yes, 1 for No, 2 on any error; verify exits 0
only if every requested suite passes.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from functools import cache
from pathlib import Path

from .cnf import CnfError, parse_dimacs, universe_block_sizes
from .features import (
    PolicyParams,
    greedy_weight,
    psp_feature,
    realizability_feature,
    softmax_weight,
)
from .mdp import MdpError, build_mdp, stage
from .policies import (
    best_greedy,
    eval_q_greedy,
    eval_q_softmax,
    state_value_greedy,
    state_value_softmax,
)
from .reduction import (
    ReductionError,
    as_fraction,
    calibration_t,
    decide_max3sat,
    epsilon_bound_greedy,
    epsilon_bound_softmax,
    extract_assignment_greedy,
    extract_assignment_softmax,
    frac_str,
    mcdiarmid_tail,
)
from .verify import SOFTMAX_SUITE_N_MAX, SUITES, run_suites

USER_ERRORS = (CnfError, MdpError, ReductionError, ValueError, OSError, OverflowError)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, default=str) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def parse_theta(text: str, n: int | None = None) -> PolicyParams:
    """theta' from '+-+' sign shorthand, a comma list, or @file.json: {"theta_prime": [...]}."""
    text = text.strip()
    if text.startswith("@"):
        data = json.loads(Path(text[1:]).read_text())
        values = data.get("theta_prime") if isinstance(data, dict) else None
        if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
            raise ValueError(f"{text[1:]}: expected an object with a theta_prime number list")
        params = PolicyParams.from_values(values)
    elif text and set(text) <= set("+-"):
        params = PolicyParams.from_signs(text)
    else:
        params = PolicyParams.from_values(float(v) for v in text.split(","))
    if n is not None and params.d_prime != n:
        raise ValueError(f"theta' has {params.d_prime} entries, formula needs {n}")
    return params


class _StoreValue(argparse.Action):
    """Every subcommand's default store action.  argparse drops a lone '--'
    value as the end-of-options marker, so ``--flag=--`` arrives as an empty
    list that skipped the flag's type conversion and choice check.  Read it
    as the string '--' and run both, as for any other value; for --theta
    that is the all-negative sign pattern for n = 2."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            try:
                values = self.type("--") if self.type else "--"
            except ValueError:
                raise argparse.ArgumentError(
                    self, f"invalid {self.type.__name__} value: '--'"
                ) from None
            if self.choices is not None and values not in self.choices:
                raise argparse.ArgumentError(self, "invalid choice: '--'")
        setattr(namespace, self.dest, values)


def parse_state(text: str, n: int) -> tuple[int, ...]:
    """A comma-separated state of n entries, in prefix form."""
    state = tuple(int(v) for v in text.split(","))
    if len(state) != n:
        raise ValueError(f"state has {len(state)} entries, formula needs {n}")
    stage(state)
    return state


def cmd_reduce(args: argparse.Namespace) -> int:
    formula = parse_dimacs(_read_input(args.cnf))
    instance = build_mdp(formula)
    descriptor = instance.to_json()
    descriptor["universe"] = instance.universe.to_json()["clauses"]
    descriptor["universe_block_sizes"] = list(universe_block_sizes(instance.n))
    descriptor["psp_features"] = [
        {
            "h": h,
            "true": list(psp_feature(h, 1, instance.d_prime)),
            "false": list(psp_feature(h, 0, instance.d_prime)),
        }
        for h in range(1, instance.d_prime + 1)
    ]
    _emit(descriptor, args.out)
    _say(
        f"n={instance.n} |C|={formula.clause_count} H={instance.horizon} "
        f"d={instance.d} d'={instance.d_prime}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    formula = parse_dimacs(_read_input(args.cnf))
    instance = build_mdp(formula)
    params = parse_theta(args.theta, formula.n)
    state = parse_state(args.state, formula.n)
    h = stage(state)
    phi = realizability_feature(instance, state, args.action)
    if args.policy_class == "greedy":
        q = eval_q_greedy(instance, params, state, args.action)
        v = state_value_greedy(instance, params, state)
        dot = phi.dot(greedy_weight(instance, params, h))
        payload = {"q": frac_str(q), "v": frac_str(v), "dot": frac_str(dot)}
        _say(f"q = {frac_str(q)}, dot = {frac_str(dot)}")
    else:
        q = eval_q_softmax(instance, params, state, args.action)
        v = state_value_softmax(instance, params, state)
        dot = phi.dot(softmax_weight(instance, params, h))
        payload = {"q": q, "v": v, "dot": dot}
        _say(f"q = {q!r}, dot = {dot!r}")
    payload.update({"state": list(state), "action": args.action, "class": args.policy_class})
    _emit(payload, args.out)
    return 0


def cmd_decide(args: argparse.Namespace) -> int:
    formula = parse_dimacs(_read_input(args.cnf))
    report = decide_max3sat(
        formula,
        delta=args.delta,
        policy_class=args.policy_class,
        epsilon=args.epsilon,
        seed=args.seed,
        extraction_mode=args.mode,
        p0=args.p0,
        v_star=args.v_star,
    )
    _emit(report.to_json(), args.out)
    word = "Yes" if report.decision else "No"
    bits = "".join(str(v) for v in report.extracted)
    _say(f"{word}: assignment {bits} satisfies {frac_str(report.achieved_fraction)} of clauses")
    return 0 if report.decision else 1


def cmd_solve(args: argparse.Namespace) -> int:
    formula = parse_dimacs(_read_input(args.cnf))
    instance = build_mdp(formula)
    params, value = best_greedy(instance)
    assignment = extract_assignment_greedy(params, formula.n)
    _emit(
        {
            "theta_prime": list(params.theta_prime),
            "value": frac_str(value),
            "assignment": list(assignment),
        },
        args.out,
    )
    _say(f"best greedy value {frac_str(value)} at assignment "
         + "".join(str(v) for v in assignment))
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    params = parse_theta(args.theta, args.n)
    if args.policy_class == "greedy":
        assignment = extract_assignment_greedy(params, args.n)
    else:
        assignment = extract_assignment_softmax(params, args.n, mode=args.mode, seed=args.seed)
    _emit({"assignment": list(assignment), "class": args.policy_class}, args.out)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    if args.kind == "mcdiarmid":
        value = mcdiarmid_tail(args.t, args.H, args.b, args.C)
    elif args.kind == "calibration-t":
        value = calibration_t(args.H, args.b, args.C, args.p0)
    elif args.kind == "greedy-eps":
        value = frac_str(epsilon_bound_greedy(args.delta))
    elif args.kind == "softmax-eps":
        if args.v_star is None:
            raise ValueError("softmax-eps needs --v-star")
        value = epsilon_bound_softmax(
            float(as_fraction(args.v_star)), args.H, args.b, args.C,
            float(as_fraction(args.delta)), args.p0,
        )
    else:  # unreachable through argparse choices
        raise ValueError(f"unknown bound kind {args.kind!r}")
    if isinstance(value, float) and not math.isfinite(value):
        # strict JSON has no NaN or Infinity
        raise ValueError(f"bound is not finite: {value}")
    _emit({"kind": args.kind, "value": value}, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = [s.strip() for s in args.suites.split(",") if s.strip()]
    if not names:
        raise ValueError(f"no suites named; available: {','.join(SUITES)}")
    if "softmax" in names and args.n_max is not None and args.n_max > SOFTMAX_SUITE_N_MAX:
        _say(f"note: the softmax suite runs at --n-max {SOFTMAX_SUITE_N_MAX}, not {args.n_max}")
    # verify flag -> (suite keyword, value); each suite reads the flags whose
    # keyword its signature names
    flags = {
        "--n-max": ("n_max", args.n_max),
        "--formulas": ("formulas_per_n", args.formulas),
        "--thetas": ("thetas_per_formula", args.thetas),
        "--tol": ("tol", args.tol),
        "--count": ("count", args.count),
        "--n": ("n", args.n),
        "--delta": ("delta", args.delta),
        "--epsilon": ("epsilon", args.epsilon),
        "--seed": ("seed", args.seed),
    }
    overrides: dict[str, dict] = {name: {} for name in names}
    read = set()
    for name in names:
        if name not in SUITES:
            continue  # run_suites names it
        keywords = inspect.signature(SUITES[name]).parameters
        for flag, (key, value) in flags.items():
            if key not in keywords:
                continue
            read.add(flag)
            if value is not None:
                if name == "softmax" and key == "n_max":
                    value = min(value, SOFTMAX_SUITE_N_MAX)
                overrides[name][key] = value
    for flag, (_, value) in flags.items():
        if value is not None and flag not in read:
            _say(f"note: none of the named suites reads {flag}; it is ignored")
    results = run_suites(names, overrides)
    _emit([r.to_json() for r in results], args.out)
    ok = True
    for r in results:
        status = "pass" if r.passed else f"FAIL ({len(r.failures)} failures)"
        _say(f"{r.suite}: {status}, {r.cases} cases in {r.wall_time:.2f}s")
        ok = ok and r.passed
    return 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process: ``parse_args`` keeps no
    state between calls, since each returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="sat2mdp",
        description="Compile Max-3SAT formulas into linearly realizable MDPs, "
        "evaluate policies exactly, and verify the construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.register("action", None, _StoreValue)
        return p

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = command("reduce", "compile a DIMACS CNF into the MDP descriptor")
    p.add_argument("cnf", help="DIMACS CNF path, or - for stdin")
    add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = command("eval", "evaluate q/v at a state-action pair")
    p.add_argument("cnf")
    p.add_argument("--theta", required=True,
                   help="theta' as '+-+', comma list, or @file.json")
    p.add_argument("--class", dest="policy_class", choices=("greedy", "softmax"), default="greedy")
    p.add_argument("--state", required=True,
                   help="comma-separated -1/0/1 tuple; use --state=-1,-1,-1 form")
    p.add_argument("--action", type=int, choices=(0, 1), required=True)
    add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = command("decide", "decide near-satisfiability via the RL pipeline")
    p.add_argument("cnf")
    p.add_argument("--delta", required=True)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--class", dest="policy_class", choices=("greedy", "softmax"), default="greedy")
    p.add_argument("--mode", choices=("round", "sample"), default="sample",
                   help="softmax extraction mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p0", default="1/8", help="tail probability for the softmax budget")
    p.add_argument("--v-star", default=None, help="optimum value, if known, for the budget check")
    add_common(p)
    p.set_defaults(fn=cmd_decide)

    p = command("solve", "exact best greedy policy by exhaustive sweep")
    p.add_argument("cnf")
    add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = command("extract", "read an assignment out of theta'")
    p.add_argument("--theta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="policy_class", choices=("greedy", "softmax"), default="greedy")
    p.add_argument("--mode", choices=("round", "sample"), default="round")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(fn=cmd_extract)

    p = command("bound", "concentration and tolerance bounds")
    p.add_argument("--kind", choices=("mcdiarmid", "calibration-t", "greedy-eps", "softmax-eps"),
                   required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--H", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--C", type=int, default=1)
    p.add_argument("--p0", type=float, default=0.125)
    p.add_argument("--delta", default="1/10")
    p.add_argument("--v-star", default=None)
    add_common(p)
    p.set_defaults(fn=cmd_bound)

    p = command("verify", "run the named verification suites")
    p.add_argument("--suites", default=",".join(SUITES), help="comma list: " + ",".join(SUITES))
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--formulas", type=int, default=None, help="formulas per n")
    p.add_argument("--thetas", type=int, default=None, help="theta draws per formula")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--count", type=int, default=None, help="roundtrip instance count")
    p.add_argument("--n", type=int, default=None, help="roundtrip variable count")
    p.add_argument("--delta", default=None)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--seed", type=int, default=None)
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error or help
        return exc.code
    try:
        return args.fn(args)
    except USER_ERRORS as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
