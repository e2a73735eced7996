"""Command-line front end.

Subcommands: reduce, eval, decide, solve, extract, bound, verify.  JSON
results go to --out or standard output; human summaries go to standard
error.  decide exits 0 for Yes, 1 for No, 2 on any error; verify exits 0
only if every requested suite passes.

decide, extract, bound and verify each list in one flag table the flags
that only some selections (a --class/--mode pair, a --kind, the named
suites) read.  One set off its default that the selection does not read
draws one note on standard error and changes nothing else.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path
from typing import NamedTuple

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
    _checked_p0,
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

USER_ERRORS = (CnfError, MdpError, ReductionError, ValueError, OSError, OverflowError)

# verify's suite names in ``verify.SUITES`` order, for the parser's --suites
# default and help; ``verify`` itself is imported only by ``cmd_verify``
_SUITE_NAMES = ("greedy", "softmax", "scaling", "roundtrip")


# flags whose value is an exact number, as the library reads it with
# ``as_fraction``
_EXACT_FLAGS = ("--delta", "--epsilon", "--p0", "--v-star")


def _dest(flag: str) -> str:
    """The argparse dest of a long flag."""
    return flag[2:].replace("-", "_")


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse a negative --seed, which numpy's generators cannot take, and an
    exact-number value ``as_fraction`` cannot read, such as nan or 1/0, with a
    ValueError that names the flag.  An exact value stays text."""
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    for flag in _EXACT_FLAGS:
        value = getattr(args, _dest(flag), None)
        if value is None:
            continue
        try:
            as_fraction(value)
        except ValueError:
            raise ValueError(
                f"{flag} must be an exact number such as 1/10 or 0.1, got {value!r}"
            ) from None


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


class _Flag(NamedTuple):
    """One row of a command's flag table, as ``add_argument`` takes it."""

    type: object = None
    default: object = None
    help: str | None = None
    choices: tuple | None = None


def _note_unread(args: argparse.Namespace, flags: dict[str, _Flag], reads, reader: str) -> None:
    """Note '<reader> <flag>; it is ignored' on stderr for each flag of the
    table that is set off its default and not in ``reads``."""
    for flag, spec in flags.items():
        if flag not in reads and getattr(args, _dest(flag)) != spec.default:
            _say(f"note: {reader} {flag}; it is ignored")


def parse_theta(text: str, n: int) -> PolicyParams:
    """theta' from '+-+' sign shorthand, a comma list, or @file.json: {"theta_prime": [...]}.

    Every refusal is a ValueError that names --theta."""
    text = text.strip()
    if text.startswith("@"):
        try:
            data = json.loads(Path(text[1:]).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"--theta file {text[1:]} is not readable JSON: {exc}") from None
        values = data.get("theta_prime") if isinstance(data, dict) else None
        if not isinstance(values, list) or not values or any(
            type(v) not in (int, float) for v in values
        ):
            raise ValueError(
                f"--theta file {text[1:]}: expected an object with a non-empty theta_prime number list"
            )
    elif text and set(text) <= set("+-"):
        values = PolicyParams.from_signs(text).theta_prime
    else:
        try:
            values = [float(v) for v in text.split(",")]
        except ValueError:
            raise ValueError(
                f"--theta must be a sign pattern such as +-+, comma-separated numbers "
                f"or @file.json, got {text!r}"
            ) from None
    # false for nan, an infinity, and a JSON integer too large for a float
    if not all(abs(v) <= sys.float_info.max for v in values):
        raise ValueError(f"--theta entries must be finite floats, got {text!r}")
    if len(values) != n:
        raise ValueError(f"--theta has {len(values)} entries, expected n={n}")
    return PolicyParams.from_values(values)


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
    try:
        state = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--state must be comma-separated integers, got {text!r}") from None
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


_MODES = ("round", "sample")
# decide's and extract's flags that only a softmax selection reads; their
# --mode defaults differ
_DECIDE_FLAGS = {"--mode": _Flag(default="sample", help="softmax extraction mode", choices=_MODES),
                 "--seed": _Flag(int, 0)}
_EXTRACT_FLAGS = {"--mode": _Flag(default="round", choices=_MODES), "--seed": _Flag(int, 0)}
# decide's and extract's --class/--mode selection -> the table flags it reads
_EXTRACTION_READS = {"greedy": (), "softmax --mode round": ("--mode",),
                     "softmax --mode sample": ("--mode", "--seed")}


def _note_extraction(args: argparse.Namespace, command: str, flags: dict[str, _Flag]) -> None:
    selection = "greedy" if args.policy_class == "greedy" else f"softmax --mode {args.mode}"
    _note_unread(args, flags, _EXTRACTION_READS[selection],
                 f"{command} --class {selection} does not read")


def cmd_decide(args: argparse.Namespace) -> int:
    _note_extraction(args, "decide", _DECIDE_FLAGS)
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
    _note_extraction(args, "extract", _EXTRACT_FLAGS)
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    params = parse_theta(args.theta, args.n)
    if args.policy_class == "greedy":
        assignment = extract_assignment_greedy(params, args.n)
    else:
        assignment = extract_assignment_softmax(params, args.n, mode=args.mode, seed=args.seed)
    _emit({"assignment": list(assignment), "class": args.policy_class}, args.out)
    return 0


def _softmax_eps(args: argparse.Namespace) -> float:
    if args.v_star is None:
        raise ValueError("softmax-eps needs --v-star")
    return epsilon_bound_softmax(
        args.v_star, args.H, args.b, args.C, args.delta, _checked_p0(args.p0)
    )


# bound --kind -> (the flags it reads, its value from the parsed flags); the
# parser's --kind choices are this table's keys, so an unknown kind never
# reaches cmd_bound
_BOUNDS = {
    "mcdiarmid": (("--t", "--H", "--b", "--C"),
                  lambda args: mcdiarmid_tail(args.t, args.H, args.b, args.C)),
    "calibration-t": (("--H", "--b", "--C", "--p0"),
                      lambda args: calibration_t(args.H, args.b, args.C, _checked_p0(args.p0))),
    "greedy-eps": (("--delta",), lambda args: frac_str(epsilon_bound_greedy(args.delta))),
    "softmax-eps": (("--v-star", "--H", "--b", "--C", "--delta", "--p0"), _softmax_eps),
}
# bound's value flags, in the parser's order
_BOUND_FLAGS = {"--t": _Flag(float, 0.0), "--H": _Flag(int, 1), "--b": _Flag(int, 1),
                "--C": _Flag(int, 1), "--p0": _Flag(str, "1/8"), "--delta": _Flag(str, "1/10"),
                "--v-star": _Flag(str)}


def cmd_bound(args: argparse.Namespace) -> int:
    reads, value_of = _BOUNDS[args.kind]
    _note_unread(args, _BOUND_FLAGS, reads, f"bound --kind {args.kind} does not read")
    value = value_of(args)
    if isinstance(value, float) and not math.isfinite(value):
        # strict JSON has no NaN or Infinity
        raise ValueError(f"bound is not finite: {value}")
    _emit({"kind": args.kind, "value": value}, args.out)
    return 0


# verify's flags, in the parser's order
_VERIFY_FLAGS = {
    "--n-max": _Flag(int),
    "--formulas": _Flag(int, help="formulas per n"),
    "--thetas": _Flag(int, help="theta draws per formula"),
    "--tol": _Flag(float),
    "--count": _Flag(int, help="roundtrip instance count"),
    "--n": _Flag(int, help="roundtrip variable count"),
    "--delta": _Flag(),
    "--epsilon": _Flag(),
    "--seed": _Flag(int),
}
# verify's flag -> the suite keyword it sets; each suite reads the flags
# whose keyword its signature names
_SUITE_KEYWORDS = {flag: _dest(flag) for flag in _VERIFY_FLAGS} | {
    "--formulas": "formulas_per_n", "--thetas": "thetas_per_formula"}


def cmd_verify(args: argparse.Namespace) -> int:
    import inspect

    from .verify import SOFTMAX_SUITE_N_MAX, SUITES, run_suites

    names = [s.strip() for s in args.suites.split(",") if s.strip()]
    if not names:
        raise ValueError(f"no suites named; available: {','.join(SUITES)}")
    if "softmax" in names and args.n_max is not None and args.n_max > SOFTMAX_SUITE_N_MAX:
        _say(f"note: the softmax suite runs at --n-max {SOFTMAX_SUITE_N_MAX}, not {args.n_max}")
    overrides: dict[str, dict] = {name: {} for name in names}
    read = set()
    for name in names:
        if name not in SUITES:
            continue  # run_suites names it
        keywords = inspect.signature(SUITES[name]).parameters
        for flag, key in _SUITE_KEYWORDS.items():
            if key not in keywords:
                continue
            read.add(flag)
            value = getattr(args, _dest(flag))
            if value is not None:
                if name == "softmax" and key == "n_max":
                    value = min(value, SOFTMAX_SUITE_N_MAX)
                overrides[name][key] = value
    _note_unread(args, _VERIFY_FLAGS, read, "none of the named suites reads")
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

    def add_flags(p: argparse.ArgumentParser, flags: dict[str, _Flag]) -> None:
        for flag, spec in flags.items():
            p.add_argument(flag, **spec._asdict())

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
    add_flags(p, _DECIDE_FLAGS)
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
    add_flags(p, _EXTRACT_FLAGS)
    add_common(p)
    p.set_defaults(fn=cmd_extract)

    p = command("bound", "concentration and tolerance bounds")
    p.add_argument("--kind", choices=tuple(_BOUNDS), required=True)
    add_flags(p, _BOUND_FLAGS)
    add_common(p)
    p.set_defaults(fn=cmd_bound)

    p = command("verify", "run the named verification suites")
    p.add_argument("--suites", default=",".join(_SUITE_NAMES),
                   help="comma list: " + ",".join(_SUITE_NAMES))
    add_flags(p, _VERIFY_FLAGS)
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
        _check_flags(args)
        return args.fn(args)
    except USER_ERRORS as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
