"""Byte-identity corpus: SHA-256 digests of CLI output and suite JSON.

The corpus runs the CLI in-process on a fixed input set:

- Example 1;
- ``random_formula(n, default_rng(n))`` for n = 1..8;
- ``planted_instance(n, 3n, 9/10, seed=n)`` for n = 9..12.

On every formula it runs ``reduce``, ``solve``, greedy ``decide`` and
softmax ``decide --mode sample --seed 7``.  On the formulas with n <= 8 it
also runs ``eval`` in both classes on every non-terminal (state, action)
cell.  Each group of commands (one formula, one command kind) hashes to
one digest over every command's arguments, exit code and stdout.  The
greedy, softmax and roundtrip suites at the acceptance tests' parameters
hash their ``canonical_json()`` at seed 0 (keys ``greedy``, ``softmax``,
``roundtrip``) and seed 1 (keys ``greedy-seed1``, ``softmax-seed1``,
``roundtrip-seed1``).  Under ``faults``, each entry of ``FAULTS`` hashes the
``canonical_json()`` of a realizability suite run with one deliberately
wrong function swapped in, so the failure records themselves stay
byte-identical, not only the passing output.  Under ``values``, ``bound``
runs every kind over the product of ``BOUND_GRID``'s values on the flags
that kind reads, and ``extract`` runs both classes in round mode and in
sample mode at seeds 0 and 3 on each of ``EXTRACT_THETAS``; each group
("bound/<kind>", "extract/<class>") hashes to one digest as the corpus's do.

Softmax output is floating point, so its digests bind only under the
Python and numpy versions recorded beside them; so do the ``values``
groups in ``FLOAT_VALUES``.  Greedy and exact output binds everywhere.

Run ``PYTHONPATH=src python tests/golden/make_digests.py`` to rewrite
``digests.json``.  Only do so for a change that is meant to alter output.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np

import sat2mdp.features
import sat2mdp.verify
from sat2mdp import parse_dimacs, planted_instance
from sat2mdp.cli import main
from sat2mdp.verify import check_realizability_greedy, check_realizability_softmax, random_formula

DIGESTS = Path(__file__).with_name("digests.json")
EXAMPLE1 = "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
EVAL_N_MAX = 8
SOFTMAX_KINDS = ("decide-softmax", "eval-softmax")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def softmax_binds(record: dict) -> bool:
    """Whether the softmax digests of ``record`` were written under these versions."""
    return {key: record[key] for key in versions()} == versions()


def inputs() -> dict:
    """Input name -> formula, in corpus order."""
    formulas = {"example1": parse_dimacs(EXAMPLE1)}
    for n in range(1, EVAL_N_MAX + 1):
        formulas[f"random-n{n}"] = random_formula(n, np.random.default_rng(n))
    for n in range(9, 13):
        formulas[f"planted-n{n}"] = planted_instance(n, 3 * n, Fraction(9, 10), seed=n)[0]
    return formulas


def commands(n: int) -> dict:
    """Command kind -> argument lists (the input path is appended) for an n-variable formula."""
    kinds = {
        "reduce": [["reduce"]],
        "solve": [["solve"]],
        "decide-greedy": [["decide", "--delta", "1/10"]],
        "decide-softmax": [
            ["decide", "--delta", "1/10", "--class", "softmax", "--mode", "sample", "--seed", "7"]
        ],
    }
    if n <= EVAL_N_MAX:
        theta = ",".join(str((-1) ** j * (j + 1) / 4) for j in range(n))
        for policy_class in ("greedy", "softmax"):
            kinds[f"eval-{policy_class}"] = [
                ["eval", f"--theta={theta}", "--class", policy_class,
                 "--state=" + ",".join(map(str, prefix + (-1,) * (n - h))),
                 "--action", str(action)]
                for h in range(n)
                for prefix in product((0, 1), repeat=h)
                for action in (0, 1)
            ]
    return kinds


def command_digest(arg_lists: list[list[str]], *trailing: str) -> str:
    """One digest over each command's arguments, exit code and stdout.

    ``trailing`` (the input path) is passed to every command but not hashed.
    """
    digest = hashlib.sha256()
    for args in arg_lists:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(args + list(trailing))
        digest.update(f"{' '.join(args)}\n{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def run_corpus() -> tuple[int, dict[str, str]]:
    """(command count, "<input>/<kind>" -> digest) over the whole corpus."""
    from reference import to_dimacs  # tests/ is on the path in the suite and in write_digests

    count, digests = 0, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, formula in inputs().items():
            path = Path(tmp, name + ".cnf")
            path.write_text(to_dimacs(formula))
            for kind, arg_lists in commands(formula.n).items():
                digests[f"{name}/{kind}"] = command_digest(arg_lists, str(path))
                count += len(arg_lists)
    return count, digests


BOUND_GRID = {
    "--t": ("0", "0.5", "2"),
    "--H": ("4", "11"),
    "--b": ("1", "3"),
    "--C": ("10", "1000"),
    "--p0": ("0.125", "0.5"),
    "--delta": ("1/10", "0.3", "1/3"),
    "--v-star": ("1", "0.9"),
}
# the flags each bound kind reads
BOUND_FLAGS = {
    "mcdiarmid": ("--t", "--H", "--b", "--C"),
    "calibration-t": ("--H", "--b", "--C", "--p0"),
    "greedy-eps": ("--delta",),
    "softmax-eps": ("--v-star", "--H", "--b", "--C", "--delta", "--p0"),
}
# theta' -> its --n
EXTRACT_THETAS = {"+-+": "3", "0.5,-1,2": "3", "--": "2"}
FLOAT_VALUES = ("bound/mcdiarmid", "bound/calibration-t", "bound/softmax-eps", "extract/softmax")


def value_commands() -> dict:
    """"bound/<kind>" or "extract/<class>" -> full argument lists."""
    kinds = {
        f"bound/{kind}": [
            ["bound", "--kind", kind] + [f"{flag}={value}" for flag, value in zip(flags, values)]
            for values in product(*(BOUND_GRID[flag] for flag in flags))
        ]
        for kind, flags in BOUND_FLAGS.items()
    }
    for policy_class in ("greedy", "softmax"):
        kinds[f"extract/{policy_class}"] = [
            ["extract", f"--theta={theta}", "--n", n, "--class", policy_class] + mode
            for theta, n in EXTRACT_THETAS.items()
            for mode in (["--mode", "round"], ["--mode", "sample", "--seed", "0"],
                         ["--mode", "sample", "--seed", "3"])
        ]
    return kinds


def run_values() -> dict:
    """The ``values`` record: its command count and one digest per group."""
    kinds = value_commands()
    return {
        "commands": sum(map(len, kinds.values())),
        "digests": {group: command_digest(arg_lists) for group, arg_lists in kinds.items()},
    }


def suite_digest(result) -> str:
    return hashlib.sha256(result.canonical_json().encode()).hexdigest()


def _scaled(original):
    # every closed-form softmax continuation 0.1% too high
    return lambda universe, probs: original(universe, probs) * 1.001


def _raised(original):
    # the reward of every full leaf that sets x1 one clause too high
    def reward(instance, state):
        r = original(instance, state)
        if len(state) == instance.n and state[0] == 1:
            return r + Fraction(1, instance.formula.clause_count)
        return r

    return reward


SOFTMAX_FAULT_SUITE = dict(n_max=4, formulas_per_n=3, thetas_per_formula=4, seed=3)
GREEDY_FAULT_SUITE = dict(n_max=5, formulas_per_n=4, seed=3)
# name -> (suite, its parameters, module, function swapped in it, fault)
FAULTS = {
    "softmax-continuation": (check_realizability_softmax, SOFTMAX_FAULT_SUITE,
                             sat2mdp.features, "_softmax_continuation", _scaled),
    "softmax-reward": (check_realizability_softmax, SOFTMAX_FAULT_SUITE,
                       sat2mdp.verify, "reward", _raised),
    "greedy-reward": (check_realizability_greedy, GREEDY_FAULT_SUITE,
                      sat2mdp.verify, "reward", _raised),
}


def faulted_run(name: str):
    """The suite result of ``FAULTS[name]``, with the fault in place only for the run."""
    suite, params, module, attr, fault = FAULTS[name]
    with mock.patch.object(module, attr, fault(getattr(module, attr))):
        return suite(**params)


def write_digests() -> None:
    sys.path.insert(0, str(Path(__file__).parents[1]))
    from test_acceptance import GREEDY_SUITE, ROUNDTRIP_SUITE, SOFTMAX_SUITE
    from sat2mdp.verify import (
        check_realizability_greedy,
        check_realizability_softmax,
        check_reduction_roundtrip,
    )

    count, digests = run_corpus()
    record = {
        **versions(),
        "commands": count,
        "digests": digests,
        "suites": {
            name + suffix: suite_digest(suite(**{**params, "seed": seed}))
            for seed, suffix in ((0, ""), (1, "-seed1"))
            for name, suite, params in (
                ("greedy", check_realizability_greedy, GREEDY_SUITE),
                ("softmax", check_realizability_softmax, SOFTMAX_SUITE),
                ("roundtrip", check_reduction_roundtrip, ROUNDTRIP_SUITE),
            )
        },
        "faults": {name: suite_digest(faulted_run(name)) for name in FAULTS},
        "values": run_values(),
    }
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{count} commands, {len(digests)} digests -> {DIGESTS}")


if __name__ == "__main__":
    write_digests()
