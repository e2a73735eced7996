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
byte-identical, not only the passing output.

Softmax output is floating point, so its digests bind only under the
Python and numpy versions recorded beside them.  Greedy and exact output
binds everywhere.

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


def run_corpus() -> tuple[int, dict[str, str]]:
    """(command count, "<input>/<kind>" -> digest) over the whole corpus."""
    count, digests = 0, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, formula in inputs().items():
            path = Path(tmp, name + ".cnf")
            path.write_text(formula.to_dimacs())
            for kind, arg_lists in commands(formula.n).items():
                digest = hashlib.sha256()
                for args in arg_lists:
                    out = io.StringIO()
                    with redirect_stdout(out), redirect_stderr(io.StringIO()):
                        code = main(args + [str(path)])
                    digest.update(f"{' '.join(args)}\n{code}\n{out.getvalue()}".encode())
                    count += 1
                digests[f"{name}/{kind}"] = digest.hexdigest()
    return count, digests


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
    }
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{count} commands, {len(digests)} digests -> {DIGESTS}")


if __name__ == "__main__":
    write_digests()
