"""What a fresh interpreter loads: ``import sat2mdp`` loads no submodule, and
a CLI command loads numpy and the verification suites only if it runs them.

Each check runs in its own ``python -c`` process with ``PYTHONPATH=src``,
since this test process has imported everything already.  They assert on
``sys.modules``, never on a wall time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_exports import EXPORTS

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("cli", "cnf", "features", "mdp", "policies", "reduction", "verify")


def fresh(code: str, *args: str):
    """The JSON that ``code`` prints, run in a new interpreter with args as sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule_and_no_numpy():
    loaded = fresh(
        "import json, sys\n"
        "import sat2mdp\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m.startswith('sat2mdp.') or m == 'numpy' or m.startswith('numpy.'))))\n"
    )
    assert loaded == []


def test_every_export_is_its_submodule_object():
    mismatched = fresh(
        "import importlib, json, sys\n"
        "import sat2mdp\n"
        "names = json.loads(sys.argv[1])\n"
        "via_package = {name: getattr(sat2mdp, name) for name in names}\n"
        "modules = [importlib.import_module('sat2mdp.' + m) for m in json.loads(sys.argv[2])]\n"
        "bad = []\n"
        "for name, value in via_package.items():\n"
        "    owners = [m for m in modules if name in vars(m)]\n"
        "    if not owners or any(vars(m)[name] is not value for m in owners):\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))\n",
        json.dumps(sorted(EXPORTS)),
        json.dumps(SUBMODULES),
    )
    assert mismatched == []


def test_star_import_binds_exactly_the_exports():
    bound = fresh(
        "import json\n"
        "namespace = {}\n"
        "exec('from sat2mdp import *', namespace)\n"
        "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))\n"
    )
    assert set(bound) == EXPORTS


def test_unknown_attribute_raises_and_submodules_still_import():
    outcome = fresh(
        "import json\n"
        "import sat2mdp\n"
        "try:\n"
        "    sat2mdp.no_such_name\n"
        "    raised = None\n"
        "except AttributeError as exc:\n"
        "    raised = str(exc)\n"
        "from sat2mdp import cli\n"
        "print(json.dumps([raised, cli.__name__]))\n"
    )
    assert outcome == ["module 'sat2mdp' has no attribute 'no_such_name'", "sat2mdp.cli"]


RUN_MAIN = (
    "import contextlib, io, json, sys\n"
    "from sat2mdp.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps([code, 'numpy' in sys.modules, 'sat2mdp.verify' in sys.modules]))\n"
)


@pytest.fixture(scope="module")
def example_cnf(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "example1.cnf"
    path.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "{cnf}", "--delta", "1/10"],
        ["solve", "{cnf}"],
        ["bound", "--kind", "mcdiarmid", "--t", "0.1", "--H", "4", "--b", "3", "--C", "10"],
        ["extract", "--theta", "+-+", "--n", "3"],
    ],
    ids=["decide", "solve", "bound", "extract"],
)
def test_greedy_commands_load_neither_numpy_nor_verify(example_cnf, argv):
    code, numpy_loaded, verify_loaded = fresh(
        RUN_MAIN, *(part.format(cnf=example_cnf) for part in argv)
    )
    assert code in (0, 1)
    assert not numpy_loaded
    assert not verify_loaded


def test_verify_command_loads_numpy_and_verify():
    code, numpy_loaded, verify_loaded = fresh(
        RUN_MAIN, "verify", "--suites", "greedy", "--n-max", "1", "--formulas", "1"
    )
    assert code == 0
    assert numpy_loaded
    assert verify_loaded
