"""The line census's allowlists stay honest without the traced run: each
entry gives a reason, and its statement or function is still in the package."""

import importlib
import inspect

import pytest

from line_census import ALLOWLIST, CALLERS_ALLOWLIST, PACKAGE


@pytest.mark.parametrize("entry", sorted(ALLOWLIST))
def test_allowlist_entry_has_a_reason_and_a_statement(entry):
    name, statement = entry
    assert ALLOWLIST[entry].strip()
    lines = (PACKAGE / name).read_text().splitlines()
    assert statement in {line.split("#")[0].strip() for line in lines}


@pytest.mark.parametrize("function", sorted(CALLERS_ALLOWLIST))
def test_callers_allowlist_entry_has_a_reason_and_a_function(function):
    assert CALLERS_ALLOWLIST[function].strip()
    module, *path = function.split(".")
    owner = importlib.import_module(f"sat2mdp.{module}".removesuffix(".__init__"))
    for part in path:
        owner = vars(owner)[part]
    assert inspect.isfunction(owner)
