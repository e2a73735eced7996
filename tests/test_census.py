"""The line census's allowlist stays honest without the traced run: each
entry gives a reason, and its statement is still in its file."""

import pytest

from line_census import ALLOWLIST, PACKAGE


@pytest.mark.parametrize("entry", sorted(ALLOWLIST))
def test_allowlist_entry_has_a_reason_and_a_statement(entry):
    name, statement = entry
    assert ALLOWLIST[entry].strip()
    lines = (PACKAGE / name).read_text().splitlines()
    assert statement in {line.split("#")[0].strip() for line in lines}
