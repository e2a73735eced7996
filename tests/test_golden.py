"""Byte identity of CLI output against the digests in ``golden/digests.json``.

The corpus, the ``bound``/``extract`` value set and the way both are
hashed are in ``golden/make_digests.py``;
the suite digests are checked in ``test_acceptance.py``, beside the suite
runs they read.
"""

import json

import pytest

from golden.make_digests import (
    DIGESTS,
    FLOAT_VALUES,
    SOFTMAX_KINDS,
    run_corpus,
    run_values,
    softmax_binds,
)


def test_cli_corpus_matches_golden():
    golden = json.loads(DIGESTS.read_text())
    count, digests = run_corpus()
    assert count == golden["commands"] == 2088
    assert digests.keys() == golden["digests"].keys()
    binding = softmax_binds(golden)
    mismatched = [
        group
        for group, digest in digests.items()
        if digest != golden["digests"][group]
        and (binding or group.split("/")[1] not in SOFTMAX_KINDS)
    ]
    assert not mismatched, f"output differs from the recorded digests in {mismatched}"
    if not binding:
        pytest.skip("softmax digests were recorded under other Python or numpy versions")


def test_bound_and_extract_values_match_golden():
    golden = json.loads(DIGESTS.read_text())
    values = run_values()
    assert values["commands"] == golden["values"]["commands"] == 157
    assert values["digests"].keys() == golden["values"]["digests"].keys()
    binding = softmax_binds(golden)
    mismatched = [
        group
        for group, digest in values["digests"].items()
        if digest != golden["values"]["digests"][group] and (binding or group not in FLOAT_VALUES)
    ]
    assert not mismatched, f"output differs from the recorded digests in {mismatched}"
    if not binding:
        pytest.skip("float bound and softmax extract digests were recorded under other versions")
