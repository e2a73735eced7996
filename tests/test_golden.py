"""Byte identity of CLI output against the digests in ``golden/digests.json``.

The corpus and the way it is hashed are in ``golden/make_digests.py``;
the suite digests are checked in ``test_acceptance.py``, beside the suite
runs they read.
"""

import json

import pytest

from golden.make_digests import DIGESTS, SOFTMAX_KINDS, run_corpus, softmax_binds


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
