import inspect
import json
import sys

import pytest
from hypothesis import strategies as st

from sat2mdp import Formula, build_mdp, parse_dimacs

EXAMPLE1_DIMACS = "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"


@pytest.fixture
def example1():
    """(x1 | ~x2 | x3) & (~x1 | x2 | ~x3): satisfiable except at 010 and 101."""
    return parse_dimacs(EXAMPLE1_DIMACS)


@pytest.fixture
def example1_instance(example1):
    return build_mdp(example1)


@pytest.fixture
def shrink_formula():
    """Four clauses over 7 variables whose survivors shrink under x1=x2=0."""
    return Formula.from_ints(
        7, [[-1, -2], [1, -4, 5], [2, -4, 5], [3, -6, 7]]
    )


@pytest.fixture
def contradiction():
    return Formula.from_ints(1, [[1], [-1]])


@st.composite
def formulas(draw, max_n=8, max_clauses=12):
    """Random formulas with 1-3 distinct variables per clause, duplicates allowed."""
    n = draw(st.integers(1, max_n))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs))
    )
    return Formula.from_ints(n, draw(st.lists(clause, min_size=1, max_size=max_clauses)))


def call_counts(run, **functions):
    """(run(), name -> calls): every call of each function, counted by its code object."""
    watched = {fn.__code__: name for name, fn in functions.items()}
    counts = dict.fromkeys(functions, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            counts[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts


def replay(record):
    """The records that the check named by ``record["check"]`` returns when
    called with only the record's fields for its parameters, each in the
    suites' record shape, read back from JSON as a suite's
    ``canonical_json`` writes it."""
    from sat2mdp.verify import _CHECKS

    check = _CHECKS[record["check"]]
    inputs = {name: record[name] for name in inspect.signature(check).parameters}
    return [
        json.loads(json.dumps({"check": record["check"], **inputs, **found}, default=str))
        for found in check(**inputs)[1]
    ]
