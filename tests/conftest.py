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
