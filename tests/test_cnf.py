from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sat2mdp import (
    Clause,
    CnfError,
    Formula,
    enumerate_universe,
    is_zeta_satisfiable,
    occurrence_bound,
    parse_dimacs,
    satisfied_fraction,
    universe_block_sizes,
)
from sat2mdp.cnf import leaf_counts
from sat2mdp.verify import random_formula

from conftest import formulas


def split_by_signed_ints(formula, prefix):
    """Oracle for Formula.split: satisfied count and undecided remainders as signed ints."""
    satisfied, undecided = 0, []
    for clause in formula.clauses:
        lits = clause.to_ints()
        if any(abs(v) <= len(prefix) and prefix[abs(v) - 1] == (v > 0) for v in lits):
            satisfied += 1
        elif any(abs(v) > len(prefix) for v in lits):
            undecided.append([v for v in lits if abs(v) > len(prefix)])
    return satisfied, undecided


def signed(split):
    """A Formula.split result with its undecided keys decoded to signed ints."""
    satisfied, undecided = split
    return satisfied, [[-(k // 2 + 1) if k % 2 else k // 2 + 1 for k in key] for key in undecided]


class TestLiteralAndClause:
    def test_literal_signed_int(self):
        assert Clause.from_ints([-3]).key == (5,)
        assert Clause.from_ints([-3]).to_ints() == [-3]
        with pytest.raises(CnfError):
            Clause.from_ints([0])

    def test_clause_canonicalization(self):
        c = Clause.from_ints([3, -2, 1])
        assert c.to_ints() == [1, -2, 3]
        assert Clause.from_ints([1, 1, 2]).to_ints() == [1, 2]

    def test_clause_rejects_tautology(self):
        with pytest.raises(CnfError, match="tautolog"):
            Clause.from_ints([1, -1])

    def test_clause_repeated_variable_messages(self):
        with pytest.raises(CnfError, match=r"^duplicate literal x1 in clause$"):
            Clause((0, 0, 2))
        with pytest.raises(CnfError, match=r"^tautological clause: contains both x1 and ~x1$"):
            Clause((0, 1, 2))

    @pytest.mark.parametrize("key", [(-2,), (-1, 4)])
    def test_clause_rejects_negative_key(self, key):
        # a negative key names no variable; -2 would print as x0 and index
        # a formula's bitsets from the end
        with pytest.raises(CnfError, match="negative"):
            Clause(key)

    @pytest.mark.parametrize("key", [(True,), (0, True), (1.0,), (np.int64(2),)])
    def test_clause_rejects_a_key_that_is_not_an_int(self, key):
        # True would print as ~x1, and a float key breaks str()
        with pytest.raises(CnfError, match="^literal keys must be ints, got"):
            Clause(key)

    @pytest.mark.parametrize("lits", [[1.5], [True], [2, False], ["1"], [np.float64(2.0)]])
    def test_from_ints_rejects_a_literal_that_is_not_an_integer(self, lits):
        with pytest.raises(CnfError, match="is not an integer$"):
            Clause.from_ints(lits)

    def test_from_ints_reads_numpy_integers_as_ints(self):
        key = Clause.from_ints([np.int64(-3), np.int32(1)]).key
        assert key == (0, 5) and all(type(k) is int for k in key)

    def test_formula_from_ints_non_integer_literal_is_cnf_error(self):
        with pytest.raises(CnfError, match="is not an integer"):
            Formula.from_ints(2, [[1.5]])

    def test_clause_rejects_oversize(self):
        with pytest.raises(CnfError):
            Clause.from_ints([1, 2, 3, 4])


class TestParseDimacs:
    def test_example1(self, example1):
        assert example1.n == 3
        assert example1.clause_count == 2
        assert example1.clauses[0].to_ints() == [1, -2, 3]
        assert example1.clauses[1].to_ints() == [-1, 2, -3]

    def test_single_unit_clause(self):
        f = parse_dimacs("p cnf 1 1\n1 0\n")
        assert (f.n, f.clause_count) == (1, 1)

    def test_tautology_rejected(self):
        with pytest.raises(CnfError, match="tautolog"):
            parse_dimacs("p cnf 2 1\n1 -1 0\n")

    def test_duplicate_instances_preserved(self):
        f = parse_dimacs("p cnf 2 2\n1 2 0\n1 2 0\n")
        assert f.clause_count == 2
        assert f.clauses[0] == f.clauses[1]

    def test_comments_and_multiline_clauses(self):
        f = parse_dimacs("c header comment\np cnf 3 1\n1\n2 3 0\n")
        assert f.clauses[0].to_ints() == [1, 2, 3]

    def test_satlib_trailer(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n%\n0\n")
        assert [c.to_ints() for c in f.clauses] == [[1, -2, 3], [-1, 2, -3]]
        with pytest.raises(CnfError, match="declares"):
            parse_dimacs("p cnf 3 2\n1 -2 3 0\n%\n-1 2 -3 0\n")

    def test_errors(self):
        with pytest.raises(CnfError, match="header"):
            parse_dimacs("1 2 0\n")
        with pytest.raises(CnfError, match="out of range"):
            parse_dimacs("p cnf 2 1\n3 0\n")
        with pytest.raises(CnfError, match="declares"):
            parse_dimacs("p cnf 2 2\n1 0\n")
        with pytest.raises(CnfError, match="terminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 2 1\n1 2 3 4 0\n")

    def test_json_roundtrip(self, example1):
        data = example1.to_json()
        assert Formula.from_ints(data["n"], data["clauses"]) == example1

    def test_dimacs_roundtrip(self, example1):
        assert parse_dimacs(example1.to_dimacs()) == example1


class TestUniverse:
    def test_n3_counts(self):
        u = enumerate_universe(3)
        widths = (u.keys >= 0).sum(axis=1).tolist()
        assert [widths.count(w) for w in (1, 2, 3)] == [6, 12, 8]
        assert u.size == 26
        assert 1 + u.size == 27  # realizability dimension for n=3

    def test_n1_counts(self):
        u = enumerate_universe(1)
        assert u.size == 2
        assert [c.to_ints() for c in u.entries] == [[1], [-1]]

    def test_index_map_roundtrip(self):
        u = enumerate_universe(4)
        for i, clause in enumerate(u.entries):
            assert u.index_of(clause.key) == i

    def test_block_order(self):
        u = enumerate_universe(3)
        lengths = [len(c) for c in u.entries]
        assert lengths == sorted(lengths)
        # within each block, lexicographic by literal-key sequence
        for width in (1, 2, 3):
            keys = [c.key for c in u.entries if len(c) == width]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_block_sizes_match_direct_enumeration(self, n):
        # independent recount: filter all literal subsets of each width
        expected = []
        ordered = []
        for width in (1, 2, 3):
            count = 0
            for combo in combinations(range(2 * n), width):
                variables = [k // 2 for k in combo]
                if len(set(variables)) == width:
                    count += 1
                    ordered.append(combo)
            expected.append(count)
        assert universe_block_sizes(n) == tuple(expected)
        u = enumerate_universe(n)
        assert [tuple(k for k in row if k >= 0) for row in u.keys.tolist()] == ordered
        for i, clause in enumerate(u.entries):
            assert clause.key == ordered[i]
            assert u.index_of(clause.key) == i
        with pytest.raises(CnfError, match="not in the universe"):
            u.index_of(Clause.from_ints([1, -(n + 1)]).key)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_index_of_inverts_key_rows(self, data):
        n = data.draw(st.integers(1, 60), label="n")
        u = enumerate_universe(n)
        i = data.draw(st.integers(0, u.size - 1), label="i")
        clause = Clause(tuple(int(k) for k in u.keys[i] if k >= 0))
        assert u.index_of(clause.key) == i

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_decoded_arrays_are_read_only_and_match_the_clauses(self, n):
        # slot j of row i: the j-th literal of clause i, or padding
        u = enumerate_universe(n)
        valid = np.zeros((u.size, 3), dtype=bool)
        var0 = np.zeros((u.size, 3), dtype=np.int64)
        neg = np.zeros((u.size, 3), dtype=bool)
        for i, clause in enumerate(u.entries):
            for j, lit in enumerate(clause.to_ints()):
                valid[i, j] = True
                var0[i, j] = abs(lit) - 1
                neg[i, j] = lit < 0
        for got, expected in ((u.valid, valid), (u.var0, var0), (u.neg, neg)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = got[0, 0]

    def test_no_tautologies(self):
        u = enumerate_universe(5)
        for clause in u.entries:
            variables = [abs(lit) for lit in clause.to_ints()]
            assert len(set(variables)) == len(variables)

    def test_rejects_n0(self):
        with pytest.raises(CnfError):
            enumerate_universe(0)


class TestEvalClause:
    """Clause evaluation through Formula.split."""

    def test_decided_by_prefix(self):
        # (~x1 | ~x2) is decided once x1 = x2 = 0
        assert Formula.from_ints(2, [[-1, -2]]).split((0, 0)) == (1, [])

    def test_shrinks_and_simplifies(self):
        got = Formula.from_ints(5, [[1, -4, 5]]).split((0, 0))
        assert got == (0, [Clause.from_ints([-4, 5]).key])

    def test_falsified_unit(self):
        assert Formula.from_ints(1, [[1]]).split((0,)) == (0, [])

    def test_unassigned_markers(self):
        # split takes assigned prefixes only; the public satisfied_fraction rejects markers
        formula = Formula.from_ints(2, [[1, 2]])
        for assignment in ((-1, -1), (0, -1), (2, 0)):
            with pytest.raises(CnfError, match=r"^assignment entries must be 0 or 1$"):
                satisfied_fraction(formula, assignment)

    @settings(max_examples=200, deadline=None)
    @given(formulas(), st.data())
    def test_split_matches_signed_oracle(self, formula, data):
        prefix = tuple(data.draw(st.lists(st.sampled_from((0, 1)), max_size=formula.n)))
        satisfied, undecided = formula.split(prefix)
        assert signed((satisfied, undecided)) == split_by_signed_ints(formula, prefix)
        if len(prefix) < formula.n:
            # extending the prefix never undoes a satisfied or falsified instance
            longer, rest = formula.split(prefix + (data.draw(st.sampled_from((0, 1))),))
            assert longer >= satisfied
            falsified = formula.clause_count - satisfied - len(undecided)
            assert formula.clause_count - longer - len(rest) >= falsified

    @settings(max_examples=200, deadline=None)
    @given(formulas(), st.data())
    def test_full_assignment_count_matches_signed_oracle(self, formula, data):
        n = formula.n
        assignment = tuple(data.draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n)))
        want = split_by_signed_ints(formula, assignment)
        assert want[1] == [] and formula.split(assignment) == want
        # entries are read by truthiness, so every 0/1 spelling counts alike,
        # and a prefix takes the same path as the full assignment
        h = data.draw(st.integers(0, n), label="h")
        want_prefix = split_by_signed_ints(formula, assignment[:h])
        for spelled in (
            tuple(map(bool, assignment)),
            tuple(map(np.int64, assignment)),
            tuple(map(float, assignment)),
            np.array(assignment),
        ):
            assert formula.split(spelled) == want
            assert satisfied_fraction(formula, spelled) == Fraction(want[0], formula.clause_count)
            assert signed(formula.split(spelled[:h])) == want_prefix


class TestSatisfiedFraction:
    def test_example1_values(self, example1):
        assert satisfied_fraction(example1, (0, 1, 0)) == Fraction(1, 2)
        assert satisfied_fraction(example1, (1, 1, 1)) == 1

    def test_duplicates_count_per_instance(self):
        f = parse_dimacs("p cnf 2 3\n1 0\n1 0\n-2 0\n")
        assert satisfied_fraction(f, (1, 1)) == Fraction(2, 3)

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            formula = random_formula(n, rng)
            assignment = tuple(int(v) for v in rng.integers(0, 2, size=n))
            # truth-table style recount straight off the signed ints
            hit = 0
            for clause in formula.clauses:
                if any(
                    (lit > 0) == bool(assignment[abs(lit) - 1])
                    for lit in clause.to_ints()
                ):
                    hit += 1
            assert satisfied_fraction(formula, assignment) == Fraction(
                hit, formula.clause_count
            )

    def test_range_and_denominator(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            formula = random_formula(int(rng.integers(1, 7)), rng)
            assignment = tuple(int(v) for v in rng.integers(0, 2, size=formula.n))
            frac = satisfied_fraction(formula, assignment)
            assert 0 <= frac <= 1
            assert formula.clause_count % frac.denominator == 0

    def test_length_checked(self, example1):
        with pytest.raises(CnfError, match=r"^assignment length 2 != n=3$"):
            satisfied_fraction(example1, (1, 1))


class TestOccurrenceBound:
    def test_example1(self, example1):
        assert occurrence_bound(example1) == 2

    def test_single_clause(self):
        assert occurrence_bound(parse_dimacs("p cnf 3 1\n1 2 3 0\n")) == 1

    def test_against_recount(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            formula = random_formula(int(rng.integers(1, 9)), rng, max_occurrences=4)
            counts = {}
            for clause in formula.clauses:
                for lit in clause.to_ints():
                    counts[abs(lit)] = counts.get(abs(lit), 0) + 1
            assert occurrence_bound(formula) == max(counts.values())
            assert occurrence_bound(formula) <= 4


class TestZetaSatisfiability:
    def test_example1_fully_satisfiable(self, example1):
        ok, best, value = is_zeta_satisfiable(example1, 1)
        assert ok and value == 1
        assert satisfied_fraction(example1, best) == 1

    def test_known_bad_assignment_scores_half(self, example1):
        assert satisfied_fraction(example1, (0, 1, 0)) == Fraction(1, 2) < 1

    def test_contradiction(self, contradiction):
        ok, _, value = is_zeta_satisfiable(contradiction, 1)
        assert not ok and value == Fraction(1, 2)

    def test_cap(self):
        with pytest.raises(CnfError, match="cap"):
            is_zeta_satisfiable(Formula.from_ints(25, [[25]]), 1)

    @pytest.mark.parametrize("n", [16, 17])
    def test_sweep_spans_halves(self, n):
        # x1 is in the first half: x1 = 1 first at the first assignment of the second high
        _, argmax, value = is_zeta_satisfiable(Formula.from_ints(n, [[1]]), 1)
        assert argmax == (1,) + (0,) * (n - 1) and value == 1
        # xn is in the second half: xn = 1 first at the second low, and tied in every later high
        _, argmax, value = is_zeta_satisfiable(Formula.from_ints(n, [[n]]), 1)
        assert argmax == (0,) * (n - 1) + (1,) and value == 1

    @pytest.mark.parametrize("seed", range(16))
    def test_against_bitmask_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 15))
        formula = random_formula(n, rng, max_occurrences=5, clause_count=2 * n)
        # independent oracle: per-clause satisfying-assignment bitmasks
        hits = []
        for x in range(2 ** n):
            hit = 0
            for clause in formula.clauses:
                sat = False
                for lit in clause.to_ints():
                    bit = (x >> (abs(lit) - 1)) & 1
                    if (lit > 0) == bool(bit):
                        sat = True
                        break
                hit += sat
            hits.append(hit)
        best = max(hits)
        _, argmax, value = is_zeta_satisfiable(formula, 0)
        assert value == Fraction(best, formula.clause_count)
        assert satisfied_fraction(formula, argmax) == value
        # tie rule: the first maximizer in itertools.product order
        first = next(
            a for a in product((0, 1), repeat=n)
            if hits[sum(bit << i for i, bit in enumerate(a))] == best
        )
        assert argmax == first


class TestLeafCounts:
    @settings(max_examples=100, deadline=None)
    @given(formulas(max_n=9))
    def test_counts_every_assignment_in_index_order(self, formula):
        counts = leaf_counts(formula).tolist()
        # itertools.product order is index order: x1 is the high bit
        assert [Fraction(k, formula.clause_count) for k in counts] == [
            satisfied_fraction(formula, a) for a in product((0, 1), repeat=formula.n)
        ]
        _, argmax, value = is_zeta_satisfiable(formula, 0)
        assert value == Fraction(max(counts), formula.clause_count)
        assert counts.index(max(counts)) == int("".join(map(str, argmax)), 2)

    def test_cap(self):
        with pytest.raises(CnfError, match="cap"):
            leaf_counts(Formula.from_ints(25, [[25]]))


class TestDimacsRoundtrip:
    @settings(max_examples=200, deadline=None)
    @given(formulas(max_n=30, max_clauses=40))
    def test_parse_inverts_to_dimacs(self, formula):
        assert parse_dimacs(formula.to_dimacs()) == formula


class TestFormulaValidation:
    def test_needs_clauses(self):
        with pytest.raises(CnfError):
            Formula(2, ())

    def test_needs_variables(self):
        with pytest.raises(CnfError):
            Formula.from_ints(0, [[1]])

    def test_variable_range(self):
        with pytest.raises(CnfError):
            Formula.from_ints(2, [[3]])
