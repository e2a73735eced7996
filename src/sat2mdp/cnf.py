"""3-CNF formulas: clauses as literal-key tuples, DIMACS parsing, exhaustive
evaluation, and the ordered universe of all valid clauses over n variables.

A clause is its sorted tuple of literal keys, 2*(v-1) for x_v and
2*(v-1) + 1 for ~x_v.  ``Clause.from_ints`` canonicalizes signed DIMACS
literals (anything but a non-bool integer is an error): sorted by key,
duplicates removed, complementary pairs rejected.  A ``Formula`` also keeps,
per variable value, the bitset of clause instances that value makes true.
``Formula.split`` evaluates an assigned prefix from those bitsets: the
satisfied instances are the OR of one bitset per prefix variable, and the
undecided ones are the unsatisfied instances with a literal past the
prefix; a full assignment leaves none undecided.  ``_count_rows`` is the one
exhaustive sweep over all 2^n assignments, with its cap check: it ORs a
table for the first half of the variables with a table for the rest, one
row of satisfied counts per first-half assignment.  ``is_zeta_satisfiable``
scans the rows for the first maximizer; ``leaf_counts`` joins them into one
array for callers that read many leaves of one formula, such as the greedy
realizability suite.  Each formula also holds the table of its C + 1
possible satisfied fractions, k / C for k = 0..C, which every satisfied
fraction is read from.

The clause universe lists every non-tautological clause of size 1-3 in
block order (all 1-clauses, then 2-clauses, then 3-clauses), lexicographic
by literal-key sequence within a block.  Its coordinates index the
realizability feature and weight vectors built elsewhere.  The universe is
stored packed, as a padded literal-key matrix plus each clause's smallest
variable; clause-to-coordinate lookup is arithmetic.

All arithmetic here is exact: counts are ints, fractions are
``fractions.Fraction``.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, combinations
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # each function that builds an array imports numpy itself
    import numpy as np

MAX_CLAUSE_SIZE = 3

# The caps on exponential and super-cubic work, named once; every cap site
# calls ``_check_cap`` before that work and raises its own module's error.
# Sweeps over all 2^n assignments refuse n above BRUTE_FORCE_CAP;
# enumerations of the 2^(n-h) continuations of a stage-h state refuse n - h
# above ENUMERATION_CAP.  The clause universe, about 4n^3/3 rows, refuses a
# row count above UNIVERSE_CAP: a 1 GiB memory budget over the about 140 B
# by which CLI ``eval``'s peak RSS grows per row (measured from n = 120 to
# 160: 344 to 768 MiB), so n <= 179.
BRUTE_FORCE_CAP = 24
ENUMERATION_CAP = 20
UNIVERSE_CAP = (1 << 30) // 140


def _check_cap(name: str, quantity: str, size: int, cap: int, error: type[Exception]) -> None:
    """Raise ``error`` with the one cap message when size exceeds cap."""
    if size > cap:
        raise error(f"{name} cap exceeded: {quantity}={size} > {cap}")


class CnfError(ValueError):
    """Malformed clause, formula, or DIMACS input."""


def _name(key: int) -> str:
    """The literal with this key: x_v for key 2*(v-1), ~x_v for key 2*(v-1) + 1."""
    return ("~x%d" if key & 1 else "x%d") % ((key >> 1) + 1)


@dataclass(frozen=True)
class Clause:
    """A disjunction of 1-3 literals on distinct variables, as its sorted
    tuple of literal keys: 2*(v-1) for x_v, 2*(v-1) + 1 for ~x_v."""

    key: tuple[int, ...]

    def __post_init__(self) -> None:
        key = self.key
        if not 1 <= len(key) <= MAX_CLAUSE_SIZE:
            raise CnfError(f"clause must have 1..{MAX_CLAUSE_SIZE} literals, got {len(key)}")
        if any(type(k) is not int for k in key):  # True would read as ~x1
            raise CnfError(f"literal keys must be ints, got {key!r}")
        if list(key) != sorted(key):
            raise CnfError("clause literals must be sorted by canonical key")
        if key[0] < 0:
            raise CnfError(f"literal key {key[0]} is negative: variables start at x1")
        # sorted, so two literals on one variable are adjacent
        for a, b in zip(key, key[1:]):
            if a == b:
                raise CnfError(f"duplicate literal {_name(a)} in clause")
            if a >> 1 == b >> 1:
                raise CnfError(f"tautological clause: contains both {_name(a)} and {_name(b)}")

    @classmethod
    def from_ints(cls, lits: Iterable[int]) -> "Clause":
        """Canonicalize signed DIMACS literals: sort, drop duplicates; 0, x, -x, a bool
        or a non-integer raise.  numpy integers are read through ``operator.index``."""
        keys = set()
        for lit in lits:
            if isinstance(lit, bool) or not hasattr(lit, "__index__"):
                raise CnfError(f"literal {lit!r} is not an integer")
            lit = operator.index(lit)
            if lit == 0:
                raise CnfError("literal 0 is reserved as the clause terminator")
            keys.add(2 * abs(lit) - 2 + (lit < 0))
        return cls(tuple(sorted(keys)))

    @property
    def max_variable(self) -> int:
        return (self.key[-1] >> 1) + 1

    def to_ints(self) -> list[int]:
        return [-(k >> 1) - 1 if k & 1 else (k >> 1) + 1 for k in self.key]


@dataclass(frozen=True)
class Formula:
    """A multiset of clauses over variables x1..xn. Duplicate instances count.

    ``value_bits[j][v]`` is the bitset of the instances that x_{j+1} = v
    makes true: bit i is set when instance i holds that literal.
    ``open_bits[h]`` is the bitset of the instances with a literal on
    x_{h+1}..x_n, so ``open_bits[n]`` is 0.
    ``fraction_of[k]`` is ``Fraction(k, clause_count)``.
    """

    n: int
    clauses: tuple[Clause, ...]
    value_bits: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)
    open_bits: tuple[int, ...] = field(init=False, compare=False, repr=False)
    fraction_of: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise CnfError(f"formula needs at least one variable, got n={self.n}")
        if not self.clauses:
            raise CnfError("formula needs at least one clause")
        for i, clause in enumerate(self.clauses):
            if clause.max_variable > self.n:
                raise CnfError(
                    f"clause {i}: variable x{clause.max_variable} exceeds n={self.n}"
                )
        # literal key 2*j + neg is true iff x_{j+1} is assigned 1 - neg
        bits = [0] * (2 * self.n)
        for i, clause in enumerate(self.clauses):
            for k in clause.key:
                bits[k ^ 1] |= 1 << i
        object.__setattr__(self, "value_bits", tuple(zip(bits[::2], bits[1::2])))
        held = accumulate(reversed([b0 | b1 for b0, b1 in self.value_bits]), operator.or_, initial=0)
        object.__setattr__(self, "open_bits", tuple(held)[::-1])
        count = len(self.clauses)
        object.__setattr__(
            self, "fraction_of", tuple(Fraction(k, count) for k in range(count + 1))
        )

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def split(self, prefix: Sequence[int]) -> tuple[int, list[tuple[int, ...]]]:
        """Evaluate every clause instance under an assigned prefix.

        ``prefix[i]`` (0 or 1; callers check) is the value of variable i+1,
        and variables past the prefix are unassigned.  Returns the number
        of satisfied instances and, in formula order, the literal keys left
        in each undecided instance.  Falsified instances appear in neither.
        The satisfied instances are the OR of one ``value_bits`` entry per
        prefix variable, read by truthiness, so bools, numpy integers and
        0.0/1.0 count as their 0/1 values.  The undecided ones are the rest
        of ``open_bits[len(prefix)]``, none for a full assignment.
        """
        acc = 0
        for bits, v in zip(self.value_bits, prefix):
            acc |= bits[1] if v else bits[0]
        cut = 2 * len(prefix)
        undecided = []
        rest = self.open_bits[len(prefix)] & ~acc
        while rest:
            low = rest & -rest
            key = self.clauses[low.bit_length() - 1].key
            # keys are sorted, so the unassigned literals are a suffix
            undecided.append(key if key[0] >= cut else tuple(k for k in key if k >= cut))
            rest ^= low
        return acc.bit_count(), undecided

    @classmethod
    def from_ints(cls, n: int, clauses: Iterable[Iterable[int]]) -> "Formula":
        return cls(n, tuple(Clause.from_ints(c) for c in clauses))

    def to_json(self) -> dict:
        return {"n": self.n, "clauses": [c.to_ints() for c in self.clauses]}


# An assignment is a plain tuple of 0/1 values, one per variable.
Assignment = tuple[int, ...]


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into a canonicalized Formula.

    Lines end at LF, CRLF or CR; clauses may span lines and end at 0.
    Comment lines start with 'c'; a line starting with '%' ends the input;
    one leading byte-order mark is skipped.  A count or literal is an
    optional sign then ASCII digits; a problem or clause line holding '_' or
    any non-ASCII character is an error.  The header's n must be in
    [1, ``sys.maxsize``] and its clause count must match the clauses found.
    Duplicate literals in a clause are dropped; complementary pairs, clauses
    with over three distinct variables, and out-of-range variables are errors.
    """
    n = None
    declared = None
    clauses: list[Clause] = []
    pending: list[int] = []
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break  # SATLIB trailer: '%' then a lone '0'
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise CnfError(f"line {lineno}: duplicate problem line")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise CnfError(f"line {lineno}: bad problem line {line!r}, expected 'p cnf <n> <m>'")
            try:
                n, declared = _ascii_ints(raw, fields[2:])
            except ValueError:
                raise CnfError(f"line {lineno}: non-integer counts in problem line") from None
            if not 1 <= n <= sys.maxsize:
                raise CnfError(
                    f"line {lineno}: 'p cnf' header declares n={n}, "
                    f"expected a positive integer no larger than {sys.maxsize}"
                )
            continue
        if n is None:
            raise CnfError(f"line {lineno}: clause before 'p cnf' header")
        try:
            values = _ascii_ints(raw, line.split())
        except ValueError:
            raise CnfError(f"line {lineno}: non-integer token in clause") from None
        for value in values:
            if value == 0:
                if not pending:
                    raise CnfError(f"line {lineno}: empty clause")
                try:
                    clause = Clause.from_ints(pending)
                except CnfError as exc:
                    raise CnfError(f"line {lineno} (clause {len(clauses) + 1}): {exc}") from None
                if clause.max_variable > n:
                    raise CnfError(
                        f"line {lineno}: variable x{clause.max_variable} out of range (n={n})"
                    )
                clauses.append(clause)
                pending = []
            else:
                pending.append(value)
    if n is None:
        raise CnfError("missing 'p cnf' header")
    if pending:
        raise CnfError("last clause is not 0-terminated")
    if declared != len(clauses):
        raise CnfError(f"header declares {declared} clauses but {len(clauses)} were found")
    return Formula(n, tuple(clauses))


def _ascii_ints(line: str, tokens: list[str]) -> list[int]:
    if "_" in line or not line.isascii():
        raise ValueError(line)
    return [int(tok) for tok in tokens]


def satisfied_fraction(formula: Formula, assignment: Sequence[int]) -> Fraction:
    """Exact fraction of clause instances satisfied by a full assignment."""
    if len(assignment) != formula.n:
        raise CnfError(f"assignment length {len(assignment)} != n={formula.n}")
    if any(v not in (0, 1) for v in assignment):
        raise CnfError("assignment entries must be 0 or 1")
    return formula.fraction_of[formula.split(assignment)[0]]


def occurrence_bound(formula: Formula) -> int:
    """Max over variables of the number of clause instances the variable appears in."""
    # a canonical clause holds each variable at most once
    return max((b0 | b1).bit_count() for b0, b1 in formula.value_bits)


def _or_table(value_bits: Sequence[tuple[int, int]]) -> list[int]:
    """The OR of one bitset per variable for each assignment, in lexicographic order."""
    table = [0]
    for b0, b1 in value_bits:
        table = [t | b for t in table for b in (b0, b1)]
    return table


def _count_rows(formula: Formula) -> Iterator[list[int]]:
    """The satisfied counts of all 2^n assignments, one row per value i of the
    first n // 2 variables (x1 the high bit), so the rows joined are in index
    order; O(2^(n/2)) ints are held at once.  CnfError above
    ``BRUTE_FORCE_CAP`` variables, raised on the call, before any row.
    """
    n = formula.n
    _check_cap("brute-force", "n", n, BRUTE_FORCE_CAP, CnfError)
    lows = _or_table(formula.value_bits[n // 2:])
    return (
        [(high | low).bit_count() for low in lows]
        for high in _or_table(formula.value_bits[: n // 2])
    )


def leaf_counts(formula: Formula) -> np.ndarray:
    """The int64 satisfied count of each of the 2^n assignments; entry i belongs to
    the assignment whose bits, x1 first, spell i.  CnfError above the cap."""
    import numpy as np

    rows = _count_rows(formula)
    return np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=1 << formula.n)


def is_zeta_satisfiable(
    formula: Formula, zeta: Fraction | float | int
) -> tuple[bool, Assignment, Fraction]:
    """Exhaustively maximize the satisfied fraction over all 2^n assignments.

    Returns (max >= zeta, argmax assignment, max fraction).  The argmax is
    the lexicographically first maximizer over tuples ordered 0 < 1, kept
    by a strict ``>`` over the rows of ``_count_rows``.  CnfError above
    ``BRUTE_FORCE_CAP`` variables.
    """
    n = formula.n
    best_count = best_index = -1
    for i, counts in enumerate(_count_rows(formula)):
        top = max(counts)
        if top > best_count:  # strict, so the first maximizer stays
            best_count, best_index = top, i * len(counts) + counts.index(top)
    best = tuple((best_index >> s) & 1 for s in range(n - 1, -1, -1))
    value = formula.fraction_of[best_count]
    return value >= zeta, best, value


def universe_block_sizes(n: int) -> tuple[int, int, int]:
    """Closed-form counts of valid 1-, 2-, and 3-clauses over n variables."""
    if n < 1:
        raise CnfError(f"need n >= 1, got {n}")
    ell1 = 2 * n
    ell2 = comb(2 * n, 2) - n
    ell3 = comb(2 * n, 3) - 2 * n * n + 2 * n
    return ell1, ell2, ell3


@dataclass(frozen=True, eq=False)
class ClauseUniverse:
    """The ordered list of every valid clause of size 1-3 over n variables.

    Blocks: 1-clauses, then 2-clauses, then 3-clauses; lexicographic by
    literal-key sequence inside each block.  Row i of ``keys`` holds the
    literal keys of the clause at coordinate i, padded with -1, and
    ``min_var[i]`` is its smallest variable index.  ``valid``, ``var0``
    and ``neg`` decode ``keys`` once: whether a slot holds a literal, its
    0-based variable (0 in padding slots) and whether it is negated
    (False in padding slots).  Every array is read-only.  ``index_of`` inverts the order arithmetically:
    inside a block, the clauses sharing all but their last literal sit at
    consecutive coordinates, one per admissible last key, so a coordinate
    is the offset of its leading keys plus its last key.  ``_offset[a][b]``
    holds that offset for 3-clauses starting with keys a, b, and
    ``_offset[-1][a]`` for 2-clauses starting with key a.
    """

    n: int
    keys: np.ndarray = field(repr=False)
    min_var: np.ndarray = field(repr=False)
    valid: np.ndarray = field(repr=False)
    var0: np.ndarray = field(repr=False)
    neg: np.ndarray = field(repr=False)
    _offset: list[list[int]] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.keys)

    def index_of(self, key: tuple[int, ...]) -> int:
        """Coordinate of the clause with these sorted literal keys (``Clause.key``).

        CnfError if the clause has a variable above n.
        """
        if key[-1] >= 2 * self.n:
            raise CnfError(f"clause with literal keys {key} is not in the universe (n={self.n})")
        if len(key) == 3:
            a, b, c = key
            return self._offset[a][b] + c
        if len(key) == 2:
            a, b = key
            return self._offset[-1][a] + b
        return key[0]

    def to_json(self) -> dict:
        import numpy as np

        # padding keys (-1) map to the signed literal 0
        signed = np.where(self.keys & 1, -(self.keys >> 1) - 1, (self.keys >> 1) + 1)
        return {"n": self.n, "clauses": [[v for v in row if v] for row in signed.tolist()]}


def enumerate_universe(n: int) -> ClauseUniverse:
    """The valid-clause universe for n variables in canonical order; CnfError
    above ``UNIVERSE_CAP`` rows, raised before any allocation."""
    import numpy as np

    sizes = universe_block_sizes(n)
    _check_cap("universe", "rows", sum(sizes), UNIVERSE_CAP, CnfError)
    blocks = []
    for width in (1, 2, 3):
        combos = np.fromiter(
            chain.from_iterable(combinations(range(2 * n), width)),
            dtype=np.int64,
            count=comb(2 * n, width) * width,
        ).reshape(-1, width)
        # two keys on the same variable are adjacent and differ only in the low bit
        distinct = (combos[:, 1:] >> 1 != combos[:, :-1] >> 1).all(axis=1)
        block = np.full((int(distinct.sum()), 3), -1, dtype=np.int64)
        block[:, :width] = combos[distinct]
        blocks.append(block)
    keys = np.concatenate(blocks)
    if len(keys) != sum(sizes):
        raise CnfError(f"universe size {len(keys)} disagrees with closed form {sum(sizes)}")
    index = np.arange(len(keys))
    pairs = slice(sizes[0], sizes[0] + sizes[1])
    triples = slice(sizes[0] + sizes[1], None)
    offset = np.zeros((2 * n + 1, 2 * n), dtype=np.int64)
    offset[-1, keys[pairs, 0]] = index[pairs] - keys[pairs, 1]
    offset[keys[triples, 0], keys[triples, 1]] = index[triples] - keys[triples, 2]
    min_var = (keys[:, 0] >> 1) + 1
    valid = keys >= 0
    var0 = np.where(valid, keys >> 1, 0)
    neg = valid & (keys & 1 == 1)
    for array in (keys, min_var, valid, var0, neg):
        array.flags.writeable = False
    return ClauseUniverse(n, keys, min_var, valid, var0, neg, offset.tolist())
