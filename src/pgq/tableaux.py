"""Partitions, skew tableaux, Littlewood-Richardson counts and gamma statistics.

Partitions are plain tuples of weakly decreasing positive integers.  A skew
tableau is a filled skew diagram outer/inner; row i occupies columns
inner[i]..outer[i]-1 (0-based).  Semistandardness and the lattice property
are checkable predicates, never enforced by construction.

One filling kernel, _row_fillings, backtracks over one row of a skew shape
at a time, on the live letter counts of the rows above it: a
Littlewood-Richardson coefficient counts the fillings of lam/mu by content,
each row r filled from column mu_r, and the lemma verifiers' corpus grows a
row tree, each new row filled from every start column.

The module also carries the exhaustive verifiers for four combinatorial
inequalities about semistandard lattice skew tableaux, and a brute-force
linear-algebra oracle over GF(p) that recomputes which (submodule, quotient)
partition pairs a nilpotent Jordan module admits, independently of the
Littlewood-Richardson route.  In the row tree each tableau is its parent
plus one bottom row.  Each lemma's prover carries exact state down the tree
and clears a child from a clean parent and its new row; a node it does not
clear runs the lemma's exact check on its shape's layout, and violations
are reported in corpus order.  split_at_column, content and gamma are the
checks' references in the tests.  The oracle tests the invariance of a
whole block of RREF bases, one numpy array per pivot set, at once, and
reads the ranks of N's powers off the pivot set; only a type whose block
sizes differ by more than one ranks its bases one at a time.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, lru_cache

import numpy as np

from .numtheory import is_prime
from .schema import FrozenRecord


Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    for x in parts:  # every part an int before any is compared
        if not isinstance(x, int):
            return False
    return _is_partition_of_ints(parts)


def _is_partition_of_ints(parts: tuple) -> bool:
    """is_partition for a tuple whose parts are all ints."""
    return all(map(operator.ge, parts, parts[1:])) and (not parts or parts[-1] >= 1)


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"{parts} is not a partition (weakly decreasing positive parts)")
    return parts


def weight(parts) -> int:
    return sum(parts)


def is_subpartition(mu, lam) -> bool:
    """mu_i <= lam_i for all i, with mu padded by zeros."""
    mu, lam = tuple(mu), tuple(lam)
    return ((len(mu) <= len(lam) or all(map(operator.eq, mu[len(lam):], itertools.repeat(0))))
            and all(map(operator.le, mu, lam)))


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n with parts bounded by max_part, largest part first."""
    if n == 0:
        return ((),)
    cap = n if max_part is None else min(max_part, n)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def subpartitions(lam):
    """All subpartitions of the partition lam (weakly decreasing, componentwise
    <= lam), in decreasing lexicographic order: lam first, () last."""
    lam = check_partition(lam)
    mu = list(lam)
    while True:
        nonzero = len(mu) - mu.count(0)  # the zeros trail
        yield tuple(mu[:nonzero])
        if not nonzero:
            return
        # the next one down: lower the last nonzero part, refill the rest
        mu[nonzero - 1] -= 1
        for j in range(nonzero, len(mu)):
            mu[j] = min(mu[j - 1], lam[j])


class SkewShape(FrozenRecord):
    """Skew diagram outer/inner; inner must be a subpartition of outer."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition):
        check_partition(outer)
        check_partition(inner)
        if not is_subpartition(inner, outer):
            raise ValueError(f"{inner} is not a subpartition of {outer}")
        super().__init__(outer, inner)

    def inner_at(self, i: int) -> int:
        return self.inner[i] if i < len(self.inner) else 0

    @property
    def n_boxes(self) -> int:
        return weight(self.outer) - weight(self.inner)

    def cells(self):
        """(row, col) pairs, row-major."""
        for i, lam in enumerate(self.outer):
            for j in range(self.inner_at(i), lam):
                yield i, j


class SkewTableau(FrozenRecord):
    """A skew shape with one positive-integer entry per box (rows left to right)."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: SkewShape, rows: tuple[tuple[int, ...], ...]):
        if len(rows) != len(shape.outer):
            raise ValueError("one entry tuple per outer row is required")
        for i, row in enumerate(rows):
            need = shape.outer[i] - shape.inner_at(i)
            if len(row) != need:
                raise ValueError(f"row {i} must hold {need} entries, got {len(row)}")
            if any(e < 1 for e in row):
                raise ValueError("entries must be positive integers")
        super().__init__(shape, rows)

    @classmethod
    def from_rows(cls, outer, inner, rows) -> "SkewTableau":
        return cls(SkewShape(tuple(outer), tuple(inner)), tuple(tuple(r) for r in rows))

    def entry(self, i: int, j: int) -> int:
        """Entry in row i, absolute column j."""
        return self.rows[i][j - self.shape.inner_at(i)]

    @property
    def n_boxes(self) -> int:
        return self.shape.n_boxes

    def to_json(self) -> dict:
        return {
            "outer": list(self.shape.outer),
            "inner": list(self.shape.inner),
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SkewTableau":
        return cls.from_rows(tuple(doc["outer"]), tuple(doc["inner"]), doc["rows"])


def reading_word(t: SkewTableau) -> list[int]:
    """Rows top to bottom, each row read right to left."""
    word = []
    for row in t.rows:
        word.extend(reversed(row))
    return word


def is_lattice_word(word) -> bool:
    """Every prefix holds at least as many i as i+1, for every letter i."""
    counts: dict[int, int] = {}
    for e in word:
        counts[e] = counts.get(e, 0) + 1
        if e > 1 and counts[e] > counts.get(e - 1, 0):
            return False
    return True


def has_lattice_property(t: SkewTableau) -> bool:
    return is_lattice_word(reading_word(t))


def content(t: SkewTableau) -> tuple[int, ...]:
    """Letter-count vector (nu_1, nu_2, ...); weakly decreasing whenever the
    tableau satisfies the lattice property, and possibly not otherwise."""
    word = reading_word(t)
    if not word:
        return ()
    top = max(word)
    return tuple(word.count(i) for i in range(1, top + 1))


def gamma(s: int, obj) -> int:
    """Number of parts (partition) or content entries (tableau) of size >= s."""
    if isinstance(obj, SkewTableau):
        obj = content(obj)
    return sum(1 for v in obj if v >= s)


# -- the filling kernel and Littlewood-Richardson counts ---------------------


class _ShapeTables:
    """The layout of one skew shape outer/inner for the exact lemma checks,
    built straight from the two partitions, which are trusted (inner inside
    outer, at least one cell): the first column of each row and the occupied
    columns left..left+ell-1.  On first use: the validated SkewShape and the
    rectangles."""

    def __init__(self, outer: Partition, inner: Partition):
        self.outer, self.inner = outer, inner
        self.starts = [*inner, *[0] * (len(outer) - len(inner))]
        self.occupied = [i for i, (o, s) in enumerate(zip(outer, self.starts)) if o > s]
        # starts and outer both weakly decrease down the rows
        self.left = self.starts[self.occupied[-1]]
        self.ell = outer[self.occupied[0]] - self.left

    @cached_property
    def shape(self) -> SkewShape:
        return SkewShape(self.outer, self.inner)

    @cached_property
    def rectangles(self) -> list[tuple[int, int]]:
        """(h, k) for every fully contained h x k rectangle that is maximal
        downwards from its top row: starts and outer weakly decrease, so the
        one from row r0 down to row i spans columns starts[r0]..outer[i]-1."""
        return [(i - r0 + 1, self.outer[i] - s) for r0, s in enumerate(self.starts)
                for i in range(r0, len(self.outer)) if self.outer[i] > s]

    def tableau_json(self, rows) -> dict:
        return SkewTableau(self.shape, rows).to_json()


def _row_fillings(counts, floors, o, cap, last, first=0):
    """The filling kernel: every filling (s, row) of columns s..o-1 of a new
    bottom row, first <= s <= last, by backtracking right to left (Knuth,
    TAOCP 4A, 7.2.2, Algorithm B).  An entry is at most its right neighbour
    (cap for the rightmost), at least floors[j], and e only if counts[e] <
    counts[e - 1] on the live letter counts, counts[0] exceeding every count.
    A filling from s extends one from s + 1, and first is the leftmost
    column a row may start at.  The counts include the row it yields."""
    if last >= o:
        yield o, ()
    if first >= o:
        return
    row = [0] * o + [cap]
    j = o - 1
    while j < o:
        e = row[j]
        if e:  # resumed: take the entry back and try the next letter
            counts[e] -= 1
            e += 1
        else:
            e = floors[j]
        while e <= row[j + 1] and counts[e] >= counts[e - 1]:
            e += 1
        if e > row[j + 1]:
            row[j] = 0
            j += 1
            continue
        row[j] = e
        counts[e] += 1
        if j <= last:
            yield j, tuple(row[j:o])
        if j > first:
            j -= 1


@lru_cache(maxsize=1024)
def _lr_contents(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """The number of semistandard lattice fillings of lam/mu of each content:
    the kernel fills the rows top to bottom, row r from column mu_r, and each
    leaf is counted under its letter counts, a partition.  Row r holds no
    letter above r + 1, since the first letter read in it is its largest and
    at most one above some letter read before."""
    starts = [*mu, *[0] * (len(lam) - len(mu))]
    counts = [sum(lam) + 1] + [0] * len(lam)
    tally: dict[Partition, int] = {}

    def fill(r, floors):
        if r == len(lam):
            nu = tuple(itertools.takewhile(bool, counts[1:]))
            tally[nu] = tally.get(nu, 0) + 1
            return
        s = starts[r]
        for _, row in _row_fillings(counts, floors, lam[r], r + 1, s, s):
            fill(r + 1, [1] * s + [e + 1 for e in row])

    fill(0, [1] * max(lam, default=0))
    return tally


def lr_coefficient(lam, mu, nu) -> int:
    """Number of semistandard lattice fillings of lam/mu with content nu.

    Violated preconditions (weight mismatch, mu not inside lam, nu not a
    partition) yield 0, and so does nu not inside lam (c^lam_{mu nu} =
    c^lam_{nu mu}), all without running the filling kernel.  Otherwise the
    fillings of lam/mu of every content are counted at once and cached per
    (lam, mu), since callers ask for every nu of one shape: a single query
    pays for all the contents, on (7,6,5,4,3,2,1)/(4,3,2,1) some 25 times
    the work of counting one content alone.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    for x in lam + mu + nu:  # every part an int before any is compared
        if not isinstance(x, int):
            return 0
    # a partition has no zero part, so one inside lam is no longer than lam
    if not (len(mu) <= len(lam) >= len(nu) and sum(mu) + sum(nu) == sum(lam)
            and all(map(operator.le, mu, lam)) and all(map(operator.le, nu, lam))
            and _is_partition_of_ints(lam) and _is_partition_of_ints(mu)
            and _is_partition_of_ints(nu)):
        return 0
    return _lr_contents(lam, mu).get(nu, 0)


# -- the corpus as a row tree -------------------------------------------------


def _inner(starts) -> Partition:
    return tuple(starts[:len(starts) - starts.count(0)])  # the zeros trail


def _corpus_key(outer, starts, rows):
    """Weight, outer in partitions_of order, inner in subpartitions order, word."""
    return (sum(outer), [-x for x in outer], [-x for x in starts],
            [e for row in rows for e in reversed(row)])


def _row_tree(max_boxes: int, checks):
    """Every corpus tableau once, depth first: a root is row 0, all 1s; a
    child adds a bottom row r, maybe empty, with outer[r] <= outer[r - 1] and
    starts[r] <= min(starts[r - 1], outer[r]).  A prover gives the child's
    state and whether its new row keeps a clean parent clean; a node it does
    not clear runs the check, whose result says if its children start clean.
    Yields (outer, starts, rows, counts, states, found): four live lists,
    then per check (state, clean) and the violations at the node."""
    provers = [_PROVERS.get(check) for check in checks]
    outer, starts, rows = [], [], []
    counts = [max_boxes + 1] + [0] * (max_boxes + 1)

    def grow(weight, states):
        r = len(rows)
        # the roots' parent is the empty tableau, and row 0 holds a box
        above, sa, oa = (rows[-1], starts[-1], outer[-1]) if r else ((), max_boxes, max_boxes)
        floors = [1] * sa + [e + 1 for e in above]
        for o in range(1, min(oa, max_boxes - weight) + 1):
            outer.append(o)
            for s, row in _row_fillings(counts, floors, o, r + 1, min(sa, o - (not r))):
                starts.append(s)
                rows.append(row)
                child, found = [], []
                for check, prove, (state, clean) in zip(checks, provers, states):
                    state, passed = (prove(state, outer, starts, rows, counts) if prove
                                     else (None, False))
                    found.append([] if clean and passed else check(
                        _ShapeTables(tuple(outer), _inner(starts)), tuple(rows), counts))
                    child.append((state, not found[-1]))
                yield outer, starts, rows, counts, child, found
                if weight + o < max_boxes:
                    yield from grow(weight + o, child)
                del starts[-1], rows[-1]
            outer.pop()

    yield from grow(0, [(None, True)] * len(checks))


def enumerate_corpus(max_boxes: int):
    """Deterministic corpus: every semistandard lattice skew tableau whose
    outer partition has weight <= max_boxes and whose first row is nonempty
    (empty leading rows are translated away; larger translates of the same
    diagram re-occur at higher budgets)."""
    found = [(_corpus_key(outer, starts, rows), SkewTableau.from_rows(outer, _inner(starts), rows))
             for outer, starts, rows, *_ in _row_tree(max_boxes, [])]
    yield from (t for _, t in sorted(found, key=operator.itemgetter(0)))


# -- the four exhaustively verified inequalities ----------------------------
#
# Each check reads one tableau as (tables, rows, counts): the tables of its
# shape, its row tuples and its letter counts, counts[e] for every letter
# e >= 1 and counts[0] unused.  A prover reads a lattice content, a
# partition, so gamma_k >= h exactly when counts[h] >= k.


class VerifierReport:
    def __init__(self, checked: int, violations: list):
        self.checked, self.violations = checked, violations

    def __eq__(self, other):
        if other.__class__ is not VerifierReport:
            return NotImplemented
        return (self.checked, self.violations) == (other.checked, other.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"checked": self.checked, "violations": self.violations}


def _gamma_table(counts, size: int) -> list[int]:
    """table[s] = gamma(s, content) for 1 <= s < size, from the letter counts
    counts[1:] (zeros allowed); table[0] is unused."""
    at_least = [0] * size  # at_least[min(c, size - 1)] counts each c
    for c in counts[1:]:
        at_least[c if c < size else size - 1] += 1
    return list(itertools.accumulate(reversed(at_least)))[::-1]


def _check_small_branch(tables, rows, counts) -> list:
    """In w(b), the entry of b occurs at least (boxes right of b in its row)+1 times."""
    bad = []
    seen = [0] * len(counts)  # occurrences in the word read so far
    for i, row in enumerate(rows):
        for k, e in enumerate(reversed(row)):  # k boxes strictly right of this one
            seen[e] += 1
            if seen[e] <= k:
                bad.append({"tableau": tables.tableau_json(rows), "row": i,
                            "right_boxes": k, "entry": e})
    return bad


def _prove_small_branch(state, outer, starts, rows, counts):
    """The new row's boxes only: a run of e from place q of the row of n holds
    exactly when counts[e] >= n - q; earlier boxes keep their prefixes."""
    row, n = rows[-1], len(rows[-1])
    return None, all(counts[e] >= n - q for q, e in enumerate(row) if not q or row[q - 1] != e)


def _check_full_rectangle(tables, rows, counts) -> list:
    """Every fully contained h x k rectangle forces gamma_k >= h (maximal ones suffice)."""
    g = _gamma_table(counts, tables.ell + 1)
    return [{"tableau": tables.tableau_json(rows), "h": h, "k": k, "gamma_k": g[k]}
            for h, k in tables.rectangles if g[k] < h]


def _prove_full_rectangle(state, outer, starts, rows, counts):
    """state: the first top row r0 of a rectangle down to the last row r; as
    in _ShapeTables.rectangles, every r0 from it on has one.  Only these new
    rectangles are tested: gamma only grows down the tree."""
    r, o, first = len(rows) - 1, outer[-1], state or 0
    while first <= r and starts[first] >= o:
        first += 1
    return first, all(counts[r + 1 - r0] >= o - starts[r0] for r0 in range(first, r + 1))


def _check_columns_between_lines(tables, rows, counts) -> list:
    """If the first ell-k columns sit between rows c+1..c+h then gamma_{k+1} <= h.

    Checked at the tightest applicable (c, h) for each k (weaker pairs follow);
    k = 0 is included since a tableau inside h rows must have gamma_1 <= h.
    """
    g = _gamma_table(counts, tables.ell + 2)
    return [{"tableau": tables.tableau_json(rows), "k": k, "h": h, "gamma": g[k + 1]}
            for k, h in enumerate(_heights(tables.outer, tables.starts)) if g[k + 1] > h]


def _heights(outer, starts) -> list[int]:
    """For 0 <= k <= ell the least h with the first ell-k columns in h rows (1
    with no box there: any h >= 1 holds), by one pointer sweep down the
    starts: the rows with a box left of the cut start left of it."""
    occupied = [i for i, (o, s) in enumerate(zip(outer, starts)) if o > s]
    hs, j = [], 0
    for cut in range(outer[occupied[0]], starts[occupied[-1]], -1):
        while starts[occupied[j]] >= cut:
            j += 1
        hs.append(occupied[-1] - occupied[j] + 1)
    return hs + [1]  # k = ell: no box left of the cut


def _prove_columns_between_lines(state, outer, starts, rows, counts):
    """state: h for each k, straight from the rows' starts."""
    if starts[-1] == outer[-1]:
        return state, True  # the parent's tableau with an empty row
    hs = _heights(outer, starts)
    return hs, all(counts[h + 1] <= k for k, h in enumerate(hs))


def split_at_column(t: SkewTableau, k: int):
    """The part strictly right of the first k geometric columns, re-rooted
    (the empty tableau when the cut leaves nothing)."""
    # with no box, every row lies left of the cut
    cut = k + min((j for _, j in t.shape.cells()), default=sum(t.shape.outer))
    outer, inner, rows = [], [], []
    for i, lam in enumerate(t.shape.outer):
        off = t.shape.inner_at(i)
        if lam - cut <= 0:
            continue
        outer.append(lam - cut)
        inner.append(max(off - cut, 0))
        rows.append(tuple(t.entry(i, j) for j in range(max(off, cut), lam)))
    while inner and inner[-1] == 0:
        inner.pop()
    return SkewTableau.from_rows(tuple(outer), tuple(inner), rows)


def _semistandard_cut(rows, starts) -> int:
    """The least column c such that the cells in columns >= c form a
    semistandard filling, row i starting at column starts[i] (the starts
    weakly decrease, as in a skew shape): a row descent into column j
    survives every cut up to j - 1, a column clash in column j every cut up
    to j."""
    least = 0
    above = ()
    for row, s in zip(rows, starts):
        if len(row) > 1 and any(map(operator.gt, row, row[1:])):
            least = max(least, s + max(q for q in range(1, len(row)) if row[q - 1] > row[q]))
        # the row above starts at sa >= s: below its columns sa, sa + 1, ...
        # lie row[sa - s], row[sa - s + 1], ...
        if above and any(map(operator.ge, above, row[sa - s:])):
            least = max(least, 1 + sa + max(q for q, (a, b) in enumerate(zip(above, row[sa - s:]))
                                            if a >= b))
        above, sa = row, s
    return least


def _check_divided_tableau(tables, rows, counts) -> list:
    """Cutting off the left k columns leaves a semistandard lattice tableau T'
    with gamma_{n+k}(T) <= gamma_n(T') for every n.

    T' is read straight from the rows of T: split_at_column keeps the rows
    that reach past the cut, in order, so adjacency, the reading word and the
    content of T' are those of the cells of T right of the cut.  Each cut
    reads those cells once, in reading order, and stops at the first letter
    that breaks the lattice property.  The content r of a lattice T' is a
    partition, and containment of partitions is preserved by conjugation
    (Macdonald, ch. I, 1), so with t the letter counts of T in decreasing
    order the inequalities hold for every n exactly when t_j - r_j <= k for
    every j.  Only a cut that fails this is compared n by n, for
    n <= most - k, most the largest letter count, since gamma_{n+k}(T) is 0
    past it."""
    bad = []
    t = sorted(counts[1:], reverse=True)
    most = t[0]
    nothing = [most + 1] + [0] * len(t)  # index 0 exceeds every count
    reading = [row[::-1] for row in rows]
    semistandard_from = _semistandard_cut(rows, tables.starts)
    for k in range(tables.ell + 1):
        cut = tables.left + k
        if cut < semistandard_from:
            bad.append({"tableau": tables.tableau_json(rows), "k": k,
                        "reason": "right part not SSLT"})
            continue
        right = nothing.copy()
        for word, o in zip(reading, tables.outer):
            if o <= cut:
                continue  # the row lies left of the cut
            for e in word[:o - cut]:
                c = right[e] + 1
                if c > right[e - 1]:
                    break
                right[e] = c
            else:
                continue
            bad.append({"tableau": tables.tableau_json(rows), "k": k,
                        "reason": "right part not SSLT"})
            break
        else:
            if max(map(operator.sub, t, right[1:])) > k:
                lhs = _gamma_table(counts, most + 1)
                rhs = _gamma_table(right, most - k + 1)
                bad.extend({"tableau": tables.tableau_json(rows), "k": k, "n": n,
                            "lhs": lhs[n + k], "rhs": rhs[n]}
                           for n in range(1, most - k + 1) if lhs[n + k] > rhs[n])
    return bad


def _prove_divided_tableau(state, outer, starts, rows, counts):
    """state: _semistandard_cut of the rows, from the new row and the one
    above; the first occupied column; and per absolute cut c <= outer[0],
    (lattice, right): right[e] counts the letters e right of the cut
    (right[0] exceeds every count), read as a lattice word or not.  The
    bottom row is read last: its boxes right of the cut extend both.  The
    columns strictly increase, so the k columns left of a cut hold a letter
    at most k times: t - r <= k, and the check's n-by-n test never runs."""
    s, o, row = starts[-1], outer[-1], rows[-1]
    if o == s:
        return state, True  # the parent's tableau with an empty row
    least, left, rights = state or (0, s, [(True, [counts[0]] + [0] * (len(counts) - 1))]
                                    * (outer[0] + 1))
    least, left = max(least, _semistandard_cut(rows[-2:], starts[-2:])), min(left, s)
    ok = least <= left
    rights = rights.copy()
    for c in range(o):
        lattice, right = rights[c]
        right = right.copy()
        for e in reversed(row[max(c - s, 0):]):
            right[e] += 1
            lattice = lattice and right[e] <= right[e - 1]
        rights[c] = lattice, right
        ok = ok and (lattice or c < left)
    return (least, left, rights), ok


def _run_verifier(max_boxes: int, checks) -> list[VerifierReport]:
    """One report per check, all from one walk of the row tree, the
    violations in corpus order (those of one tableau in the check's)."""
    if max_boxes > 12:
        raise ValueError("enumeration budget capped at 12 boxes")
    checked, violations = 0, [[] for _ in checks]
    for outer, starts, rows, _, _, found in _row_tree(max_boxes, checks):
        checked += 1
        for into, bad in zip(violations, found):
            if bad:
                into.append((_corpus_key(outer, starts, rows), bad))
    return [VerifierReport(checked, [v for _, bad in sorted(into, key=operator.itemgetter(0))
                                     for v in bad]) for into in violations]


def verify_lemma_small_branch(max_boxes: int) -> VerifierReport:
    return _run_verifier(max_boxes, [_check_small_branch])[0]


def verify_lemma_full_rectangle(max_boxes: int) -> VerifierReport:
    return _run_verifier(max_boxes, [_check_full_rectangle])[0]


def verify_lemma_columns_between_lines(max_boxes: int) -> VerifierReport:
    return _run_verifier(max_boxes, [_check_columns_between_lines])[0]


def verify_lemma_divided_tableau(max_boxes: int) -> VerifierReport:
    return _run_verifier(max_boxes, [_check_divided_tableau])[0]


ALL_VERIFIERS = {
    "small-branch": verify_lemma_small_branch,
    "full-rectangle": verify_lemma_full_rectangle,
    "columns-between-lines": verify_lemma_columns_between_lines,
    "divided-tableau": verify_lemma_divided_tableau,
}

_CHECKS = {
    "small-branch": _check_small_branch,
    "full-rectangle": _check_full_rectangle,
    "columns-between-lines": _check_columns_between_lines,
    "divided-tableau": _check_divided_tableau,
}

_PROVERS = {
    _check_small_branch: _prove_small_branch,
    _check_full_rectangle: _prove_full_rectangle,
    _check_columns_between_lines: _prove_columns_between_lines,
    _check_divided_tableau: _prove_divided_tableau,
}


def verify_lemmas(max_boxes: int, names) -> dict[str, VerifierReport]:
    """The reports of the named verifiers of ALL_VERIFIERS, all from one
    enumeration of the corpus."""
    return dict(zip(names, _run_verifier(max_boxes, [_CHECKS[n] for n in names])))


# -- module partitions and the submodule/quotient criterion ------------------


class ModulePartition(FrozenRecord):
    """Isomorphism type of a module over a cyclic group of order p in
    characteristic p: the multiset of indecomposable summand dimensions,
    every part at most p."""

    __slots__ = ("p", "parts")

    def __init__(self, p: int, parts: Partition):
        if p < 3 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        check_partition(parts)
        if any(x > p for x in parts):
            raise ValueError(f"parts of {parts} must be at most p={p}")
        super().__init__(p, parts)

    @property
    def dim(self) -> int:
        return weight(self.parts)


def submodule_quotient_exists(m: ModulePartition, u: ModulePartition, q: ModulePartition) -> bool:
    """Whether a module of type m has a submodule of type u with quotient of
    type q; decided by non-vanishing of the corresponding LR coefficient.
    Weight mismatch is answered False."""
    if not (m.p == u.p == q.p):
        raise ValueError("module partitions must share the same prime")
    if u.dim + q.dim != m.dim:
        return False
    return lr_coefficient(m.parts, u.parts, q.parts) > 0


# -- independent Jordan oracle over GF(p) ------------------------------------


#: the most RREF bases one array holds: at d = 6 and p = 3 only the pivot set
#: (0, 1, 2), with 3^9 bases, needs two chunks, and no block is kept
_CHUNK = 1 << 14


@lru_cache(maxsize=None)
def _digit_table(p: int, dtype) -> np.ndarray:
    """Row i holds the n base-p digits of i, least significant first, for
    every i < p^n: n is the most digits with p^n <= _CHUNK, or one when p
    exceeds it."""
    n = 1
    while p ** (n + 1) <= _CHUNK:
        n += 1
    return np.indices((p,) * n, dtype).reshape(n, -1)[::-1].T.copy()


def _rref_blocks(p: int, d: int):
    """Every subspace of GF(p)^d exactly once, as its RREF basis, grouped by
    pivot set.  Yields (pivots, block), block an array of shape (M, k, d)
    holding M <= _CHUNK bases with those k pivots: row j has a 1 at pivots[j],
    zeros left of it and at the other pivots, and ranges freely over the
    remaining columns to its right.  Basis i of a pivot set takes the base-p
    digits of i, least significant first, as its free entries: _digit_table
    rows looked up by i's base-p^n digits.  Entries stay below p, so every
    residue the invariance test forms lies within k(p-1)^2 + p of zero: int16
    while that bound is below 2^15, int64 past it."""
    dtype = np.int16 if d * (p - 1) ** 2 + p < 2**15 else np.int64
    digits = _digit_table(p, dtype)
    base, width = digits.shape
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            ones = [j * d + c for j, c in enumerate(pivots)]  # places in a flattened basis
            free = [j * d + c for j, pc in enumerate(pivots)
                    for c in range(pc + 1, d) if c not in pivots]
            total = p ** len(free)
            for start in range(0, total, _CHUNK):
                stop = min(start + _CHUNK, total)
                block = np.zeros((stop - start, k * d), dtype)
                block[:, ones] = 1
                block[:, free] = (digits[start:stop] if total <= base else np.hstack(
                    [digits.take(np.arange(start, stop) // p**s % base, axis=0)
                     for s in range(0, len(free), width)]))[:, :len(free)]
                yield pivots, block.reshape(stop - start, k, d)


def _extend(vectors, p) -> int:
    """Rank over GF(p) of the vectors: each is reduced by the echelon rows
    kept so far (a 1 at each row's pivot, zeros at the pivots of the rows
    before it) and, when a residue is left, appended scaled to a leading 1."""
    rows, pivots = [], []
    for v in vectors:
        for row, c in zip(rows, pivots):
            if f := v[c]:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            inv = pow(v[c], -1, p)
            rows.append([x * inv % p for x in v])
            pivots.append(c)
    return len(rows)


def _jordan_type_from_ranks(dim: int, ranks: list[int]) -> Partition:
    """Block sizes from the ranks of N^1, N^2, ... on the space, the ranks
    not listed being zero.  rank N^(s-1) - rank N^s counts the blocks of size
    at least s, so the block sizes are the conjugate of those differences."""
    r = [dim, *ranks, 0]
    ge = [a - b for a, b in zip(r, r[1:])]
    return tuple(sum(g >= i for g in ge) for i in range(1, ge[0] + 1))


def jordan_submodule_quotient_pairs(p: int, parts) -> frozenset:
    """Brute force: all (submodule type, quotient type) pairs realized by
    N-invariant subspaces U of the Jordan module of the given type over GF(p),
    where v -> vN moves each coordinate one place along its block.

    Every subspace of GF(p)^d is visited, as its RREF basis B, one array of
    bases per pivot set.  A fully reduced basis needs one reduction step, so
    U is invariant exactly when the residue S - sum_j S[:, p_j] B_j of the
    shifted basis S vanishes mod p; that is one array expression per block.
    The types follow from the ranks of the nonzero powers N^s: on U, dim U
    less dim(U & ker N^s); on the quotient, |im N^s| less dim(U & im N^s).
    Each of these subspaces is spanned by coordinates (the last s of each
    block, or all past its first s), numbered so that the coordinates in
    fewer of the subspaces come first.  A subspace spanned by a suffix of
    the columns meets U in as many dimensions as U's RREF basis has pivots
    there, the same for a whole block.  When the block sizes differ by at
    most one the subspaces form a chain, so all are suffixes, and a pivot set
    adds one pair when any of its bases is invariant.  Otherwise each
    invariant basis gets, per subspace that is not a suffix, the rank of its
    columns outside it ((3, 2, 1) and (3, 1, 1, 1) at weight 6).  No matrix
    is multiplied.  Exponential in d; meant for dim <= 6.  parts may be any
    sequence; the pairs are cached per (p, tuple(parts)).
    """
    return _jordan_pairs(p, tuple(parts))


@lru_cache(maxsize=None)
def _jordan_pairs(p: int, parts: Partition) -> frozenset:
    d = ModulePartition(p, parts).dim
    cells = [(b, i) for b in parts for i in range(b)]  # (block size, place in it)
    powers = range(1, max(parts, default=1))  # the s with N^s nonzero
    spans = [{j for j, (b, i) in enumerate(cells) if i >= b - s} for s in powers]  # ker N^s
    spans += [{j for j, (b, i) in enumerate(cells) if i >= s} for s in powers]  # im N^s
    order = sorted(range(d), key=lambda j: sum(j in w for w in spans))
    label = {j: c for c, j in enumerate(order)}
    src = [label[j - 1] if cells[j][1] else -1 for j in order]  # N moves src[c] to c
    moved = [c for c in range(d) if src[c] >= 0]
    spans = [{label[j] for j in w} for w in spans]
    outside = [None if w == set(range(d - len(w), d)) else [c for c in range(d) if c not in w]
               for w in spans]
    per_basis = any(outside)
    seen = set()  # (dim U, dim of U & w for each w in spans)
    for pivots, block in _rref_blocks(p, d):
        k = len(pivots)
        meets = [sum(c >= d - len(w) for c in pivots) for w in spans]
        if not per_basis and (k, *meets) in seen:
            continue
        shifted = np.zeros_like(block)
        shifted[:, :, moved] = block[:, :, [src[j] for j in moved]]
        residue = shifted.copy()
        for j, c in enumerate(pivots):
            if src[c] >= 0:  # column c of S is zero at the head of a block
                residue -= shifted[:, :, c, None] * block[:, None, j, :]
        invariant = np.flatnonzero(~(residue % p).any(axis=(1, 2)))
        for basis in block[invariant if per_basis else invariant[:1]].tolist():
            seen.add((k, *(m if cols is None else
                           k - _extend([[r[c] for c in cols] for r in basis], p)
                           for m, cols in zip(meets, outside))))
    n = len(powers)
    return frozenset(
        (_jordan_type_from_ranks(k, [k - m for m in ms[:n]]),
         _jordan_type_from_ranks(d - k, [len(w) - m for w, m in zip(spans[n:], ms[n:])]))
        for k, *ms in seen)


def jordan_chain_realizable(p: int, m: Partition, steps: tuple[Partition, ...], t: Partition) -> bool:
    """Whether m admits a chain of invariant submodules of the listed types
    with final quotient t, per the brute-force oracle."""
    if not steps:
        return tuple(m) == tuple(t)
    pairs = jordan_submodule_quotient_pairs(p, m)
    return any(
        jordan_chain_realizable(p, quo, steps[1:], t)
        for sub, quo in pairs
        if sub == tuple(steps[0])
    )
