"""Partitions, skew tableaux, Littlewood-Richardson counts and gamma statistics.

Partitions are plain tuples of weakly decreasing positive integers.  A skew
tableau is a filled skew diagram outer/inner; row i occupies columns
inner[i]..outer[i]-1 (0-based).  Semistandardness and the lattice property
are checkable predicates, never enforced by construction.

The module also carries the exhaustive verifiers for four combinatorial
inequalities about semistandard lattice skew tableaux, and a brute-force
linear-algebra oracle over GF(p) that recomputes which (submodule, quotient)
partition pairs a nilpotent Jordan module admits, independently of the
Littlewood-Richardson route.  The verifiers read each tableau's row tuples
and gamma tables built once per tableau, building no tableau per check;
split_at_column, content and gamma are their references in the tests.  The
oracle tests the invariance of a whole block of RREF bases, one numpy array
per pivot set, at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numtheory import is_prime


Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(x, int) and x >= 1 for x in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


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
    if len(mu) > len(lam):
        return all(x == 0 for x in mu[len(lam):]) and is_subpartition(mu[: len(lam)], lam)
    return all(m <= l for m, l in zip(mu, lam))


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


def subpartitions(lam: Partition):
    """All subpartitions of lam (weakly decreasing, componentwise <= lam)."""
    lam = tuple(lam)
    if not lam:
        yield ()
        return

    def rec(i, prev):
        if i == len(lam):
            yield ()
            return
        for v in range(min(prev, lam[i]), -1, -1):
            for rest in rec(i + 1, v):
                yield (v,) + rest

    for mu in rec(0, lam[0]):
        # strip trailing zeros so subpartitions are genuine partitions
        k = len(mu)
        while k and mu[k - 1] == 0:
            k -= 1
        yield mu[:k]


@dataclass(frozen=True)
class SkewShape:
    """Skew diagram outer/inner; inner must be a subpartition of outer."""

    outer: Partition
    inner: Partition

    def __post_init__(self):
        check_partition(self.outer)
        check_partition(self.inner)
        if not is_subpartition(self.inner, self.outer):
            raise ValueError(f"{self.inner} is not a subpartition of {self.outer}")

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


@dataclass(frozen=True)
class SkewTableau:
    """A skew shape with one positive-integer entry per box (rows left to right)."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != len(self.shape.outer):
            raise ValueError("one entry tuple per outer row is required")
        for i, row in enumerate(self.rows):
            need = self.shape.outer[i] - self.shape.inner_at(i)
            if len(row) != need:
                raise ValueError(f"row {i} must hold {need} entries, got {len(row)}")
            if any(e < 1 for e in row):
                raise ValueError("entries must be positive integers")

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


def is_semistandard(t: SkewTableau) -> bool:
    """Rows weakly increase left to right; columns strictly increase downwards."""
    for row in t.rows:
        if any(row[k] > row[k + 1] for k in range(len(row) - 1)):
            return False
    shape = t.shape
    for i in range(len(t.rows) - 1):
        lo = max(shape.inner_at(i), shape.inner_at(i + 1))
        hi = min(shape.outer[i], shape.outer[i + 1])
        for j in range(lo, hi):
            if t.entry(i, j) >= t.entry(i + 1, j):
                return False
    return True


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


# -- fillings and Littlewood-Richardson counts ------------------------------


def _fillings(shape: SkewShape, max_letter: int, target: Partition | None):
    """Backtrack over semistandard lattice fillings in reading-word order.

    Cells are visited row by row, right to left, so the lattice condition is
    a running prefix check.  target, when given, pins the content exactly.
    Each filling is yielded as the live cell -> entry dict, which changes as
    soon as the generator resumes.
    """
    cells = []
    for i, lam in enumerate(shape.outer):
        off = shape.inner_at(i)
        cells.extend((i, j) for j in range(lam - 1, off - 1, -1))
    n = len(cells)
    entries: dict[tuple[int, int], int] = {}
    counts = [0] * (max_letter + 2)  # counts[e] = occurrences of e so far

    def rec(k: int):
        if k == n:
            yield entries
            return
        i, j = cells[k]
        right = entries.get((i, j + 1))
        above = entries.get((i - 1, j))
        hi = right if right is not None else max_letter
        for e in range(1, hi + 1):
            if above is not None and e <= above:
                continue
            if e > 1 and counts[e] + 1 > counts[e - 1]:
                continue  # lattice prefix would fail
            if target is not None:
                if e > len(target) or counts[e] + 1 > target[e - 1]:
                    continue
            entries[(i, j)] = e
            counts[e] += 1
            yield from rec(k + 1)
            counts[e] -= 1
            del entries[(i, j)]

    yield from rec(0)


def lr_coefficient(lam, mu, nu) -> int:
    """Number of semistandard lattice fillings of lam/mu with content nu.

    Violated preconditions (weight mismatch, mu not inside lam, nu not a
    partition) yield 0.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if not (is_partition(lam) and is_partition(mu) and is_partition(nu)):
        return 0
    if weight(mu) + weight(nu) != weight(lam) or not is_subpartition(mu, lam):
        return 0
    if weight(lam) == weight(mu):
        return 1 if not nu else 0
    # no letter exceeds its count in nu and the boxes number |nu|, so every
    # leaf has content nu exactly
    return sum(1 for _ in _fillings(SkewShape(lam, mu), len(nu), nu))


def semistandard_lattice_tableaux(shape: SkewShape):
    """All semistandard lattice fillings of the shape (any content)."""
    rows = [[(i, j) for j in range(shape.inner_at(i), lam)] for i, lam in enumerate(shape.outer)]
    for cells in _fillings(shape, shape.n_boxes, None):
        yield SkewTableau(shape, tuple(tuple(cells[c] for c in row) for row in rows))


def enumerate_corpus(max_boxes: int):
    """Deterministic corpus: every semistandard lattice skew tableau whose
    outer partition has weight <= max_boxes and whose first row is nonempty
    (empty leading rows are translated away; larger translates of the same
    diagram re-occur at higher budgets)."""
    for w in range(1, max_boxes + 1):
        for lam in partitions_of(w):
            for mu in subpartitions(lam):
                if weight(mu) == weight(lam):
                    continue
                if mu and mu[0] == lam[0]:
                    continue  # first row empty: same diagram with the row dropped
                yield from semistandard_lattice_tableaux(SkewShape(lam, mu))


# -- the four exhaustively verified inequalities ----------------------------


@dataclass
class VerifierReport:
    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"checked": self.checked, "violations": self.violations}


def _gamma_table(counts, size: int) -> list[int]:
    """table[s] = gamma(s, content) for 1 <= s < size, from the letter counts
    of the content (zeros allowed); table[0] is unused."""
    table = [0] * size
    for c in counts:
        for s in range(1, min(c + 1, size)):
            table[s] += 1
    return table


def _check_small_branch(t: SkewTableau) -> list:
    """In w(b), the entry of b occurs at least (boxes right of b in its row)+1 times."""
    bad = []
    seen: dict[int, int] = {}  # occurrences in the word read so far
    for i, row in enumerate(t.rows):
        for k, e in enumerate(reversed(row)):
            seen[e] = seen.get(e, 0) + 1
            ell = k  # boxes strictly to the right of this box in its row
            if seen[e] < ell + 1:
                bad.append({"tableau": t.to_json(), "row": i, "right_boxes": ell, "entry": e})
    return bad


def _check_full_rectangle(t: SkewTableau) -> list:
    """Every fully contained h x k rectangle forces gamma_k >= h (maximal ones suffice)."""
    bad = []
    shape = t.shape
    nrows = len(shape.outer)
    g = _gamma_table(content(t), t.n_boxes + 1)
    for r0 in range(nrows):
        lo, hi = shape.inner_at(r0), shape.outer[r0]
        for h in range(1, nrows - r0 + 1):
            i = r0 + h - 1
            lo = max(lo, shape.inner_at(i))
            hi = min(hi, shape.outer[i])
            k = hi - lo
            if k <= 0:
                break
            if g[k] < h:
                bad.append({"tableau": t.to_json(), "h": h, "k": k, "gamma_k": g[k]})
    return bad


def _column_span(t: SkewTableau) -> tuple[int, int]:
    """(leftmost, rightmost+1) absolute column indices of occupied cells."""
    cols = [
        (t.shape.inner_at(i), t.shape.outer[i])
        for i in range(len(t.shape.outer))
        if t.shape.outer[i] > t.shape.inner_at(i)
    ]
    return min(c for c, _ in cols), max(c for _, c in cols)


def _check_columns_between_lines(t: SkewTableau) -> list:
    """If the first ell-k columns sit between rows c+1..c+h then gamma_{k+1} <= h.

    Checked at the tightest applicable (c, h) for each k (weaker pairs follow);
    k = 0 is included since a tableau inside h rows must have gamma_1 <= h.
    """
    bad = []
    left, right = _column_span(t)
    ell = right - left
    g = _gamma_table(content(t), ell + 2)
    # a row has a cell left of the cut exactly when its first cell is
    firsts = [(t.shape.inner_at(i), i) for i, row in enumerate(t.rows) if row]
    for k in range(0, ell + 1):
        cut = left + (ell - k)  # columns < cut are "the first ell-k columns"
        rows_touched = [i for j, i in firsts if j < cut]
        if rows_touched:
            h = max(rows_touched) - min(rows_touched) + 1
        else:
            h = 1  # vacuous hypothesis: holds for every h >= 1, so test the strongest
        if g[k + 1] > h:
            bad.append({"tableau": t.to_json(), "k": k, "h": h, "gamma": g[k + 1]})
    return bad


def split_at_column(t: SkewTableau, k: int):
    """The part strictly right of the first k geometric columns, re-rooted
    (the empty tableau when the cut leaves nothing)."""
    left, _ = _column_span(t)
    cut = left + k
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
    semistandard filling, row i starting at column starts[i]: a row descent
    into column j survives every cut up to j - 1, a column clash in column j
    every cut up to j."""
    least = 0
    for i, (row, s) in enumerate(zip(rows, starts)):
        for q in range(1, len(row)):
            if row[q - 1] > row[q]:
                least = max(least, s + q)
        if i + 1 < len(rows):
            below, sb = rows[i + 1], starts[i + 1]
            for j in range(max(s, sb), min(s + len(row), sb + len(below))):
                if row[j - s] >= below[j - sb]:
                    least = max(least, j + 1)
    return least


def _lattice_counts(rows, starts, cut: int, top: int) -> list[int] | None:
    """Letter counts (index 0 unused) of the cells in columns >= cut, row i
    starting at column starts[i]; None unless they read, rows top to bottom
    and each right to left, as a lattice word."""
    counts = [0] * (top + 1)
    for row, s in zip(rows, starts):
        for e in reversed(row[max(cut - s, 0):]):
            counts[e] += 1
            if e > 1 and counts[e] > counts[e - 1]:
                return None
    return counts


def _check_divided_tableau(t: SkewTableau) -> list:
    """Cutting off the left k columns leaves a semistandard lattice tableau T'
    with gamma_{n+k}(T) <= gamma_n(T') for every n.

    T' is read straight from the rows of T: split_at_column keeps the rows
    that reach past the cut, in order, so adjacency, the reading word and the
    content of T' are those of the cells of T right of the cut."""
    bad = []
    left, right = _column_span(t)
    ell = right - left
    rows = t.rows
    starts = [t.shape.inner_at(i) for i in range(len(rows))]
    top = max(max(row) for row in rows if row)
    n_max = t.n_boxes + 1
    lhs = _gamma_table(content(t), n_max + ell + 1)
    semistandard_from = _semistandard_cut(rows, starts)
    for k in range(0, ell + 1):
        cut = left + k
        counts = None if cut < semistandard_from else _lattice_counts(rows, starts, cut, top)
        if counts is None:
            bad.append({"tableau": t.to_json(), "k": k, "reason": "right part not SSLT"})
            continue
        rhs = _gamma_table(counts, n_max + 1)
        for n in range(1, n_max + 1):
            if lhs[n + k] > rhs[n]:
                bad.append(
                    {"tableau": t.to_json(), "k": k, "n": n, "lhs": lhs[n + k], "rhs": rhs[n]}
                )
    return bad


def _run_verifier(max_boxes: int, checks) -> list[VerifierReport]:
    """One report per check, all from a single pass over the corpus."""
    if max_boxes > 12:
        raise ValueError("enumeration budget capped at 12 boxes")
    checked = 0
    violations = [[] for _ in checks]
    for t in enumerate_corpus(max_boxes):
        checked += 1
        for found, check in zip(violations, checks):
            found.extend(check(t))
    return [VerifierReport(checked, found) for found in violations]


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


def verify_lemmas(max_boxes: int, names) -> dict[str, VerifierReport]:
    """The reports of the named verifiers of ALL_VERIFIERS, all from one
    enumeration of the corpus."""
    return dict(zip(names, _run_verifier(max_boxes, [_CHECKS[n] for n in names])))


# -- module partitions and the submodule/quotient criterion ------------------


@dataclass(frozen=True)
class ModulePartition:
    """Isomorphism type of a module over a cyclic group of order p in
    characteristic p: the multiset of indecomposable summand dimensions,
    every part at most p."""

    p: int
    parts: Partition

    def __post_init__(self):
        if self.p < 3 or not is_prime(self.p):
            raise ValueError(f"{self.p} is not an odd prime")
        check_partition(self.parts) if self.parts else None
        if any(x > self.p for x in self.parts):
            raise ValueError(f"parts of {self.parts} must be at most p={self.p}")

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


def _rref_blocks(p: int, d: int):
    """Every subspace of GF(p)^d exactly once, as its RREF basis, grouped by
    pivot set.  Yields (pivots, block), block an array of shape (M, k, d)
    holding M <= _CHUNK bases with those k pivots: row j has a 1 at pivots[j],
    zeros left of it and at the other pivots, and ranges freely over the
    remaining columns to its right.  Entries stay below p, so every residue
    the invariance test forms lies within k(p-1)^2 + p of zero: int16 while
    that bound is below 2^15, int64 past it."""
    dtype = np.int16 if d * (p - 1) ** 2 + p < 2**15 else np.int64
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            free = [(j, c) for j, pc in enumerate(pivots)
                    for c in range(pc + 1, d) if c not in pivots]
            free_rows = [j for j, _ in free]
            free_cols = [c for _, c in free]
            place = p ** np.arange(len(free))
            total = p ** len(free)
            for start in range(0, total, _CHUNK):
                index = np.arange(start, min(start + _CHUNK, total))
                block = np.zeros((len(index), k, d), dtype)
                block[:, np.arange(k), list(pivots)] = 1
                block[:, free_rows, free_cols] = index[:, None] // place % p
                yield pivots, block


def _reduce(v, rows, pivots, p) -> list[int]:
    """Residue of v modulo the span of echelon rows over GF(p).  Each row has
    a 1 at its pivot and zeros at the pivots of the rows before it."""
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def _extend(rows, pivots, vectors, p) -> int:
    """Append to the echelon rows every vector independent of them, reduced
    and scaled to a leading 1; return how many were appended."""
    before = len(rows)
    for v in vectors:
        v = _reduce(v, rows, pivots, p)
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            inv = pow(v[c], -1, p)
            rows.append([x * inv % p for x in v])
            pivots.append(c)
    return len(rows) - before


def _jordan_type_from_ranks(dim: int, ranks: list[int]) -> Partition:
    """Block sizes from the ranks of N^1, N^2, ... on the space, the ranks
    not listed being zero.  rank N^(s-1) - rank N^s counts the blocks of size
    at least s, so the block sizes are the conjugate of those differences."""
    r = [dim, *ranks, 0]
    ge = [a - b for a, b in zip(r, r[1:])]
    return tuple(sum(g >= i for g in ge) for i in range(1, ge[0] + 1))


@lru_cache(maxsize=None)
def jordan_submodule_quotient_pairs(p: int, parts: Partition) -> frozenset:
    """Brute force: all (submodule type, quotient type) pairs realized by
    N-invariant subspaces U of the Jordan module of the given type over GF(p),
    where v -> vN moves each coordinate one place along its block.

    Every subspace of GF(p)^d is visited, as its RREF basis B, one array of
    bases per pivot set.  A fully reduced basis needs one reduction step, so
    U is invariant exactly when the residue S - sum_j S[:, p_j] B_j of the
    shifted basis S vanishes mod p; that is one array expression per block.
    Only an invariant U gets ranks, and only of the powers N^j that are not
    zero: on U, the rank of its shifted basis; on the quotient, the rank of
    the nonzero rows of N^j reduced modulo U.  When N itself is zero every
    U has the same empty ranks, so a pivot set adds one pair.  No matrix is
    multiplied.  Exponential in d; meant for dim <= 6.
    """
    mod = ModulePartition(p, parts)
    d = mod.dim
    starts = set(itertools.accumulate(parts[:-1], initial=0))
    src = [-1 if j in starts else j - 1 for j in range(d)]
    moved = [j for j in range(d) if src[j] >= 0]

    def shift(v):
        return [v[s] if s >= 0 else 0 for s in src]

    identity = [[int(i == j) for i in range(d)] for j in range(d)]
    powers = []  # the nonzero rows of N, N^2, ..., each a unit vector
    rows = [shift(e) for e in identity]
    while rows := [r for r in rows if any(r)]:
        powers.append(rows)
        rows = [shift(r) for r in rows]
    seen = set()  # (dim U, ranks on U, ranks on the quotient)
    for pivots, block in _rref_blocks(p, d):
        shifted = np.zeros_like(block)
        shifted[:, :, moved] = block[:, :, [src[j] for j in moved]]
        residue = shifted.copy()
        for j, c in enumerate(pivots):
            residue -= shifted[:, :, c, None] * block[:, None, j, :]
        invariant = block[~(residue % p).any(axis=(1, 2))]
        if not powers:
            if len(invariant):
                seen.add((len(pivots), (), ()))
            continue
        for basis in invariant.tolist():
            sub_ranks, quo_ranks, image = [], [], basis
            for pw in powers:
                echelon = []
                sub_ranks.append(_extend(echelon, [], [shift(v) for v in image], p))
                image = echelon
                quo_ranks.append(_extend(list(basis), list(pivots), pw, p))
            seen.add((len(basis), tuple(sub_ranks), tuple(quo_ranks)))
    return frozenset((_jordan_type_from_ranks(k, sub), _jordan_type_from_ranks(d - k, quo))
                     for k, sub, quo in seen)


def jordan_chain_realizable(p: int, m: Partition, steps: tuple[Partition, ...], t: Partition) -> bool:
    """Whether m admits a chain of invariant submodules of the listed types
    with final quotient t, per the brute-force oracle."""
    if not steps:
        return tuple(m) == tuple(t)
    pairs = jordan_submodule_quotient_pairs(p, tuple(m))
    return any(
        quo is not None and jordan_chain_realizable(p, quo, steps[1:], t)
        for sub, quo in pairs
        if sub == tuple(steps[0])
    )
