import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgq import tableaux as T
from pgq.tableaux import ModulePartition, SkewShape, SkewTableau


def is_semistandard(t):
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


def figure_T():
    return SkewTableau.from_rows((3, 2, 2, 1), (), [[1, 2, 1], [2, 3], [3, 4], [5]])


def figure_S():
    return SkewTableau.from_rows((3, 2, 2, 1), (1,), [[1, 1], [1, 2], [2, 3], [4]])


def oracle_subpartitions(lam):
    """The recursive subpartition generator the iterative one replaced."""
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
        k = len(mu)
        while k and mu[k - 1] == 0:
            k -= 1
        yield mu[:k]


def oracle_fillings(shape, max_letter, target):
    """The recursive backtrack the filling kernel replaced: semistandard
    lattice fillings in reading-word order, each as a live cell -> entry dict."""
    cells = []
    for i, lam in enumerate(shape.outer):
        off = shape.inner_at(i)
        cells.extend((i, j) for j in range(lam - 1, off - 1, -1))
    n = len(cells)
    entries = {}
    counts = [0] * (max_letter + 2)

    def rec(k):
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
                continue
            if target is not None:
                if e > len(target) or counts[e] + 1 > target[e - 1]:
                    continue
            entries[(i, j)] = e
            counts[e] += 1
            yield from rec(k + 1)
            counts[e] -= 1
            del entries[(i, j)]

    yield from rec(0)


def oracle_lr(lam, mu, nu):
    if T.weight(mu) + T.weight(nu) != T.weight(lam) or not T.is_subpartition(mu, lam):
        return 0
    if T.weight(lam) == T.weight(mu):
        return 1 if not nu else 0
    return sum(1 for _ in oracle_fillings(SkewShape(lam, mu), len(nu), nu))


def oracle_corpus(max_boxes):
    for w in range(1, max_boxes + 1):
        for lam in T.partitions_of(w):
            for mu in oracle_subpartitions(lam):
                if T.weight(mu) == w or (mu and mu[0] == lam[0]):
                    continue
                shape = SkewShape(lam, mu)
                rows = [[(i, j) for j in range(shape.inner_at(i), part)]
                        for i, part in enumerate(lam)]
                for cells in oracle_fillings(shape, shape.n_boxes, None):
                    yield lam, mu, tuple(tuple(cells[c] for c in row) for row in rows)


def run_check(check, t):
    """A lemma check on one tableau, through the layout of its shape."""
    counts = [0] * (max(max(row) for row in t.rows if row) + 1)
    for row in t.rows:
        for e in row:
            counts[e] += 1
    return check(T._ShapeTables(t.shape.outer, t.shape.inner), t.rows, counts)


class TestPredicates:
    def test_semistandard_examples(self):
        good = SkewTableau.from_rows((3, 2, 2, 1), (), [[1, 1, 2], [2, 3], [3, 4], [5]])
        assert is_semistandard(good)
        assert not is_semistandard(SkewTableau.from_rows((2, 1), (), [[1, 1], [1]]))
        assert not is_semistandard(SkewTableau.from_rows((2,), (), [[2, 1]]))

    def test_reading_words_of_reference_figures(self):
        assert T.reading_word(figure_T()) == [1, 2, 1, 3, 2, 4, 3, 5]
        assert T.reading_word(figure_S()) == [1, 1, 2, 1, 3, 2, 4]
        empty = SkewTableau.from_rows((1,), (1,), [[]])
        assert T.reading_word(empty) == []

    def test_lattice_property(self):
        assert T.has_lattice_property(figure_T())
        assert not T.is_lattice_word([2])
        assert not T.is_lattice_word([1, 2, 2])

    def test_content(self):
        assert T.content(figure_S()) == (3, 2, 1, 1)
        assert T.content(SkewTableau.from_rows((1,), (), [[1]])) == (1,)
        assert T.content(figure_T()) == (2, 2, 2, 1, 1)

    def test_content_reports_non_partition_for_non_lattice_fillings(self):
        t = SkewTableau.from_rows((1,), (), [[2]])
        assert T.content(t) == (0, 1)
        assert not T.is_partition(T.content(t))

    def test_gamma(self):
        assert T.gamma(3, (5, 3, 3, 1)) == 3
        assert T.gamma(1, ()) == 0
        assert T.gamma(2, figure_T()) == 3


def _gen(*parts):
    return (x for x in parts)


class TestPredicatePins:
    """The answers of the partition predicates and of lr_coefficient on
    inputs that are not tuples of positive ints, pinned literally: bools are
    ints, a float never is, and an unhashable entry is compared, not hashed."""

    @pytest.mark.parametrize("make, expected", [
        (lambda: [3, 1], True), (lambda: _gen(2, 2, 1), True), (lambda: (), True),
        (lambda: (True, True), True), (lambda: (True, False), False), (lambda: (1.0,), False),
        (lambda: (2, 1.0), False), (lambda: (2, 0), False), (lambda: (0,), False),
        (lambda: (1, -1), False), (lambda: (1, 2), False), (lambda: ([1],), False),
        (lambda: [[2], [1]], False), (lambda: "21", False),
    ], ids=["list", "generator", "empty", "bools", "bool-false", "float", "float-part",
            "zero", "only-zero", "negative", "unsorted", "unhashable", "unhashable-list",
            "string"])
    def test_is_partition(self, make, expected):
        assert T.is_partition(make()) is expected

    @pytest.mark.parametrize("make, expected", [
        (lambda: ([1], [2, 1]), True), (lambda: (_gen(1, 1), _gen(2, 1)), True),
        (lambda: ((True,), (1,)), True), (lambda: ((1.0,), (1,)), True),
        (lambda: ((2, 1, 0, 0), (2, 1)), True), (lambda: ((1, False), (1,)), True),
        (lambda: ((1, 0, 1), (1,)), False), (lambda: ((-1,), ()), False),
        (lambda: ((1, 2), (2, 2)), True), (lambda: ((3,), (2, 2)), False),
        (lambda: ((1, [0]), (1,)), False), (lambda: ((1, None), (1,)), False),
        (lambda: (("a", 1), ()), False),
    ], ids=["lists", "generators", "bools", "float", "trailing-zeros", "trailing-false",
            "trailing-nonzero", "negative", "unsorted", "longer-lam", "unhashable-tail",
            "none-tail", "tail-before-prefix"])
    def test_is_subpartition(self, make, expected):
        assert T.is_subpartition(*make()) is expected

    def test_is_subpartition_compares_an_unhashable_entry(self):
        with pytest.raises(TypeError):
            T.is_subpartition(([1],), (2,))

    @pytest.mark.parametrize("make, expected", [
        (lambda: ([2, 1], [1], [1, 1]), 1), (lambda: (_gen(3, 2, 1), _gen(2, 1), _gen(2, 1)), 2),
        (lambda: ((2, True), (True,), (True, True)), 1), (lambda: ((2, 1), (1.0,), (1, 1)), 0),
        (lambda: ((2.0, 1), (1,), (1, 1)), 0), (lambda: ((2, 1), (1, 0), (1, 1)), 0),
        (lambda: ((2, 1), (-1,), (2, 1, 1)), 0), (lambda: ((2, 2), (1,), (1, 2)), 0),
        (lambda: ((2, 1), ([1],), (1, 1)), 0), (lambda: ((2, 1), (1, 1), (2,)), 0),
        (lambda: ((2, 1), (3,), ()), 0), (lambda: ((2, 1), (2, 1), ()), 1),
        (lambda: ((), (), ()), 1), (lambda: ((2, 1), (1,), (1,)), 0),
    ], ids=["lists", "generators", "bools", "float", "float-lam", "zero-part", "negative",
            "unsorted", "unhashable", "nu-outside", "mu-outside", "empty-nu", "all-empty",
            "weight-mismatch"])
    def test_lr_coefficient(self, make, expected):
        assert T.lr_coefficient(*make()) == expected

    def test_a_float_part_right_after_the_equal_int_tuple(self):
        # (1.0, 1) == (1, 1) and both hash alike, yet only the second is a partition
        assert T.is_partition((1, 1)) and not T.is_partition((1.0, 1))
        assert T.lr_coefficient((1, 1), (1,), (1,)) == 1
        assert T.lr_coefficient((1.0, 1), (1,), (1,)) == 0
        assert T.lr_coefficient((2, 1), (1, 1), (1,)) == 1
        assert T.lr_coefficient((2, 1), (1.0, 1), (1,)) == 0

    def test_lr_coefficient_is_zero_exactly_off_its_preconditions(self):
        tuples = [p for w in range(4) for p in T.partitions_of(w)] + [
            (1, 2), (1, 0), (0,), (-1,), (2, -1), (1.0,), (2, 1.0), (True,), (2, True),
            (1, 1, 1, 1)]
        for triple in itertools.product(tuples, repeat=3):
            lam, mu, nu = triple
            valid = (all(map(T.is_partition, triple)) and sum(mu) + sum(nu) == sum(lam)
                     and T.is_subpartition(mu, lam) and T.is_subpartition(nu, lam))
            expected = oracle_lr(*(tuple(map(int, p)) for p in triple)) if valid else 0
            assert T.lr_coefficient(lam, mu, nu) == expected, triple


class TestLRCoefficients:
    def test_two_box_skew(self):
        assert T.lr_coefficient((2, 1), (1,), (1, 1)) == 1

    def test_empty_inner(self):
        for w in range(0, 9):
            for lam in T.partitions_of(w):
                assert T.lr_coefficient(lam, (), lam) == 1

    def test_three_box_skew(self):
        assert T.lr_coefficient((2, 2), (1,), (2, 1)) == 1

    def test_violated_preconditions_yield_zero(self):
        assert T.lr_coefficient((2, 1), (1,), (1,)) == 0  # weight mismatch
        assert T.lr_coefficient((2, 1), (3,), ()) == 0  # mu not inside lam
        assert T.lr_coefficient((2, 2), (1,), (1, 2)) == 0  # nu not a partition

    def test_shapes_outside_lam_skip_the_kernel(self, monkeypatch):
        calls = []
        contents = T._lr_contents
        monkeypatch.setattr(T, "_lr_contents", lambda *a: calls.append(a) or contents(*a))
        cases = 0
        for w in range(1, 8):
            for lam in T.partitions_of(w):
                for mu in T.subpartitions(lam):
                    for nu in T.partitions_of(w - T.weight(mu)):
                        if not T.is_subpartition(nu, lam):
                            cases += 1
                            assert T.lr_coefficient(lam, mu, nu) == 0
                            assert T.lr_coefficient(lam, nu, mu) == 0
        assert cases and not calls
        assert T.lr_coefficient((2, 1), (1,), (2,)) == 1 and calls

    def test_symmetry_small(self):
        for w in range(1, 8):
            for lam in T.partitions_of(w):
                for mu in T.subpartitions(lam):
                    for nu in T.partitions_of(w - T.weight(mu)):
                        assert T.lr_coefficient(lam, mu, nu) == T.lr_coefficient(lam, nu, mu)

    def test_known_multiplicity_two(self):
        # the smallest LR coefficient equal to 2
        assert T.lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2

    def test_kernel_matches_recursive_oracle_on_every_triple_up_to_weight_9(self):
        for w in range(1, 10):
            for lam in T.partitions_of(w):
                for mu in T.subpartitions(lam):
                    counts = {}
                    for nu in T.partitions_of(w - T.weight(mu)):
                        counts[nu] = oracle_lr(lam, mu, nu)
                        assert T.lr_coefficient(lam, mu, nu) == counts[nu], (lam, mu, nu)
                    # the tally of lam/mu holds no content of another weight
                    assert T._lr_contents(lam, mu) == {nu: c for nu, c in counts.items() if c}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_kernel_matches_recursive_oracle_up_to_weight_9(self, data):
        w = data.draw(st.integers(1, 9))
        lam = data.draw(st.sampled_from(T.partitions_of(w)))
        mu = data.draw(st.sampled_from(list(T.subpartitions(lam))))
        nu = data.draw(st.sampled_from(T.partitions_of(w - T.weight(mu))))
        assert T.lr_coefficient(lam, mu, nu) == oracle_lr(lam, mu, nu)
        assert T.lr_coefficient(list(lam), list(mu), list(nu)) == oracle_lr(lam, mu, nu)


class TestSubpartitions:
    def test_matches_recursive_oracle(self):
        for w in range(0, 9):
            for lam in T.partitions_of(w):
                assert list(T.subpartitions(lam)) == list(oracle_subpartitions(lam)), lam
        assert list(T.subpartitions([2, 1])) == [(2, 1), (2,), (1, 1), (1,), ()]

    @pytest.mark.parametrize("bad", [(2, 0), (1, 2), (0,), (2, -1), (1.5,)],
                             ids=["zero-part", "increasing", "only-zero", "negative", "float"])
    def test_non_partition_raises(self, bad):
        with pytest.raises(ValueError, match="is not a partition"):
            list(T.subpartitions(bad))


class TestModulePartitions:
    def test_jordan_block_has_all_corank_splits(self):
        p = 5
        assert T.submodule_quotient_exists(
            ModulePartition(p, (5,)), ModulePartition(p, (1,)), ModulePartition(p, (4,))
        )

    def test_weight_mismatch_is_false(self):
        assert not T.submodule_quotient_exists(
            ModulePartition(3, (1, 1)), ModulePartition(3, (2,)), ModulePartition(3, ())
        )

    def test_prime_mismatch_raises(self):
        with pytest.raises(ValueError):
            T.submodule_quotient_exists(
                ModulePartition(3, (1,)), ModulePartition(5, (1,)), ModulePartition(5, ())
            )

    def test_parts_bounded_by_p(self):
        with pytest.raises(ValueError):
            ModulePartition(3, (4,))

    def test_swap_symmetry(self):
        p = 3
        for w in range(1, 6):
            for lam in T.partitions_of(w, max_part=p):
                for wu in range(0, w + 1):
                    for mu in T.partitions_of(wu, max_part=p):
                        for nu in T.partitions_of(w - wu, max_part=p):
                            a = T.submodule_quotient_exists(
                                ModulePartition(p, lam), ModulePartition(p, mu),
                                ModulePartition(p, nu))
                            b = T.submodule_quotient_exists(
                                ModulePartition(p, lam), ModulePartition(p, nu),
                                ModulePartition(p, mu))
                            assert a == b


def assert_type_matches_lr(p, lam):
    pairs = T.jordan_submodule_quotient_pairs(p, lam)
    w = sum(lam)
    for wu in range(0, w + 1):
        for mu in T.partitions_of(wu, max_part=p):
            for nu in T.partitions_of(w - wu, max_part=p):
                assert ((mu, nu) in pairs) == (
                    T.lr_coefficient(lam, mu, nu) > 0
                ), (lam, mu, nu)


def assert_oracle_matches_lr(p, max_weight):
    for w in range(1, max_weight + 1):
        for lam in T.partitions_of(w, max_part=p):
            assert_type_matches_lr(p, lam)


def conjugate(parts):
    return tuple(sum(1 for x in parts if x > i) for i in range(parts[0] if parts else 0))


def gaussian_binomial(n, k, q):
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def butler_count(lam, mu, q):
    """Submodules of type mu in a nilpotent module of type lam over GF(q):
    prod_i q^(mu'_{i+1} (lam'_i - mu'_i)) [lam'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_q
    (Butler, Mem. AMS 539, 1994)."""
    lc, mc = conjugate(lam), conjugate(mu)
    lc += (0,)
    mc += (0,) * (len(lc) - len(mc))
    count = 1
    for i in range(len(lc) - 1):
        count *= q ** (mc[i + 1] * (lc[i] - mc[i]))
        count *= gaussian_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], q)
    return count


def rank_mod(rows, p):
    """Rank over GF(p) of a list of integer vectors, by plain elimination."""
    rows = [[x % p for x in r] for r in rows]
    rank, cols = 0, len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def invariant_bases(p, lam):
    """The RREF bases, as lists of rows, of the N-invariant subspaces U of the
    Jordan module of type lam over GF(p), N moving each coordinate one place
    along its block: U is invariant when the shifted basis S leaves no
    residue S - sum_j S[:, p_j] B_j."""
    d = sum(lam)
    heads = {sum(lam[:i]) for i in range(len(lam))}
    moved = [j for j in range(d) if j not in heads]
    for pivots, block in T._rref_blocks(p, d):
        block = block.astype(np.int64)
        shifted = np.zeros_like(block)
        shifted[:, :, moved] = block[:, :, [j - 1 for j in moved]]
        residue = shifted.copy()
        for j, c in enumerate(pivots):
            residue -= shifted[:, :, c, None] * block[:, None, j, :]
        yield from block[~(residue % p).any(axis=(1, 2))].tolist()


def shift_rows(rows, lam):
    """The images vN of the rows v under the nilpotent Jordan operator of type lam."""
    heads = {sum(lam[:i]) for i in range(len(lam))}
    return [[0 if j in heads else v[j - 1] for j in range(len(v))] for v in rows]


def type_from_dims(dims):
    """The Jordan type of N from the dimensions of N^0 V, N^1 V, ..., down to 0."""
    return conjugate([a - b for a, b in zip(dims, dims[1:])])


def submodule_type_counts(p, lam):
    """{type of U: number of U} over the N-invariant subspaces U of the
    Jordan module of type lam over GF(p), by visiting every RREF basis; the
    type of U is read off the ranks of its images under N, N^2, ..."""
    counts = {}
    for basis in invariant_bases(p, lam):
        dims, image = [len(basis)], basis
        while dims[-1]:
            image = shift_rows(image, lam)
            dims.append(rank_mod(image, p))
        mu = type_from_dims(dims)
        counts[mu] = counts.get(mu, 0) + 1
    return counts


def pairs_by_rank_mod(p, lam):
    """The (type of U, type of V/U) pairs of the N-invariant subspaces U, each
    type read off ranks by plain elimination: N^s U on U, and U + N^s V less
    dim U on the quotient."""
    d = sum(lam)
    pairs = set()
    for basis in invariant_bases(p, lam):
        sub, quo = [len(basis)], [d - len(basis)]
        image = basis
        while sub[-1]:
            image = shift_rows(image, lam)
            sub.append(rank_mod(image, p))
        image = [[int(i == j) for i in range(d)] for j in range(d)]
        while quo[-1]:
            image = shift_rows(image, lam)
            quo.append(rank_mod(basis + image, p) - len(basis))
        pairs.add((type_from_dims(sub), type_from_dims(quo)))
    return frozenset(pairs)


class TestSubmoduleCounts:
    """The Jordan oracle's enumeration counts the submodules of each type as
    Butler's formula does, with no Littlewood-Richardson coefficient asked."""

    @pytest.mark.parametrize("p, max_weight", [(3, 5), (5, 4)])
    def test_counts_match_butler(self, p, max_weight, monkeypatch):
        def no_lr(*args):
            raise AssertionError("the count oracle asked the LR route")
        monkeypatch.setattr(T, "lr_coefficient", no_lr)
        monkeypatch.setattr(T, "_lr_contents", no_lr)
        cases = 0
        for w in range(1, max_weight + 1):
            for lam in T.partitions_of(w, max_part=p):
                expected = {mu: butler_count(lam, mu, p) for mu in T.subpartitions(lam)}
                assert submodule_type_counts(p, lam) == expected, lam
                cases += len(expected)
        assert cases == {3: 89, 5: 51}[p]

    def test_formula_on_small_cases(self):
        # a cyclic module has one submodule of each size; GF(q)^2 has q + 1 lines
        assert [butler_count((4,), mu, 3) for mu in [(), (1,), (2,), (4,)]] == [1, 1, 1, 1]
        assert butler_count((1, 1), (1,), 5) == 6
        assert butler_count((2, 1), (1,), 3) == 4


class TestJordanOracle:
    def test_pairs_match_lr_weight_up_to_5(self):
        assert_oracle_matches_lr(3, 5)

    def test_pairs_match_lr_at_p5_weight_up_to_4(self):
        # parts up to 5 and p = 5: the shift and the powers of N assume neither 3
        assert_oracle_matches_lr(5, 4)

    def test_pairs_match_lr_at_p7_weight_up_to_4(self):
        # the largest residues the int16 invariance test forms: 4 * 6^2 + 7
        assert_oracle_matches_lr(7, 4)

    def test_pair_counts_at_weight_6(self):
        counts = {(1, 1, 1, 1, 1, 1): 7, (2, 1, 1, 1, 1): 15, (2, 2, 1, 1): 18, (2, 2, 2): 10,
                  (3, 1, 1, 1): 19, (3, 2, 1): 25, (3, 3): 10}
        assert set(counts) == set(T.partitions_of(6, max_part=3))
        for lam, n in counts.items():
            assert len(T.jordan_submodule_quotient_pairs(3, lam)) == n, lam

    def test_every_subspace_is_enumerated_once(self):
        for p, max_dim in [(3, 6), (5, 5), (7, 4)]:
            # Galois numbers: the number of subspaces of GF(p)^d
            galois = [sum(gaussian_binomial(d, k, p) for k in range(d + 1))
                      for d in range(max_dim + 1)]
            if p == 3:
                assert galois == [1, 2, 6, 28, 212, 2664, 56632]
            for d in range(max_dim + 1):
                bases = set()
                for pivots, block in T._rref_blocks(p, d):
                    k = len(pivots)
                    assert block.dtype == np.int16 and block.shape[1:] == (k, d)
                    assert ((0 <= block) & (block < p)).all()
                    for j, c in enumerate(pivots):
                        # row j: zeros left of its pivot; column c: the unit vector e_j
                        assert not block[:, j, :c].any()
                        assert (block[:, :, c] == (np.arange(k) == j)).all()
                    bases.update(basis.tobytes() for basis in block)
                assert len(bases) == galois[d], (p, d)

    def test_chain_types_rank_no_basis(self, monkeypatch):
        # block sizes within one of each other: the kernels and images of the
        # powers of N form a chain, so every rank is a pivot count
        def no_rank(*args):
            raise AssertionError("a chain type ranked a basis")
        types = [(3, lam) for lam in T.partitions_of(6, max_part=3)]
        types += [(5, lam) for w in range(1, 6) for lam in T.partitions_of(w, max_part=5)]
        chain = [(p, lam) for p, lam in types if lam[0] - lam[-1] <= 1]
        assert [lam for p, lam in chain if p == 3] == [
            (3, 3), (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)]
        assert len(chain) == 5 + 15
        T._jordan_pairs.cache_clear()
        monkeypatch.setattr(T, "_extend", no_rank)
        for p, lam in chain:
            assert_type_matches_lr(p, lam)
        monkeypatch.undo()
        for lam in [(3, 2, 1), (3, 1, 1, 1)]:
            assert_type_matches_lr(3, lam)

    @pytest.mark.parametrize("p, max_weight", [(3, 5), (5, 4), (7, 4)])
    def test_pairs_match_per_basis_ranks(self, p, max_weight):
        cases = 0
        for w in range(1, max_weight + 1):
            for lam in T.partitions_of(w, max_part=p):
                assert T.jordan_submodule_quotient_pairs(p, lam) == pairs_by_rank_mod(p, lam), lam
                cases += 1
        assert cases == {3: 15, 5: 11, 7: 11}[p]

    def test_any_sequence_of_parts(self):
        pairs = T.jordan_submodule_quotient_pairs(3, (2, 1))
        assert T.jordan_submodule_quotient_pairs(3, [2, 1]) == pairs
        assert ((1,), (2,)) in pairs
        for w in range(4):
            for sub in T.partitions_of(w):
                for quo in T.partitions_of(3 - w):
                    assert T.jordan_chain_realizable(3, [2, 1], ([*sub],), [*quo]) == (
                        (sub, quo) in pairs), (sub, quo)

    def test_chain_swap_closure(self):
        # two-step factor sequences are permutable (verified by the oracle)
        p = 3
        for w in range(2, 6):
            for lam in T.partitions_of(w, max_part=p):
                for w1 in range(0, w + 1):
                    for s1 in T.partitions_of(w1, max_part=p):
                        for w2 in range(0, w - w1 + 1):
                            for s2 in T.partitions_of(w2, max_part=p):
                                for t in T.partitions_of(w - w1 - w2, max_part=p):
                                    a = T.jordan_chain_realizable(p, lam, (s1, s2), t)
                                    b = T.jordan_chain_realizable(p, lam, (s2, s1), t)
                                    assert a == b, (lam, s1, s2, t)


class TestVerifiers:
    def test_all_clean_at_six_boxes(self):
        for name, fn in T.ALL_VERIFIERS.items():
            report = fn(6)
            assert report.ok, (name, report.violations[:2])
            assert report.checked == 198

    def test_one_enumeration_gives_the_per_lemma_reports(self):
        names = sorted(T.ALL_VERIFIERS)
        joint = T.verify_lemmas(7, names)
        assert list(joint) == names
        for name in names:
            assert joint[name] == T.ALL_VERIFIERS[name](7)
        # each check keeps its own violations, in corpus order
        three = [t for t in T.enumerate_corpus(5) if t.shape.n_boxes == 3]
        marked, clean = T._run_verifier(5, [
            lambda tables, rows, counts: ([SkewTableau(tables.shape, rows)]
                                          if tables.shape.n_boxes == 3 else []),
            lambda tables, rows, counts: []])
        assert (marked.checked, marked.violations) == (clean.checked, three)
        assert three and not clean.violations

    def test_single_box(self):
        report = T.verify_lemma_small_branch(1)
        assert report.ok and report.checked == 1

    def test_budget_cap(self):
        with pytest.raises(ValueError):
            T.verify_lemma_full_rectangle(13)

    def test_figure_S_rightmost_box_property(self):
        # the rightmost box of the first row has one box to its right... its
        # mirror: the box at row 1 with one right neighbor carries entry 1,
        # and 1 appears at least twice in the word up to it
        s = figure_S()
        word = T.reading_word(s)
        assert word[:2] == [1, 1]

    def test_corpus_matches_recursive_oracle_up_to_8_boxes(self):
        assert [(t.shape.outer, t.shape.inner, t.rows)
                for t in T.enumerate_corpus(8)] == list(oracle_corpus(8))

    def test_checks_read_the_kernel_counts(self):
        # the live counts of the row tree, counts[0] its sentinel, give each
        # check the reference's answer on every corpus tableau
        seen = 0
        for outer, starts, rows, counts, _, _ in T._row_tree(6, []):
            tables = T._ShapeTables(tuple(outer), T._inner(starts))
            t = SkewTableau(tables.shape, tuple(rows))
            for check, ref in CHECKS:
                assert check(tables, tuple(rows), counts) == ref(t), (check.__name__, t)
            seen += 1
        assert seen == 198

    def test_prover_states_match_references_up_to_8_boxes(self):
        checks = [T._check_small_branch, T._check_full_rectangle,
                  T._check_columns_between_lines, T._check_divided_tableau]
        rectangles = [[]]  # per depth: (r0, bottom row, h, k) of every rectangle so far
        for outer, starts, rows, _, states, _ in T._row_tree(8, checks):
            t = SkewTableau.from_rows(outer, T._inner(starts), rows)
            (small, _), (first, _), (hs, _), ((least, left, rights), _) = states
            assert small is None
            r = len(rows) - 1
            del rectangles[r + 1:]
            rectangles.append(rectangles[r] + [(r0, r, r + 1 - r0, outer[r] - starts[r0])
                                               for r0 in range(first, r + 1)])
            assert [(h, k) for *_, h, k in sorted(rectangles[-1])] == ref_rectangles(t)
            assert list(enumerate(hs)) == ref_between(t)
            assert (least, left) == (T._semistandard_cut(t.rows, starts), column_span(t)[0])
            for k in range(column_span(t)[1] - left + 1):
                part = T.split_at_column(t, k)
                lattice, right = rights[left + k]
                assert lattice == T.has_lattice_property(part), (t, k)
                letters = list(right[1:])
                while letters and not letters[-1]:
                    letters.pop()
                assert tuple(letters) == T.content(part), (t, k)
                # the k columns left of the cut hold each letter at most k times
                assert all(a - b <= k for a, b in itertools.zip_longest(
                    T.content(t), T.content(part), fillvalue=0)), (t, k)

    def test_a_walk_that_clears_nothing_gives_the_same_reports(self, monkeypatch):
        names = sorted(T.ALL_VERIFIERS)
        proven = T.verify_lemmas(8, names)
        monkeypatch.setattr(T, "_PROVERS", {
            check: lambda state, *node, prove=prove: (prove(state, *node)[0], False)
            for check, prove in T._PROVERS.items()})
        assert T.verify_lemmas(8, names) == proven

    @pytest.mark.parametrize("max_boxes, checked", [(11, 9122), (12, 18389)])
    def test_reports_pinned_at_11_and_12_boxes(self, max_boxes, checked, monkeypatch):
        # every node of the real lemmas is cleared by its prover, so no exact
        # check builds a shape's layout
        monkeypatch.setattr(T, "_ShapeTables", None)
        reports = T.verify_lemmas(max_boxes, sorted(T.ALL_VERIFIERS))
        assert [(r.checked, r.violations) for r in reports.values()] == [(checked, [])] * 4

    def test_lattice_content_always_partition_in_corpus(self):
        for t in T.enumerate_corpus(5):
            assert T.is_partition(T.content(t))
            assert is_semistandard(t) and T.has_lattice_property(t)

    def test_split_preserves_entries(self):
        t = figure_S()
        right = T.split_at_column(t, 1)
        assert is_semistandard(right) and T.has_lattice_property(right)
        full_cut = T.split_at_column(t, 3)
        assert full_cut.n_boxes == 0

    def test_split_of_a_tableau_with_no_box(self):
        t = SkewTableau.from_rows((2, 1), (2, 1), [[], []])
        for k in range(3):
            assert T.split_at_column(t, k) == SkewTableau.from_rows((), (), [])

    def test_split_reads_only_the_shape(self, monkeypatch):
        # the reference for divided-tableau shares no code with the check's layout
        monkeypatch.setattr(T, "_ShapeTables", None)
        t = SkewTableau.from_rows((4, 3, 1), (2, 2), [[1, 1], [2], [1]])
        assert T.split_at_column(t, 0) == t
        assert T.split_at_column(t, 1) == SkewTableau.from_rows((3, 2), (1, 1), [[1, 1], [2]])
        assert T.split_at_column(t, 2) == SkewTableau.from_rows((2, 1), (), [[1, 1], [2]])


def ref_small_branch(t):
    bad, word = [], T.reading_word(t)
    at = 0
    for i, row in enumerate(t.rows):
        for k, e in enumerate(reversed(row)):
            at += 1
            if word[:at].count(e) < k + 1:
                bad.append({"tableau": t.to_json(), "row": i, "right_boxes": k, "entry": e})
    return bad


def ref_rectangles(t):
    """(h, k) of every fully contained rectangle, maximal downwards from its top row."""
    found, shape = [], t.shape
    for r0 in range(len(shape.outer)):
        lo, hi = shape.inner_at(r0), shape.outer[r0]
        for i in range(r0, len(shape.outer)):
            lo, hi = max(lo, shape.inner_at(i)), min(hi, shape.outer[i])
            if hi <= lo:
                break
            found.append((i - r0 + 1, hi - lo))
    return found


def ref_full_rectangle(t):
    cont = T.content(t)
    return [{"tableau": t.to_json(), "h": h, "k": k, "gamma_k": T.gamma(k, cont)}
            for h, k in ref_rectangles(t) if T.gamma(k, cont) < h]


def column_span(t):
    cols = [j for _, j in t.shape.cells()]
    return min(cols), max(cols) + 1


def ref_between(t):
    """(k, h) for 0 <= k <= ell: the rows of the first ell-k columns' boxes span h rows."""
    found = []
    left, right = column_span(t)
    ell = right - left
    for k in range(ell + 1):
        rows = [i for i, j in t.shape.cells() if j < left + ell - k]
        found.append((k, max(rows) - min(rows) + 1 if rows else 1))
    return found


def ref_columns_between_lines(t):
    cont = T.content(t)
    return [{"tableau": t.to_json(), "k": k, "h": h, "gamma": T.gamma(k + 1, cont)}
            for k, h in ref_between(t) if T.gamma(k + 1, cont) > h]


def ref_divided_tableau(t):
    bad, cont = [], T.content(t)
    left, right = column_span(t)
    for k in range(right - left + 1):
        part = T.split_at_column(t, k)
        if not (is_semistandard(part) and T.has_lattice_property(part)):
            bad.append({"tableau": t.to_json(), "k": k, "reason": "right part not SSLT"})
            continue
        for n in range(1, t.n_boxes + 2):
            lhs, rhs = T.gamma(n + k, cont), T.gamma(n, part)
            if lhs > rhs:
                bad.append({"tableau": t.to_json(), "k": k, "n": n, "lhs": lhs, "rhs": rhs})
    return bad


#: each lemma check next to its reference, built from the public predicates
CHECKS = [
    (T._check_small_branch, ref_small_branch),
    (T._check_full_rectangle, ref_full_rectangle),
    (T._check_columns_between_lines, ref_columns_between_lines),
    (T._check_divided_tableau, ref_divided_tableau),
]

#: the corpus shapes up to 7 boxes: first row nonempty
CORPUS_SHAPES = [
    (lam, mu)
    for w in range(1, 8) for lam in T.partitions_of(w) for mu in T.subpartitions(lam)
    if T.weight(mu) < w and not (mu and mu[0] == lam[0])
]


@st.composite
def fillings(draw):
    """Any filling of a corpus shape with entries 1-4, rows sorted or not."""
    lam, mu = draw(st.sampled_from(CORPUS_SHAPES))
    shape = SkewShape(lam, mu)
    sort = draw(st.booleans())
    rows = []
    for i, part in enumerate(lam):
        row = draw(st.lists(st.integers(1, 4), min_size=part - shape.inner_at(i),
                            max_size=part - shape.inner_at(i)))
        rows.append(sorted(row) if sort else row)
    return SkewTableau(shape, tuple(map(tuple, rows)))


class TestLemmaViolations:
    @pytest.mark.parametrize("check, rows, expected", [
        (T._check_small_branch, [[1, 2]], [{"row": 0, "right_boxes": 1, "entry": 1}]),
        (T._check_full_rectangle, [[1, 2]], [{"h": 1, "k": 2, "gamma_k": 0}]),
        (T._check_columns_between_lines, [[1, 2]], [{"k": 0, "h": 1, "gamma": 2}]),
        (T._check_divided_tableau, [[1], [1]],
         [{"k": 0, "reason": "right part not SSLT"}, {"k": 1, "n": 1, "lhs": 1, "rhs": 0}]),
    ], ids=["small-branch", "full-rectangle", "columns-between-lines", "divided-tableau"])
    def test_hand_made_violation(self, check, rows, expected):
        t = SkewTableau.from_rows(tuple(map(len, rows)), (), rows)
        assert run_check(check, t) == [{"tableau": t.to_json(), **v} for v in expected]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(fillings())
    def test_checks_match_references(self, t):
        for check, ref in CHECKS:
            assert run_check(check, t) == ref(t), check.__name__


class TestShapes:
    def test_invalid_subpartition(self):
        with pytest.raises(ValueError):
            SkewShape((2, 1), (3,))

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            SkewTableau.from_rows((2, 1), (), [[1], [1]])

    def test_cells(self):
        shape = SkewShape((3, 2), (1,))
        assert list(shape.cells()) == [(0, 1), (0, 2), (1, 0), (1, 1)]
        assert shape.n_boxes == 4

    def test_json_roundtrip(self):
        t = figure_S()
        assert SkewTableau.from_json(t.to_json()) == t
