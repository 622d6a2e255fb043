from fractions import Fraction
from math import gcd, inf, isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgq import numtheory as NT
from pgq.numtheory import FactoredInteger, LieSeriesSpec
from pgq.selftest import weyl_degree_order


def F_value(q):
    """F(q) = (q^2+1)(q^6-1), the product of the five cyclotomic values."""
    return (q * q + 1) * (q**6 - 1)


def is_squarefree_above3(fi):
    """No prime q > 3 divides the factored integer twice."""
    return all(e < 2 for p, e in fi.factors if p > 3)


def constant_c_tail_bound(truncation):
    """A bound on c_Q - c, the change of constant_c(Q) from all later factors.

    Each factor is 1 - rho(q)/phi(q^2) with rho(q) <= 8 and phi(q^2) = q(q-1)
    >= q^2/2, so it is at least 1 - 16/q^2.  The product of the factors past
    Q is then at least 1 - sum_{q>Q} 16/q^2 > 1 - 16/Q, because
    sum_{k>Q} 1/k^2 < sum_{k>Q} 1/(k(k-1)) = 1/Q.  With 0 < c_Q <= 1 this
    gives c_Q - c < 16/Q."""
    return Fraction(16, truncation)


class TestFactoring:
    def test_primes_up_to(self):
        assert NT.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert len(NT.primes_up_to(1000)) == 168

    def test_is_prime_edges(self):
        assert not NT.is_prime(1) and NT.is_prime(2) and not NT.is_prime(4097 * 4099)
        assert NT.is_prime(2**61 - 1)

    def test_factorize_roundtrip(self):
        for n in (1, 2, 360, 7280, 2**31 - 1, 10**12 + 39, 4099**2 * 5):
            f = NT.factorize(n)
            prod = 1
            for p, e in f.items():
                assert NT.is_prime(p)
                prod *= p**e
            assert prod == n

    def test_factorize_monster_order(self):
        order = 808017424794512875886459904961710757005754368000000000
        f = NT.factorize(order)
        assert f == {2: 46, 3: 20, 5: 9, 7: 6, 11: 2, 13: 3, 17: 1, 19: 1, 23: 1,
                     29: 1, 31: 1, 41: 1, 47: 1, 59: 1, 71: 1}

    def test_factored_integer_validation(self):
        fi = FactoredInteger.from_value(7280)
        assert fi.factors == ((2, 4), (5, 1), (7, 1), (13, 1))
        with pytest.raises(ValueError):
            FactoredInteger(12, ((2, 1), (3, 1)))  # 6 != 12


def factorize_witness(value, above):
    """The smallest prime q > above with q^2 | value, by complete factoring."""
    return min((p for p, e in NT.factorize(value).items() if e >= 2 and p > above),
               default=inf)


#: the inverse table for every value below 2^63
TABLE = NT._witness_table(2**63 - 1)


def witness(value, above=1):
    return int(NT._square_witnesses(np.array([[value]], dtype=np.int64), above, TABLE)[0])


_SMALL = NT.primes_up_to(4096)
_MEDIUM = [p for p in NT.primes_up_to(10**5) if p > 4096]
#: products of small primes, primes in (4096, 10^5] and their squares and
#: cubes, and products of three primes above 4096^3, all below 2^63
WITNESS_VALUES = st.one_of(
    st.lists(st.tuples(st.sampled_from(_SMALL + _MEDIUM), st.integers(1, 3)), max_size=4)
    .map(lambda fs: prod(p**e for p, e in fs)),
    st.lists(st.sampled_from(_MEDIUM), min_size=3, max_size=3).map(prod)
    .filter(lambda v: v >= 4096**3),
).filter(lambda v: v < 2**63)


class TestSquarefree:
    def test_basic_examples(self):
        twelve = FactoredInteger.from_value(12)
        assert not twelve.is_squarefree() and is_squarefree_above3(twelve)
        thirty = FactoredInteger.from_value(30)
        assert thirty.is_squarefree() and is_squarefree_above3(thirty)

    def test_F_of_3(self):
        assert F_value(3) == 7280
        fi = FactoredInteger.from_value(F_value(3))
        assert is_squarefree_above3(fi) and not fi.is_squarefree()

    def test_witness_large_square(self):
        assert witness(4099**2 * 5) == 4099
        assert witness(4099 * 4111) == 0
        assert witness(4099**3) == 4099
        assert witness(4099**2 * 4111) == 4099
        assert witness(49, above=3) == 7
        assert witness(49 * 4, above=3) == 7
        assert witness(4, above=3) == 0

    def test_witness_is_least_over_a_column(self):
        # 4111^2 turns up only in the cube-root trial division, 4099^2 only
        # in the final square root; the column's witness is the smaller
        values = np.array([[4111**2 * 4127, 4099**2 * 4127], [4099**2, 4111**2]],
                          dtype=np.int64)
        assert NT._square_witnesses(values, 1, TABLE).tolist() == [4099, 4099]

    def test_isqrt_array_is_exact_up_to_2_63(self):
        roots = [2, 4099, 10**6 + 3, 2**31 - 1, 3037000499]
        values = [v for s in roots for v in (s * s - 1, s * s, s * s + 1)] + [2**63 - 1]
        got = NT._isqrt_array(np.array(values, dtype=np.int64)).tolist()
        assert got == [isqrt(v) for v in values]

    @pytest.mark.parametrize("above", [1, 3])
    def test_witness_kernel_edge_values(self, above):
        top = 2**63 - 1
        near_top = [top - d for d in range(8)] + [top - 24, 3 * 2**61 + 3]
        powers = [2**62, 3 * 2**60, 3**39, 2 * 3**38, 5**27]
        # several primes of one chunk divide one entry, squared or not
        shared = [5**2 * 7**3 * 4093**2, 3 * 5**2 * 7**2 * 11, 3**2 * 5 * 7**2 * 4091,
                  3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47]
        # cofactors of 4096^3 and more reach the table's primes above 4096
        late = [4099**2 * 4111 * 4127, 4099**3 * 5003, 4111**2 * 4099 * 4127 * 9,
                4099**2 * 4111**2 * 4127, 4127**3, 4127**4 * 3, 65537**2 * 1000003,
                1000003**3, 2097143**2 * 2097133]
        for value in near_top + powers + shared + late:
            assert value < 2**63
            want = factorize_witness(value, above)
            assert witness(value, above) == (0 if want == inf else want), value

    def test_witness_kernel_on_many_entries_of_one_column(self):
        # one column whose entries each carry a square: the least one wins,
        # whether a chunk of the pass or the square root finds it
        column = [4127**3, 3**2 * 4099**2 * 4111, 2**4 * 101**2, 97**2 * 4093]
        values = np.array([[v, 1] for v in column], dtype=np.int64)
        assert NT._square_witnesses(values, 1, TABLE).tolist() == [2, 0]
        assert NT._square_witnesses(values, 3, TABLE).tolist() == [97, 0]
        assert NT._square_witnesses(values, 97, TABLE).tolist() == [101, 0]
        assert NT._square_witnesses(values[:2], 3, TABLE).tolist() == [4099, 0]

    def test_witness_kernel_reads_the_table_only_to_the_cube_root(self):
        values = np.array([[4099**2 * 4111 * 4127, 7919**3 * 11, 10**12 + 39]], dtype=np.int64)
        tight = NT._witness_table(int(values.max()))
        assert tight[0][-1] < 10**5 < TABLE[0][-1]
        for above in (1, 3):
            assert (NT._square_witnesses(values, above, tight).tolist()
                    == NT._square_witnesses(values, above, TABLE).tolist() == [4099, 7919, 0])
        small = np.array([[4093**2 * 3]], dtype=np.int64)
        table = NT._witness_table(int(small.max()))
        assert table[0][-1] == 367  # 4093 is left to the square root
        assert NT._square_witnesses(small, 1, table).tolist() == [4093]

    def test_inverse_table_divides_exactly(self):
        q, inv, lim = NT._inverse_table(np.array(NT.primes_up_to(10**5)[1:], dtype=np.int64))
        assert (q.astype(np.uint64) * inv == 1).all()
        for v in (2**63 - 1, 3**39, 4099**2 * 4111, 99991 * 99989):
            divides = np.uint64(v) * inv <= lim
            assert divides.tolist() == [v % p == 0 for p in q.tolist()]
            assert (np.uint64(v) * inv[divides]).tolist() == [v // p for p in q[divides].tolist()]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.lists(WITNESS_VALUES, min_size=3, max_size=3), min_size=1, max_size=32),
           st.sampled_from((1, 3)))
    def test_witness_kernel_matches_factorize(self, columns, above):
        values = np.array(columns, dtype=np.int64).T
        want = [min(factorize_witness(v, above) for v in column) for column in columns]
        got = NT._square_witnesses(values, above, TABLE).tolist()
        assert got == [0 if w == inf else w for w in want]


class TestAlpha:
    def test_examples(self):
        assert NT.alpha(360) == 5
        assert NT.alpha(1) == 1
        assert NT.alpha(35) == 35

    def test_definitional_identity(self):
        for n in range(1, 500):
            a = NT.alpha(n)
            rest = n // a
            assert n % a == 0 and gcd(a, 6) == 1
            # the cofactor is a product of 2s and 3s only
            while rest % 2 == 0:
                rest //= 2
            while rest % 3 == 0:
                rest //= 3
            assert rest == 1


class TestCyclotomicValues:
    def test_individual(self):
        assert NT.cyclotomic_value(6, 2) == 3
        assert NT.cyclotomic_value(4, 3) == 10

    def test_product_identity(self):
        for q in range(2, 101):
            prod = 1
            for k in (1, 2, 3, 4, 6):
                prod *= NT.cyclotomic_value(k, q)
            assert prod == F_value(q)

    def test_unsupported_index(self):
        with pytest.raises(ValueError):
            NT.cyclotomic_value(5, 2)


class TestRho:
    def test_rho_5_enumeration_and_roots(self):
        assert NT._rho_enumerate(5) == 4
        assert NT.rho(5) == 4
        assert sorted(
            r for k in (1, 2, 3, 4, 6) for r in NT.phi_roots_mod_q2(k, 5)
        ) == [1, 7, 18, 24]

    def test_counted_residues_are_coprime(self):
        for d in (2, 3, 5, 7, 13):
            m = d * d
            roots = [a for a in range(m) if F_value(a) % m == 0] if d > 1 else []
            assert len(roots) == NT.rho(d)
            for a in roots:
                assert gcd(a, d) == 1

    def test_rho_bound_small(self):
        for q in NT.primes_up_to(200):
            assert NT._rho_enumerate(q) <= 8

    def test_enumeration_matches_roots_for_primes(self):
        for q in NT.primes_up_to(150):
            if q > 3:
                assert NT._rho_enumerate(q) == NT.rho(q)

    def test_multiplicativity_on_coprime_squarefree(self):
        sf = [d for d in range(2, 51) if FactoredInteger.from_value(d).is_squarefree()]
        enumerate_rho = NT._rho_enumerate
        for d1 in sf:
            for d2 in sf:
                if d1 * d2 <= 50 and gcd(d1, d2) == 1:
                    assert enumerate_rho(d1 * d2) == enumerate_rho(d1) * enumerate_rho(d2)

    def test_rho_matches_enumeration_below_400(self):
        assert NT.rho(1) == 1
        for d in range(2, 400):
            assert NT.rho(d) == NT._rho_enumerate(d), d

    def test_square_divisor_hits_one_polynomial_only(self):
        # for q > 3 the pairwise gcds of the five values divide 6
        for p in NT.primes_up_to(2000):
            vals = [NT.cyclotomic_value(k, p) for k in (1, 2, 3, 4, 6)]
            for i in range(5):
                for j in range(i + 1, 5):
                    g = gcd(vals[i], vals[j])
                    while g % 2 == 0:
                        g //= 2
                    while g % 3 == 0:
                        g //= 3
                    assert g == 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**40),
           st.lists(st.tuples(st.integers(0, 2**62), st.integers(1, NT.CENSUS_MAX_BOUND),
                              st.integers(0, 2**62)),
                    min_size=1, max_size=16))
    @example(0, [(0, 1, 0)])
    @example(2, [(0, 7, 7), (0, NT.CENSUS_MAX_BOUND, 0)])
    @example(NT.CENSUS_MAX_BOUND - 1, [(2**62, NT.CENSUS_MAX_BOUND, 2**62), (1, 1, 3),
                                       (0, 2, 1), (5, 2, 5)])
    def test_powmod_matches_pow(self, g, triples):
        # m^2 < 2^63 is the precondition, so every product stays in int64;
        # the base is one int or an int64 array of one base per entry
        e = np.array([e for e, _, _ in triples], dtype=np.int64)
        m = np.array([m for _, m, _ in triples], dtype=np.int64)
        got = NT._powmod(g, e, m)
        assert got.dtype == np.int64
        assert got.tolist() == [pow(g, e, m) for e, m, _ in triples]
        bases = np.array([b for _, _, b in triples], dtype=np.int64)
        got = NT._powmod(bases, e, m)
        assert got.dtype == np.int64
        assert got.tolist() == [pow(b, e, m) for e, m, b in triples]

    def test_fourth_root_is_the_least_non_residue_raised(self):
        # for every prime q = 1 mod 4 below 2e5, the root is g^((q-1)/4) for
        # the least prime g that Euler's criterion finds a non-residue
        Q = np.array([q for q in NT.primes_up_to(2 * 10**5) if q % 4 == 1], dtype=np.int64)
        small = NT.primes_up_to(1000)
        least = [next(g for g in small if pow(g, (q - 1) // 2, q) == q - 1) for q in Q.tolist()]
        assert NT._least_non_residue(Q).tolist() == least
        assert NT._root_of_unity(Q, 4).tolist() == [
            pow(g, (q - 1) // 4, q) for g, q in zip(least, Q.tolist())]

    def test_cube_roots_are_primitive(self):
        Q = np.array([q for q in NT.primes_up_to(2 * 10**5) if q % 3 == 1], dtype=np.int64)
        for q, z in zip(Q.tolist(), NT._root_of_unity(Q, 3).tolist()):
            assert 1 < z < q and pow(z, 3, q) == 1, q

    @pytest.mark.parametrize("x", [2, 3, 9, 10, 15, 16, 17, 100, 1001, 4096, 10**5])
    def test_prime_bitmap_is_membership_in_the_primes(self, x):
        # candidates 0..x+1: 2, 9, every even number, x and x + 1 among them
        P = NT._prime_array(x)
        bits = NT._odd_prime_bits(P, x)
        assert bits.dtype == np.uint8 and bits.size <= x // 16 + 2
        h = np.arange(x + 2, dtype=np.int64)
        assert np.array_equal(NT._in_primes(bits, h), np.isin(h, P))
        h = np.array([x + 1, 9, 2, x, 0, 1, 4], dtype=np.int64)
        assert NT._in_primes(bits, h).tolist() == [False, False, True, x in P.tolist(),
                                                   False, False, False]

    def test_hensel_lifts_are_roots(self):
        for q in (5, 7, 11, 13, 97, 101):
            for k in (1, 2, 3, 4, 6):
                for r in NT.phi_roots_mod_q2(k, q):
                    coeffs = NT._PHI_COEFFS[k]
                    assert NT._horner(coeffs, r) % (q * q) == 0

    def test_square_roots_are_coprime_and_hit_a_unique_factor(self):
        # spot-enumerated across 3 < q <= 10^4: any a with q^2 | F(a) is a
        # unit mod q and exactly one of the five values carries the square
        qs = [q for q in NT.primes_up_to(10**4) if q > 3]
        phi_poly = {k: NT._PHI_COEFFS[k] for k in (1, 2, 3, 4, 6)}
        for q in qs[:: max(1, len(qs) // 120)]:
            m = q * q
            for k in (1, 2, 3, 4, 6):
                for a in NT.phi_roots_mod_q2(k, q):
                    assert F_value(a) % m == 0
                    assert gcd(a, q) == 1
                    hits = [
                        kk for kk, cs in phi_poly.items() if NT._horner(cs, a) % m == 0
                    ]
                    assert hits == [k]

    def test_lifted_roots_for_every_prime_to_1e4(self):
        Q = np.array([q for q in NT.primes_up_to(10**4) if q > 3], dtype=np.int64)
        counts = dict.fromkeys(Q.tolist(), 0)
        per_k = []
        for k in (1, 2, 3, 4, 6):
            qs, rs = NT._lifted_roots((k,), Q)
            per_k.append((qs, rs))
            for q, r in zip(qs.tolist(), rs.tolist()):
                assert 0 < r < q * q and NT._horner(NT._PHI_COEFFS[k], r) % (q * q) == 0
                counts[q] += 1
            for q in Q[:: 40].tolist():
                assert NT.phi_roots_mod_q2(k, q) == sorted(rs[qs == q].tolist())
        assert all(c == NT._rho_prime_by_roots(q) for q, c in counts.items())
        # one call for all five shares the cube roots of Phi_3 and Phi_6
        qs, rs = NT._lifted_roots((1, 2, 3, 4, 6), Q)
        assert np.array_equal(qs, np.concatenate([q for q, _ in per_k]))
        assert np.array_equal(rs, np.concatenate([r for _, r in per_k]))


class TestConstant:
    def test_truncation_at_5(self):
        c, shadow = NT.constant_c(5)
        assert c == Fraction(4, 5)
        assert abs(shadow - 0.8) < 1e-15

    def test_monotone_positive(self):
        prev = Fraction(1)
        for bound in (5, 7, 11, 13, 100, 1000):
            c, _ = NT.constant_c(bound)
            assert 0 < c <= prev
            prev = c

    def test_tail_bound(self):
        c3, _ = NT.constant_c(1000)
        c4, _ = NT.constant_c(10000)
        assert 0 < c3 - c4 < constant_c_tail_bound(1000)

    def test_lower_bound_by_sixteen_over_q_squared(self):
        # every factor is at least (1 - 16/q^2), so the truncation dominates
        # the corresponding elementary product
        bound = 200
        c, _ = NT.constant_c(bound)
        floor = Fraction(1)
        for q in NT.primes_up_to(bound):
            if q > 3:
                floor *= 1 - Fraction(16, q * q)
        assert c >= floor > 0


def oracle_rows(x, condition):
    """The census rows by factoring the whole product F(p), prime by prime."""
    ks, above = NT.CONDITIONS[condition]
    rows = []
    for p in NT.primes_up_to(x):
        w = factorize_witness(prod(NT.cyclotomic_value(k, p) for k in ks), above)
        rows.append((p, w == inf, None if w == inf else w))
    return rows


class TestCensus:
    def test_cor13_at_1000(self):
        res = NT.count_N(1000, "cor13", "phi-factor")
        assert (res.count, res.total_primes) == (124, 168)

    def test_three_paths_agree_small(self):
        a = NT.count_N(300, "thm51", "phi-factor")
        b = NT.count_N(300, "thm51", "root-sieve")
        assert a.rows == b.rows == oracle_rows(300, "thm51")
        x = NT.count_N(300, "cor13", "phi-factor")
        y = NT.count_N(300, "cor13", "root-sieve")
        assert x.rows == y.rows == oracle_rows(300, "cor13")

    def test_full_product_oracle_at_1e4(self):
        a = NT.count_N(10**4, "thm51", "phi-factor")
        assert a.rows == oracle_rows(10**4, "thm51")

    def test_monotone_in_x(self):
        assert NT.count_N(200, "thm51").count <= NT.count_N(500, "thm51").count

    def test_witnesses_are_genuine(self):
        res = NT.count_N(500, "thm51", "phi-factor")
        for p, ok, w in res.rows:
            if not ok:
                assert w is not None and w > 3
                assert F_value(p) % (w * w) == 0

    def test_phi_factor_matches_root_sieve_at_2e5(self):
        for condition in NT.CONDITIONS:
            a = NT.count_N(2 * 10**5, condition, "phi-factor")
            b = NT.count_N(2 * 10**5, condition, "root-sieve")
            assert a.rows == b.rows

    def test_rows_from_arrays_match_full_F_tuples_at_3000(self):
        for condition in NT.CONDITIONS:
            tuples = oracle_rows(3000, condition)  # one tuple a prime, as the census once kept
            for method in ("phi-factor", "root-sieve"):
                res = NT.count_N(3000, condition, method)
                assert res.primes.dtype == res.witness.dtype == np.int64
                assert res.rows == tuples
                assert res.count == sum(ok for _, ok, _ in tuples)
                assert res.total_primes == len(tuples)

    def test_rows_match_the_oracle_at_every_bound_below_200(self):
        # at --bound 2 the witness table holds no odd prime at all
        for condition in NT.CONDITIONS:
            rows = oracle_rows(199, condition)
            for x in range(2, 200):
                want = [row for row in rows if row[0] <= x]
                for method in ("phi-factor", "root-sieve"):
                    assert NT.count_N(x, condition, method).rows == want, (x, condition, method)

    @pytest.mark.parametrize("method", ["phi-factor", "root-sieve"])
    def test_row_fields_are_plain_python(self, method):
        for condition in NT.CONDITIONS:
            for p, ok, w in NT.count_N(3000, condition, method).rows:
                assert type(p) is int and type(ok) is bool
                assert w is None if ok else type(w) is int

    def test_censuses_compare_without_raising(self):
        a, b = NT.count_N(1000), NT.count_N(1000)
        assert a == a and isinstance(a == b, bool)  # no elementwise array truth value
        assert a.agrees_with(b)
        phi, root = (NT.count_N(10**4, "thm51", m) for m in ("phi-factor", "root-sieve"))
        assert phi.agrees_with(root) and root.agrees_with(phi)
        assert not a.agrees_with(NT.count_N(2000))
        witness = a.witness.copy()
        witness[0] = 0 if witness[0] else 5
        mutated = NT.SieveResult(a.x, a.condition, a.method, a.count, a.total_primes,
                                 a.primes, witness)
        assert not a.agrees_with(mutated)

    def test_bound_past_int64_rejected(self):
        with pytest.raises(ValueError, match="64-bit"):
            NT.count_N(NT.CENSUS_MAX_BOUND + 1)
        assert NT.CENSUS_MAX_BOUND**2 + NT.CENSUS_MAX_BOUND + 1 < 2**63
        assert (NT.CENSUS_MAX_BOUND + 1) ** 2 >= 2**63

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            NT.count_N(1, "thm51")
        with pytest.raises(ValueError):
            NT.count_N(100, "nope")
        with pytest.raises(ValueError):
            NT.count_N(100, "thm51", "nope")


class TestLi:
    def test_li_at_2(self):
        assert NT.li(2) == 0.0

    def test_below_2_rejected(self):
        for x in (1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NT.li(x)

    def test_ramanujan_series_matches_power_series(self):
        for x in (3, 10, 1000, 10**5, 10**7):
            a, b = NT.li(x), NT.li_series(x)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    @settings(deadline=None)
    @given(st.floats(min_value=2, max_value=1e12))
    @example(2.000001)
    def test_series_matches_mpmath(self, x):
        import mpmath

        ref = float(mpmath.li(x, offset=True))
        for value in (NT.li(x), NT.li_series(x)):
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


class TestLieSeries:
    def test_order_psl4_q2(self):
        order, parts = NT.lie_order(LieSeriesSpec("PSL4", 2, 1))
        assert order.value == 20160
        assert dict(order.factors) == {2: 6, 3: 2, 5: 1, 7: 1}

    def test_order_psp4_q2(self):
        order, _ = NT.lie_order(LieSeriesSpec("PSp4", 2, 1))
        assert order.value == 720

    def test_known_orders(self):
        # PSU(4,2) = PSp(4,3) has order 25920; G2(3) order 4245696
        assert NT.lie_order(LieSeriesSpec("PSU4", 2, 1))[0].value == 25920
        assert NT.lie_order(LieSeriesSpec("PSp4", 3, 1))[0].value == 25920
        assert NT.lie_order(LieSeriesSpec("G2", 3, 1))[0].value == 4245696
        assert NT.lie_order(LieSeriesSpec("PSp6", 2, 1))[0].value == 1451520

    def test_orders_match_weyl_degree_formula(self):
        prime_powers = [(p, f) for p in NT.primes_up_to(200) for f in range(1, 8) if p**f < 200]
        for fam in NT.LIE_FAMILIES:
            for p, f in prime_powers:
                order, _ = NT.lie_order(LieSeriesSpec(fam, p, f))
                assert order.value == weyl_degree_order(fam, p**f), (fam, p, f)

    def test_tested_indices_are_census_data(self):
        # at f = 1, c = 1: settled exactly when no q > 3 squares into a tested value
        for ks in {row[0] for row in NT.LIE_SERIES.values()}:
            censuses = [count(5000, ks, 3) for count in (NT._count_phi_factor, NT._count_root_sieve)]
            primes = censuses[0][0].tolist()
            for fam, row in NT.LIE_SERIES.items():
                if row[0] == ks:
                    settled = [NT.lie_series_verdict(LieSeriesSpec(fam, p, 1)).settled
                               for p in primes]
                    for P, witness in censuses:
                        assert P.tolist() == primes
                        assert (witness == 0).tolist() == settled, (fam, ks)

    def test_g2_at_5_settled(self):
        v = NT.lie_series_verdict(LieSeriesSpec("G2", 5, 1))
        assert v.settled
        assert v.poly_value == 31 * 21 and v.alpha_of_poly == 217

    def test_psl4_prime_field_condition(self):
        for p in (2, 3, 5, 7):
            v = NT.lie_series_verdict(LieSeriesSpec("PSL4", p, 1))
            want = FactoredInteger.from_value(
                NT.alpha((p * p + p + 1) * (p * p + 1))
            ).is_squarefree()
            assert v.settled == want

    def test_coprimality_clause(self):
        # q = 2^5: alpha(f) = 5 shares the factor 5 with q^2+1 = 1025
        v = NT.lie_series_verdict(LieSeriesSpec("PSp4", 2, 5))
        assert not v.settled and not v.conditions["c_coprime_to_poly"]

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            LieSeriesSpec("E8", 2, 1)
        with pytest.raises(ValueError):
            LieSeriesSpec("PSL4", 4, 1)
