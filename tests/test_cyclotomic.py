import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgq.cyclotomic import (
    CyclotomicElement,
    _canonicalize,
    _reduction_data,
    euler_phi,
    factorint,
    moebius,
    parse_cyclotomic,
    zeta,
)
from pgq.numtheory import primes_up_to


def fraction_canonicalize(n, coeffs):
    """The canonicalizer as it was in Fractions: the oracle for the integer one."""
    cur = {}
    for a, c in coeffs.items():
        if c:
            a %= n
            cur[a] = cur.get(a, Fraction(0)) + c
    for p, P, phiP, step, m, inv in _reduction_data(n):
        nxt = {}
        for a, c in cur.items():
            if not c:
                continue
            e = (a * inv) % P
            if e < phiP:
                nxt[a] = nxt.get(a, Fraction(0)) + c
            else:
                r = e - phiP
                for j in range(p - 1):
                    a2 = (a + (r + j * step - e) * m) % n
                    nxt[a2] = nxt.get(a2, Fraction(0)) - c
        cur = nxt
    return {a: c for a, c in cur.items() if c}


class TestMake:
    def test_identity_embedding(self):
        x = CyclotomicElement.make(5, [(0, 1)])
        assert x.is_rational() and x.to_rational() == 1

    def test_primitive_root_sum_is_minus_one(self):
        x = CyclotomicElement.make(5, [(1, 1), (2, 1), (3, 1), (4, 1)])
        assert x == CyclotomicElement.make(5, [(0, -1)])
        assert x == -1

    def test_exponent_reduced_mod_n(self):
        x = CyclotomicElement.make(6, [(7, 2)])
        assert x == CyclotomicElement.make(6, [(1, 2)])
        assert abs(x.complex_value() - 2 * zeta(6).complex_value()) < 1e-12

    def test_zero_level_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicElement.make(0, [(0, 1)])

    def test_canonical_equality_all_primes_dividing_n(self):
        # the sum of all primitive p-th roots inside Q(zeta_n) collapses to -1
        for n in range(2, 61):
            for p in [p for p in primes_up_to(n) if n % p == 0]:
                s = CyclotomicElement.make(n, [(j * (n // p), 1) for j in range(1, p)])
                assert s == -1, (n, p)


class TestCanonicalize:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 105).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
        st.integers(-2 * n, 2 * n),  # negative and unreduced exponents
        st.one_of(st.integers(-4, 4),  # zeros among them
                  st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))),
        max_size=8))))
    @example((30, {1: Fraction(1, 2), 31: Fraction(1, 2), -29: Fraction(-1, 3), 7: 0}))
    @example((12, {5: Fraction(2, 3), 7: Fraction(4, 6), 1: 2}))
    def test_integer_rewrite_matches_fractions(self, case):
        # the rewrite on integer numerators over one denominator is the
        # rewrite in Fractions, term by term
        n, coeffs = case
        den = lcm(*(Fraction(c).denominator for c in coeffs.values()))
        got = _canonicalize(n, {a: int(c * den) for a, c in coeffs.items()})
        assert all(type(c) is int for c in got.values())
        want = fraction_canonicalize(n, {a: Fraction(c) for a, c in coeffs.items()})
        got = {a: Fraction(c, den) for a, c in got.items()}
        assert got == want and list(got) == list(want)  # same exponents, same order


class TestIntegerForm:
    @pytest.mark.parametrize("zero", [0, Fraction(0)], ids=["int", "Fraction"])
    def test_times_zero_is_zero(self, zero):
        x = CyclotomicElement.make(12, [(1, Fraction(2, 3)), (5, -7)])
        for y in (x * zero, zero * x):
            assert y.is_zero() and y == 0
            assert (y.coeffs, y.den, y.n) == ({}, 1, 12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 105).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.tuples(
        st.integers(-2 * n, 2 * n),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))), max_size=6))))
    @example((6, [(1, Fraction(1, 2)), (1, Fraction(-1, 2))]))  # cancels to zero
    @example((10, [(0, Fraction(3, 4)), (5, Fraction(3, 4))]))  # zeta_10^5 = -1
    def test_numerators_over_one_denominator(self, case):
        n, terms = case
        x = CyclotomicElement.make(n, terms)
        assert x.den >= 1 and gcd(x.den, *x.coeffs.values()) == 1
        assert all(type(c) is int for c in x.coeffs.values())
        if x.is_zero():
            assert (x.coeffs, x.den) == ({}, 1)
        assert parse_cyclotomic(x.to_string()) == x
        assert parse_cyclotomic(x.to_json_map()) == x
        for k in (2, 3, 4, 35):  # a lifted canonical element is canonical
            y = x.lift(k * n)
            assert list(_canonicalize(y.n, y.coeffs).items()) == list(y.coeffs.items())


class TestArithmetic:
    def test_inverse_roots_multiply_to_one(self):
        assert zeta(5) * zeta(5, 4) == 1

    def test_minimal_polynomial_of_zeta3(self):
        assert zeta(3) + zeta(3, 2) == -1

    def test_mixed_level_product(self):
        prod = zeta(2) * zeta(3)
        assert prod.n == 6
        assert prod == zeta(6, 5)
        assert abs(prod.complex_value() - zeta(6, 5).complex_value()) < 1e-9

    def test_scalar_and_subtraction(self):
        x = zeta(7) * Fraction(3, 2) - zeta(7)
        assert x == zeta(7) * Fraction(1, 2)
        assert (x - x).is_zero()

    def test_levels_preserved_and_lifted(self):
        # matching levels stay; mixed levels go to the lcm; no reduction
        assert (zeta(6) + zeta(6, 2)).n == 6
        assert (zeta(4) * zeta(6)).n == 12
        assert (zeta(5) - zeta(5)).n == 5
        assert CyclotomicElement.rational(1, 5).n == 5

    def test_float_shadow_random_elements(self):
        rng = random.Random(20240501)
        for _ in range(120):
            n = rng.randrange(2, 121)
            terms = [
                (rng.randrange(n), Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
                for _ in range(5)
            ]
            x = CyclotomicElement.make(n, terms)
            y = CyclotomicElement.make(n, terms[:2])
            lhs = (x * y).complex_value()
            rhs = x.complex_value() * y.complex_value()
            scale = max(1.0, abs(rhs))
            assert abs(lhs - rhs) <= 1e-9 * scale


class TestGalois:
    def test_definition(self):
        assert zeta(5).galois(2) == zeta(5, 2)

    def test_rationals_fixed(self):
        seven = CyclotomicElement.rational(7, 10)
        for k in (1, 3, 7, 9):
            assert seven.galois(k) == 7

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            zeta(10).galois(5)

    def test_composition_on_level_35(self):
        rng = random.Random(99)
        for _ in range(20):
            x = CyclotomicElement.make(
                35, [(rng.randrange(35), rng.randrange(-4, 5)) for _ in range(4)]
            )
            a, b = x.galois(2).galois(3), x.galois(6)
            assert a == b
            assert abs(a.complex_value() - b.complex_value()) < 1e-9

    def test_ring_homomorphism(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.choice([12, 15, 24, 35, 40])
            mk = lambda: CyclotomicElement.make(
                n, [(rng.randrange(n), rng.randrange(-3, 4)) for _ in range(3)]
            )
            x, y = mk(), mk()
            k = rng.choice([k for k in range(1, n) if gcd(k, n) == 1])
            assert (x + y).galois(k) == x.galois(k) + y.galois(k)
            assert (x * y).galois(k) == x.galois(k) * y.galois(k)


class TestFixedBy:
    def test_level_one_is_the_rationals(self):
        assert not zeta(3).fixed_by(1)
        assert CyclotomicElement.rational(Fraction(-5, 3), 12).fixed_by(1)

    def test_subfield_of_level_21(self):
        assert zeta(21, 7).fixed_by(3)  # zeta_3
        assert not zeta(21).fixed_by(3)
        assert zeta(21).fixed_by(21) and zeta(21).fixed_by(42)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(-3, 3)), max_size=4),
        st.integers(1, 30), st.sampled_from([1, 2, 3, 5]))))
    @example((3, [(1, 1)], 1, 1))
    def test_matches_the_galois_orbit(self, case):
        # x lies in Q(zeta_m) iff its orbit under Gal(Q(zeta_L)/Q(zeta_m)),
        # the k mod L with k = 1 (mod m), is {x}; a value built at level d | m
        # lies there by construction
        n, terms, m, s = case
        x = CyclotomicElement.make(n, terms)
        L = lcm(n, m)
        orbit = [x.lift(L).galois(k) for k in range(L) if gcd(k, L) == 1 and k % m == 1 % m]
        assert x.fixed_by(m) == all(y == x for y in orbit)
        assert x.lift(n * s).fixed_by(n)


class TestTrace:
    def test_prime_roots(self):
        for p in primes_up_to(60):
            assert zeta(p).trace_row(p)[0] == -1

    def test_inverse_p_root_in_pq_field(self):
        # zeta_p^-1 viewed inside Q(zeta_pq) traces to -(q-1)
        assert zeta(35, -7).trace_row(35)[0] == -6
        assert zeta(15, -5).trace_row(15)[0] == -(5 - 1)

    def test_trace_of_one_is_degree(self):
        assert CyclotomicElement.rational(1, 12).trace_row(12)[0] == euler_phi(12) == 4

    def test_closed_formula_matches_galois_sum(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(2, 80)
            x = CyclotomicElement.make(
                n, [(rng.randrange(n), Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
                    for _ in range(4)]
            )
            assert x.trace_row(x.n)[0] == x.trace_via_galois_sum()

    def test_trace_over_subfield_rescaling(self):
        # a value of Q(zeta_5) represented at level 35: trace over Q(zeta_5)
        x = zeta(35, 7)  # = zeta_5
        assert x.trace_row(5)[0] == -1
        assert CyclotomicElement.rational(3, 35).trace_row(7)[0] == 3 * euler_phi(7)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 42).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(-5, 5)), max_size=5),
        st.integers(1, 42))))
    @example((6, [(1, 1), (5, -2)], 4))  # neither level divides the other
    @example((3, [(1, 2)], 12))  # x.n divides r
    @example((12, [(5, 1), (7, 3)], 4))  # r divides x.n
    @example((7, [], 7))  # zero
    def test_trace_row_matches_the_product(self, case):
        # the closed-form row against the multiply-then-trace path
        n, terms, r = case
        x = CyclotomicElement.make(n, terms)
        row = x.trace_row(r)
        assert len(row) == r
        for l in range(r):
            assert row[l] == (x * zeta(r, -l)).trace_row(r)[0]
        if r % n == 0:  # an algebraic integer of Q(zeta_r): integer traces
            assert all(type(v) is int for v in row)


class TestSerialization:
    def test_string_roundtrip(self):
        x = CyclotomicElement.make(12, [(0, Fraction(1, 2)), (5, -3), (7, Fraction(2, 7))])
        assert parse_cyclotomic(x.to_string()) == x

    def test_json_roundtrip(self):
        x = CyclotomicElement.make(9, [(1, 1), (4, Fraction(-1, 3))])
        assert parse_cyclotomic(x.to_json_map()) == x

    def test_bare_rational(self):
        assert parse_cyclotomic("-2") == -2
        assert parse_cyclotomic("3/4") == Fraction(3, 4)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_cyclotomic("z^z @ 5")


class TestHelpers:
    def test_factorint(self):
        assert factorint(360) == ((2, 3), (3, 2), (5, 1))
        p = 2**61 - 1  # a level past any trial division
        assert factorint(p) == ((p, 1),)
        assert euler_phi(p) == p - 1 and moebius(p) == -1
        assert euler_phi(2 * p) == p - 1 and moebius(p * p) == 0

    def test_moebius(self):
        assert [moebius(n) for n in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]

    def test_not_rational_raises(self):
        with pytest.raises(ValueError):
            zeta(5).to_rational()
