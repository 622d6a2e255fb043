"""Release-gate checks: every derived oracle and fixture validation, scaled
so the whole battery finishes in under a second.

Each check is a plain function that raises AssertionError on failure; run()
prints one line per check and reports overall success.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod

from . import brauer, fixtures, helpmethod, numtheory, tableaux
from .cyclotomic import CyclotomicElement, parse_cyclotomic, zeta


def check_trace_dual_path(p_bound=40, pq_bound=12):
    for p in numtheory.primes_up_to(p_bound):
        x = zeta(p)
        assert x.trace_row(p)[0] == -1 == x.trace_via_galois_sum()
    for p in numtheory.primes_up_to(pq_bound):
        for q in numtheory.primes_up_to(pq_bound):
            if p != q:
                x = zeta(p * q, -q)  # zeta_p^-1 inside Q(zeta_pq)
                assert x.trace_row(p * q)[0] == -(q - 1) == x.trace_via_galois_sum()


def check_canonical_equality():
    for n in range(2, 31):
        for p in [p for p in numtheory.primes_up_to(n) if n % p == 0]:
            s = CyclotomicElement.make(n, [(j * (n // p), 1) for j in range(1, p)])
            assert s == -1, (n, p)


def check_float_shadow():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 61)
        x = CyclotomicElement.make(
            n, [(rng.randrange(n), Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
                for _ in range(4)]
        )
        y = CyclotomicElement.make(
            n, [(rng.randrange(n), Fraction(rng.randrange(-5, 6))) for _ in range(3)]
        )
        lhs = (x * y + x).complex_value()
        rhs = x.complex_value() * y.complex_value() + x.complex_value()
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def check_serialization_roundtrip():
    x = CyclotomicElement.make(12, [(1, Fraction(2, 3)), (5, -2), (0, 1)])
    assert parse_cyclotomic(x.to_string()) == x
    assert parse_cyclotomic(x.to_json_map()) == x


def check_figure_tableaux():
    t = tableaux.SkewTableau.from_rows((3, 2, 2, 1), (), [[1, 2, 1], [2, 3], [3, 4], [5]])
    assert tableaux.reading_word(t) == [1, 2, 1, 3, 2, 4, 3, 5]
    assert tableaux.has_lattice_property(t)
    assert tableaux.content(t) == (2, 2, 2, 1, 1)
    s = tableaux.SkewTableau.from_rows((3, 2, 2, 1), (1,), [[1, 1], [1, 2], [2, 3], [4]])
    assert tableaux.reading_word(s) == [1, 1, 2, 1, 3, 2, 4]
    assert tableaux.content(s) == (3, 2, 1, 1)


def check_lr_small():
    assert tableaux.lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert tableaux.lr_coefficient((2, 2), (1,), (2, 1)) == 1
    for w in range(0, 7):
        for lam in tableaux.partitions_of(w):
            assert tableaux.lr_coefficient(lam, (), lam) == 1
    for w in range(1, 7):
        for lam in tableaux.partitions_of(w):
            for mu in tableaux.subpartitions(lam):
                rest = w - tableaux.weight(mu)
                for nu in tableaux.partitions_of(rest):
                    assert tableaux.lr_coefficient(lam, mu, nu) == tableaux.lr_coefficient(
                        lam, nu, mu
                    )


def check_jordan_oracle_small():
    p = 3
    for w in range(1, 5):
        for lam in tableaux.partitions_of(w, max_part=p):
            pairs = tableaux.jordan_submodule_quotient_pairs(p, lam)
            for wu in range(0, w + 1):
                for mu in tableaux.partitions_of(wu, max_part=p):
                    for nu in tableaux.partitions_of(w - wu, max_part=p):
                        lr = tableaux.lr_coefficient(lam, mu, nu)
                        assert ((mu, nu) in pairs) == (lr > 0), (lam, mu, nu)


def check_lemma_verifiers():
    for name, report in tableaux.verify_lemmas(6, list(tableaux.ALL_VERIFIERS)).items():
        assert report.ok, (name, report.violations[:3])
        assert report.checked > 0


def check_thompson_exclusion():
    slice_ = fixtures.load_slice("thompson")
    res = helpmethod.feasible_partial_augmentations(slice_, 35, exponents=[0, 7])
    assert res.status == "infeasible"
    assert res.bounds["5a"] == (-8, 2)
    full = helpmethod.feasible_partial_augmentations(slice_, 35)
    assert full.status == "infeasible"


def check_onan_rows():
    fixture = fixtures.load_rows("onan")
    assert fixture.rows_hold(-6) == (True, True, True)
    points = fixture.feasible_points()
    assert (-6, 7) in points


def check_fixture_tables():
    for key in fixtures.SMALL_GROUP_TABLES:
        slice_ = fixtures.load_slice(fixtures.SMALL_GROUP_TABLES[key]["table"])
        for cl in slice_.classes:
            if cl.order == 1:
                continue
            pa = helpmethod.trivial_pa(slice_, cl.name)
            chi = slice_.characters[-1]
            total = Fraction(0)
            recon = CyclotomicElement.rational(0)
            for l in range(pa.order):
                m = helpmethod.lupa_multiplicity(slice_, chi.name, pa, l)
                assert m.denominator == 1 and m >= 0, (key, cl.name, l, m)
                total += m
                recon = recon + zeta(pa.order, l) * m
            assert total == chi.degree
            assert recon == chi.value(cl.name)


def check_signed_sums_vanish():
    for key, entry in fixtures.SMALL_GROUP_TABLES.items():
        slice_ = fixtures.load_slice(entry["table"])
        for p, tree_name in entry["trees"].items():
            tree = fixtures.load_tree(tree_name)
            for cl in slice_.classes:
                if cl.order % p == 0:
                    continue
                values = {
                    v.name: sum(
                        (slice_.character(c).value(cl.name) for c in v.characters),
                        CyclotomicElement.rational(0),
                    )
                    for v in tree.vertices
                }
                assert brauer.signed_vertex_sum(tree, values).is_zero(), (key, p, cl.name)


def check_main_inequality_at_units() -> int:
    checked = 0
    for key, entry in fixtures.SMALL_GROUP_TABLES.items():
        slice_ = fixtures.load_slice(entry["table"])
        group_factors = numtheory.factorize(slice_.group_order)
        for p, tree_name in entry["trees"].items():
            assert group_factors[p] == 1, (key, p)
            tree = fixtures.load_tree(tree_name)
            for cl in slice_.classes:
                if cl.order % p or cl.order == p or (cl.order // p) % p == 0:
                    continue
                pa = helpmethod.trivial_pa(slice_, cl.name)
                m = cl.order // p
                for xi in range(m):
                    a = brauer.assignment_from_table(slice_, tree, pa, xi)
                    holds, slack = brauer.main_inequality_holds(tree, a)
                    assert holds, (key, p, cl.name, xi, slack)
                    checked += 1
    return checked


def check_verdict_tables():
    th = brauer.group_verdict_table(fixtures.load_profile("profile_thompson"))
    assert th.open_pairs == [(5, 7)]
    monster = brauer.group_verdict_table(fixtures.load_profile("profile_monster"))
    assert monster.open_pairs == [(5, 13), (7, 11), (7, 13), (11, 13)]
    m11 = brauer.group_verdict_table(fixtures.load_profile("profile_m11"))
    assert m11.fully_settled
    assert brauer.pq_edge_verdict(fixtures.load_profile("profile_m11"), 5, 11) == brauer.SETTLED
    onan = brauer.group_verdict_table(fixtures.load_profile("profile_onan"))
    assert onan.open_pairs == [(3, 7)]


def check_rho_and_constant():
    assert numtheory._rho_enumerate(5) == numtheory.rho(5) == 4
    for q in numtheory.primes_up_to(60):
        if q > 3:
            assert numtheory._rho_enumerate(q) == numtheory.rho(q) <= 8
    c5, _ = numtheory.constant_c(5)
    assert c5 == Fraction(4, 5)
    prev = Fraction(1)
    for bound in (5, 7, 11, 50, 200):
        c, _ = numtheory.constant_c(bound)
        assert 0 < c <= prev
        prev = c


def check_census_paths():
    # the oracle factors the whole product F(p), one prime at a time
    ks, above = numtheory.CONDITIONS["thm51"]
    rows = []
    for p in numtheory.primes_up_to(500):
        value = prod(numtheory.cyclotomic_value(k, p) for k in ks)
        w = min((q for q, e in numtheory.factorize(value).items() if e >= 2 and q > above),
                default=None)
        rows.append((p, w is None, w))
    for method in ("phi-factor", "root-sieve"):
        assert numtheory.count_N(500, "thm51", method).rows == rows, method
    cor = numtheory.count_N(1000, "cor13", "phi-factor")
    assert (cor.count, cor.total_primes) == (124, 168)


def check_li_paths():
    for x in (2, 10, 1000, 100000):
        a, b = numtheory.li(x), numtheory.li_series(x)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (x, a, b)


#: family -> (Weyl degrees d_i with signs eps_i, the divisor d as a function of q)
_WEYL_DEGREES = {
    "PSL4": (((2, 1), (3, 1), (4, 1)), lambda q: gcd(4, q - 1)),
    "PSU4": (((2, 1), (3, -1), (4, 1)), lambda q: gcd(4, q + 1)),
    "PSp4": (((2, 1), (4, 1)), lambda q: gcd(2, q - 1)),
    "PSp6": (((2, 1), (4, 1), (6, 1)), lambda q: gcd(2, q - 1)),
    "POmega7": (((2, 1), (4, 1), (6, 1)), lambda q: gcd(2, q - 1)),
    "POmega8plus": (((2, 1), (4, 1), (4, 1), (6, 1)), lambda q: gcd(4, q**4 - 1)),
    "G2": (((2, 1), (6, 1)), lambda q: 1),
}


def weyl_degree_order(family: str, q: int) -> int:
    """|G| = q^N prod_i (q^d_i - eps_i) / d with N = sum_i (d_i - 1) (Carter,
    Simple Groups of Lie Type, ch. 9 and 14): the oracle for lie_order."""
    degrees, divisor = _WEYL_DEGREES[family]
    n = sum(d - 1 for d, _ in degrees)
    return q**n * prod(q**d - eps for d, eps in degrees) // divisor(q)


def check_lie_series():
    order, _ = numtheory.lie_order(numtheory.LieSeriesSpec("PSL4", 2, 1))
    assert order.value == 20160
    order, _ = numtheory.lie_order(numtheory.LieSeriesSpec("PSp4", 2, 1))
    assert order.value == 720
    verdict = numtheory.lie_series_verdict(numtheory.LieSeriesSpec("G2", 5, 1))
    assert verdict.settled and verdict.alpha_of_poly == 217
    for fam in numtheory.LIE_FAMILIES:
        for p, f in ((2, 1), (3, 1), (2, 2), (5, 1)):
            order, _ = numtheory.lie_order(numtheory.LieSeriesSpec(fam, p, f))
            assert order.value == weyl_degree_order(fam, p**f), (fam, p, f)


CHECKS = [
    ("cyclotomic: trace closed formula vs Galois sum", check_trace_dual_path),
    ("cyclotomic: primitive-root sums canonicalize to -1", check_canonical_equality),
    ("cyclotomic: exact arithmetic matches complex floats", check_float_shadow),
    ("cyclotomic: serialization round-trip", check_serialization_roundtrip),
    ("tableaux: reading words and contents of the reference figures", check_figure_tableaux),
    ("tableaux: small LR values and symmetry", check_lr_small),
    ("tableaux: GF(3) Jordan oracle agrees with LR criterion", check_jordan_oracle_small),
    ("tableaux: lemma verifiers clean at 6 boxes", check_lemma_verifiers),
    ("help: order-35 exclusion on the degree-248 slice", check_thompson_exclusion),
    ("help: order-21 rows admit (-6, 7)", check_onan_rows),
    ("help: eigenvalue multiplicities of genuine elements", check_fixture_tables),
    ("brauer: signed vertex sums vanish off the block prime", check_signed_sums_vanish),
    ("brauer: main inequality at genuine units, all xi", check_main_inequality_at_units),
    ("brauer: verdict tables for bundled profiles", check_verdict_tables),
    ("numtheory: rho enumeration vs root counting; constant truncations", check_rho_and_constant),
    ("numtheory: census paths agree; cor13 census at 1000", check_census_paths),
    ("numtheory: Li, Ramanujan series vs power series", check_li_paths),
    ("numtheory: Lie-type orders and verdicts", check_lie_series),
]


def run(out=None) -> bool:
    import sys

    out = out if out is not None else sys.stdout
    ok = True
    for name, fn in CHECKS:
        try:
            fn()
            out.write(f"[ok]   {name}\n")
        except Exception as e:  # report and continue; the gate is the summary
            ok = False
            out.write(f"[FAIL] {name}: {e!r}\n")
    out.write("selftest: " + ("all checks passed\n" if ok else "FAILURES present\n"))
    return ok
