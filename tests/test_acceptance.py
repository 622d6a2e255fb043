"""Acceptance gate: one test per criterion, each printing a pass line and
enforcing its stated tolerance and runtime budget."""

import io
import time
from fractions import Fraction

from pgq import cli, fixtures, selftest
from pgq import helpmethod as H
from pgq import numtheory as NT
from pgq import tableaux as T


def _cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_criterion_01_squarefree_census():
    """sieve --bound 1000 --condition cor13 reports exactly 124 of 168, < 5 s."""
    t0 = time.monotonic()
    code, text = _cli(["sieve", "--bound", "1000", "--condition", "cor13"])
    elapsed = time.monotonic() - t0
    assert code == 0
    assert "124 of 168" in text
    res = NT.count_N(1000, "cor13")
    assert (res.count, res.total_primes) == (124, 168)
    assert elapsed < 5.0, f"census took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 1: 124 of 168 primes below 1000 ({elapsed:.2f}s)")


def test_criterion_02_thompson_order_35_exclusion():
    """bounds -8 <= e_5a <= 2 from the two stated multiplicities, the two
    congruences, and an empty feasible set, < 1 s."""
    t0 = time.monotonic()
    slice_ = fixtures.load_slice("thompson")
    res = H.feasible_partial_augmentations(slice_, 35, exponents=[0, 7])
    elapsed = time.monotonic() - t0
    assert res.status == "infeasible" and res.feasible == []
    assert res.bounds["5a"] == (-8, 2)
    # the two multiplicity forms are exactly (330 - 120 e)/35 and (250 + 30 e)/35:
    # 35 mu = k + T_5a e + T_7a e_7a with e_7a = 1 - e
    chi = slice_.character("chi248")
    powers = {5: H.trivial_pa(slice_, "7a"), 7: H.trivial_pa(slice_, "5a")}
    forms = []
    for l in (0, 7):
        k, coeffs = H.multiplicity_form(slice_, chi, 35, l, powers)
        forms.append((k + coeffs["7a"], coeffs["5a"] - coeffs["7a"]))
    assert forms == [(330, -120), (250, 30)]
    congs = {(c.classes, c.modulus, c.residue) for c in res.congruences}
    assert (("5a",), 5, 0) in congs and (("5a",), 7, 1) in congs
    assert elapsed < 1.0, f"exclusion took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 2: order-35 exclusion with bounds [-8, 2] ({elapsed:.2f}s)")


def test_criterion_03_onan_inconclusive():
    """the three bundled rows admit (-6, 7); the tool reports a feasible point
    and exits 1."""
    rows = fixtures.load_rows("onan")
    assert (-6, 7) in rows.feasible_points()
    assert rows.rows_hold(-6) == (True, True, True)
    code, text = _cli(["help-check", "--table", "onan", "--order", "21"])
    assert code == 1
    assert "feasible point exists" in text.lower()
    print("\n[PASS] criterion 3: order-21 rows admit (-6, 7); exit code 1")


def test_criterion_04_trace_identities():
    """trace(zeta_p) = -1 for p <= 100 and trace of zeta_p^-1 in Q(zeta_pq)
    = -(q-1) for p, q <= 30, on both trace code paths, exactly."""
    selftest.check_trace_dual_path(p_bound=100, pq_bound=30)
    print("\n[PASS] criterion 4: trace identities, dual code path, exact")


def test_criterion_05_tableau_lemma_suites():
    """all four verifiers report zero violations over <= 8 boxes, < 60 s."""
    t0 = time.monotonic()
    for name, fn in T.ALL_VERIFIERS.items():
        report = fn(8)
        assert report.ok, (name, report.violations[:3])
        assert report.checked == 994
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"verifiers took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 5: four lemma suites clean at 8 boxes ({elapsed:.2f}s)")


def test_criterion_06_lr_properties():
    """LR symmetry exhaustive to weight 8; unit coefficient at empty inner;
    GF(3) Jordan oracle agrees with the LR criterion up to weight 6."""
    for w in range(1, 9):
        for lam in T.partitions_of(w):
            assert T.lr_coefficient(lam, (), lam) == 1
            for mu in T.subpartitions(lam):
                for nu in T.partitions_of(w - T.weight(mu)):
                    assert T.lr_coefficient(lam, mu, nu) == T.lr_coefficient(lam, nu, mu)
    p = 3
    for w in range(1, 7):
        for lam in T.partitions_of(w, max_part=p):
            pairs = T.jordan_submodule_quotient_pairs(p, lam)
            for wu in range(0, w + 1):
                for mu in T.partitions_of(wu, max_part=p):
                    for nu in T.partitions_of(w - wu, max_part=p):
                        lr = T.lr_coefficient(lam, mu, nu)
                        assert ((mu, nu) in pairs) == (lr > 0), (lam, mu, nu)
    print("\n[PASS] criterion 6: LR symmetry to weight 8; Jordan oracle to weight 6")


def test_criterion_07_rho_and_constant():
    """rho(5) = 4 by enumeration; rho(q) <= 8 for primes q <= 1000; exact
    truncations of the Euler product, positive and non-increasing, 4/5 at 5."""
    assert NT._rho_enumerate(5) == 4
    for q in NT.primes_up_to(1000):
        assert NT._rho_enumerate(q) <= 8
    c5, _ = NT.constant_c(5)
    assert c5 == Fraction(4, 5)
    prev = Fraction(1)
    for bound in (5, 11, 31, 101, 401, 1009):
        c, _ = NT.constant_c(bound)
        assert 0 < c <= prev
        prev = c
    print("\n[PASS] criterion 7: rho(5) = 4; rho <= 8 below 1000; c truncations exact")


def test_criterion_08_main_inequality_at_genuine_units():
    """for each bundled table and every element of composite order p*m with a
    prime-order Sylow at the odd prime p, the inequality holds for all xi."""
    checked = selftest.check_main_inequality_at_units()
    assert checked >= 100  # both tables contribute; C21 alone gives 120 cases
    print(f"\n[PASS] criterion 8: main inequality at {checked} genuine-unit instances")


def test_criterion_09_verdict_tables():
    """Thompson: exactly one non-theorem pair (5, 7); Monster: exactly the
    four published open pairs."""
    selftest.check_verdict_tables()
    print("\n[PASS] criterion 9: Thompson open pair (5,7); Monster open pairs exact")


def test_criterion_10_census_trend():
    """N(x), Li(x) and their ratio for x in {1e3, 1e4, 1e5}, with two
    independent counting paths in exact agreement, < 10 min."""
    t0 = time.monotonic()
    trend = []
    for x in (10**3, 10**4, 10**5):
        a = NT.count_N(x, "thm51", "phi-factor")
        b = NT.count_N(x, "thm51", "root-sieve")
        assert a.rows == b.rows, f"dual-path mismatch at {x}"
        li_x = NT.li(x)
        trend.append((x, a.count, li_x, a.count / li_x))
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"trend run took {elapsed:.2f}s"
    lines = "; ".join(f"x=1e{len(str(x))-1}: N={n}, N/Li={r:.4f}" for x, n, _, r in trend)
    print(f"\n[PASS] criterion 10: dual-path census trend ({elapsed:.1f}s) {lines}")
