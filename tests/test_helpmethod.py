from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgq import fixtures
from pgq import helpmethod as H
from pgq import numtheory as NT
from pgq.cyclotomic import CyclotomicElement, parse_cyclotomic, zeta


@pytest.fixture(scope="module")
def thompson():
    return fixtures.load_slice("thompson")


def unshared_slice(name):
    """The bundled table `name` built in code with one element per value:
    each parsed afresh, and every other one lifted to twice its level, so
    that equal values are distinct objects and not all at one level."""
    doc = fixtures.load_json(f"{name}.json")
    base = H.CharacterTableSlice.from_json(doc)
    chars = []
    for ch in doc["characters"]:
        values = {c: parse_cyclotomic(v) for c, v in ch["values"].items()}
        chars.append(H.Character(ch["name"], ch["degree"], {
            c: x.lift(2 * x.n) if i % 2 else x for i, (c, x) in enumerate(values.items())}))
    return H.CharacterTableSlice(base.group_name, base.group_order, base.classes, chars)


@pytest.fixture(scope="module")
def unshared_c21():
    return unshared_slice("c21")


@pytest.fixture(scope="module")
def s5():
    return fixtures.load_slice("s5")


@pytest.fixture(scope="module")
def c21():
    return fixtures.load_slice("c21")


class TestSliceBasics:
    def test_power_class_walk(self, s5):
        assert s5.power_class("6a", 2) == "3a"
        assert s5.power_class("6a", 3) == "2a"
        assert s5.power_class("6a", 5) == "6a"
        assert s5.power_class("4a", 2) == "2b"
        assert s5.power_class("5a", 5) == "1a"

    @pytest.mark.parametrize("name", ["s5", "c21", "thompson"])
    def test_galois_match_recovers_hidden_coprime_power_maps(self, name):
        doc = fixtures.load_json(name)
        hidden = 0
        for i, cl in enumerate(doc["classes"]):
            for p, target in cl.get("powers", {}).items():
                if cl["order"] == 1 or cl["order"] % int(p) == 0:
                    continue
                fresh = fixtures.load_json(name)
                del fresh["classes"][i]["powers"][p]
                slice_ = H.CharacterTableSlice.from_json(fresh)
                assert slice_.power_class(cl["name"], int(p)) == target
                hidden += 1
        assert hidden == {"s5": 11, "c21": 8, "thompson": 2}[name]

    def test_power_class_refuses_when_undecided(self):
        # 7a and 7b carry equal rational values, so no character tells a
        # Galois image apart from the other class of order 7
        doc = {
            "group": "toy",
            "order": "14",
            "classes": [
                {"name": "1a", "order": 1, "powers": {}},
                {"name": "7a", "order": 7, "powers": {"7": "1a"}},
                {"name": "7b", "order": 7, "powers": {"7": "1a"}},
            ],
            "characters": [
                {"name": "x", "degree": 1, "values": {"1a": "1", "7a": "1", "7b": "1"}}
            ],
        }
        slice_ = H.CharacterTableSlice.from_json(doc)
        with pytest.raises(KeyError, match="class 7a .* prime 2.* too thin"):
            slice_.power_class("7a", 2)

    def test_power_class_requires_maps_at_primes_dividing_the_order(self):
        doc = fixtures.load_json("s5")
        del doc["classes"][6]["powers"]["2"]  # 6a
        slice_ = H.CharacterTableSlice.from_json(doc)
        with pytest.raises(KeyError, match="class 6a is missing the power map at prime 2"):
            slice_.power_class("6a", 2)

    def test_validator_rejects_bad_power_order(self):
        doc = fixtures.load_json("s5")
        doc["classes"][6]["powers"]["2"] = "2a"  # 6a^2 must have order 3
        with pytest.raises(ValueError):
            H.CharacterTableSlice.from_json(doc)

    def test_validator_rejects_wrong_degree(self):
        doc = fixtures.load_json("thompson")
        doc["characters"][0]["values"]["1a"] = "247"
        with pytest.raises(ValueError):
            H.CharacterTableSlice.from_json(doc)

    def test_trivial_pa_structure(self, s5):
        pa = H.trivial_pa(s5, "6a")
        pa.validate(s5)
        assert pa.entries == {"6a": 1}
        assert pa.powers[2].entries == {"3a": 1}
        assert pa.powers[3].entries == {"2a": 1}


def unit_orders(slice_):
    """Orders n > 1 with a class of every order n/d, 1 < d < n, and a class
    that may carry a partial augmentation."""
    orders = {c.order for c in slice_.classes}
    return [n for n in range(2, 50)
            if slice_.variable_classes(n) and set(NT.divisors(n)[1:-1]) <= orders]


def direct_multiplicity(slice_, chi, n, l, entries, powers):
    """(1/n) sum_{d | n} Tr_{Q(zeta_{n/d})/Q}(chi(u^d) zeta_n^{-dl}), with
    chi(u^d) summed as a cyclotomic number and multiplied by the root."""
    total = Fraction(0)
    for d in NT.divisors(n):
        dist = entries if d == 1 else powers[d].entries if d < n else {slice_.identity.name: 1}
        value = sum((chi.value(c) * e for c, e in dist.items()), CyclotomicElement.rational(0))
        total += (value * zeta(n, -d * l)).trace_row(n // d)[0]
    return total / n


class TestLupaMultiplicity:
    def test_identity_unit_gives_degree(self, s5):
        # order-1 units collapse the sum to a single term chi(1)
        for chi in s5.characters:
            k, coeffs = H.multiplicity_form(s5, chi, 1, 0, {})
            assert (k, coeffs) == (chi.degree, {}) and type(k) is int

    def test_thompson_symbolic_forms(self, thompson):
        chi = thompson.character("chi248")
        powers = {5: H.trivial_pa(thompson, "7a"), 7: H.trivial_pa(thompson, "5a")}
        # 35 mu = k + T_5a e_5a + T_7a e_7a, and e_7a = 1 - e_5a
        forms = []
        for l in (0, 7):
            k, coeffs = H.multiplicity_form(thompson, chi, 35, l, powers)
            forms.append((k + coeffs["7a"], coeffs["5a"] - coeffs["7a"]))
        assert forms == [(330, -120), (250, 30)]
        pa = H.PartialAugmentationVector(35, {"5a": -6, "7a": 7}, powers)
        assert H.lupa_multiplicity(thompson, "chi248", pa, 0) == 30
        assert H.lupa_multiplicity(thompson, "chi248", pa, 7) == 2

    def test_genuine_elements_have_integer_multiplicities(self, s5, c21):
        for slice_ in (s5, c21):
            for cl in slice_.classes:
                if cl.order == 1:
                    continue
                pa = H.trivial_pa(slice_, cl.name)
                n = pa.order
                for chi in slice_.characters:
                    total = Fraction(0)
                    recon = CyclotomicElement.rational(0)
                    power_values = [
                        chi.value(slice_.power_class(cl.name, j)) for j in range(n)
                    ]
                    for l in range(n):
                        m = H.lupa_multiplicity(slice_, chi.name, pa, l)
                        assert m.denominator == 1 and 0 <= m <= chi.degree
                        total += m
                        recon = recon + zeta(n, l) * m
                        # independent oracle: plain Fourier inversion of the
                        # character values on the powers of g
                        dft = sum(
                            (power_values[j] * zeta(n, -j * l) for j in range(n)),
                            CyclotomicElement.rational(0),
                        )
                        assert dft == CyclotomicElement.rational(m * n)
                    assert total == chi.degree
                    assert recon == chi.value(cl.name)

    def test_multiplicity_total_for_any_augmentation_one_vector(self, thompson):
        # linearity: the exponent-sum equals chi(1) whether or not the vector
        # is feasible
        pa = H.PartialAugmentationVector(
            35, {"5a": 3, "7a": -2},
            {5: H.trivial_pa(thompson, "7a"), 7: H.trivial_pa(thompson, "5a")},
        )
        pa.validate(thompson)
        total = sum(
            H.lupa_multiplicity(thompson, "chi248", pa, l) for l in range(35)
        )
        assert total == 248

    def test_p_rational_values_depend_only_on_gcd(self, s5):
        pa = H.trivial_pa(s5, "6a")
        for chi in s5.characters:
            mus = [H.lupa_multiplicity(s5, chi.name, pa, l) for l in range(6)]
            assert mus[1] == mus[5]
            assert mus[2] == mus[4]

    def test_missing_power_data_is_explicit(self, thompson):
        pa = H.PartialAugmentationVector(35, {"5a": 1}, {})
        with pytest.raises(KeyError, match="power"):
            H.lupa_multiplicity(thompson, "chi248", pa, 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_trace_table_matches_direct_evaluation(self, s5, c21, thompson, unshared_c21, data):
        # augmentation-one vectors that are mostly not genuine elements, with the
        # proper powers of genuine elements of the right orders
        slice_ = data.draw(st.sampled_from([s5, c21, thompson, unshared_c21]), label="table")
        n = data.draw(st.sampled_from(unit_orders(slice_)), label="n")
        chi = data.draw(st.sampled_from(slice_.characters), label="chi")
        powers = {}
        for d in NT.divisors(n)[1:-1]:
            at = [c.name for c in slice_.classes if c.order == n // d]
            powers[d] = H.trivial_pa(slice_, data.draw(st.sampled_from(at), label=f"u^{d}"))
        names = [c.name for c in slice_.variable_classes(n)]
        rest = data.draw(st.lists(st.integers(-4, 4), min_size=len(names) - 1,
                                  max_size=len(names) - 1), label="entries")
        entries = dict(zip(names, [1 - sum(rest), *rest]))
        pa = H.PartialAugmentationVector(n, entries, powers)
        for l in range(n):
            k, coeffs = H.multiplicity_form(slice_, chi, n, l, powers)
            assert type(k) is int and all(type(t) is int and t for t in coeffs.values())
            got = H.lupa_multiplicity(slice_, chi.name, pa, l)
            assert got == direct_multiplicity(slice_, chi, n, l, entries, powers)
            assert type(got) is Fraction
        # the table keyed by value: each entry is its own value's fresh row,
        # at every r the search reads (the class order divides r)
        for r in NT.divisors(n)[1:]:
            for c in slice_.variable_classes(r):
                row = chi.value(c.name).trace_row(r)
                assert [slice_.trace(chi, c.name, r, l) for l in range(-r, r)] == row * 2


class TestSharedValues:
    def test_c21_load_parses_each_distinct_value_once(self, monkeypatch):
        texts, parse = [], H.parse_cyclotomic
        monkeypatch.setattr(H, "parse_cyclotomic", lambda v: texts.append(v) or parse(v))
        slice_ = fixtures.load_slice("c21")
        assert len(texts) == 21  # of 441 values
        assert len({id(x) for chi in slice_.characters for x in chi.values.values()}) == 21

    def test_c21_order_21_traces_each_value_once(self, monkeypatch):
        rows, trace_row = [], CyclotomicElement.trace_row
        monkeypatch.setattr(CyclotomicElement, "trace_row",
                            lambda x, r: rows.append(r) or trace_row(x, r))
        assert H.feasible_partial_augmentations(fixtures.load_slice("c21"), 21).feasible
        # 21 distinct values at r = 21, the 7 on the classes of order 7, 3 of order 3
        assert sorted(rows) == [3] * 3 + [7] * 7 + [21] * 21

    @pytest.mark.parametrize("table, n", [("c21", 21), ("s5", 10)])
    def test_distinct_equal_values_give_the_same_answer(self, table, n):
        built = unshared_slice(table)
        values = [x for chi in built.characters for x in chi.values.values()]
        assert len({id(x) for x in values}) == len(values)
        loaded = fixtures.load_slice(table)
        a, b = (H.feasible_partial_augmentations(s, n) for s in (loaded, built))
        assert (a.status, a.variables, a.bounds) == (b.status, b.variables, b.bounds)
        assert [pa.to_json() for pa in a.feasible] == [pa.to_json() for pa in b.feasible]
        assert [(c.powers, c.multipliers, c.augmentation) for c in a.certificates] == [
            (c.powers, c.multipliers, c.augmentation) for c in b.certificates]


class TestCongruences:
    def test_thompson_order_35(self, thompson):
        congs = H.congruence_constraints(thompson, 35)
        as_set = {(c.classes, c.modulus, c.residue) for c in congs}
        assert (("5a",), 5, 0) in as_set
        assert (("7a",), 7, 0) in as_set
        assert (("7a",), 5, 1) in as_set
        assert (("5a",), 7, 1) in as_set

    def test_no_constraint_at_unit_order_prime(self, s5):
        assert all(c.modulus != 5 for c in H.congruence_constraints(s5, 5))

    def test_two_classes_of_same_prime_bind_their_sum(self, s5):
        congs = H.congruence_constraints(s5, 6)
        assert any(set(c.classes) == {"2a", "2b"} and c.modulus == 2 for c in congs)


class TestFeasibility:
    def test_thompson_order_35_excluded(self, thompson):
        res = H.feasible_partial_augmentations(thompson, 35, exponents=[0, 7])
        assert res.status == "infeasible" and res.feasible == []
        assert res.bounds["5a"] == (-8, 2)

    def test_thompson_stable_under_more_exponents(self, thompson):
        assert H.feasible_partial_augmentations(thompson, 35).status == "infeasible"

    def test_trivial_distribution_always_feasible(self, s5):
        res = H.feasible_partial_augmentations(s5, 6)
        assert res.status == "feasible" and res.reason is None
        assert any(pa.entries == {"6a": 1} for pa in res.feasible)
        for pa in res.feasible:
            pa.validate(s5)

    def test_order_without_support_is_infeasible(self, s5):
        res = H.feasible_partial_augmentations(s5, 7)
        assert res.status == "infeasible"

    def test_unbounded_region_is_reported_not_truncated(self):
        # a character constant across the two candidate classes pins only the
        # augmentation line, leaving each variable free
        doc = {
            "group": "toy",
            "order": "4",
            "classes": [
                {"name": "1a", "order": 1, "powers": {}},
                {"name": "2a", "order": 2, "powers": {"2": "1a"}},
                {"name": "2b", "order": 2, "powers": {"2": "1a"}},
            ],
            "characters": [
                {"name": "x", "degree": 1, "values": {"1a": "1", "2a": "1", "2b": "1"}}
            ],
        }
        slice_ = H.CharacterTableSlice.from_json(doc)
        res = H.feasible_partial_augmentations(slice_, 2)
        assert res.status == "unbounded"
        assert res.reason == "order 2: no supplied character bounds 2a, 2b"

    def test_candidate_cap_is_inconclusive_and_says_so(self, s5, monkeypatch):
        monkeypatch.setattr(H, "CANDIDATE_CAP", 10)
        res = H.feasible_partial_augmentations(s5, 6)
        assert res.status == "too-large" and res.feasible == []
        assert res.reason == ("order 6: more than 10 integer candidates to walk on the "
                              "augmentation hyperplane (candidate cap 10)")


def cyclic_slice(m):
    """The cyclic group C_m = <g> as a slice: class c_k = {g^k}, power maps at
    the primes dividing m, and the linear characters X_j(g^k) = zeta_m^(jk)."""
    primes = sorted(NT.factorize(m))
    classes = [{"name": f"c{k}", "order": m // gcd(k, m),
                "powers": {str(p): f"c{k * p % m}" for p in primes}} for k in range(m)]
    chars = [{"name": f"X{j}", "degree": 1,
              "values": {f"c{k}": f"1*z^{j * k % m} @ {m}" for k in range(m)}}
             for j in range(m)]
    return H.CharacterTableSlice.from_json(
        {"group": f"C{m}", "order": m, "classes": classes, "characters": chars})


class TestCompositeTowers:
    """Orders whose proper powers include composite indices: u^4 of a unit of
    order 8 or 12 is read off the tower of u^2."""

    @pytest.mark.parametrize("load, n, searches", [
        (lambda: fixtures.load_slice("s5"), 12, 5),
        (lambda: fixtures.load_slice("c21"), 63, 3),
        (lambda: cyclic_slice(24), 24, 7),
    ], ids=["s5-12", "c21-63", "C24-24"])
    def test_each_order_is_searched_once(self, load, n, searches, monkeypatch):
        slice_, orders = load(), []
        search = H._search
        monkeypatch.setattr(H, "_search",
                            lambda s, m, *rest: orders.append(m) or search(s, m, *rest))
        H.feasible_partial_augmentations(slice_, n)
        assert len(orders) == searches == len(set(orders))

    def test_smallest_sub_order_first(self, c21, monkeypatch):
        # c21/63: the empty order 9 (p = 7) ends the search before order 21
        orders = []
        search = H._search
        monkeypatch.setattr(H, "_search",
                            lambda s, m, *rest: orders.append(m) or search(s, m, *rest))
        assert H.feasible_partial_augmentations(c21, 63).status == "infeasible"
        assert orders == [63, 9, 3] and 21 not in orders

    @pytest.mark.parametrize("table, n, chars, status, reason", [
        ("s5", 30, ["std"], "infeasible", None),  # order 15 is empty, order 6 unbounded
        ("c21", 63, ["X1"], "infeasible", None),  # order 9 is empty, order 21 unbounded
        # orders 4 and 6 are unbounded: the least prime's, p = 2, speaks
        ("s5", 12, ["sgn"], "unbounded", "order 6: no supplied character bounds 2a, 2b, 3a, 6a"),
    ])
    def test_an_empty_sub_order_outweighs_an_inconclusive_one(self, table, n, chars, status,
                                                               reason):
        res = H.feasible_partial_augmentations(fixtures.load_slice(table), n, chars)
        assert (res.status, res.reason, res.feasible, res.bounds) == (status, reason, [], None)

    def test_no_coherent_branch_is_infeasible(self, s5):
        # u^2 = 6a and u^3 = 4a disagree on u^6 (a transposition against a
        # double transposition), so order 12 has no branch at all
        results = {m: H.FeasibilityResult(m, [], "feasible", [H.trivial_pa(s5, c)], None, [])
                   for m, c in ((6, "6a"), (4, "4a"))}
        res = H._search(s5, 12, s5.characters, None, results)
        assert (res.status, res.feasible, res.bounds, res.certificates) == (
            "infeasible", [], None, [])

    @pytest.mark.parametrize("m, listed", [
        (8, ["c7", "c3", "c5", "c1"]),
        (12, ["c11", "c5", "c7", "c1"]),
    ])
    def test_cyclic_group_admits_only_its_elements(self, m, listed):
        # Higman: every normalized torsion unit of ZC_m is an element of C_m,
        # so the order-m vectors are the generators' own distributions
        slice_ = cyclic_slice(m)
        res = H.feasible_partial_augmentations(slice_, m)
        assert res.status == "feasible"
        assert res.feasible == [H.trivial_pa(slice_, c) for c in listed]


def primitive_row(values):
    """A row of rationals (coefficients..., constant) as a primitive integer
    vector: the same half-space, scaled to coprime integers."""
    vals = [Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in vals))
    ints = [int(x * den) for x in vals]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def farkas_holds(pairs, nvars):
    """y >= 0 and, summed over the (y, row) pairs in integers, y^T A = 0 and
    y^T k < 0: the rows cannot all be >= 0 at one rational point."""
    total = [0] * (nvars + 1)
    for y, row in pairs:
        assert y >= 0
        total = [t + y * x for t, x in zip(total, primitive_row(row))]
    return not any(total[:-1]) and total[-1] < 0


def branch_rows(slice_, n, variables, branch):
    """The (multiplier, row) pairs of one infeasible branch, its constraint
    rows rebuilt from the integer multiplicity forms (k, T), n mu = k + T.e."""
    pairs = []
    for (chi_name, l), (lower, upper) in branch.multipliers.items():
        chi = slice_.character(chi_name)
        k, coeffs = H.multiplicity_form(slice_, chi, n, l, branch.powers)
        row = [coeffs.get(v, 0) for v in variables]
        pairs.append((lower, (*row, k)))  # n mu >= 0
        pairs.append((upper, (*(-x for x in row), n * chi.degree - k)))  # n mu <= n chi(1)
    ones = [1] * len(variables)
    pairs.append((branch.augmentation[0], (*ones, -1)))  # sum e - 1 >= 0
    pairs.append((branch.augmentation[1], (*(-x for x in ones), 1)))  # sum e - 1 <= 0
    return pairs


def branch_certificate_holds(slice_, n, variables, branch):
    """Check the Farkas multipliers of one infeasible branch on its rebuilt rows."""
    return farkas_holds(branch_rows(slice_, n, variables, branch), len(variables))


class TestFarkasCertificates:
    @pytest.mark.parametrize("table, n, branches", [
        ("s5", 10, 1), ("s5", 12, 4), ("s5", 15, 0), ("thompson", 35, 0),
    ])
    def test_every_infeasible_branch_is_certified(self, table, n, branches):
        slice_ = fixtures.load_slice(table)
        res = H.feasible_partial_augmentations(slice_, n)
        assert res.status == "infeasible"
        assert len(res.certificates) == branches
        for branch in res.certificates:
            assert branch_certificate_holds(slice_, n, res.variables, branch)
            # a coherent tower: s5/12 reaches u^6 from both u^2 and u^3
            assert all(branch.powers[d * e] == sub
                       for d, pa in branch.powers.items() for e, sub in pa.powers.items())

    @pytest.mark.parametrize("table, n, counts", [
        ("s5", 10, {10: 1}), ("s5", 12, {12: 4}), ("s5", 15, {}), ("s5", 20, {10: 1}),
        ("s5", 30, {10: 1}), ("s5", 60, {12: 4}), ("c21", 9, {9: 2}), ("c21", 49, {49: 6}),
        ("c21", 63, {9: 2}), ("c21", 147, {49: 6}), ("thompson", 35, {}),
    ])
    def test_every_order_searched_is_certified(self, table, n, counts):
        # every bundled infeasible query, its sub-orders included: the
        # certificates per order searched, each checked on its rebuilt rows
        slice_, results = fixtures.load_slice(table), {}
        results[n] = H._search(slice_, n, slice_.characters, None, results)
        assert results[n].status == "infeasible"
        assert {m: len(r.certificates) for m, r in results.items() if r.certificates} == counts
        for m, r in results.items():
            for branch in r.certificates:
                assert branch_certificate_holds(slice_, m, r.variables, branch)

    def test_s5_order_10_certificate_pinned(self, s5):
        branch = H.feasible_partial_augmentations(s5, 10).certificates[0]
        assert branch.multipliers == {("triv", 1): (4, 0), ("sgn", 2): (4, 0),
                                      ("std", 5): (1, 0), ("std_sgn", 0): (1, 0)}
        assert branch.augmentation == (0, 0)

    def test_checker_rejects_a_weakened_certificate(self, s5):
        res = H.feasible_partial_augmentations(s5, 10)
        branch = res.certificates[0]
        key = next(iter(branch.multipliers))
        lower, upper = branch.multipliers[key]
        multipliers = {**branch.multipliers, key: (lower + 1, upper)}
        weakened = H.InfeasibleBranch(branch.powers, multipliers, branch.augmentation)
        assert not branch_certificate_holds(s5, 10, res.variables, weakened)

    def test_an_upper_row_carries_weight(self):
        # chi(1) = 1 and chi = 3 on the involutions: 2 mu = 1 + 3 e_2a <= 2
        # and e_2a = 1 contradict each other, and only the upper row
        # mu <= chi(1) says so, so its constant n chi(1) - k is checked
        slice_ = H.CharacterTableSlice.from_json({
            "group": "fake", "order": 2,
            "classes": [{"name": "1a", "order": 1},
                        {"name": "2a", "order": 2, "powers": {"2": "1a"}}],
            "characters": [{"name": "chi", "degree": 1, "values": {"1a": "1", "2a": "3"}}],
        })
        res = H.feasible_partial_augmentations(slice_, 2)
        assert res.status == "infeasible" and len(res.certificates) == 1
        branch = res.certificates[0]
        assert branch.multipliers == {("chi", 0): (0, 1)} and branch.augmentation == (3, 0)
        pairs = branch_rows(slice_, 2, res.variables, branch)
        assert sum(y * row[-1] for y, row in pairs) == -2  # y^T k
        assert branch_certificate_holds(slice_, 2, res.variables, branch)


class TestOnan:
    def test_paper_point_admitted(self):
        assert fixtures.load_rows("onan").rows_hold(-6) == (True, True, True)

    def test_trivial_candidates(self):
        rows = fixtures.load_rows("onan")
        first, *_ = rows.rows_hold(0)
        assert first is False  # 98493/21 is not an integer
        assert rows.rows_hold(1) == (True, False, True)

    def test_rows_fixture_search(self):
        fixture = fixtures.load_rows("onan")
        points = fixture.feasible_points()
        assert (-6, 7) in points
        for e3, e7 in points:
            assert e3 + e7 == 1
            assert fixture.rows_hold(e3) == (True, True, True)
            assert e3 % 3 == 0 and e3 % 7 == 1

    def test_zero_row_with_negative_constant_leaves_no_point(self):
        # the other rows leave 2 * 10^9 + 1 candidates, past the cap, but
        # 0 * eps - 1 >= 0 holds at no eps: INFEASIBLE, not too-large
        fixture = H.InequalityRowsFixture("G", 2, "a", "b", 1,
                                          ((10**9, 1), (10**9, -1), (-1, 0)), ())
        assert fixture.feasible_points() == []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-400, 400), st.integers(-6, 6)), max_size=3),
           st.integers(1, 6),
           st.lists(st.tuples(st.integers(1, 6), st.integers(-6, 6)), max_size=2))
    def test_residue_class_walk_matches_every_integer(self, rows, modulus, congruences):
        rows = [(200, 1), (200, -1)] + rows
        fixture = H.InequalityRowsFixture("G", 2, "a", "b", modulus, tuple(rows),
                                          tuple(congruences))
        # the two fixed rows bound eps to [-200, 200]; rows_hold checks the others
        want = [(e, 1 - e) for e in range(-200, 201)
                if all(fixture.rows_hold(e)) and all((e - r) % m == 0 for m, r in congruences)]
        assert fixture.feasible_points() == want


_FM_ROW_CAP = 50_000


class _Infeasible(Exception):
    pass


def _reduce_row(comb, nvars):
    """Primitive form of an integer row; None for trivially true rows."""
    if all(c == 0 for c in comb[:nvars]):
        if comb[nvars] < 0:
            raise _Infeasible
        return None
    g = gcd(*comb)
    if g > 1:
        comb = tuple(x // g for x in comb)
    return comb


def fm_bounds(rows, nvars):
    """The (min, max) of each variable over {x : A x + k >= 0} for integer
    rows (A | k), by Fourier-Motzkin elimination on primitive rows: the
    independent oracle of `_shared_bounds`.

    Returns None when the system is rationally infeasible; a None endpoint
    marks an unbounded direction.
    """
    try:
        base = {_reduce_row(r, nvars) for r in rows} - {None}

        def eliminate(rows, idx):
            pos = [r for r in rows if r[idx] > 0]
            neg = [r for r in rows if r[idx] < 0]
            out = {r for r in rows if r[idx] == 0}
            for rp in pos:
                for rn in neg:
                    comb = _reduce_row(
                        tuple(rp[j] * (-rn[idx]) + rn[j] * rp[idx] for j in range(nvars + 1)),
                        nvars,
                    )
                    if comb is not None:
                        out.add(comb)
                assert len(out) <= _FM_ROW_CAP, f"elimination passed {_FM_ROW_CAP} rows"
            return out

        bounds = []
        for i in range(nvars):
            rows = base
            for j in range(nvars):
                if j != i:
                    rows = eliminate(rows, j)
            lo, hi = None, None
            for r in rows:
                c, k = r[i], r[nvars]
                if c > 0:
                    cand = Fraction(-k, c)
                    lo = cand if lo is None else max(lo, cand)
                elif c < 0:
                    cand = Fraction(-k, c)
                    hi = cand if hi is None else min(hi, cand)
            if lo is not None and hi is not None and lo > hi:
                return None
            bounds.append((lo, hi))
        return bounds
    except _Infeasible:
        return None


def by_name(engine):
    """A bounds engine on the primitive rows (coefficients..., constant) of
    rows >= 0, keyed by variable name."""
    def bounds(ineqs, variables):
        ends = engine([primitive_row(r) for r in ineqs], len(variables))
        return None if ends is None else dict(zip(variables, ends))
    return bounds


def lp_bounds(rows, nvars):
    """`_shared_bounds` with one branch, on the integer rows (A | k) as given:
    (bounds, None), or (None, y) when {x : A x + k >= 0} is empty."""
    return H._shared_bounds([r[:nvars] for r in rows], [[r[nvars] for r in rows]], nvars)[0]


#: the search's simplex and its Fourier-Motzkin oracle answer every case alike
BOUNDS_ENGINES = (by_name(fm_bounds), by_name(lambda *a: lp_bounds(*a)[0]))


class TestFourierMotzkin:
    def test_simple_box(self):
        x = (1, 2)  # x >= -2
        y = (-1, 5)  # x <= 5
        for bounds in BOUNDS_ENGINES:
            assert bounds([x, y], ["x"]) == {"x": (Fraction(-2), Fraction(5))}

    def test_chained_elimination(self):
        # x + y = 1, 0 <= 3x + y <= 7  =>  x in [-1/2, 3], y = 1 - x
        rows = [(1, 1, -1), (-1, -1, 1), (3, 1, 0), (-3, -1, 7)]
        for bounds in BOUNDS_ENGINES:
            found = bounds(rows, ["x", "y"])
            assert found["x"] == (Fraction(-1, 2), Fraction(3))
            assert found["y"] == (Fraction(-2), Fraction(3, 2))

    def test_infeasible_detected(self):
        rows = [
            (1, -2),  # x >= 2
            (-1, 1),  # x <= 1
        ]
        for bounds in BOUNDS_ENGINES:
            assert bounds(rows, ["x"]) is None

    def test_unbounded_direction(self):
        rows = [(1, 0)]
        for bounds in BOUNDS_ENGINES:
            assert bounds(rows, ["x"])["x"] == (Fraction(0), None)


def systems():
    """1-4 variables; up to 7 rows, half the time inside the box |x_v| <= 5,
    and up to 2 equalities (each a pair of opposite rows); small integer
    coefficients over a small denominator."""
    def rows(nvars, size):
        row = st.tuples(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars),
                        st.integers(-6, 6), st.integers(1, 3))
        return st.lists(row, max_size=size)

    return st.integers(1, 4).flatmap(lambda nvars: st.tuples(
        st.just(nvars),
        st.one_of(rows(nvars, 7), rows(nvars, 7).map(lambda r: boxed(nvars, r))),
        rows(nvars, 2)))


def sparse_systems():
    """3-5 variables and 1-10 rows, each with one or two nonzero coefficients,
    half the time inside the box |x_v| <= 5, and no equalities: most pivots
    leave most rows untouched, so rows sit at older denominators across
    several pivots."""
    def rows(nvars):
        def row(i, a, j, b, const, den):
            coeffs = [0] * nvars
            coeffs[i] += a
            coeffs[j] += b
            return coeffs, const, den

        var, coeff = st.integers(0, nvars - 1), st.integers(-4, 4)
        return st.lists(st.builds(row, var, coeff, var, coeff, st.integers(-8, 8),
                                  st.integers(1, 3)), min_size=1, max_size=10)

    return st.integers(3, 5).flatmap(lambda nvars: st.tuples(
        st.just(nvars),
        st.one_of(rows(nvars), rows(nvars).map(lambda r: boxed(nvars, r))),
        st.just([])))


def pinned_systems():
    """systems() plus an equality a.x = b with every a_v > 0.  Half the time
    b = a.l for lower bounds x_v >= l_v that join the rows, so the minima,
    where the system is feasible, are l and pin the only point; otherwise b
    is drawn, and the minima rarely meet the equality."""
    def pin(system, a, lows, meet, b):
        nvars, rows, equalities = system
        a, lows = a[:nvars], lows[:nvars]
        if meet:
            rows = rows + [([int(i == v) for i in range(nvars)], -lo, 1)
                           for v, lo in enumerate(lows)]
            b = sum(x * lo for x, lo in zip(a, lows))
        return nvars, rows, equalities + [(a, -b, 1)]

    four = st.lists(st.integers(1, 3), min_size=4, max_size=4)
    return st.builds(pin, systems(), four, st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                     st.booleans(), st.integers(-12, 12))


def boxed(nvars, rows):
    """The rows and |x_v| <= 5 for every variable."""
    unit = [[int(i == v) for i in range(nvars)] for v in range(nvars)]
    return rows + [(u, 5, 1) for u in unit] + [([-c for c in u], 5, 1) for u in unit]


def assert_lp_matches_fm(system):
    """lp_bounds and fm_bounds agree on (nvars, rows, equalities), and every
    infeasible answer carries a valid Farkas certificate."""
    nvars, rows, equalities = system

    def row(coeffs, const, den):
        return [Fraction(x, den) for x in (*coeffs, const)]

    ineqs = [row(*r) for r in rows]
    for r in equalities:
        ineqs += [row(*r), [-x for x in row(*r)]]
    rows = [primitive_row(r) for r in ineqs]
    bounds, farkas = lp_bounds(rows, nvars)
    assert bounds == fm_bounds(rows, nvars)
    if bounds is None:
        assert farkas_holds(zip(farkas, ineqs), nvars)
    else:
        assert farkas is None


class TestSimplex:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(systems())
    @example((1, [([1], -2, 1), ([-1], 1, 1)], []))  # x >= 2, x <= 1
    @example((2, [([1, 0], 0, 1)], []))  # y free, x >= 0
    @example((2, [([1, 0], 0, 1), ([0, -1], 3, 2)], [([1, 1], -1, 1)]))  # x + y = 1
    @example((2, [([0, 0], -1, 1)], []))  # 0 >= 1
    def test_matches_fourier_motzkin(self, system):
        assert_lp_matches_fm(system)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sparse_systems())
    def test_sparse_rows_match_fourier_motzkin(self, system):
        assert_lp_matches_fm(system)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pinned_systems())
    @example((2, [([1, 0], 1, 1), ([0, 1], -2, 1)], [([2, 1], 0, 1)]))  # pinned at (-1, 2)
    @example((2, [([1, 0], 1, 1), ([0, 1], -2, 1)], [([2, 1], -1, 1)]))  # a segment
    def test_positive_equalities_match_fourier_motzkin(self, system):
        assert_lp_matches_fm(system)

    def test_pinned_point_skips_the_maximum_walks(self, monkeypatch):
        # x >= -1, y >= 2 and 2x + y = 0: the minima are the only point
        rows = [(1, 0, 1), (0, 1, -2), (2, 1, 0), (-2, -1, 0)]
        walks = []
        maximize = H._Dictionary.maximize
        monkeypatch.setattr(H._Dictionary, "maximize",
                            lambda d, i, sign: walks.append(sign) or maximize(d, i, sign))
        assert lp_bounds(rows, 2) == ([(-1, -1), (2, 2)], None)
        assert walks and 1 not in walks
        walks.clear()
        assert lp_bounds(rows[:2] + [(2, 1, -1), (-2, -1, 1)], 2)[0] == [(-1, Fraction(-1, 2)),
                                                                       (2, 3)]
        assert 1 in walks


def shared_systems():
    """1-4 variables and 1-5 branches that share distinct coefficient rows and
    differ in their constants: drawn rows, half the time the box around each
    branch's point (else directions may be unbounded), a pair a.x = b with
    every a_v > 0, and half the time a zero row.  Each branch's constants
    hold at a drawn point x0 with a drawn slack per row.  Forced empty
    branches (none, the first, the last or all) get a.x >= b + 1 on the
    pair; a drawn branch gets a negative constant on the zero row; and a
    drawn branch, where the box is, gets no slack on the box's lower rows and
    on the pair, so x0 is its only point."""
    @st.composite
    def build(draw):
        nvars = draw(st.integers(1, 4))
        coeff = st.tuples(*[st.integers(-3, 3)] * nvars)
        rows = draw(st.lists(coeff.filter(any), max_size=5))
        unit = [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]
        boxed = draw(st.booleans())
        if boxed:
            rows += unit + [tuple(-x for x in u) for u in unit]
        a = draw(st.tuples(*[st.integers(1, 3)] * nvars))
        zero = (0,) * nvars
        rows = list(dict.fromkeys(rows + [a, tuple(-x for x in a)] + [zero] * draw(st.booleans())))
        nb = draw(st.integers(1, 5))
        empty = draw(st.sampled_from([(), (0,), (nb - 1,), tuple(range(nb))]))
        negative, pin = draw(st.integers(0, nb - 1)), draw(st.integers(0, nb - 1))
        ia, ineg = rows.index(a), rows.index(tuple(-x for x in a))
        consts = []
        for b in range(nb):
            x0 = draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars))
            slack = draw(st.lists(st.integers(0, 4), min_size=len(rows), max_size=len(rows)))
            if b == pin and boxed:
                for j in [ia, ineg, *map(rows.index, unit)]:
                    slack[j] = 0
            k = [s - sum(c * x for c, x in zip(row, x0)) for row, s in zip(rows, slack)]
            if b in empty:  # a.x >= b + 1 and a.x <= b
                k[ineg] = -k[ia] - 1
            if zero in rows and b == negative:
                k[rows.index(zero)] = -1 - k[rows.index(zero)]
            consts.append(k)
        return nvars, rows, consts

    return build()


def ranged_systems():
    """1-4 variables and 1-4 branches whose rows are mostly exact opposite
    pairs a.x + k1 >= 0 and -a.x + k2 >= 0, with k1 drawn per branch and the
    range k1 + k2 from -1 to 6: an empty range below 0, an equality at 0.
    Up to two unpaired rows, which may repeat a paired one, and half the
    time the box |x_v| <= 5, whose rows pair too."""
    @st.composite
    def build(draw):
        nvars = draw(st.integers(1, 4))
        coeff = st.tuples(*[st.integers(-3, 3)] * nvars).filter(any)
        pairs = draw(st.lists(coeff, min_size=1, max_size=4))
        single = draw(st.lists(coeff, max_size=2))
        unit = [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]
        unit *= draw(st.booleans())  # the box, half the time
        rows = [r for a in pairs + unit for r in (a, tuple(-x for x in a))] + single
        consts = []
        for _ in range(draw(st.integers(1, 4))):
            k = []
            for _ in pairs:
                k1 = draw(st.integers(-6, 6))
                k += [k1, draw(st.integers(-1, 6)) - k1]
            k += [5] * (2 * len(unit))
            consts.append(k + draw(st.lists(st.integers(-6, 6), min_size=len(single),
                                            max_size=len(single))))
        return nvars, rows, consts

    return build()


def assert_shared_matches_fm(system):
    """Each branch of `_shared_bounds` has the bounds of lp_bounds and
    fm_bounds, and an empty one a Farkas y >= 0 over the rows as given."""
    nvars, rows, consts = system
    shared = H._shared_bounds(rows, consts, nvars)
    assert len(shared) == len(consts)
    for (ends, y), k in zip(shared, consts):
        full = [primitive_row((*a, c)) for a, c in zip(rows, k)]  # the same polytope
        bounds, farkas = lp_bounds(full, nvars)
        assert ends == bounds == fm_bounds(full, nvars)  # None endpoints included
        if bounds is None:  # empty: the walk's y certifies it on the branch's raw rows
            assert farkas_holds(zip(farkas, full), nvars)
            assert len(y) == len(rows) and min(y) >= 0
            assert not any(sum(w * a[v] for w, a in zip(y, rows)) for v in range(nvars))
            assert sum(w * c for w, c in zip(y, k)) < 0
        else:
            assert y is None


class TestSharedDictionary:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shared_systems())
    @example((1, [(1,), (-1,)], [[0, 0], [-2, 1], [0, 3]]))  # x = 0; empty; 0 <= x <= 3
    @example((2, [(1, 0), (1, 1), (-1, -1)], [[0, -1, 1], [0, -2, 2]]))  # y unbounded below
    @example((1, [(1,), (-1,), (0,)], [[0, 2, 0], [0, 2, -1], [1, 0, 0]]))  # 0 >= 1 in one branch
    @example((1, [(1,), (-1,)], [[-2, 1], [0, 0], [0, 3]]))  # branch 0 empty: x >= 2, x <= 1
    @example((2, [(1, 1), (-1, -1)], [[-2, 1], [-3, 0], [0, -1]]))  # every branch empty
    # y has a zero column: free in every branch, while x is bounded
    @example((2, [(1, 0), (-1, 0)], [[0, 2], [1, 1], [-3, 5]]))
    # y unbounded below in branches 0 and 1, branch 2 empty (x + y >= 2, x + y <= 1)
    @example((2, [(1, 0), (1, 1), (-1, -1)], [[0, -1, 1], [1, 0, 3], [0, -2, 1]]))
    # branch 0 empty, y unbounded below in the others
    @example((2, [(1, 0), (1, 1), (-1, -1)], [[0, -2, 1], [0, -1, 1], [1, 0, 3]]))
    def test_each_branch_matches_lp_bounds_and_fourier_motzkin(self, system):
        assert_shared_matches_fm(system)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ranged_systems())
    @example((1, [(1,), (-1,)], [[2, -3]]))  # an empty range: x >= -2 and x <= -3
    @example((2, [(1, 1), (-1, -1), (1, 0)], [[-1, 1, 0], [0, -1, 2]]))  # x + y = 1; empty
    def test_opposite_pairs_match_fourier_motzkin(self, system):
        nvars, rows, consts = system
        assert H._Dictionary(rows, consts[0], nvars).m < len(rows)  # the pairs merged
        assert_shared_matches_fm(system)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(shared_systems())
    def test_one_walk_per_objective(self, system):
        nvars, rows, consts = system
        walks, maximize = [], H._Dictionary.maximize

        def walk(d, i, sign):
            walks.append((d.basis[i], sign))
            return maximize(d, i, sign)

        H._Dictionary.maximize = walk
        try:
            H._shared_bounds(rows, consts, nvars)
        finally:
            H._Dictionary.maximize = maximize
        assert len(walks) == len(set(walks)) <= 2 * nvars


def fraction_pivot(f, r, c):
    """The dictionary f (rows of Fractions, entry 0 the constant) after the
    exchange of basis[r] and cols[c], solved by hand in rationals."""
    inv = 1 / f[r][c]
    pr = [-x * inv for x in f[r]]
    pr[c] = inv
    out = []
    for i, row in enumerate(f):
        if i == r:
            out.append(pr)
        else:
            new = [a + row[c] * b for a, b in zip(row, pr)]
            new[c] = row[c] * inv
            out.append(new)
    return out


def fraction_flip(f, width, basis, cols, v):
    """The dictionary f after variable v became its complement width - v."""
    if v in basis:
        r = basis.index(v)
        return [[width - x[0], *(-a for a in x[1:])] if i == r else x for i, x in enumerate(f)]
    c = cols.index(v)
    return [[x[0] + x[c] * width, *(-a if j == c else a for j, a in enumerate(x) if j)]
            for x in f]


class TestDictionary:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_pivots_match_fractions_in_lowest_terms(self, data):
        # random pivots and flips against the same steps solved in rationals;
        # the opposites drawn for some rows merge with them into ranged rows
        nvars = data.draw(st.integers(1, 4))
        entry = st.integers(-6, 6)
        rows = data.draw(st.lists(st.tuples(*[entry] * (nvars + 1)), min_size=1, max_size=6))
        rows += [(*(-x for x in r[:nvars]), data.draw(entry)) for r in rows
                 if data.draw(st.booleans(), label="opposite")]
        d = H._Dictionary([r[:nvars] for r in rows], [r[nvars] for r in rows], nvars)
        for i, j in d.sides:  # each ranged row is the first unpaired row and its opposite
            assert j is None or i < j
            assert d.width[d.sides.index([i, j])] == (None if j is None else
                                                       rows[i][nvars] + rows[j][nvars])
        f = [[Fraction(x) for x in (rows[i][nvars], *rows[i][:nvars])] for i, _ in d.sides]
        for _ in range(data.draw(st.integers(0, 10))):
            ranged = [v for v in range(d.m) if d.width[v] is not None]
            choices = [(r, c) for r in range(d.m) for c in range(1, nvars + 1)
                       if f[r][c] and d.basis[r] < d.m]  # a free variable never leaves
            if ranged and data.draw(st.booleans(), label="flip"):
                v = data.draw(st.sampled_from(ranged))
                f = fraction_flip(f, d.width[v], d.basis, d.cols, v)
                d.flip(v)
            elif choices:
                r, c = data.draw(st.sampled_from(choices))
                d.pivot(r, c)
                f = fraction_pivot(f, r, c)
            else:
                break
            for i in range(d.m):
                assert d.rden[i] > 0 and gcd(d.rden[i], *d.t[i]) == 1
                assert [d.value(i, j) for j in range(nvars + 1)] == f[i]

    def test_c21_order_21_pivot_count_pinned(self, c21, monkeypatch):
        pivots = []
        pivot = H._Dictionary.pivot
        monkeypatch.setattr(H._Dictionary, "pivot",
                            lambda d, r, c: pivots.append((r, c)) or pivot(d, r, c))
        assert H.feasible_partial_augmentations(c21, 21).status == "feasible"
        assert len(pivots) == 523

    def test_c21_order_49_pivot_count_pinned(self, c21, monkeypatch):
        # all six branches are empty: one dual-simplex pass finds each and
        # certifies it, with no second solve (order 7's maxima, searched
        # first, start on a fresh dictionary)
        pivots = []
        pivot = H._Dictionary.pivot
        monkeypatch.setattr(H._Dictionary, "pivot",
                            lambda d, r, c: pivots.append((r, c)) or pivot(d, r, c))
        res = H.feasible_partial_augmentations(c21, 49)
        assert res.status == "infeasible" and len(res.certificates) == 6
        assert len(pivots) == 24

    def test_c21_order_21_holds_one_ranged_row_per_pair(self, c21, monkeypatch):
        # the 90 shared rows are 45 exact opposite pairs (each T and -T, and
        # the augmentation pair), and the minima pin every branch, so the one
        # dictionary of order 21 is never built again for the maxima
        sizes, init = [], H._Dictionary.__init__
        monkeypatch.setattr(H._Dictionary, "__init__", lambda d, rows, consts, nvars: init(
            d, rows, consts, nvars) or sizes.append((len(rows), d.m, nvars)))
        assert H.feasible_partial_augmentations(c21, 21).status == "feasible"
        assert [s for s in sizes if s[2] == 20] == [(90, 45, 20)]

    def test_c21_order_21_walks_each_objective_once(self, c21, monkeypatch):
        # one dictionary for the 12 branches: each of the 20 minima is walked
        # to once (the parent walked to each once per branch, 240 times), and
        # the minima pin every branch's only point, so no maximum is walked
        walks = []
        maximize = H._Dictionary.maximize
        monkeypatch.setattr(H._Dictionary, "maximize", lambda d, i, sign: walks.append(
            (d.nvars, d.basis[i] - d.m, sign)) or maximize(d, i, sign))
        assert H.feasible_partial_augmentations(c21, 21).status == "feasible"
        at_21 = [w for w in walks if w[0] == 20 and w[1] >= 0]
        assert sorted(at_21) == [(20, v, -1) for v in range(20)]
