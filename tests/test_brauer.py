import itertools
import random
from fractions import Fraction

import pytest

from pgq import brauer, fixtures
from pgq import helpmethod as H
from pgq import numtheory as NT
from pgq.brauer import (
    BrauerTreeSpec,
    GammaBound,
    GroupArithmeticProfile,
    MultiplicityAssignment,
    TreeVertex,
    validate_tree,
)
from pgq.cyclotomic import CyclotomicElement, zeta


def path_tree(signs, prime, exceptional=None):
    vertices = [TreeVertex(f"v{i}", s, (f"chi{i}",)) for i, s in enumerate(signs)]
    edges = [(f"v{i}", f"v{i+1}", f"D{i}") for i in range(len(signs) - 1)]
    return BrauerTreeSpec(prime, vertices, edges, exceptional)


class TestValidation:
    def test_alternating_path_valid(self):
        assert validate_tree(path_tree([1, -1, 1], 5)) == []

    def test_equal_adjacent_signs_invalid(self):
        diags = validate_tree(path_tree([1, 1, -1], 5))
        assert any("equal signs" in d for d in diags)

    def test_edge_count_bound(self):
        diags = validate_tree(path_tree([1, -1, 1, -1], 3))  # 3 edges > p-1 = 2
        assert any("exceeds the bound p-1" in d for d in diags)

    def test_disconnected_rejected(self):
        tree = BrauerTreeSpec(
            7,
            [TreeVertex("a", 1), TreeVertex("b", -1), TreeVertex("c", 1), TreeVertex("d", -1)],
            [("a", "b", "D0"), ("c", "d", "D1")],
        )
        assert any("not connected" in d or "tree" in d for d in validate_tree(tree))

    def test_sign_maps_are_exactly_the_two_colorings(self):
        # over every labeled tree on up to 6 vertices (Pruefer enumeration)
        rng = random.Random(3)
        for k in range(2, 7):
            seqs = (
                list(itertools.product(range(k), repeat=k - 2)) if k > 2 else [()]
            )
            if len(seqs) > 60:
                seqs = rng.sample(seqs, 60)
            for seq in seqs:
                edges = _pruefer_to_edges(seq, k)
                good = 0
                for signs in itertools.product((1, -1), repeat=k):
                    vertices = [TreeVertex(f"v{i}", s) for i, s in enumerate(signs)]
                    tree = BrauerTreeSpec(
                        13, vertices, [(f"v{a}", f"v{b}", f"D{i}") for i, (a, b) in enumerate(edges)]
                    )
                    if not validate_tree(tree):
                        good += 1
                assert good == 2


def _pruefer_to_edges(seq, k):
    seq = list(seq)
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(i for i in range(k) if degree[i] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [i for i in range(k) if degree[i] == 1]
    edges.append((last[0], last[1]))
    return edges


class TestSignedSum:
    def test_all_zero_values(self):
        tree = fixtures.load_tree("tree_s5_p5")
        values = {v.name: CyclotomicElement.rational(0) for v in tree.vertices}
        assert brauer.signed_vertex_sum(tree, values).is_zero()

    def test_vanishes_on_p_regular_classes(self):
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
                    assert brauer.signed_vertex_sum(tree, values).is_zero()

    def test_degrees_vanish(self):
        # g = 1 is p-regular, so signed degree sums cancel
        slice_ = fixtures.load_slice("s5")
        tree = fixtures.load_tree("tree_s5_p5")
        values = {
            v.name: CyclotomicElement.rational(slice_.character(v.characters[0]).degree)
            for v in tree.vertices
        }
        assert brauer.signed_vertex_sum(tree, values).is_zero()

    def test_missing_value_raises(self):
        tree = fixtures.load_tree("tree_s5_p3")
        with pytest.raises(KeyError):
            brauer.signed_vertex_sum(tree, {"triv": CyclotomicElement.rational(1)})

    def test_t_equal_one_is_plain_alternating_sum(self):
        rng = random.Random(11)
        plain = path_tree([1, -1, 1], 7)
        marked = path_tree([1, -1, 1], 7, exceptional=("v1", 1))
        for _ in range(10):
            values = {
                f"v{i}": CyclotomicElement.make(
                    6, [(rng.randrange(6), rng.randrange(-3, 4)) for _ in range(2)]
                )
                for i in range(3)
            }
            assert brauer.signed_vertex_sum(plain, values) == brauer.signed_vertex_sum(
                marked, values
            )


class TestNuFunctional:
    def test_nu_at_p_element_is_zero_mod_p(self):
        slice_ = fixtures.load_slice("s5")
        tree = fixtures.load_tree("tree_s5_p3")
        values = {
            v.name: slice_.character(v.characters[0]).value("3a") for v in tree.vertices
        }
        nu = brauer.signed_vertex_sum(tree, values).to_rational()
        assert nu % 3 == 0

    def test_nu_at_identity_is_zero(self):
        slice_ = fixtures.load_slice("s5")
        tree = fixtures.load_tree("tree_s5_p3")
        values = {
            v.name: slice_.character(v.characters[0]).value("1a") for v in tree.vertices
        }
        assert brauer.signed_vertex_sum(tree, values).is_zero()

    def test_single_vertex_degenerate(self):
        tree = BrauerTreeSpec(5, [TreeVertex("only", -1, ("chi",))], [])
        x = zeta(3) + 2
        assert brauer.signed_vertex_sum(tree, {"only": x}) == x * (-1)


class TestMainInequality:
    def test_trivial_assignment(self):
        tree = fixtures.load_tree("tree_s5_p3")
        a = MultiplicityAssignment(
            3, 2, 0,
            mu_shifted={v.name: Fraction(0) for v in tree.vertices},
            mu_plain={v.name: Fraction(1) for v in tree.vertices},
        )
        holds, slack = brauer.main_inequality_holds(tree, a, "triv")
        assert holds and slack == 1

    def test_genuine_units_all_leaves_all_xi(self):
        for key, entry in fixtures.SMALL_GROUP_TABLES.items():
            slice_ = fixtures.load_slice(entry["table"])
            for p, tree_name in entry["trees"].items():
                tree = fixtures.load_tree(tree_name)
                exc = tree.exceptional_name
                for cl in slice_.classes:
                    if cl.order % p or cl.order == p or (cl.order // p) % p == 0:
                        continue
                    pa = H.trivial_pa(slice_, cl.name)
                    for xi in range(cl.order // p):
                        a = brauer.assignment_from_table(slice_, tree, pa, xi)
                        for leaf in tree.leaves():
                            if leaf == exc:
                                continue
                            holds, _ = brauer.main_inequality_holds(tree, a, leaf)
                            assert holds

    def test_corrupted_assignment_flips(self):
        slice_ = fixtures.load_slice("s5")
        tree = fixtures.load_tree("tree_s5_p3")
        pa = H.trivial_pa(slice_, "6a")
        a = brauer.assignment_from_table(slice_, tree, pa, 0)
        holds, slack = brauer.main_inequality_holds(tree, a, "triv")
        assert holds and slack == 0
        a.mu_plain["triv"] -= 1  # negate the only positive term
        holds, slack = brauer.main_inequality_holds(tree, a, "triv")
        assert not holds and slack == -1

    def test_monotone_in_leaf_term(self):
        rng = random.Random(23)
        tree = fixtures.load_tree("tree_s5_p5")
        for _ in range(25):
            a = MultiplicityAssignment(
                5, 2, 0,
                mu_shifted={v.name: Fraction(rng.randrange(0, 4)) for v in tree.vertices},
                mu_plain={v.name: Fraction(rng.randrange(0, 4)) for v in tree.vertices},
            )
            held, _ = brauer.main_inequality_holds(tree, a, "triv")
            a.mu_plain["triv"] += rng.randrange(1, 5)
            held_after, _ = brauer.main_inequality_holds(tree, a, "triv")
            assert held_after or not held

    def test_chi1_must_be_a_leaf(self):
        tree = fixtures.load_tree("tree_s5_p5")
        a = MultiplicityAssignment(
            5, 2, 0,
            mu_shifted={v.name: Fraction(0) for v in tree.vertices},
            mu_plain={v.name: Fraction(0) for v in tree.vertices},
        )
        with pytest.raises(ValueError):
            brauer.main_inequality_holds(tree, a, "v_six")

    def test_gauge_flip_when_chosen_leaf_negative(self):
        # flipping every sign leaves the evaluated inequality unchanged
        tree = path_tree([1, -1, 1], 7)
        flipped = path_tree([-1, 1, -1], 7)
        a = MultiplicityAssignment(
            7, 2, 0,
            mu_shifted={"v0": Fraction(1), "v1": Fraction(2), "v2": Fraction(0)},
            mu_plain={"v0": Fraction(1), "v1": Fraction(0), "v2": Fraction(3)},
        )
        assert brauer.main_inequality_holds(tree, a, "v0") == brauer.main_inequality_holds(
            flipped, a, "v0"
        )


class TestGammaBounds:
    def make_assignment(self, tree, shifted, plain):
        return MultiplicityAssignment(
            tree.prime, 2, 0,
            mu_shifted={k: Fraction(v) for k, v in shifted.items()},
            mu_plain={k: Fraction(v) for k, v in plain.items()},
        )

    def test_negative_leaf_base_case(self):
        tree = path_tree([1, -1], 5)
        a = self.make_assignment(tree, {"v0": 2, "v1": 3}, {"v0": 1, "v1": 0})
        bounds = brauer.gamma_bounds(tree, "D0", a, "v1")
        assert bounds == [GammaBound("lower", 4, Fraction(3))]

    def test_positive_leaf_base_case(self):
        tree = path_tree([1, -1], 5)
        a = self.make_assignment(tree, {"v0": 2, "v1": 3}, {"v0": 1, "v1": 0})
        bounds = brauer.gamma_bounds(tree, "D0", a, "v0")
        assert GammaBound("upper", 2, Fraction(2)) in bounds
        assert GammaBound("upper", 1, Fraction(3)) in bounds

    def test_exceptional_subtree_refused(self):
        tree = fixtures.load_tree("tree_c21_p7")
        a = self.make_assignment(tree, {"triv": 0, "exc": 0}, {"triv": 0, "exc": 0})
        with pytest.raises(brauer.GammaBoundError):
            brauer.gamma_bounds(tree, "S0", a, "exc")

    def test_path_bounds_consistent_at_genuine_unit(self):
        # lower and upper bounds for the same edge from opposite orientations
        # always leave a realizable non-increasing gamma profile
        slice_ = fixtures.load_slice("s5")
        tree = fixtures.load_tree("tree_s5_p3")
        pa = H.trivial_pa(slice_, "6a")
        for xi in range(2):
            a = brauer.assignment_from_table(slice_, tree, pa, xi)
            for _, _, label in tree.edges:
                e = tree.edge(label)
                bounds = brauer.gamma_bounds(tree, label, a, e[0]) + brauer.gamma_bounds(
                    tree, label, a, e[1]
                )
                p = tree.prime
                for s in range(1, p + 1):
                    lo = max(
                        (b.value for b in bounds if b.kind == "lower" and b.s >= s),
                        default=Fraction(0),
                    )
                    hi = min(
                        (b.value for b in bounds if b.kind == "upper" and b.s <= s),
                        default=None,
                    )
                    if hi is not None:
                        assert lo <= hi, (label, s, bounds)


class TestVerdicts:
    def test_m11_pair(self):
        profile = fixtures.load_profile("profile_m11")
        assert brauer.pq_edge_verdict(profile, 5, 11) == brauer.SETTLED

    def test_edge_in_group(self):
        profile = fixtures.load_profile("profile_m11")
        assert brauer.pq_edge_verdict(profile, 2, 3) == brauer.EDGE_IN_GROUP

    def test_open_when_both_squares_divide(self):
        profile = GroupArithmeticProfile("toy", (5 * 7) ** 2, frozenset({1, 5, 7}))
        assert brauer.pq_edge_verdict(profile, 5, 7) == brauer.OPEN

    def test_prime_must_divide_order(self):
        profile = fixtures.load_profile("profile_m11")
        with pytest.raises(ValueError):
            brauer.pq_edge_verdict(profile, 7, 11)

    def test_fuzzed_decision_table(self):
        rng = random.Random(77)
        primes = [2, 3, 5, 7, 11, 13]
        for _ in range(120):
            chosen = rng.sample(primes, k=rng.randrange(2, 5))
            order = 1
            for p in chosen:
                order *= p ** rng.randrange(1, 4)
            spectrum = {1}
            for p in chosen:
                spectrum.add(p)
            for p, q in itertools.combinations(chosen, 2):
                if rng.random() < 0.4:
                    spectrum.add(p * q)
            profile = GroupArithmeticProfile("fuzz", order, frozenset(spectrum))
            factors = NT.factorize(order)
            for p, q in itertools.combinations(sorted(chosen), 2):
                v = brauer.pq_edge_verdict(profile, p, q)
                if p * q in profile.spectrum:
                    assert v == brauer.EDGE_IN_GROUP
                elif factors[p] > 1 and factors[q] > 1:
                    assert v == brauer.OPEN
                else:
                    assert v == brauer.SETTLED

    def test_squarefree_order_fully_settled(self):
        profile = GroupArithmeticProfile("sf", 2 * 3 * 5 * 7, frozenset({1, 2, 3, 5, 7}))
        report = brauer.group_verdict_table(profile)
        assert report.fully_settled and not report.open_pairs

    def test_thompson_and_monster_tables(self):
        th = brauer.group_verdict_table(fixtures.load_profile("profile_thompson"))
        assert th.open_pairs == [(5, 7)]
        m = brauer.group_verdict_table(fixtures.load_profile("profile_monster"))
        assert m.open_pairs == [(5, 13), (7, 11), (7, 13), (11, 13)]

    def test_spectrum_closed_on_load(self):
        profile = GroupArithmeticProfile.from_json(
            {"name": "toy", "order": "60", "spectrum": [6, 10]}
        )
        assert profile.spectrum == frozenset({1, 2, 3, 5, 6, 10})

    def test_spectrum_closure_from_the_factorization(self):
        profile = GroupArithmeticProfile.from_json(
            {"name": "big", "order": str(10**30), "spectrum": [10**30]}
        )
        assert len(profile.spectrum) == 961
        assert profile.spectrum == {2**a * 5**b for a in range(31) for b in range(31)}

    def test_spectrum_closure_of_a_huge_prime(self):
        # 2**89 - 1 is prime: trial division would never reach it
        p = 2**89 - 1
        profile = GroupArithmeticProfile.from_json({"name": "big", "order": str(p), "spectrum": [p]})
        assert profile.spectrum == {1, p}


class TestTreeJson:
    def test_inline_exceptional_marker(self):
        doc = {
            "prime": 7,
            "vertices": [
                {"name": "a", "sign": 1, "characters": ["x"]},
                {"name": "b", "sign": -1, "characters": ["y1", "y2", "y3"],
                 "exceptional": True, "t": 3},
            ],
            "edges": [["a", "b", "S"]],
        }
        tree = BrauerTreeSpec.from_json(doc)
        assert tree.exceptional == ("b", 3) and validate_tree(tree) == []

    def test_top_level_marker_matches_bundled(self):
        tree = fixtures.load_tree("tree_c21_p7")
        assert tree.exceptional == ("exc", 6)
