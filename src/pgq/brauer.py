"""Signed Brauer trees, the alternating character-sum identity, the main
eigenvalue-multiplicity inequality, subtree gamma bounds, and the per-prime-pair
verdict engine for prime graphs.

A tree spec stores vertices with alternating signs, labeled edges, the block
prime p and at most one exceptional vertex of multiplicity t (the number of
ordinary characters it aggregates).  Values attached to vertices are exact
cyclotomic numbers; multiplicities are exact rationals, integers for genuine
units.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CyclotomicElement
from .cyclotomic import factorint  # noqa: F401  (the benchmark's tracer checks probe it)
from .helpmethod import CharacterTableSlice, PartialAugmentationVector, lupa_multiplicity
from .numtheory import divisors, factorize, is_prime
from .schema import FrozenRecord, required, want, want_list, want_positive


class TreeVertex(FrozenRecord):
    __slots__ = ("name", "sign", "characters")

    def __init__(self, name: str, sign: int, characters: tuple[str, ...] = ()):
        if sign not in (1, -1):
            raise ValueError(f"vertex {name}: sign must be +1 or -1")
        super().__init__(name, sign, characters)


class BrauerTreeSpec:
    def __init__(self, prime: int, vertices: list[TreeVertex],
                 edges: list[tuple[str, str, str]],  # (vertex, vertex, simple-module label)
                 exceptional: tuple[str, int] | None = None):  # (vertex name, multiplicity t)
        self.prime, self.vertices, self.edges = prime, vertices, edges
        self.exceptional = exceptional
        self._by_name = {v.name: v for v in vertices}

    @property
    def t(self) -> int:
        return self.exceptional[1] if self.exceptional else 1

    @property
    def exceptional_name(self) -> str | None:
        return self.exceptional[0] if self.exceptional else None

    def vertex(self, name: str) -> TreeVertex:
        return self._by_name[name]

    def sign(self, name: str) -> int:
        return self._by_name[name].sign

    def neighbors(self, name: str) -> list[tuple[str, str]]:
        """(other endpoint, edge label) pairs at a vertex."""
        out = []
        for a, b, lbl in self.edges:
            if a == name:
                out.append((b, lbl))
            elif b == name:
                out.append((a, lbl))
        return out

    def leaves(self) -> list[str]:
        return [v.name for v in self.vertices if len(self.neighbors(v.name)) <= 1]

    def edge(self, label: str) -> tuple[str, str, str]:
        for e in self.edges:
            if e[2] == label:
                return e
        raise KeyError(f"no edge labeled {label}")

    def component(self, start: str, cut_edge: tuple[str, str, str]) -> set[str]:
        """Vertices reachable from start without crossing the cut edge."""
        seen = {start}
        todo = [start]
        while todo:
            cur = todo.pop()
            for nb, lbl in self.neighbors(cur):
                if lbl == cut_edge[2]:
                    continue
                if nb not in seen:
                    seen.add(nb)
                    todo.append(nb)
        return seen

    @classmethod
    def from_json(cls, doc: dict) -> "BrauerTreeSpec":
        """Accepts the exceptional marker either as a top-level
        {"exceptional": {"vertex": ..., "t": ...}} or inline on a vertex as
        {"exceptional": true, "t": ...}."""
        vertex_docs = want_list(required(doc, "vertices"), dict, "tree vertices")
        vertices = [
            TreeVertex(want(required(v, "name"), str, "vertex name"),
                       want(required(v, "sign"), int, "vertex sign"),
                       tuple(want_list(v.get("characters", []), str, "vertex characters")))
            for v in vertex_docs
        ]
        edges = [tuple(want_list(e, str, "each tree edge", 3))
                 for e in want_list(required(doc, "edges"), list, "tree edges")]
        exc = doc.get("exceptional")
        exceptional = None
        if exc is not None:
            want(exc, dict, "exceptional")
            exceptional = (want(required(exc, "vertex"), str, "exceptional vertex"),
                           want(required(exc, "t"), int, "exceptional t"))
        for v in vertex_docs:
            if v.get("exceptional") is True:
                if exceptional is not None and exceptional[0] != v["name"]:
                    raise ValueError("conflicting exceptional vertex markers")
                t = v.get("t", len(v.get("characters", ())) or 1)
                exceptional = (v["name"], want(t, int, "exceptional t"))
        return cls(want(required(doc, "prime"), int, "tree prime"), vertices, edges, exceptional)


def validate_tree(tree: BrauerTreeSpec) -> list[str]:
    """Every violated invariant, as one diagnostic string each (empty = valid)."""
    diags = []
    names = [v.name for v in tree.vertices]
    if len(set(names)) != len(names):
        diags.append("duplicate vertex names")
    p = tree.prime
    if not is_prime(p):
        diags.append(f"{p} is not prime")
    for a, b, _ in tree.edges:
        if a not in tree._by_name or b not in tree._by_name:
            diags.append(f"edge ({a},{b}) mentions an unknown vertex")
        elif tree.sign(a) == tree.sign(b):
            diags.append(f"neighboring vertices {a},{b} carry equal signs")
    labels = [lbl for _, _, lbl in tree.edges]
    if len(set(labels)) != len(labels):
        diags.append("duplicate edge labels")
    if len(tree.edges) != len(tree.vertices) - 1:
        diags.append("edge count must be vertex count minus one (tree)")
    elif tree.vertices:
        reach = tree.component(tree.vertices[0].name, ("", "", ""))
        if len(reach) != len(tree.vertices):
            diags.append("graph is not connected")
    if len(tree.edges) > p - 1:
        diags.append(f"{len(tree.edges)} edges exceeds the bound p-1 = {p - 1}")
    if len(tree.vertices) > p:
        diags.append(f"{len(tree.vertices)} vertices exceeds the bound p = {p}")
    if tree.exceptional:
        name, t = tree.exceptional
        if name not in tree._by_name:
            diags.append(f"exceptional vertex {name} unknown")
        if t < 1:
            diags.append("exceptional multiplicity must be >= 1")
        chars = tree._by_name.get(name)
        if chars and chars.characters and len(chars.characters) != t:
            diags.append("exceptional vertex character list does not match t")
    return diags


def signed_vertex_sum(
    tree: BrauerTreeSpec, values: dict[str, CyclotomicElement]
) -> CyclotomicElement:
    """delta_x * value(x) + t * sum over the other vertices of delta_v * value(v)
    (plain alternating sum when no exceptional vertex); zero on genuine
    p-regular class values."""
    acc = CyclotomicElement.rational(0)
    exc = tree.exceptional_name
    t = tree.t
    for v in tree.vertices:
        if v.name not in values:
            raise KeyError(f"missing value for vertex {v.name}")
        weight = 1 if v.name == exc else t
        acc = acc + values[v.name] * (v.sign * weight)
    return acc


# -- multiplicity assignments ---------------------------------------------------


class MultiplicityAssignment:
    """Per-vertex eigenvalue multiplicities for a unit of order p*m at a fixed
    m-th root of unity xi: mu_shifted[v] = mu(xi*zeta_p, u, chi_v) and
    mu_plain[v] = mu(xi, u, chi_v) (a fresh dict by default); an exceptional
    vertex carries the values of the summed character."""

    def __init__(self, p: int, m: int, xi_exponent: int, mu_shifted: dict[str, Fraction],
                 mu_plain: dict[str, Fraction] | None = None):
        self.p, self.m, self.xi_exponent, self.mu_shifted = p, m, xi_exponent, mu_shifted
        self.mu_plain = {} if mu_plain is None else mu_plain

    def shifted(self, name: str) -> Fraction:
        try:
            return self.mu_shifted[name]
        except KeyError:
            raise KeyError(f"assignment lacks mu(xi*zeta_p) for vertex {name}") from None

    def plain(self, name: str) -> Fraction:
        try:
            return self.mu_plain[name]
        except KeyError:
            raise KeyError(f"assignment lacks mu(xi) for vertex {name}") from None


def assignment_from_table(
    slice_: CharacterTableSlice,
    tree: BrauerTreeSpec,
    pa: PartialAugmentationVector,
    xi_exponent: int,
) -> MultiplicityAssignment:
    """Compute all tree multiplicities for a unit described by pa (order p*m)
    via the multiplicity formula; vertex values sum over the vertex's
    character list, so the exceptional vertex gets its theta-sum directly."""
    p = tree.prime
    n = pa.order
    if n % p:
        raise ValueError(f"unit order {n} is not divisible by the block prime {p}")
    m = n // p
    if m % p == 0:
        raise ValueError(f"unit order {n} must be p * m with p not dividing m")
    # compatible embedding: zeta_p = zeta_n^m, zeta_m = zeta_n^p
    shifted_exp = (xi_exponent * p + m) % n
    plain_exp = (xi_exponent * p) % n
    mu_s, mu_p = {}, {}
    for v in tree.vertices:
        if not v.characters:
            raise ValueError(f"vertex {v.name} carries no character references")
        mu_s[v.name] = sum(
            (lupa_multiplicity(slice_, c, pa, shifted_exp) for c in v.characters), Fraction(0)
        )
        mu_p[v.name] = sum(
            (lupa_multiplicity(slice_, c, pa, plain_exp) for c in v.characters), Fraction(0)
        )
    return MultiplicityAssignment(p, m, xi_exponent, mu_s, mu_p)


# -- the main inequality --------------------------------------------------------


def main_inequality_holds(
    tree: BrauerTreeSpec,
    assignment: MultiplicityAssignment,
    chi1: str | None = None,
) -> tuple[bool, Fraction]:
    """0 <= mu(xi, u, chi_1) + delta_x mu(xi zeta_p, u, chi_x)
            + t * sum over non-exceptional v of delta_v mu(xi zeta_p, u, chi_v),
    for chi_1 a non-exceptional leaf normalized to sign +1 (the whole sign map
    is flipped if the chosen leaf carries -1).  Returns (holds, slack)."""
    exc = tree.exceptional_name
    candidates = [v for v in tree.leaves() if v != exc]
    if chi1 is None:
        if not candidates:
            raise ValueError("tree has no non-exceptional leaf")
        chi1 = sorted(candidates)[0]
    else:
        if chi1 == exc:
            raise ValueError("chi_1 must be non-exceptional")
        if chi1 not in candidates:
            raise ValueError(f"{chi1} is not a leaf of the tree")
    gauge = tree.sign(chi1)  # flip signs globally so that delta_{chi1} = +1
    t = tree.t
    slack = assignment.plain(chi1)
    for v in tree.vertices:
        weight = 1 if v.name == exc else t
        slack += gauge * v.sign * weight * assignment.shifted(v.name)
    return slack >= 0, slack


# -- gamma bounds from subtrees ----------------------------------------------------


class GammaBoundError(Exception):
    """Raised when the recursion's arithmetic side conditions fail (invalid
    tree data); the paper gives no fallback, so the operation refuses."""


class GammaBound(FrozenRecord):
    """kind is "lower" or "upper", s the index of the bounded gamma_s(D)."""

    __slots__ = ("kind", "s", "value")

    def __init__(self, kind: str, s: int, value: Fraction):
        super().__init__(kind, s, value)


def _neg_node(p: int, mu_chi: Fraction, pairs: list[tuple[int, Fraction]]) -> GammaBound:
    """From gamma_{k_i}(E_i) <= m_i derive a lower bound on the head factor,
    requiring k_1 + ... + k_i <= p + i - 2 for every prefix."""
    ksum = 0
    for i, (k, _) in enumerate(pairs, start=1):
        ksum += k
        if ksum > p + i - 2:
            raise GammaBoundError(f"prefix condition k_1+..+k_{i} <= p+{i}-2 violated")
    n = len(pairs)
    return GammaBound("lower", p - ksum + n - 1, mu_chi - sum(m for _, m in pairs))


def _pos_node(p: int, mu_chi: Fraction, pairs: list[tuple[int, Fraction]]) -> GammaBound:
    """From gamma_{k_i}(E_i) >= m_i derive an upper bound on the head factor,
    requiring k_1 + ... + k_i >= (i-1)p + 2 for every prefix."""
    ksum = 0
    for i, (k, _) in enumerate(pairs, start=1):
        ksum += k
        if ksum < (i - 1) * p + 2:
            raise GammaBoundError(f"prefix condition k_1+..+k_{i} >= ({i}-1)p+2 violated")
    n = len(pairs)
    return GammaBound("upper", n * p - ksum + 2, mu_chi - sum(m for _, m in pairs))


def _subtree_bounds(
    tree: BrauerTreeSpec,
    assignment: MultiplicityAssignment,
    chi: str,
    cut_edge: tuple[str, str, str],
) -> dict[str, GammaBound | None]:
    """Bounds on gamma_s(D) for the edge D = cut_edge contributed by the
    subtree E hanging at chi, following the leaf-to-root recursion: each
    child subtree's (a)-bound feeds the node combinators, and the (b)-bound
    threads a positive-sign leaf through one child."""
    p = tree.prime
    verts = tree.component(chi, cut_edge)
    if tree.exceptional_name in verts:
        raise GammaBoundError("subtree contains the exceptional vertex; refusing")
    sign = tree.sign(chi)
    mu = assignment.shifted
    if len(verts) == 1:
        if sign == -1:
            return {"a": GammaBound("lower", p - 1, mu(chi)), "b": None}
        return {
            "a": GammaBound("upper", 2, mu(chi)),
            "b": GammaBound("upper", 1, assignment.plain(chi) + mu(chi)),
        }
    children = [
        (nb, (chi, nb, lbl)) for nb, lbl in tree.neighbors(chi) if lbl != cut_edge[2]
    ]
    sub = [ _subtree_bounds(tree, assignment, nb, edge) for nb, edge in children ]
    pairs_a = [(b["a"].s, b["a"].value) for b in sub]
    node = _neg_node if sign == -1 else _pos_node
    out: dict[str, GammaBound | None] = {"a": node(p, mu(chi), pairs_a), "b": None}
    for j, b in enumerate(sub):
        if b["b"] is not None:
            pairs = [(b["b"].s, b["b"].value)] + [q for i, q in enumerate(pairs_a) if i != j]
            out["b"] = node(p, mu(chi), pairs)
            break
    return out


def gamma_bounds(
    tree: BrauerTreeSpec,
    edge_label: str,
    assignment: MultiplicityAssignment,
    side_vertex: str,
) -> list[GammaBound]:
    """Bounds on gamma_s of the simple module labeling the edge, implied by
    the subtree on the side of side_vertex.  The subtree must avoid the
    exceptional vertex."""
    diags = validate_tree(tree)
    if diags:
        raise GammaBoundError("invalid tree: " + "; ".join(diags))
    edge = tree.edge(edge_label)
    if side_vertex not in (edge[0], edge[1]):
        raise ValueError(f"{side_vertex} is not an endpoint of edge {edge_label}")
    res = _subtree_bounds(tree, assignment, side_vertex, edge)
    return [b for b in (res["a"], res["b"]) if b is not None]


# -- prime-pair verdicts -----------------------------------------------------------


class GroupArithmeticProfile:
    """Group order, set of element orders (closed under divisors on load) and
    an optional Lie-family tag."""

    def __init__(self, name: str, order: int, spectrum: frozenset[int],
                 lie_family: str | None = None):
        self.name, self.order, self.spectrum, self.lie_family = name, order, spectrum, lie_family

    @classmethod
    def from_json(cls, doc: dict) -> "GroupArithmeticProfile":
        order = want_positive(required(doc, "order"), "profile order")
        spectrum = want_list(required(doc, "spectrum"), int, "profile spectrum")
        if any(n < 1 or order % n for n in spectrum):
            raise ValueError(f"profile spectrum entries must be positive divisors of the "
                             f"order (Lagrange), got {spectrum!r}")
        lie_family = doc.get("lie_family")
        return cls(
            name=want(required(doc, "name"), str, "profile name"),
            order=order,
            spectrum=frozenset(d for n in spectrum for d in divisors(n)),
            lie_family=None if lie_family is None else want(lie_family, str, "lie_family"),
        )

    def prime_divisors(self) -> list[int]:
        return sorted(factorize(self.order))


EDGE_IN_GROUP = "edge-in-group"
SETTLED = "settled-by-theorem"
OPEN = "open"


def pq_edge_verdict(profile: GroupArithmeticProfile, p: int, q: int) -> str:
    """Status of a prime pair: an order-pq element exists, or a Sylow subgroup
    at p or q has prime order so the pair is settled, or neither (open)."""
    if p == q:
        raise ValueError("the two primes must be distinct")
    factors = factorize(profile.order)
    for r in (p, q):
        if r not in factors:
            raise ValueError(f"{r} does not divide |{profile.name}| = {profile.order}")
    if p * q in profile.spectrum:
        return EDGE_IN_GROUP
    if factors[p] == 1 or factors[q] == 1:
        return SETTLED
    return OPEN


class VerdictReport:
    def __init__(self, group: str, verdicts: dict[tuple[int, int], str]):
        self.group, self.verdicts = group, verdicts

    @property
    def open_pairs(self) -> list[tuple[int, int]]:
        return sorted(k for k, v in self.verdicts.items() if v == OPEN)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(k for k, v in self.verdicts.items() if v == EDGE_IN_GROUP)

    @property
    def fully_settled(self) -> bool:
        return not self.open_pairs

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "pairs": {f"{p}*{q}": v for (p, q), v in sorted(self.verdicts.items())},
            "open_pairs": [list(pq) for pq in self.open_pairs],
            "fully_settled": self.fully_settled,
        }


def group_verdict_table(profile: GroupArithmeticProfile) -> VerdictReport:
    """Apply the edge verdict to every pair of primes dividing the order."""
    primes = profile.prime_divisors()
    verdicts = {}
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            verdicts[(p, q)] = pq_edge_verdict(profile, p, q)
    return VerdictReport(profile.name, verdicts)
