"""Eigenvalue-multiplicity constraints on torsion units of integral group rings.

A hypothetical normalized unit u of order n is given, over a slice of a
character table, by its partial augmentations on the classes of order
dividing n and the class distributions of its proper powers.  Each
character chi and n-th root of unity zeta^l yield the multiplicity

    mu(zeta^l, u, chi) = (1/n) sum_{d | n} Tr_{Q(zeta_{n/d})/Q}(chi(u^d) zeta^{-dl}),

a non-negative integer at most chi(1) for an actual unit, and linear in
the partial augmentations: n * mu = k + sum_C T[C] e_C in integers
(`multiplicity_form`), read from one trace table per slice as in HeLP, one
row per distinct character value (`CharacterTableSlice.trace`).  The
search adds the congruences and augmentation one, one branch per
distribution of the proper powers (the towers of u^p, p prime).  Its rows
are the same in every branch up to the constants, so one dictionary of
ranged rows per order bounds them all and certifies each empty branch by a
Farkas vector over its own rows (`_shared_bounds`).  The integer stage
walks the augmentation hyperplane inside those bounds, unless a variable is
unbounded or the walk would pass `CANDIDATE_CAP`.  Published inequality
rows are in one variable, bounded in closed form (`InequalityRowsFixture`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .cyclotomic import CyclotomicElement, parse_cyclotomic
from .numtheory import divisors, factorize, is_prime
from .schema import FrozenRecord, required, want, want_int, want_list, want_positive


# -- character table slices ---------------------------------------------------


class ConjugacyClassInfo(FrozenRecord):
    __slots__ = ("name", "order", "power_map", "size")

    def __init__(self, name: str, order: int,
                 power_map: dict[int, str] | None = None,  # prime -> class of g^p; fresh dict
                 size: int | None = None):
        super().__init__(name, order, {} if power_map is None else power_map, size)


class Character(FrozenRecord):
    __slots__ = ("name", "degree", "values")

    def __init__(self, name: str, degree: int, values: dict[str, CyclotomicElement]):
        super().__init__(name, degree, values)

    def value(self, class_name: str) -> CyclotomicElement:
        try:
            return self.values[class_name]
        except KeyError:
            raise KeyError(f"character {self.name} has no value on class {class_name}") from None


class CharacterTableSlice:
    """Conjugacy classes with orders and power maps plus some characters.
    For unit-order n computations the slice must contain every class of the
    group whose element order divides n."""

    def __init__(self, group_name: str, group_order: int, classes, characters):
        self.group_name = group_name
        self.group_order = group_order
        self.classes = list(classes)
        self.characters = list(characters)
        self._by_name = {c.name: c for c in self.classes}
        self._chars = {c.name: c for c in self.characters}
        self._galois_powers: dict[tuple[str, int], str] = {}
        # (character, class) -> index of its value among the distinct values,
        # which key the trace rows: (index, r) -> row
        distinct: dict[tuple, int] = {}
        self._value_ids = {(chi.name, c): distinct.setdefault(
            (x.n, x.den, frozenset(x.coeffs.items())), len(distinct))
            for chi in self.characters for c, x in chi.values.items()}
        self._traces: dict[tuple[int, int], tuple[int, ...]] = {}
        self._rows: dict[tuple[str, int], list[tuple[tuple[int, ...], int]]] = {}
        self.validate()

    def validate(self):
        if len(self._by_name) != len(self.classes):
            raise ValueError("duplicate class names")
        if len(self._chars) != len(self.characters):
            raise ValueError("duplicate character names")
        identities = [c for c in self.classes if c.order == 1]
        if len(identities) != 1:
            raise ValueError("exactly one identity class is required")
        self.identity = identities[0]
        for c in self.classes:
            for p, target in c.power_map.items():
                if not is_prime(p):
                    raise ValueError(f"power map of {c.name}: key {p} is not a prime")
                if target not in self._by_name:
                    raise ValueError(f"power map of {c.name} leaves the slice: {target}")
                expected = c.order // (p if c.order % p == 0 else 1)
                if self._by_name[target].order != expected:
                    raise ValueError(f"class {c.name}^{p} should have order {expected}, "
                                     f"got {self._by_name[target].order}")
        for chi in self.characters:
            for key in chi.values:
                if key not in self._by_name:
                    raise ValueError(f"character {chi.name} has a value on {key!r}, "
                                     f"which is no class of the slice")
            val = chi.value(self.identity.name)
            if val.to_rational() != chi.degree:
                raise ValueError(f"character {chi.name}: value at identity != degree")
            for c in self.classes:
                if (x := chi.values.get(c.name)) is not None and x.den != 1:
                    raise ValueError(
                        f"character {chi.name} value on {c.name} is not an algebraic integer "
                        f"(its canonical coefficients must be integers)")
                if x is not None and not x.fixed_by(c.order):
                    raise ValueError(
                        f"character {chi.name} value on {c.name} is not in Q(zeta_{c.order})")

    def cls(self, name: str) -> ConjugacyClassInfo:
        return self._by_name[name]

    def character(self, name: str) -> Character:
        try:
            return self._chars[name]
        except KeyError:
            raise ValueError(f"no character named {name!r} in {self.group_name}") from None

    def power_class(self, name: str, k: int) -> str:
        """Name of the class of g^k for g in the named class, by the power
        maps prime by prime.  A map at a prime dividing the current class's
        order is required.  One at a coprime p is optional: g^p is then the
        unique class of the same order whose column is the p-th Galois
        conjugate of g's, and a KeyError if the characters cannot tell."""
        c = self.cls(name)
        k %= c.order
        if k == 0:
            return self.identity.name
        cur = name
        for p, e in sorted(factorize(k).items()):
            for _ in range(e):
                cc = self.cls(cur)
                if p in cc.power_map:
                    cur = cc.power_map[p]
                elif cc.order % p == 0:
                    raise KeyError(f"class {cur} is missing the power map at prime {p}")
                else:
                    cur = self._galois_power(cur, p)
        return cur

    def _galois_power(self, name: str, p: int) -> str:
        """Class of g^p for p coprime to o = o(g), by Galois conjugation:
        chi(g^p) = sigma_p(chi(g)), sigma_p: zeta_o -> zeta_o^p.  A value at
        level L (a multiple of o) is conjugated by a k = p (mod o) that is a
        unit mod L, sigma_p on Q(zeta_o).  Only characters with a value on
        both classes are compared."""
        key = (name, p)
        if key not in self._galois_powers:
            o = self.cls(name).order
            images = []
            for chi in self.characters:
                if name in chi.values:
                    x = chi.values[name]
                    L = math.lcm(x.n, o)
                    k = next(k for k in range(p, p + L, o) if math.gcd(k, L) == 1)
                    images.append((chi, x.lift(L).galois(k)))
            matches = [c.name for c in self.classes if c.order == o and all(
                chi.values[c.name] == y for chi, y in images if c.name in chi.values)]
            if len(matches) != 1:
                raise KeyError(
                    f"class {name} is missing the power map at prime {p}, and the slice is "
                    f"too thin to decide it by Galois conjugation ({len(matches)} classes match)")
            self._galois_powers[key] = matches[0]
        return self._galois_powers[key]

    def _trace_row(self, chi: Character, class_name: str, r: int) -> tuple[int, ...]:
        """Tr_{Q(zeta_r)/Q}(chi(g) zeta_r^{-l}) for g in the named class, for
        every l mod r: integers, as chi(g) is an algebraic integer of
        Q(zeta_r).  Computed once per distinct value and r."""
        key = (self._value_ids.get((chi.name, class_name)), r)
        row = self._traces.get(key)
        if row is None:
            row = self._traces[key] = tuple(chi.value(class_name).trace_row(r))
            assert all(type(x) is int for x in row), "trace of an algebraic integer"
        return row

    def variable_traces(self, chi: Character, n: int, l: int) -> tuple[tuple[int, ...], int]:
        """(T, gcd of T), T = `_trace_row`(chi, C, n)[l] for C in `variable_classes(n)`,
        the coefficients of n * mu: columns of chi's trace rows, once per slice."""
        rows = self._rows.get((chi.name, n))
        if rows is None:
            cols = [self._trace_row(chi, c.name, n) for c in self.variable_classes(n)]
            rows = self._rows[chi.name, n] = [
                (row, math.gcd(*row)) for row in (zip(*cols) if cols else [()] * n)]
        return rows[l % n]

    def variable_classes(self, n: int) -> list[ConjugacyClassInfo]:
        """Classes that may carry a nonzero partial augmentation for a unit of
        order n > 1: order divides n and is not 1 (Berman-Higman)."""
        return [c for c in self.classes if c.order > 1 and n % c.order == 0]

    @classmethod
    def from_json(cls, doc: dict) -> "CharacterTableSlice":
        classes = []
        for c in want_list(required(doc, "classes"), dict, "classes"):
            size = c.get("size")
            classes.append(ConjugacyClassInfo(
                name=want(required(c, "name"), str, "class name"),
                order=want_positive(required(c, "order"), "class order"),
                power_map={want_int(p, "power map key"): want(t, str, "power map target")
                           for p, t in want(c.get("powers", {}), dict, "class powers").items()},
                size=None if size is None else want_positive(size, "class size"),
            ))
        parsed = {}  # (JSON type, value) -> element: a repeated value is parsed once

        def value(v):
            if not isinstance(v, (str, int)):  # an object, or a type parse_cyclotomic rejects
                return parse_cyclotomic(v)
            if (key := (type(v), v)) not in parsed:  # true and 1 hash alike
                parsed[key] = parse_cyclotomic(v)
            return parsed[key]

        chars = [
            Character(
                name=want(required(ch, "name"), str, "character name"),
                degree=want(required(ch, "degree"), int, "character degree"),
                values={k: value(v) for k, v in
                        want(required(ch, "values"), dict, "character values").items()},
            )
            for ch in want_list(required(doc, "characters"), dict, "characters")
        ]
        return cls(want(required(doc, "group"), str, "group"),
                   want_positive(required(doc, "order"), "group order"), classes, chars)


# -- partial augmentation vectors ---------------------------------------------


class PartialAugmentationVector:
    """Partial augmentations of a hypothetical normalized unit of the given
    order, plus the class distributions of its proper powers (u^d of order
    n/d for each divisor 1 < d < n; a fresh dict by default)."""

    def __init__(self, order: int, entries: dict[str, int],
                 powers: dict[int, PartialAugmentationVector] | None = None):
        self.order, self.entries = order, entries
        self.powers = {} if powers is None else powers

    def __eq__(self, other):
        return (
            isinstance(other, PartialAugmentationVector)
            and self.order == other.order
            and {k: v for k, v in self.entries.items() if v}
            == {k: v for k, v in other.entries.items() if v}
            and self.powers == other.powers
        )

    def validate(self, slice_: CharacterTableSlice):
        if self.order < 2:
            raise ValueError("unit order must be at least 2")
        if sum(self.entries.values()) != 1:
            raise ValueError("partial augmentations must sum to 1 (augmentation one)")
        for name, v in self.entries.items():
            c = slice_.cls(name)
            if v and c.order == 1:
                raise ValueError("identity class must have partial augmentation 0")
            if v and self.order % c.order:
                raise ValueError(
                    f"class {name} of order {c.order} cannot support a unit of order {self.order}"
                )
        for d, pa in self.powers.items():
            if d <= 1 or d >= self.order or self.order % d:
                raise ValueError(f"stored power {d} is not a proper divisor of {self.order}")
            if pa.order != self.order // d:
                raise ValueError(f"u^{d} must have order {self.order // d}")
            pa.validate(slice_)
        for d, pa in self.powers.items():
            for e, sub in pa.powers.items():
                if sub != self.powers.get(d * e):
                    raise ValueError(f"incoherent power tower at u^{d * e}")

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "entries": {k: v for k, v in sorted(self.entries.items()) if v},
            "powers": {str(d): pa.to_json() for d, pa in sorted(self.powers.items())},
        }


def trivial_pa(slice_: CharacterTableSlice, class_name: str) -> PartialAugmentationVector:
    """The distribution of an actual group element: epsilon = 1 at its class."""
    n = slice_.cls(class_name).order
    powers = {}
    for d in divisors(n):
        if 1 < d < n:
            powers[d] = trivial_pa(slice_, slice_.power_class(class_name, d))
    return PartialAugmentationVector(n, {class_name: 1}, powers)


# -- the multiplicity formula --------------------------------------------------


def _power_constants(slice_: CharacterTableSlice, n: int, keys,
                     powers: dict[int, PartialAugmentationVector]) -> list[int]:
    """n times the constant of mu(zeta_n^l, u, chi) per key (chi, l): chi(1),
    from u^n = 1, plus per proper divisor d a sum of table traces over
    Q(zeta_{n/d}), where both chi(u^d) and zeta^{-d} = zeta_{n/d}^{-l} live."""
    terms = []  # (class, partial augmentation, n/d) of every u^d
    for d in divisors(n)[1:-1]:
        if d not in powers:
            raise KeyError(f"missing class distribution for the {d}-th power")
        terms += [(name, e, n // d) for name, e in powers[d].entries.items() if e]
    out, last = [], None
    for chi, l in keys:
        if chi is not last:  # chi's constants at every l mod n, once per run of its keys
            last, ks = chi, [chi.degree] * n
            for name, e, r in terms:
                row = slice_._trace_row(chi, name, r) * (n // r)
                ks = [k + e * x for k, x in zip(ks, row)]
        out.append(ks[l % n])
    return out


def multiplicity_form(slice_: CharacterTableSlice, chi: Character, n: int, zeta_exponent: int,
                      powers: dict[int, PartialAugmentationVector]) -> tuple[int, dict[str, int]]:
    """(k, T) with n * mu(zeta_n^zeta_exponent, u, chi) = k + sum_C T[C] e_C
    over the order-n partial augmentations, the proper-power distributions
    fixed: k from `_power_constants`, T the nonzero `variable_traces`, all ints."""
    row, _ = slice_.variable_traces(chi, n, zeta_exponent)
    coeffs = {c.name: t for c, t in zip(slice_.variable_classes(n), row) if t}
    return _power_constants(slice_, n, [(chi, zeta_exponent)], powers)[0], coeffs


def lupa_multiplicity(slice_: CharacterTableSlice, chi_name: str, pa: PartialAugmentationVector,
                      zeta_exponent: int) -> Fraction:
    """Exact multiplicity of zeta_n^zeta_exponent as an eigenvalue of u under
    a representation with the named character; a non-negative integer for a
    genuine unit."""
    chi = slice_.character(chi_name)
    k, coeffs = multiplicity_form(slice_, chi, pa.order, zeta_exponent, pa.powers)
    return Fraction(k + sum(coeffs.get(v, 0) * e for v, e in pa.entries.items()), pa.order)


# -- congruence constraints -----------------------------------------------------


class Congruence(FrozenRecord):
    """sum of the listed partial augmentations == residue (mod modulus)."""

    __slots__ = ("classes", "modulus", "residue")

    def __init__(self, classes: tuple[str, ...], modulus: int, residue: int):
        super().__init__(classes, modulus, residue)

    def satisfied(self, env: dict[str, int]) -> bool:
        return sum(env.get(c, 0) for c in self.classes) % self.modulus == self.residue

    def __str__(self):
        body = " + ".join(f"e_{c}" for c in self.classes) or "0"
        return f"{body} == {self.residue} (mod {self.modulus})"


def congruence_constraints(slice_: CharacterTableSlice, n: int) -> list[Congruence]:
    """For each prime p != n dividing the group order: the order-p partial
    augmentations sum to 0 mod p, and the others to 1 mod p (the congruence
    needs the unit order to differ from p)."""
    out = []
    scope = slice_.variable_classes(n)
    for p in sorted(factorize(slice_.group_order)):
        if p == n:
            continue
        at_p = tuple(c.name for c in scope if c.order == p)
        away = tuple(c.name for c in scope if c.order != p)
        out.append(Congruence(at_p, p, 0))
        out.append(Congruence(away, p, 1 % p))
    return out


# -- rational bounds: one exact simplex ---------------------------------------------


class SearchComplexityError(Exception):
    """Published rows leave more than `CANDIDATE_CAP` candidates to walk;
    the caller reports an inconclusive outcome instead of stalling."""


#: most integer candidates an exact search enumerates before it reports too-large
CANDIDATE_CAP = 2_000_000


class _Dictionary:
    """A simplex dictionary of ranged integer rows, each over its own denominator.

    Given rows a.x + k >= 0 merge in exact opposite pairs: (a, k1) and
    (-a, k2) are one ranged row 0 <= a.x + k1 <= k1 + k2, its width (a row
    with no opposite has none).  Ranged row i is variable i, standing for the
    given row sides[i][up[i]]; `flip` swaps it for the other, its complement
    width - x_i (Chvatal, Linear Programming, ch. 8), so a nonbasic variable
    is at 0 and every bound met is a given row.  Free variable v is m + v;
    once basic it never leaves, and its row keeps no constant (`value`).
    Row i reads basis[i] = (t[i][0] + sum_j t[i][j] * cols[j]) / rden[i]
    over the nonbasic cols[j], j >= 1.  A pivot rewrites the rows with a
    nonzero entry in its column, each divided by its content, so a row is in
    lowest terms, gcd(rden[i], *t[i]) == 1 (Schrijver, Theory of Linear and
    Integer Programming, 3.3); a ratio test compares entries of one row.
    """

    def __init__(self, rows: list[tuple[int, ...]], consts: list[int], nvars: int):
        self.nvars, self.size = nvars, len(rows)
        sides: list[list] = []
        waiting: dict[tuple[int, ...], list[int]] = {}  # coefficients -> unpaired ranged rows
        for g, a in enumerate(rows):
            if pending := waiting.get(tuple(-x for x in a)):
                sides[pending.pop(0)][1] = g
            else:
                waiting.setdefault(tuple(a), []).append(len(sides))
                sides.append([g, None])
        self.m = m = len(sides)
        self.sides, self.up = sides, [0] * m
        self.k = [consts[g] for g, _ in sides]  # each variable's constant, as it stands
        self.width = [None if h is None else consts[g] + consts[h] for g, h in sides]
        self.t = [[consts[g], *rows[g]] for g, _ in sides]
        self.rden, self.basis = [1] * m, list(range(m))
        self.cols = [None, *range(m, m + nvars)]

    def value(self, i: int, c: int) -> Fraction:
        """Entry c of row i as a rational number.  At x = 0 each variable is
        its constant k, so a free row's constant is -sum_c t[i][c] k[cols[c]]."""
        row, m = self.t[i], self.m
        if c == 0 and self.basis[i] >= m:
            return Fraction(-sum(row[j] * self.k[v] for j, v in enumerate(self.cols)
                                 if j and v < m), self.rden[i])
        return Fraction(row[c], self.rden[i])

    def _store(self, i: int, new: list[int], den: int) -> None:
        """Row i := new / den, divided by its content."""
        row, g = self.t[i], math.gcd(den, *new)
        if g == 1:
            row[:] = new
        else:
            row[:] = [v // g for v in new]
            assert [v * g for v in row] == new, "inexact pivot"
        self.rden[i] = den // g

    def pivot(self, r: int, c: int) -> None:
        """Exchange basis[r] and cols[c]."""
        t, rden, m, basis = self.t, self.rden, self.m, self.basis
        pr, pd = t[r], rden[r]
        sign = 1 if pr[c] > 0 else -1
        p = sign * pr[c]
        for i, row in enumerate(t):
            q = sign * row[c]
            if not q or i == r:
                continue
            # basis[r] = (... + P x_c) / pd gives x_c; substituted into row i:
            # (p * a - q * b) / (p * rden[i]), and q * pd on basis[r]
            new = [p * a - q * b for a, b in zip(row, pr)]
            new[0] *= basis[i] < m  # a free row keeps no constant
            new[c] = q * pd
            self._store(i, new, p * rden[i])
        new = [-sign * x for x in pr]
        new[0] *= self.cols[c] < m
        new[c] = sign * pd
        self._store(r, new, p)
        self.basis[r], self.cols[c] = self.cols[c], self.basis[r]

    def flip(self, v: int) -> None:
        """Swap variable v for its complement width[v] - v."""
        w, t, basis = self.width[v], self.t, self.basis
        if v in basis:
            r = basis.index(v)
            t[r][:] = [w * self.rden[r] - t[r][0], *(-x for x in t[r][1:])]
        else:
            c = self.cols.index(v)
            for row, s in zip(t, basis):
                if row[c]:
                    row[0] += row[c] * w * (s < self.m)
                    row[c] = -row[c]
        self.up[v] ^= 1
        self.k[v] = w - self.k[v]

    def maximize(self, i: int, sign: int) -> bool:
        """Pivot by Bland's rule until sign * basis[i] is maximal; False when
        unbounded.  The entering slack rises until a variable meets a bound,
        the lowest on ties: itself at its width (a flip), or a basic one at 0
        or at its width (flipped first), which leaves."""
        m, t, basis, cols, width = self.m, self.t, self.basis, self.cols, self.width
        obj = t[i]
        while True:
            enter = [c for c in range(1, len(cols)) if cols[c] < m and sign * obj[c] > 0]
            if not enter:
                return True
            c = min(enter, key=cols.__getitem__)
            v = cols[c]
            stop = None if width[v] is None else (width[v], 1, v, None)  # step a / b, at row j
            for j, row in enumerate(t):
                s = basis[j]
                if s >= m or not row[c] or (row[c] > 0 and width[s] is None):
                    continue
                a, b = (row[0], -row[c]) if row[c] < 0 else (
                    width[s] * self.rden[j] - row[0], row[c])
                if stop is None or a * stop[1] < stop[0] * b or (
                        a * stop[1] == stop[0] * b and s < stop[2]):
                    stop = (a, b, s, j)
            if stop is None:
                return False
            j = stop[3]
            if j is None or t[j][c] > 0:
                self.flip(v if j is None else basis[j])
            if j is not None:
                self.pivot(j, c)

    def enter_free(self) -> None:
        """Pivot each free variable into the basis, on the slack row with the
        least |t[i][c] / rden[i]|, the first on ties.  One that cannot enter
        has a zero column in every slack row, which pivots keep: it is free."""
        m, t, rden, basis = self.m, self.t, self.rden, self.basis
        for v in range(m, m + self.nvars):
            c = self.cols.index(v)
            best = None
            for i in range(m):
                if basis[i] < m and t[i][c] and (
                        best is None or abs(t[i][c]) * rden[best] < abs(t[best][c]) * rden[i]):
                    best = i
            if best is not None:
                self.pivot(best, c)

    def shift(self, delta: list[int]) -> None:
        """Add delta[g] to given row g's constant: a basic variable's row gains
        its delta * rden, and a nonbasic one at column c takes t[i][c] * delta."""
        m, basis, rden = self.m, self.basis, self.rden
        step = [delta[s[u]] for s, u in zip(self.sides, self.up)]
        self.k = [k + x for k, x in zip(self.k, step)]
        self.width = [w if h is None else w + delta[g] + delta[h]
                      for w, (g, h) in zip(self.width, self.sides)]
        moved = [(c, step[s]) for c, s in enumerate(self.cols) if c and s < m and step[s]]
        for i, row in enumerate(self.t):
            if (s := basis[i]) < m:
                row[0] += step[s] * rden[i] - sum(row[c] * x for c, x in moved)

    def reoptimize(self, objective: tuple[int, int] | None) -> list[int] | None:
        """Dual simplex: with sign * basis[i] maximal on the last constants
        (objective = (i, sign), so every sign * t[i][c] <= 0), pivot by
        Bland's rule until each basic variable is in range, and return None.
        The leaving row is the lowest variable's out of range, flipped first
        if above its width; the entering column has the least ratio
        -sign * t[i][c] / t[r][c] (0 with no objective), ties to the lowest
        variable.  An empty branch returns Farkas' y over the given rows: 1 on
        both rows of an empty range, or, from a negative row r with no
        positive entry, rden[r] at basis[r]'s row and -t[r][c] at each
        nonbasic slack's, as rden[r] * basis[r] - sum_c t[r][c] * cols[c] =
        t[r][0] < 0 for every x (a free column that could not enter is 0)."""
        m, t, basis, cols, width = self.m, self.t, self.basis, self.cols, self.width
        rden, y = self.rden, [0] * self.size
        for pair, w in zip(self.sides, width):
            if w is not None and w < 0:  # its two rows add up to w >= 0, which fails
                return [int(g in pair) for g in range(self.size)]
        i, sign = objective or (0, 0)
        slacks = [j for j in range(m) if basis[j] < m]  # pivots keep them slack rows
        while True:
            out = [j for j in slacks if t[j][0] < 0 or (
                width[basis[j]] is not None and t[j][0] > width[basis[j]] * rden[j])]
            if not out:
                return None
            r = min(out, key=basis.__getitem__)
            if t[r][0] >= 0:
                self.flip(basis[r])
            row, obj, best = t[r], t[i], None
            for c in range(1, len(cols)):
                if row[c] > 0 and cols[c] < m:
                    if best is not None:
                        lhs, rhs = -sign * obj[c] * row[best], -sign * obj[best] * row[c]
                        if lhs > rhs or (lhs == rhs and cols[c] > cols[best]):
                            continue
                    best = c
            if best is None:
                for v, x in [(basis[r], rden[r]), *zip(cols[1:], (-a for a in row[1:]))]:
                    if v < m:
                        y[self.sides[v][self.up[v]]] = x
                return y
            self.pivot(r, best)


def _pinned(level, rows, k: list[int], lows: list[Fraction | None]) -> bool:
    """Whether the minima pin the only point of P = {x : A x + k >= 0}: all
    are finite, and for a pair (g, h) of `level` (row g's a > 0, row h -a),
    k_g + k_h = 0 and a.lows = -k_g, so a point of P off lows has a.x > -k_g."""
    return None not in lows and any(k[g] + k[h] == 0 and -k[g] == sum(
        x * lo for x, lo in zip(rows[g], lows)) for g, h in level)


def _shared_bounds(
    rows: list[tuple[int, ...]], consts: list[list[int]], nvars: int
) -> list[tuple[list[tuple[Fraction | None, Fraction | None]] | None, list[int] | None]]:
    """The (min, max) of each of the nvars variables in every branch b of
    {x : A x + k_b >= 0}, whose branches share the integer coefficient rows A
    (`rows`, zero rows and repeats allowed) and differ in the constants k_b
    (`consts[b]`), from one `_Dictionary` built on branch 0's constants.

    The outer loop runs over the objectives, every minimum and then every
    maximum (none for the branches whose minima are `_pinned`), the inner one
    over the branches in serpentine order, so that each objective is walked
    to once, by `maximize`.  A branch switch shifts the constants, which
    keeps the basis dual feasible, and `reoptimize` restores the primal or
    proves the branch empty.  A done objective's row is zeroed, so pivots
    skip it; the maxima, where a branch needs them, start on a fresh
    dictionary.  An objective unbounded in one branch is so in every branch
    that is not empty (the recession cone {x : A x >= 0} is shared).
    Branches that no walk reached are loaded last, to decide if they are empty.

    Returns per branch (its (min, max) list, None), or (None, y) when it is
    empty: y the integer Farkas vector over its rows that `reoptimize` read
    off the walk, y >= 0, y^T A = 0 and y^T k_b < 0.  A None endpoint marks an
    unbounded direction.
    """
    d = _Dictionary(rows, consts[0], nvars)
    d.enter_free()
    level = [(g, h) for pair in d.sides if pair[1] is not None  # for `_pinned`
             for g, h in (pair, pair[::-1]) if all(x > 0 for x in rows[g])]
    m, t = d.m, d.t
    stuck = [c for c in range(1, len(d.cols)) if d.cols[c] >= m]
    ends = [[[None, None] for _ in range(nvars)] for _ in consts]
    order, pinned, seen = list(range(len(consts))), set(), {0}
    empty: dict[int, list[int]] = {}  # empty branch -> its Farkas vector
    loaded, obj = 0, None

    def load(b: int) -> bool:
        """Switch d to branch b; False when it is empty."""
        nonlocal loaded
        if b != loaded:
            d.shift([x - y for x, y in zip(consts[b], consts[loaded])])
            loaded = b
            seen.add(b)
            if (y := d.reoptimize(obj)) is not None:
                empty[b] = y
        return b not in empty

    if (y := d.reoptimize(None)) is not None:
        empty[0] = y
    for sign in (-1, 1):
        if sign > 0:
            pinned = {b for b in order if b not in empty and _pinned(
                level, rows, consts[b], [lo for lo, _ in ends[b]])}
            if any(b not in empty and b not in pinned for b in order):
                d = _Dictionary(rows, consts[loaded], nvars)
                d.enter_free()
                t, obj = d.t, None
                d.reoptimize(None)
        for v in range(nvars):
            i = d.basis.index(m + v) if m + v in d.basis else None
            if i is None or any(t[i][c] for c in stuck):
                continue  # it moves with a free variable that could not enter
            walked = False
            for b in order:
                if b in empty or b in pinned or not load(b):
                    continue
                if not walked:
                    if not d.maximize(i, sign):
                        obj = None  # unbounded in every branch that is not empty
                        break
                    obj, walked = (i, sign), True
                ends[b][v][sign > 0] = d.value(i, 0)
            else:
                order.reverse()
            t[i][:] = [0] * (nvars + 1)  # done: pivots skip a zero row, as ratios do
    for b in order:
        if b not in seen:
            load(b)
    return [(None, empty[b]) if b in empty else
            ([(lo, lo if b in pinned else hi) for lo, hi in e], None) for b, e in enumerate(ends)]


# -- the feasibility engine --------------------------------------------------------


class InfeasibleBranch:
    """A distribution of the proper powers whose rational relaxation is
    empty, with a Farkas certificate over the primitive integer rows of its
    constraints: a multiplier pair (mu >= 0, mu <= chi(1)) per (character,
    exponent) that has a nonzero one, and a pair for the sum of the partial
    augmentations (>= 1, <= 1).  The multipliers are >= 0 and in lowest
    terms, and the weighted rows add up to zero coefficients and a negative
    constant; they are read off the shared walk, so they depend on it."""

    def __init__(self, powers: dict[int, PartialAugmentationVector],
                 multipliers: dict[tuple[str, int], tuple[int, int]],
                 augmentation: tuple[int, int]):
        self.powers, self.multipliers, self.augmentation = powers, multipliers, augmentation


class FeasibilityResult:
    """status is "infeasible", "feasible", "unbounded" or "too-large"; reason
    says which limit an inconclusive search hit, and where."""

    def __init__(self, order: int, variables: list[str], status: str,
                 feasible: list[PartialAugmentationVector],
                 bounds: dict[str, tuple[int, int]] | None, congruences: list[Congruence],
                 certificates: list[InfeasibleBranch] | None = None, reason: str | None = None):
        self.order, self.variables, self.status, self.feasible = order, variables, status, feasible
        self.bounds, self.congruences, self.reason = bounds, congruences, reason
        self.certificates = [] if certificates is None else certificates


def _coherent_power_assignments(pools: dict[int, list[PartialAugmentationVector]]):
    """{d: u^d} over the proper divisors d, per choice of u^p from each prime's
    pool (lexicographic, p ascending): u^(p e) is read off u^p's tower, and
    every two primes must agree on each power that both reach."""
    primes = sorted(pools)
    for choice in itertools.product(*(pools[p] for p in primes)):
        assign = dict(zip(primes, choice))
        if all(assign.setdefault(p * e, sub) == sub
               for p, pa in zip(primes, choice) for e, sub in pa.powers.items()):
            yield dict(sorted(assign.items()))


def _search(slice_: CharacterTableSlice, n: int, chars: list[Character], exponents,
            results: dict[int, FeasibilityResult]) -> FeasibilityResult:
    """Feasible pa trees for a unit of order n, with the bounds of the last
    rationally feasible branch and a Farkas certificate per rationally
    infeasible branch.  A branch is a distribution of the proper powers.

    Only the orders n/p, p a prime below n, are searched, smallest first
    (u^d = (u^p)^(d/p) for a prime p | d), and `results` holds each order
    searched in this query, so each is searched once.  An empty sub-order
    ends the search; an inconclusive one speaks only when none is empty.

    n * mu(zeta^l, u, chi) = k + sum_C T_C e_C (`multiplicity_form`): T, the
    slice's `variable_traces` row, is the same in every branch, and only k
    (`_power_constants`) is per branch.  So one dictionary bounds every
    branch (`_shared_bounds`), on the distinct rows of `shape` (c21/21 has
    884, 90 distinct): each key's T and -T, and the augmentation pair, each
    at the least constant of the rows that have it.  A Farkas y over them
    weighs, per row, the branch's row that gave its constant (the first
    least) times that row's content gcd(T, k): a certificate over the
    branch's own primitive rows.

    The first branch with an unbounded variable, or with more than
    `CANDIDATE_CAP` integer candidates, ends the search inconclusive
    (`unbounded`, `too-large`), its reason naming the order and the limit.
    Otherwise the integer walk tests each distinct (k, T, n chi(1)) check
    once per candidate.
    """
    var_names = [c.name for c in slice_.variable_classes(n)]
    congs = congruence_constraints(slice_, n)
    res = FeasibilityResult(n, var_names, "infeasible", [], None, congs)
    if not var_names:
        return res

    pools, open_sub = {}, None  # prime p -> the feasible distributions of u^p
    for p in sorted((p for p in factorize(n) if p < n), reverse=True):  # n/p ascending
        if n // p not in results:
            results[n // p] = _search(slice_, n // p, chars, None, results)
        sub = results[n // p]
        if sub.reason is not None:
            open_sub = sub  # inconclusive; the least such prime speaks
        elif not sub.feasible:
            return res
        pools[p] = sub.feasible
    if open_sub is not None:
        res.status, res.reason = open_sub.status, open_sub.reason
        return res

    exps = list(range(n)) if exponents is None else [e % n for e in exponents]
    keys = list(dict.fromkeys((chi.name, l) for chi in chars for l in exps))
    coeffs = []  # per key: (character, exponent, T, gcd of T), branch-invariant
    for name, l in keys:
        chi = slice_.character(name)
        coeffs.append((chi, l, *slice_.variable_traces(chi, n, l)))
    nvars = len(var_names)
    # every branch's rows, as (A, gcd of A): n mu >= 0 and n mu <= n chi(1) per
    # key, then the augmentation pair sum e - 1 >= 0, <= 0
    neg = {row: tuple(-x for x in row) for row in dict.fromkeys(c[2] for c in coeffs)}
    shape = [(r, g) for _, _, row, g in coeffs for r in (row, neg[row])]
    shape += [((1,) * nvars, 1), ((-1,) * nvars, 1)]
    tops = [n * chi.degree for chi, *_ in coeffs]
    branches = list(_coherent_power_assignments(pools))
    if not branches:  # no choice of the u^p agrees on every shared power
        return res
    ks = [_power_constants(slice_, n, [(chi, l) for chi, l, _, _ in coeffs], assign)
          for assign in branches]  # per branch, the k of every key
    # the shared rows are the distinct A, each at the least k of the rows that have it
    sources: dict[tuple[int, ...], list[int]] = {}
    for i, (row, _) in enumerate(shape):
        sources.setdefault(row, []).append(i)
    full = [[c for k, top in zip(kb, tops) for c in (k, top - k)] + [-1, 1]
            for kb in ks]  # per branch, the k of every row of `shape`
    consts = [[min(map(kf.__getitem__, src)) for src in sources.values()] for kf in full]

    rows = list(sources)
    at = {row: i for i, row in enumerate(rows)}
    row_at = [at[row] for _, _, row, _ in coeffs]  # per key, its T's index in rows
    for assign, kb, kf, (ends, y) in zip(branches, ks, full, _shared_bounds(rows, consts, nvars)):
        if ends is None:  # empty: y weighs each shared row's pick in `shape`, and
            # row i is gcd(g, k) times its primitive row
            farkas = [0] * len(shape)
            for src, x in zip(sources.values(), y):
                i = min(src, key=kf.__getitem__)
                farkas[i] = x * math.gcd(shape[i][1], kf[i])
            g = math.gcd(*farkas)
            farkas = [x // g for x in farkas]
            pairs = dict(zip(keys, zip(farkas[0:-2:2], farkas[1:-2:2])))
            res.certificates.append(InfeasibleBranch(
                assign, {key: w for key, w in pairs.items() if any(w)}, tuple(farkas[-2:])))
            continue
        rel = dict(zip(var_names, ends))
        if any(lo is None or hi is None for lo, hi in ends):
            # refuse rather than truncate: a box cut short could miss a point
            # and make an unsound INFEASIBLE verdict
            return FeasibilityResult(
                n, var_names, "unbounded", [], None, congs,
                reason=f"order {n}: no supplied character bounds "
                + ", ".join(v for v, (lo, hi) in rel.items() if lo is None or hi is None))
        res.bounds = {v: (math.ceil(lo), math.floor(hi)) for v, (lo, hi) in rel.items()}
        # walk the augmentation hyperplane: the last variable is 1 - the others;
        # the walk wants 0 <= k + T.e <= n chi(1) and n | k + T.e per distinct check
        checks = [(k, rows[i], top) for k, i, top in dict.fromkeys(zip(kb, row_at, tops))]
        *ranges, last = (range(lo, hi + 1) for lo, hi in res.bounds.values())
        total = 1
        for r in ranges:
            total *= len(r)
            if total > CANDIDATE_CAP:
                return FeasibilityResult(
                    n, var_names, "too-large", [], None, congs,
                    reason=f"order {n}: more than {CANDIDATE_CAP} integer candidates to walk "
                    f"on the augmentation hyperplane (candidate cap {CANDIDATE_CAP})")
        for head in itertools.product(*ranges):
            tail = 1 - sum(head)
            if tail not in last:
                continue
            point = (*head, tail)
            env = dict(zip(var_names, point))
            if not all(c.satisfied(env) for c in congs):
                continue
            ok = True
            for k, row, top in checks:
                val = k + sum(c * x for c, x in zip(row, point))
                if val < 0 or val > top or val % n:
                    ok = False
                    break
            if ok:
                res.feasible.append(
                    PartialAugmentationVector(n, {k: v for k, v in env.items() if v}, assign)
                )
    res.status = "feasible" if res.feasible else "infeasible"
    return res


def feasible_partial_augmentations(slice_: CharacterTableSlice, n: int,
                                   characters: list[str] | None = None,
                                   exponents: list[int] | None = None) -> FeasibilityResult:
    """Exact feasible set of order-n partial augmentation vectors.
    characters restricts the multiplicity constraints at every order searched,
    the proper powers' included; exponents restricts them at order n only.
    Fewer constraints can only enlarge the feasible set, so an empty answer
    from a subset is a sound exclusion."""
    if n < 2:
        raise ValueError("unit order must be at least 2")
    # Cauchy: a prime dividing n and |G| is the order of some element of G.
    # The prime class orders are divided out of gcd(n, |G|) first, so only a
    # slice that lacks one of them needs a factorization.
    rest = math.gcd(n, slice_.group_order)
    for c in slice_.classes:
        if is_prime(c.order):
            while rest % c.order == 0:
                rest //= c.order
    if rest > 1:
        p = min(factorize(rest))
        raise ValueError(f"{p} divides the unit order {n} and the order of "
                         f"{slice_.group_name}, but the slice has no class of order {p}")
    chars = [slice_.character(c) for c in characters] if characters else slice_.characters
    if not chars:
        raise ValueError("at least one character is required")
    return _search(slice_, n, chars, exponents, {})


# -- published inequality rows ---------------------------------------------------


class InequalityRowsFixture:
    """A HeLP instance given directly by affine rows (constant + coeff*eps)/modulus
    in a single aggregated variable, as published, plus congruences on it."""

    def __init__(self, group: str, unit_order: int, variable: str, partner: str, modulus: int,
                 rows: tuple[tuple[int, int], ...],
                 congruences: tuple[tuple[int, int], ...]):  # (modulus, residue) on the variable
        self.group, self.unit_order, self.variable = group, unit_order, variable
        self.partner, self.modulus = partner, modulus
        self.rows, self.congruences = rows, congruences

    @classmethod
    def from_json(cls, doc: dict) -> "InequalityRowsFixture":
        congruences = tuple(tuple(want_list(c, int, "each congruence", 2))
                            for c in want_list(doc.get("congruences", []), list, "congruences"))
        if any(m < 1 for m, _ in congruences):
            raise ValueError(f"congruence moduli must be positive, got {congruences!r}")
        rows = tuple(tuple(want_list(r, int, "each row", 2))
                     for r in want_list(required(doc, "rows"), list, "rows"))
        if not (any(b > 0 for _, b in rows) and any(b < 0 for _, b in rows)):
            raise ValueError("rows must bound the variable on both sides: "
                             "they need a positive and a negative coefficient")
        return cls(
            group=want(required(doc, "group"), str, "group"),
            unit_order=want_positive(required(doc, "unit_order"), "unit_order"),
            variable=want(required(doc, "variable"), str, "variable"),
            partner=want(required(doc, "partner"), str, "partner"),
            modulus=want_positive(required(doc, "modulus"), "modulus"),
            rows=rows,
            congruences=congruences,
        )

    def rows_hold(self, e: int) -> tuple[bool, ...]:
        """Per row, whether (constant + coefficient * e) / modulus is a
        non-negative integer."""
        return tuple(
            v >= 0 and v % self.modulus == 0 for v in (c + k * e for c, k in self.rows)
        )

    def feasible_points(self) -> list[tuple[int, int]]:
        """All (eps, 1 - eps) satisfying every row and congruence.  Row
        non-negativity bounds eps in closed form: c + k eps >= 0 gives
        eps >= ceil(-c / k) for k > 0 and eps <= floor(c / -k) for k < 0
        (`from_json` requires both signs), and a row with k = 0 and c < 0
        leaves no point.  The congruences and the row divisibility leave one
        residue class, and only that class is walked.  Raises
        SearchComplexityError when it holds more than CANDIDATE_CAP
        candidates."""
        if any(k == 0 and c < 0 for c, k in self.rows):
            return []
        lo = max(-(c // k) for c, k in self.rows if k > 0)
        hi = min(c // -k for c, k in self.rows if k < 0)
        # every condition is a*eps = b (mod m); with eps = r + n*t so far, it
        # becomes a*n*t = b - a*r (mod m), which fixes t modulo m/g
        r, n = 0, 1
        conditions = [(1, res, m) for m, res in self.congruences]
        conditions += [(coeff, -const, self.modulus) for const, coeff in self.rows]
        for a, b, m in conditions:
            g = math.gcd(a * n, m)
            if (b - a * r) % g:
                return []
            step = m // g
            r += n * ((b - a * r) // g * pow(a * n // g, -1, step) % step)
            n *= step
        first = lo + (r - lo) % n
        candidates = (hi - first) // n + 1
        if candidates > CANDIDATE_CAP:
            raise SearchComplexityError(
                f"order {self.unit_order}: {candidates} candidates exceed cap {CANDIDATE_CAP}")
        return [(e, 1 - e) for e in range(first, hi + 1, n) if all(self.rows_hold(e))]
