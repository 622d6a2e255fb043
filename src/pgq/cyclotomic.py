"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is a finite rational combination sum_a c_a * zeta_n^a at a level
n (the field Q(zeta_n) the element is considered to live in; always written
after '@' in the textual form), stored sparsely as integer numerators over
one denominator: a map exponent -> int and den >= 1 with gcd(den, *coeffs)
= 1, so zero is {} over 1.  Fractions appear only where coefficients come in
and where rational values go out.  Mixed-level arithmetic lifts both
operands to the lcm of their levels; levels are never reduced.

Canonical form: write n = prod_p P with P = p^v the p-part.  Under the
tensor decomposition Q(zeta_n) = tensor_p Q(zeta_P) the exponent a has
p-coordinate e_p(a) = a * (n/P)^-1 mod P, and the products of power-basis
monomials zeta_P^i with 0 <= i < phi(P) form a Q-basis.  Any term whose
p-coordinate lands outside that range is rewritten once per prime via
sum_{j=0..p-1} zeta_P^{i + j*P/p} = 0, which leaves all other coordinates
untouched.  Equality and zero-testing read off the reduced support.

For d | n the basis of Q(zeta_d) lifts, by a -> a * n/d, onto the basis
exponents of Q(zeta_n) that are multiples of n/d (Breuer, "Integral bases
for subfields of cyclotomic fields", AAECC 8, 1997): each p-coordinate is
only scaled by P/p^w, with p^w the p-part of d.  So a lifted canonical
element is canonical, and an element lies in Q(zeta_d) iff its support does.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .numtheory import divisors, factorize
from .schema import required, want, want_int, want_positive


@lru_cache(maxsize=1024)  # bounded, as every cache keyed by a level: levels are user input
def factorint(n: int) -> tuple[tuple[int, int], ...]:
    """A level's prime factorization in ascending primes, by numtheory's factorizer."""
    return tuple(sorted(factorize(n).items()))


@lru_cache(maxsize=1024)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorint(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


@lru_cache(maxsize=1024)
def moebius(n: int) -> int:
    mu = 1
    for _, e in factorint(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


@lru_cache(maxsize=1024)
def _root_traces(n: int) -> dict[int, int]:
    """Tr_{Q(zeta_n)/Q}(zeta_n^a) keyed by g = gcd(a, n), one entry per
    divisor g of n: the Ramanujan sums mu(n/g) * phi(n) / phi(n/g)."""
    phi_n = euler_phi(n)
    return {g: moebius(n // g) * (phi_n // euler_phi(n // g)) for g in divisors(n)}


def _ratio(c) -> tuple[int, int]:
    """An int or Fraction coefficient as (numerator, denominator)."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    raise TypeError(f"coefficient must be an int or Fraction, got {type(c).__name__}")


@lru_cache(maxsize=1024)
def _reduction_data(n: int):
    """Per-prime rewrite data for level n: (p, P, phiP, step, modulus_shift)."""
    data = []
    for p, e in factorint(n):
        P = p ** e
        m = n // P
        inv = pow(m, -1, P)
        data.append((p, P, P - P // p, P // p, m, inv))
    return data


#: the most terms one rewrite may make: a term whose coordinate at a prime p
#: leaves the basis becomes p - 1 terms, so a larger p is refused as input
MAX_REWRITE_TERMS = 1 << 16


def _canonicalize(n: int, coeffs: dict[int, int]) -> dict[int, int]:
    """The nonzero coefficients of sum c_a zeta_n^a in the basis of the
    module docstring (Zumbroich's basis, as in Breuer, AAECC 8, 1997)."""
    cur: dict[int, int] = {}
    for a, c in coeffs.items():
        if c:
            a %= n
            cur[a] = cur.get(a, 0) + c
    for p, P, phiP, step, m, inv in _reduction_data(n):
        nxt: dict[int, int] = {}
        for a, c in cur.items():
            if not c:
                continue
            e = (a * inv) % P
            if e < phiP:
                nxt[a] = nxt.get(a, 0) + c
            else:
                if p - 1 > MAX_REWRITE_TERMS:
                    raise ValueError(f"level {n}: zeta_{n}^{a} rewrites to {p - 1} terms at "
                                     f"the prime {p}, over the limit of {MAX_REWRITE_TERMS}")
                r = e - phiP
                for j in range(p - 1):
                    a2 = (a + (r + j * step - e) * m) % n
                    nxt[a2] = nxt.get(a2, 0) - c
        cur = nxt
    return {a: c for a, c in cur.items() if c}


class CyclotomicElement:
    """An exact element sum coeffs[a] * zeta_n^a / den of Q(zeta_n), kept in
    canonical form."""

    __slots__ = ("n", "coeffs", "den")
    __hash__ = None  # equality crosses levels; values are meant for dicts' values, not keys

    def __init__(self, n: int, coeffs: dict[int, int], den: int = 1, _canonical: bool = False):
        if n < 1:
            raise ValueError(f"level must be a positive integer, got {n}")
        if not _canonical:
            coeffs = _canonicalize(n, coeffs)
        g = gcd(den, *coeffs.values())
        if g != 1:
            coeffs = {a: c // g for a, c in coeffs.items()}
            den //= g
        self.n, self.coeffs, self.den = n, coeffs, den

    # -- constructors -------------------------------------------------

    @classmethod
    def make(cls, n: int, terms) -> "CyclotomicElement":
        """Build sum c * zeta_n^a from (exponent, coefficient) pairs."""
        terms = [(a, *_ratio(c)) for a, c in terms]
        den = lcm(*(d for _, _, d in terms))
        coeffs: dict[int, int] = {}
        for a, num, d in terms:
            coeffs[a] = coeffs.get(a, 0) + num * (den // d)
        return cls(n, coeffs, den)

    @classmethod
    def rational(cls, c, n: int = 1) -> "CyclotomicElement":
        num, den = _ratio(c)
        return cls(n, {0: num}, den)

    # -- level handling ------------------------------------------------

    def lift(self, m: int) -> "CyclotomicElement":
        """Re-express at level m (self.n must divide m): zeta_n = zeta_m^(m/n)."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot lift level {self.n} to non-multiple {m}")
        s = m // self.n
        return CyclotomicElement(m, {a * s: c for a, c in self.coeffs.items()}, self.den,
                                 _canonical=True)

    @staticmethod
    def _common(x: "CyclotomicElement", y: "CyclotomicElement"):
        m = lcm(x.n, y.n)
        return x.lift(m), y.lift(m)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self._common(self, other)
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        coeffs = {k: c * sa for k, c in a.coeffs.items()}
        for k, c in b.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c * sb
        return CyclotomicElement(a.n, coeffs, den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return CyclotomicElement(self.n, {a: -c for a, c in self.coeffs.items()}, self.den,
                                 _canonical=True)

    def __sub__(self, other):
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return CyclotomicElement(
                self.n, {a: c * num for a, c in self.coeffs.items()} if num else {},
                self.den * den, _canonical=True)
        a, b = self._common(self, self._coerce(other))
        coeffs: dict[int, int] = {}
        for i, ci in a.coeffs.items():
            for j, cj in b.coeffs.items():
                k = (i + j) % a.n
                coeffs[k] = coeffs.get(k, 0) + ci * cj
        return CyclotomicElement(a.n, coeffs, a.den * b.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, CyclotomicElement):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.rational(x)
        raise TypeError(f"cannot mix CyclotomicElement with {type(x).__name__}")

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(self, other)
        return a.den == b.den and a.coeffs == b.coeffs

    def __repr__(self):
        return f"CyclotomicElement({self.to_string()!r})"

    # -- predicates and extraction --------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def to_rational(self) -> Fraction:
        if self.is_rational():
            return Fraction(self.coeffs.get(0, 0), self.den)
        raise ValueError(f"{self.to_string()} is not rational")

    # -- Galois action and traces ---------------------------------------

    def galois(self, k: int) -> "CyclotomicElement":
        """Apply zeta_n -> zeta_n^k; k must be invertible mod the level."""
        if gcd(k, self.n) != 1:
            raise ValueError(f"galois exponent {k} is not coprime to level {self.n}")
        return CyclotomicElement(self.n, {(a * k) % self.n: c for a, c in self.coeffs.items()},
                                 self.den)

    def trace_via_galois_sum(self) -> Fraction:
        """Independent trace path: literally sum the Galois conjugates."""
        acc = CyclotomicElement(self.n, {})
        for k in range(1, self.n + 1):
            if gcd(k, self.n) == 1:
                acc = acc + self.galois(k)
        return acc.to_rational()

    def trace_row(self, r: int) -> list[int | Fraction]:
        """[Tr_{Q(zeta_r)/Q}(self * zeta_r^-l) for l in range(r)], each value
        an int where it is integral; entry 0 of row r is the trace over
        Q(zeta_r) of a value that lies there, and of row self.n the trace to Q.

        The trace is taken at the joint level L and rescaled by phi(r)/phi(L);
        each term c_a * zeta_L^k of the product traces by the closed form
        Tr(zeta_L^k) = mu(L/g) * phi(L) / phi(L/g) with g = gcd(k, L), so
        nothing is multiplied or canonicalized.  The independent Galois-sum
        path is `trace_via_galois_sum`.
        """
        L = lcm(self.n, r)
        traces = _root_traces(L)
        lift, step = L // self.n, L // r
        terms = [(a * lift, c) for a, c in self.coeffs.items()]
        scale, den = euler_phi(r), self.den * euler_phi(L)
        row = []
        for shift in range(0, L, step):
            total = scale * sum(c * traces[gcd(a - shift, L)] for a, c in terms)
            q, rem = divmod(total, den)
            row.append(Fraction(total, den) if rem else q)
        return row

    def fixed_by(self, m: int) -> bool:
        """True iff the value lies in Q(zeta_m), that is in Q(zeta_g) with
        g = gcd(n, m): iff its support is lifted from level g (module
        docstring), so every exponent is a multiple of n/g."""
        s = self.n // gcd(self.n, m)
        return all(a % s == 0 for a in self.coeffs)

    # -- float shadow ----------------------------------------------------

    def complex_value(self) -> complex:
        return sum(
            (c * cmath.exp(2j * cmath.pi * a / self.n) for a, c in self.coeffs.items()),
            complex(0),
        ) / self.den

    # -- serialization -----------------------------------------------------

    def to_string(self) -> str:
        """Textual form 'c0 + c1*z^1 + ... @ n' with exact fractions."""
        if not self.coeffs:
            return f"0 @ {self.n}"
        parts = []
        for a in sorted(self.coeffs):
            c = Fraction(self.coeffs[a], self.den)
            parts.append(str(c) if a == 0 else f"{c}*z^{a}")
        return " + ".join(parts) + f" @ {self.n}"

    def to_json_map(self) -> dict:
        return {"n": self.n, "coeffs": {str(a): str(Fraction(c, self.den))
                                        for a, c in sorted(self.coeffs.items())}}


_TERM_RE = re.compile(r"^(?P<c>[+-]?\d+(?:/\d+)?)(?:\*z\^(?P<a>\d+))?$")


def _coefficient(c: str, text) -> Fraction:
    """A written coefficient of the cyclotomic number `text` as a Fraction."""
    try:
        return Fraction(c)
    except ZeroDivisionError:
        raise ValueError(
            f"cyclotomic coefficient {c!r} in {text!r} has a zero denominator") from None


def parse_cyclotomic(text) -> CyclotomicElement:
    """Parse the textual 'c0 + c1*z^1 + ... @ n' form or a JSON coeff map.

    A bare rational like '-2' or '1/3', or a JSON integer, is the constant
    at level 1; true and false are no integers here.
    """
    if isinstance(text, dict):
        n = want_positive(required(text, "n"), "cyclotomic level n")
        terms = [(want_int(a, "cyclotomic exponent"),
                  _coefficient(want(c, str, "cyclotomic coefficient"), text))
                 for a, c in want(required(text, "coeffs"), dict, "cyclotomic coeffs").items()]
        return CyclotomicElement.make(n, terms)
    if isinstance(text, int) and not isinstance(text, bool):
        return CyclotomicElement.rational(text)
    if not isinstance(text, str):
        raise ValueError(f"a cyclotomic number must be a string, an integer or an object, "
                         f"got {text!r}")
    s = text.strip()
    if "@" in s:
        body, level = s.rsplit("@", 1)
        n = want_int(level.strip(), "cyclotomic level")
    else:
        body, n = s, 1
    body = body.strip()
    if body in ("", "0"):
        return CyclotomicElement(n, {})
    terms = []
    for tok in body.replace("- ", "+ -").split("+"):
        tok = tok.strip().replace(" ", "")
        if not tok:
            continue
        m = _TERM_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse cyclotomic term {tok!r} in {text!r}")
        a = int(m.group("a") or 0)
        terms.append((a, _coefficient(m.group("c"), text)))
    return CyclotomicElement.make(n, terms)


def zeta(n: int, k: int = 1) -> CyclotomicElement:
    """zeta_n^k at level n."""
    return CyclotomicElement(n, {k % n: 1})
