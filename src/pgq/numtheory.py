"""Squarefree analysis of cyclotomic-polynomial values at primes.

The driving objects: F(X) = (X^2+1)(X^6-1), the product of the cyclotomic
polynomials Phi_k for k in {1,2,3,4,6}; rho(d), the number of residues a
mod d^2 with F(a) = 0 mod d^2; the Euler-product constant built from rho;
the census N(x) of primes p <= x whose F(p) has no square divisor q^2 with
q > 3; the logarithmic integral; the biggest-divisor-coprime-to-6 map; and
the order formulas plus squarefreeness verdicts for seven families of
groups of Lie type.

N(x) is computed by two independent routes, which must agree exactly:
trial-dividing each Phi_k(p) value, or sieving the residue classes cut out
by the roots of Phi_k mod q^2.  The sieve takes the roots of Phi_4 from the
least quadratic non-residue, which quadratic reciprocity finds without a
modular power, tries g = 2, 3, 5, ... for those of Phi_3 and Phi_6, and
drops composite class members with a bitmap of the odd primes.  Factoring
the full product F(p) prime by prime is their oracle in the tests and the
selftest.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import fsum, gcd, inf, isqrt, log, prod, sqrt

import numpy as np

from .schema import FrozenRecord

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981  # Sorenson-Webster bound


def _prime_array(n: int) -> np.ndarray:
    """All primes <= n as an int64 array, by an Eratosthenes sieve over a
    numpy bool array."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.flatnonzero(sieve).astype(np.int64, copy=False)


def primes_up_to(n: int) -> list[int]:
    """All primes <= n."""
    return _prime_array(n).tolist()


#: trial division bound of the factorizer
_TRIAL_LIMIT = 4096


@lru_cache(maxsize=1)
def _small_primes() -> list[int]:
    return primes_up_to(_TRIAL_LIMIT)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set, deterministic below ~3.3e24 (all
    intermediates in scope stay within 128 bits)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite n; deterministic parameter ladder so
    repeated runs are byte-identical."""
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Complete prime factorization of a non-negative integer (0 rejected)."""
    if n <= 0:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        d = _pollard_brent(m)
        stack.extend((d, m // d))
    return out


@lru_cache(maxsize=1024)  # bounded: unit orders, levels and spectra are user input
def divisors(n: int) -> tuple[int, ...]:
    """The positive divisors of n >= 1 in ascending order."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


class FactoredInteger(FrozenRecord):
    """A non-negative integer with its complete prime factorization."""

    __slots__ = ("value", "factors")

    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]):
        prod = 1
        for p, e in factors:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prod *= p**e
        if prod != value:
            raise ValueError("factorization does not multiply back to the value")
        super().__init__(value, factors)

    @classmethod
    def from_value(cls, n: int) -> "FactoredInteger":
        return cls(n, tuple(sorted(factorize(n).items())))

    def is_squarefree(self) -> bool:
        return all(e < 2 for _, e in self.factors)


def alpha(n: int) -> int:
    """Biggest divisor of n coprime to 6: strip every factor of 2 and 3."""
    if n < 1:
        raise ValueError("alpha is defined on positive integers")
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n


#: coefficient lists (constant first) of the degree <= 2 cyclotomics in play
_PHI_COEFFS = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1)}


def _horner(coeffs, x):
    """The polynomial with the given coefficients (constant first) at x:
    exact on a Python int, and int64 on an int64 array."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def cyclotomic_value(k: int, q: int) -> int:
    """Phi_k(q) for k in {1, 2, 3, 4, 6} and q >= 2."""
    if k not in _PHI_COEFFS:
        raise ValueError(f"only k in {{1,2,3,4,6}} is supported, got {k}")
    if q < 2:
        raise ValueError("q must be at least 2")
    return _horner(_PHI_COEFFS[k], q)


# -- square witnesses of many values at once ----------------------------------


def _isqrt_array(v: np.ndarray) -> np.ndarray:
    """Exact floor square roots of a non-negative int64 array."""
    # the float root is within one of the true root; uint64 keeps (r+1)^2
    # from overflowing when v is close to 2^63
    u = v.astype(np.uint64)
    r = np.sqrt(v.astype(np.float64)).astype(np.uint64)
    r -= r * r > u
    r += (r + 1) * (r + 1) <= u
    return r.astype(np.int64)


#: cells (primes x open entries) of one divisibility table of the witness kernel
_CELLS = 1 << 16


def _inverse_table(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For an int64 array of odd primes q: the primes, q^-1 mod 2^64 and
    floor((2^64-1)/q), the last two as uint64.  For a 64-bit v,
    v*q^-1 mod 2^64 <= floor((2^64-1)/q) exactly when q divides v, and then
    the product is v/q (Granlund and Montgomery, PLDI 1994; Warren,
    Hacker's Delight 10-17)."""
    q = primes.astype(np.uint64)
    inv = q.copy()  # q*q = 1 mod 8, so q is its own inverse to 3 bits
    for _ in range(5):  # each Newton step doubles the correct bits: 3 -> 96
        inv *= np.uint64(2) - q * inv
    return primes, inv, ~np.uint64(0) // q


def _witness_table(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inverse table of the odd primes <= b, the least b with b^3 > top:
    a cofactor <= top with no prime factor <= b has at most two."""
    b = round(top ** (1 / 3))
    while b**3 <= top:
        b += 1
    return _inverse_table(_prime_array(b)[1:])


def _strip_primes(v, col, wit, table, above: int):
    """Divide each odd prime q of the inverse table, in ascending order, out
    of the positive int64 cofactors v.  wit[col] takes the first prime >
    above that divides an entry at least twice.  Returns the entries that
    may still hold a square: when they leave, their column has no witness
    and their cofactor is at least the next prime squared.  An entry leaves
    early once its cofactor is below the next prime cubed (it then has at
    most two prime factors left).

    The test is exact division by an invariant integer (Granlund and
    Montgomery, PLDI 1994; Warren, Hacker's Delight 10-17): q divides v
    exactly when v*q^-1 mod 2^64 <= floor((2^64-1)/q), and the product is
    then v/q.  A chunk of primes is tested at once, in one uint64 table of
    about _CELLS cells (primes x open entries).  Each hit is stripped by
    multiplying by the inverse of its full prime power, which is exact, so
    no value is ever divided.  Row-major hits come in ascending prime order,
    so a column's first squared hit is its least one in the chunk."""
    q, inv, lim = table
    lo = np.searchsorted(q, above, side="right")  # the primes from q[lo] on are > above
    s, done_v, done_col = 0, [], []
    while s < q.size and v.size:
        n = v.size
        e = min(q.size, s + max(1, _CELLS // n))
        u = v.view(np.uint64)
        hit = np.flatnonzero(u * inv[s:e, None] <= lim[s:e, None])
        if hit.size:
            i, j = np.divmod(hit, n)
            i += s
            pw = inv[i]  # q^-e for the full power q^e of each hit
            quo = u[j] * pw  # v/q^e
            sq = quo * pw <= lim[i]
            more = np.flatnonzero(sq)
            while more.size:
                step = inv[i[more]]
                pw[more] *= step
                quo[more] *= step
                more = more[quo[more] * step <= lim[i[more]]]
            np.multiply.at(u, j, pw)
            sq &= i >= lo
            if sq.any():
                c, first = np.unique(col[j[sq]], return_index=True)
                w = q[i[sq][first]]
                new = wit[c] == 0
                wit[c[new]] = w[new]
        nxt = int(q[e]) if e < q.size else int(q[-1]) + 1
        open_ = (wit[col] == 0) & (v >= nxt * nxt)
        two = open_ & (v.view(np.uint64) < np.uint64(min(nxt**3, 2**64 - 1)))
        done_v.append(v[two])
        done_col.append(col[two])
        open_ &= ~two
        v, col = v[open_], col[open_]
        s = e
    return np.concatenate(done_v + [v]), np.concatenate(done_col + [col])


def _square_witnesses(values: np.ndarray, above: int, table) -> np.ndarray:
    """For each column of a 2-D array of positive int64 values, the smallest
    prime q > above whose square divides some entry of the column; 0 where
    there is none.  `table` is `_witness_table` of the largest value or of
    anything larger.

    The factor 2 goes by the lowest set bit.  The odd primes of the table
    are then stripped from the entries in one ascending pass of
    `_strip_primes`: q divides v exactly when v*q^-1 mod 2^64 <=
    floor((2^64-1)/q), one multiply and one compare per prime and entry.
    An entry stops at the cube root of its own cofactor, so every cofactor
    left is 1, a prime, a prime square or a product of two distinct primes;
    an exact square root tells which.  The first square the pass finds for
    a column and the square roots come in no common order, so a column's
    witness is the least of them.

    This is a value-factoring path: each value meets the trial primes up to
    its cofactor's cube root, and no root of a polynomial is computed.  The
    root sieve finds the same witnesses from roots mod q^2 and never
    divides a value, so the two stay independent and `--dual` compares
    them.
    """
    n = values.shape[1]
    wit = np.zeros(n, dtype=np.int64)
    v = values.reshape(-1)
    col = np.tile(np.arange(n), values.shape[0])
    if above < 2:
        wit[col[v & 3 == 0]] = 2
    v = v // (v & -v)
    v, col = _strip_primes(v, col, wit, table, above)
    r = _isqrt_array(v)
    square = (r * r == v) & (v > 1)  # a cofactor of 1 is no square of a prime
    none = np.iinfo(np.int64).max
    best = np.where(wit > 0, wit, none)
    np.minimum.at(best, col[square], r[square])
    return np.where(best < none, best, 0)


# -- rho and the Euler-product constant ---------------------------------------


_RHO_ENUM_CAP = 1450  # d^2 stays within comfortable int64 vectorized range


def rho(d: int) -> int:
    """Number of residues a mod d^2 with F(a) = 0 mod d^2: the product over
    the prime powers p^e of d of the count mod p^2e, by CRT.  A prime q > 3
    dividing d once counts the simple roots of the five cyclotomic factors
    mod q, each of which lifts uniquely mod q^2; any other prime power is
    enumerated."""
    if d < 1:
        raise ValueError("d must be positive")
    out = 1
    for p, e in sorted(factorize(d).items()):
        if e == 1 and p > 3:
            out *= _rho_prime_by_roots(p)
        else:
            pe = p**e
            if pe > _RHO_ENUM_CAP:
                raise ValueError(f"prime-power part {pe} too large to enumerate")
            out *= _rho_enumerate(pe)
    return out


def _rho_enumerate(d: int) -> int:
    """rho(d) by scanning all d^2 residues: the oracle of `rho`."""
    m = d * d
    a = np.arange(m, dtype=np.int64)
    a2 = (a * a) % m
    a6 = (a2 * a2 % m) * a2 % m
    f = ((a2 + 1) % m) * ((a6 - 1) % m) % m
    return int(np.count_nonzero(f == 0))


def _rho_prime_by_roots(q):
    """For q > 3 every root of F mod q is simple, so roots mod q^2 biject
    with roots mod q: one each from Phi_1, Phi_2, two from Phi_4 iff
    q = 1 mod 4, and two each from Phi_3 and Phi_6 iff q = 1 mod 3.  q may
    be an int or an int64 array of primes."""
    return 2 + 2 * (q % 4 == 1) + 4 * (q % 3 == 1)


def _euler_product(truncation: int) -> tuple[int, int]:
    """The numerator and denominator of prod (1 - rho(q)/phi(q^2)) over the
    primes 3 < q <= truncation, unreduced: each factor is (phi - rho)/phi
    with phi = q(q-1)."""
    q = _prime_array(truncation)[2:]
    phi = q * (q - 1)
    return prod((phi - _rho_prime_by_roots(q)).tolist()), prod(phi.tolist())


def constant_c(truncation: int) -> tuple[Fraction, float]:
    """Exact partial product of (1 - rho(q)/phi(q^2)) over primes 3 < q <= Q,
    with a float shadow; strictly positive and non-increasing in Q."""
    if truncation < 5:
        raise ValueError("truncation bound must be at least 5")
    exact = Fraction(*_euler_product(truncation))
    return exact, float(exact)


# -- the logarithmic integral ---------------------------------------------------


_EULER_GAMMA = 0.5772156649015329
_LI_AT_2 = 1.0451637801174927  # li(2)


def li(x: float) -> float:
    """Li(x) = li(x) - li(2), with li(x) from Ramanujan's series

        li(x) = gamma + log log x + sqrt(x) * sum_{n>=1} (-1)^(n-1) (log x)^n
                / (n! 2^(n-1)) * sum_{0<=k<=(n-1)/2} 1/(2k+1),

    summed until the terms stop mattering; accurate to about 1e-14 relative."""
    if not 2 <= x < inf:
        raise ValueError("Li is defined for finite x >= 2")
    if x == 2:
        return 0.0
    L = log(x)
    terms = []
    a, inner, n = -2.0, 0.0, 0  # a = (-1)^(n-1) L^n / (n! 2^(n-1))
    while True:
        n += 1
        a *= -L / (2 * n)
        if n % 2:
            inner += 1.0 / n
        terms.append(a * inner)
        if n > L and abs(terms[-1]) < 1e-18 * abs(terms[0]):
            break
    return _EULER_GAMMA + log(L) + sqrt(x) * fsum(terms) - _LI_AT_2


def li_series(x: float) -> float:
    """Independent oracle: Li(x) from the power series of li with gamma
    cancelled, summed in 50-digit decimal arithmetic,

        Li(x) = log log x - log log 2 + sum_{k>=1} ((log x)^k - (log 2)^k) / (k k!)."""
    from decimal import Decimal, localcontext

    if not 2 <= x < inf:
        raise ValueError("Li is defined for finite x >= 2")
    with localcontext() as ctx:
        ctx.prec = 50
        L, L2 = Decimal(x).ln(), Decimal(2).ln()
        total = L.ln() - L2.ln()
        a = b = Decimal(1)  # (log x)^k / k! and (log 2)^k / k!
        k = 0
        while True:
            k += 1
            a, b = a * L / k, b * L2 / k
            term = (a - b) / k
            total += term
            if k > L and term <= total * Decimal("1e-45"):
                return float(total)


# -- the census N(x) -------------------------------------------------------------


#: condition name -> (polynomial indices, witness threshold: ignore q <= threshold)
CONDITIONS = {
    "thm51": ((1, 2, 3, 4, 6), 3),
    "cor13": ((3, 4, 6), 1),
}


#: the largest x with x^2+x+1 < 2^63, so every census value fits in int64
CENSUS_MAX_BOUND = 3_037_000_499


class SieveResult:
    """A census: the primes p <= x in ascending order and, for each, the
    smallest witness q (q^2 divides a value of the condition's polynomials),
    both as int64 arrays; witness 0 means p qualifies."""

    def __init__(self, x: int, condition: str, method: str, count: int, total_primes: int,
                 primes: np.ndarray, witness: np.ndarray):
        self.x, self.condition, self.method, self.count = x, condition, method, count
        self.total_primes, self.primes, self.witness = total_primes, primes, witness

    def agrees_with(self, other: "SieveResult") -> bool:
        """Whether both censuses list the same primes with the same witnesses."""
        return bool(np.array_equal(self.primes, other.primes)
                    and np.array_equal(self.witness, other.witness))

    def blocks(self):
        """(primes, witnesses) as lists of Python ints, _BLOCK primes at a time."""
        for s in range(0, self.primes.size, _BLOCK):
            yield self.primes[s:s + _BLOCK].tolist(), self.witness[s:s + _BLOCK].tolist()

    @property
    def rows(self) -> list[tuple[int, bool, int | None]]:
        """One (p, qualifies, smallest witness q or None) per prime, built on demand."""
        return [(p, not w, w or None) for ps, ws in self.blocks() for p, w in zip(ps, ws)]

    @property
    def ratio(self) -> float:
        return self.count / self.total_primes if self.total_primes else 0.0

    def summary(self) -> dict:
        li_x = li(self.x) if self.x >= 2 else 0.0
        # int / int rounds correctly, so this is float(constant_c(10_000)[0])
        # without reducing a 28,546-bit fraction
        num, den = _euler_product(10_000)
        return {
            "x": self.x,
            "condition": self.condition,
            "method": self.method,
            "count": self.count,
            "total_primes": self.total_primes,
            "ratio": self.ratio,
            "li_x": li_x,
            "count_over_li": self.count / li_x if li_x else None,
            "c_truncated": num / den,
        }


#: primes per array pass of the census; bounds the size of the temporaries
_BLOCK = 1 << 13
#: primes per block of phi-factor: the witness kernel's table, not the block,
#: sets the number of numpy passes, so a smaller block only holds less at once
_FACTOR_BLOCK = 1 << 12


def _count_phi_factor(x: int, ks, above: int) -> tuple[np.ndarray, np.ndarray]:
    P = _prime_array(x)
    wit = np.zeros_like(P)
    table = _witness_table(max(_horner(_PHI_COEFFS[k], x) for k in ks))
    for s in range(0, P.size, _FACTOR_BLOCK):
        block = P[s:s + _FACTOR_BLOCK]
        values = np.stack([_horner(_PHI_COEFFS[k], block) for k in ks])
        wit[s:s + _FACTOR_BLOCK] = _square_witnesses(values, above, table)
    return P, wit


def _powmod(g, e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """g^e mod m elementwise for g >= 0 (an int or an int64 array), e >= 0
    and m >= 1; m^2 must stay below 2^63."""
    out = 1 % m
    b = g % m
    for bit in range(int(e.max(initial=0)).bit_length()):
        out = np.where((e >> bit) & 1 == 1, out * b % m, out)
        b = b * b % m
    return out


def _next_prime(g: int) -> int:
    g += 1
    while not is_prime(g):
        g += 1
    return g


def _least_non_residue(Q: np.ndarray) -> np.ndarray:
    """The least quadratic non-residue mod each prime q = 1 mod 4 of Q, which
    is a prime c.  By quadratic reciprocity, (c/q) = (q/c) for odd c as
    q = 1 mod 4, and (2/q) = -1 iff q = 5 mod 8 (Crandall and Pomerance,
    Prime Numbers, 2.3): so c = 2 when q = 5 mod 8, and otherwise the least
    odd prime c for which q mod c is no square mod c."""
    out = np.where(Q % 8 == 5, 2, 0)
    todo = np.flatnonzero(out == 0)
    c = 3
    while todo.size:
        square = np.zeros(c, dtype=bool)
        square[np.arange(c) ** 2 % c] = True
        non = ~square[Q[todo] % c]
        out[todo[non]] = c
        todo = todo[~non]
        c = _next_prime(c)
    return out


def _root_of_unity(Q: np.ndarray, n: int) -> np.ndarray:
    """A primitive n-th root of unity mod each prime q of Q, for n in {3, 4}
    dividing q - 1: g^((q-1)/n) for the least g that gives one, that is a
    quadratic non-residue for n = 4 and a cubic one for n = 3.  The
    quadratic one comes from `_least_non_residue`; the cubic one is found
    by trying g = 2, 3, 5, ... on the primes still open."""
    if n == 4:
        return _powmod(_least_non_residue(Q), (Q - 1) // 4, Q)
    out = np.zeros_like(Q)
    todo = np.arange(Q.size)
    g = 2
    while todo.size:
        q = Q[todo]
        z = _powmod(g, (q - 1) // 3, q)
        primitive = z != 1  # z^3 = 1, so z has order 3 unless z = 1
        out[todo[primitive]] = z[primitive]
        todo = todo[~primitive]
        g = _next_prime(g)  # the least cubic non-residue is a prime
    return out


def _lifted_roots(ks, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (q, r), q in the primes Q > 3, with Phi_k(r) = 0 mod q^2 for a
    k of ks.

    Phi_1 and Phi_2 have the roots 1 and q^2 - 1.  The roots mod q of the
    other three are roots of unity: +-i for Phi_4 when q = 1 mod 4, w and
    w^2 for Phi_3 and -w and -w^2 for Phi_6 when q = 1 mod 3, so the cube
    roots w are found once for both.  Each root is simple, so one Newton
    step lifts it uniquely to q^2; every product stays below q^2."""
    qs, rs = [], []
    unity = {}  # n -> (the q = 1 mod n, a primitive n-th root of unity mod each)
    for k in ks:
        if k in (1, 2):
            qs.append(Q)
            rs.append(np.ones_like(Q) if k == 1 else Q * Q - 1)
            continue
        n = 4 if k == 4 else 3
        if n not in unity:
            q = Q[Q % n == 1]
            unity[n] = q, _root_of_unity(q, n)
        q, z = unity[n]
        if k == 4:
            r = np.concatenate((z, q - z))
        else:
            z2 = z * z % q
            r = np.concatenate((z, z2) if k == 3 else (q - z, q - z2))
        q = np.concatenate((q, q))
        # Phi_k = X^2 + bX + 1, so the slope s = 2r + b has s^2 = b^2 - 4 = -n
        # mod q and 1/s = -s/n; as q = 1 mod n, 1/n = (1 + (n-1)q)/n.  The step
        # r -> r - Phi_k(r)/s adds q*t with t = (Phi_k(r)/q) * s/n mod q.
        b = _PHI_COEFFS[k][1]
        slope = (2 * r + b) % q
        t = _horner(_PHI_COEFFS[k], r) // q * slope % q * ((1 + (n - 1) * q) // n) % q
        qs.append(q)
        rs.append(r + q * t)
    return np.concatenate(qs), np.concatenate(rs)


def phi_roots_mod_q2(k: int, q: int) -> list[int]:
    """Roots of Phi_k mod q^2 for a prime q.  For q > 3 every root mod q is
    simple and lifts uniquely; for q in {2, 3} the residues are scanned
    directly."""
    if k not in _PHI_COEFFS:
        raise ValueError(f"unsupported index {k}")
    if q > CENSUS_MAX_BOUND:
        raise ValueError(f"q = {q} is above {CENSUS_MAX_BOUND}: q^2 must fit in 64 bits")
    m = q * q
    if q <= 3:
        return [a for a in range(m) if _horner(_PHI_COEFFS[k], a) % m == 0]
    return sorted(_lifted_roots((k,), np.array([q], dtype=np.int64))[1].tolist())


def _odd_prime_bits(P: np.ndarray, x: int) -> np.ndarray:
    """The primes P <= x as a packed bitmap of the odd numbers, x/16 bytes:
    bit i (little-endian bit order) is set iff 2i+1 is in P."""
    odd = np.zeros((x + 1) // 2 + 1, dtype=bool)
    odd[P[1:] >> 1] = True
    return np.packbits(odd, bitorder="little")


def _in_primes(bits: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Whether each entry of h, 0 <= h <= x + 1, is a prime <= x, read from
    the bitmap `_odd_prime_bits(P, x)`."""
    i = h >> 1
    odd_prime = (bits[i >> 3] >> (i & 7).astype(np.uint8)) & 1 == 1
    return (odd_prime & (h & 1 == 1)) | (h == 2)


def _mark(P: np.ndarray, bits: np.ndarray, best: np.ndarray, q: np.ndarray,
          hits: np.ndarray) -> None:
    """best[j] = min(best[j], q[i]) for every prime P[j] = hits[i]; `bits` is
    `_odd_prime_bits` of P, which drops the composite hits before the
    search in P."""
    prime = _in_primes(bits, hits)
    np.minimum.at(best, np.searchsorted(P, hits[prime]), q[prime])


def _count_root_sieve(x: int, ks, above: int) -> tuple[np.ndarray, np.ndarray]:
    P = _prime_array(x)
    bits = _odd_prime_bits(P, x)
    none = np.iinfo(np.int64).max
    best = np.full(P.size, none)
    tiny = [(q, r) for q in (2, 3) if q > above for k in ks for r in phi_roots_mod_q2(k, q)]
    qs = [np.array([q for q, _ in tiny], dtype=np.int64)]
    rs = [np.array([r for _, r in tiny], dtype=np.int64)]
    # a witness q > 3 squares into one value, so q^2 <= p^2+p+1 <= x^2+x+1;
    # isqrt(x^2+x+1) == x, so every such q is in P
    Q = P[np.searchsorted(P, max(above, 3), side="right"):]
    for s in range(0, Q.size, _BLOCK):
        q, r = _lifted_roots(ks, Q[s:s + _BLOCK])
        small = q * q <= x
        qs.append(q[small])
        rs.append(r[small])
        # for q^2 > x the class of a root r holds one candidate p = r at most
        large = ~small & (r <= x)
        _mark(P, bits, best, q[large], r[large])
    # the classes r + k q^2 <= x of all the small pairs, as one run of
    # candidates cut into _BLOCK-sized calls; r < q^2, so no count is below 0
    q, r = np.concatenate(qs), np.concatenate(rs)
    m = q * q
    counts = (x - r) // m + 1
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if ends.size else 0
    for s in range(0, total, _BLOCK):
        k = np.arange(s, min(total, s + _BLOCK))
        i = np.searchsorted(ends, k, side="right")
        _mark(P, bits, best, q[i], r[i] + m[i] * (k - starts[i]))
    best[best == none] = 0
    return P, best


def count_N(x: int, condition: str = "thm51", method: str = "phi-factor") -> SieveResult:
    """Census of primes p <= x whose polynomial values pass the squarefree
    condition, with each prime's smallest witness in an int64 array.

    Methods: 'phi-factor' trial-divides each cyclotomic value for square
    factors; 'root-sieve' marks residue classes from polynomial roots mod
    q^2 without ever factoring.  The two must agree prime by prime, and
    with the tests' oracle that factors the whole product F(p) prime by
    prime.  Python tuples are built only when `SieveResult.rows` is read.
    Bounds above CENSUS_MAX_BOUND are refused.
    """
    if x < 2:
        raise ValueError("bound must be at least 2")
    if x > CENSUS_MAX_BOUND:
        raise ValueError(f"bound {x} is above {CENSUS_MAX_BOUND}: the census computes "
                         f"p^2+p+1 in 64-bit integers")
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    ks, above = CONDITIONS[condition]
    if method == "phi-factor":
        primes, witness = _count_phi_factor(x, ks, above)
    elif method == "root-sieve":
        primes, witness = _count_root_sieve(x, ks, above)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SieveResult(
        x=x,
        condition=condition,
        method=method,
        count=int(np.count_nonzero(witness == 0)),
        total_primes=int(primes.size),
        primes=primes,
        witness=witness,
    )


# -- Lie-type series ---------------------------------------------------------------


#: family -> (tested, N, {k: e_k}, (m, ks)).  `tested` holds the cyclotomic
#: indices whose product at q must have squarefree alpha; the group order is
#: q^N prod_k Phi_k(q)^e_k / gcd(m, prod_{k in ks} Phi_k(q))  (Carter,
#: Simple Groups of Lie Type, ch. 9 and 14).
LIE_SERIES = {
    "PSL4": ((3, 4), 6, {1: 3, 2: 2, 3: 1, 4: 1}, (4, (1,))),
    "PSU4": ((4, 6), 6, {1: 2, 2: 3, 4: 1, 6: 1}, (4, (2,))),
    "PSp4": ((4,), 4, {1: 2, 2: 2, 4: 1}, (2, (1,))),
    "PSp6": ((3, 6), 9, {1: 3, 2: 3, 3: 1, 4: 1, 6: 1}, (2, (1,))),
    "POmega7": ((3, 6), 9, {1: 3, 2: 3, 3: 1, 4: 1, 6: 1}, (2, (2,))),
    "POmega8plus": ((3, 6), 12, {1: 4, 2: 4, 3: 1, 4: 2, 6: 1}, (4, (1, 2, 4))),
    "G2": ((3, 6), 6, {1: 2, 2: 2, 3: 1, 6: 1}, (1, ())),
}

LIE_FAMILIES = tuple(LIE_SERIES)

_PHI_LABELS = {1: "q-1", 2: "q+1", 3: "q^2+q+1", 4: "q^2+1", 6: "q^2-q+1"}


class LieSeriesSpec(FrozenRecord):
    __slots__ = ("family", "p", "f")

    def __init__(self, family: str, p: int, f: int):
        if family not in LIE_FAMILIES:
            raise ValueError(f"unknown family {family!r}; choose from {LIE_FAMILIES}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if f < 1:
            raise ValueError("field exponent must be at least 1")
        super().__init__(family, p, f)

    @property
    def q(self) -> int:
        return self.p**self.f


class LieVerdict:
    def __init__(self, spec: LieSeriesSpec, settled: bool, c: int, poly_value: int,
                 alpha_of_poly: int, conditions: dict[str, bool],
                 tested: dict[str, FactoredInteger]):
        self.spec, self.settled, self.c, self.poly_value = spec, settled, c, poly_value
        self.alpha_of_poly, self.conditions, self.tested = alpha_of_poly, conditions, tested

    def to_json(self) -> dict:
        return {
            "family": self.spec.family,
            "q": self.spec.q,
            "settled": self.settled,
            "c": self.c,
            "poly_value": self.poly_value,
            "alpha_of_poly": self.alpha_of_poly,
            "conditions": self.conditions,
            "tested": {k: {str(p): e for p, e in v.factors} for k, v in self.tested.items()},
        }


def lie_series_verdict(spec: LieSeriesSpec) -> LieVerdict:
    """Squarefreeness/coprimality verdict: with c = alpha(f), the family is
    settled when c is squarefree and coprime to the family's cyclotomic
    product at q, and alpha of that product is squarefree."""
    q = spec.q
    c = alpha(spec.f)
    poly = prod(cyclotomic_value(k, q) for k in LIE_SERIES[spec.family][0])
    a = alpha(poly)
    fc = FactoredInteger.from_value(c)
    fa = FactoredInteger.from_value(a)
    conditions = {
        "c_squarefree": fc.is_squarefree(),
        "c_coprime_to_poly": gcd(c, poly) == 1,
        "alpha_poly_squarefree": fa.is_squarefree(),
    }
    return LieVerdict(
        spec=spec,
        settled=all(conditions.values()),
        c=c,
        poly_value=poly,
        alpha_of_poly=a,
        conditions=conditions,
        tested={"c": fc, "alpha_of_poly": fa},
    )


def lie_order(spec: LieSeriesSpec) -> tuple[FactoredInteger, list[tuple[str, int]]]:
    """Exact group order from the family's LIE_SERIES row, with the cyclotomic
    breakdown (q^N first, then Phi_k by index) beside the prime factorization."""
    q = spec.q
    _, n, powers, (m, ks) = LIE_SERIES[spec.family]
    parts = [(f"q^{n}", q**n)]
    for k, e in powers.items():
        label = _PHI_LABELS[k] if e == 1 else f"({_PHI_LABELS[k]})^{e}"
        parts.append((label, cyclotomic_value(k, q) ** e))
    d = gcd(m, prod(cyclotomic_value(k, q) for k in ks))
    raw = prod(v for _, v in parts)
    if raw % d:
        raise ArithmeticError("order formula did not divide evenly; formula data corrupt")
    return FactoredInteger.from_value(raw // d), parts
