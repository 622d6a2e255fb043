"""Regenerate perfbench/known_answers.json.

The census and Lie sections are computed here and stored only where two
independent paths agree: census counts must match between the `phi-factor`
and `root-sieve` methods, and Lie verdicts must match between
`pgq.numtheory.lie_series_verdict` and the trial-division check below.  The
help, verdict and tableaux sections are published or proven answers, copied
with their sources.

Run from the repository root (takes about a minute):

    python3 perfbench/make_answers.py
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (perfbench/ is on sys.path as the script directory)
from pgq import numtheory  # noqa: E402

STATIC = {
    "help": {
        "source": "pgq selftest, tests/test_acceptance.py, and Higman's theorem "
        "(a torsion unit of Z[A], A abelian, is trivial up to sign)",
        "thompson_35": {"status": "infeasible", "bounds_5a": [-8, 2]},
        "onan_21": {"points": 45, "contains": [-6, 7]},
        "s5": {"4": 3, "6": 3, "10": "infeasible", "15": "infeasible"},
        "c21_trivial": {"3": 2, "7": 6, "21": 12},
    },
    "verdict": {
        "source": "pgq selftest check_verdict_tables",
        "profile_thompson": ["5*7"],
        "profile_monster": ["5*13", "7*11", "7*13", "11*13"],
        "profile_m11": [],
        "profile_onan": ["3*7"],
    },
    "main_inequality": {
        "source": "the main inequality holds at every genuine unit (paper, main "
        "theorem); counts are (class, xi) pairs of composite order p*m",
        "s5/tree_s5_p3": 2,
        "s5/tree_s5_p5": 0,
        "c21/tree_c21_p3": 84,
        "c21/tree_c21_p7": 36,
    },
    "tableaux": {
        "source": "exhaustive verifiers; counts from the lemma tour and the acceptance suite",
        "checked": {"8": 994, "9": 2127, "10": 4451},
    },
    "jordan": {
        "source": "Hall polynomial g^lambda_{mu nu}(3) != 0 iff c^lambda_{mu nu} > 0 "
        "(Macdonald, Symmetric Functions and Hall Polynomials, ch. II)",
        "triples": 49,
        "pairs": {"3,3": 10, "3,2,1": 25, "3,1,1,1": 19, "2,2,2": 10,
                  "2,2,1,1": 18, "2,1,1,1,1": 15, "1,1,1,1,1,1": 7},
    },
    "lr_symmetry": {
        "source": "c^lambda_{mu nu} = c^lambda_{nu mu}",
        "max_weight": 8,
        "triples": 4135,
    },
}


def _census_counts(condition: str, top: int, bounds) -> dict:
    """Qualifying-prime counts and prime counts at each bound, from two paths."""
    a = numtheory.count_N(top, condition, "phi-factor").rows
    b = numtheory.count_N(top, condition, "root-sieve").rows
    if a != b:
        raise SystemExit(f"{condition}: phi-factor and root-sieve disagree at {top}")
    out = {}
    for bound in bounds:
        rows = [r for r in a if r[0] <= bound]
        out[str(bound)] = {"count": sum(1 for r in rows if r[1]), "primes": len(rows)}
    return out


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def _alpha(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n


#: family -> cyclotomic indices, as in the paper's Lie-type table
_LIE_POLYS = {"PSL4": (3, 4), "PSU4": (4, 6), "PSp4": (4,), "PSp6": (3, 6),
              "POmega7": (3, 6), "POmega8plus": (3, 6), "G2": (3, 6)}
_PHI = {3: lambda q: q * q + q + 1, 4: lambda q: q * q + 1, 6: lambda q: q * q - q + 1}


def _lie_settled(family: str, q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    f = round(math.log(q, p))
    poly = math.prod(_PHI[k](q) for k in _LIE_POLYS[family])
    c = _alpha(f)
    return _squarefree(c) and math.gcd(c, poly) == 1 and _squarefree(_alpha(poly))


def main() -> None:
    top = max(workloads.CENSUS_BOUNDS + (workloads.ROOT_SIEVE_BOUND,))
    thm51_bounds = sorted(set(workloads.CENSUS_BOUNDS) | {
        workloads.ROOT_SIEVE_BOUND, workloads.DUAL_BOUND, workloads.CSV_BOUND, 100_000})
    census = {
        "source": "phi-factor and root-sieve counts agree at every stored bound",
        "thm51": _census_counts("thm51", top, thm51_bounds),
        "cor13": _census_counts("cor13", workloads.COR13_BOUND, [workloads.COR13_BOUND]),
    }
    for bound, published in (("100000", 5669), ("1000000", 46329)):
        if census["thm51"][bound]["count"] != published:
            raise SystemExit(f"thm51 census at {bound} is not the published {published}")
    lie = {}
    for family, q in workloads.LIE_QUERIES:
        p, f = next(iter(numtheory.factorize(q).items()))
        ours = numtheory.lie_series_verdict(numtheory.LieSeriesSpec(family, p, f)).settled
        if ours != _lie_settled(family, q):
            raise SystemExit(f"lie {family} q={q}: the two verdict paths disagree")
        lie[f"{family}/{q}"] = ours
    doc = dict(STATIC, census=census, lie={
        "source": "pgq lie_series_verdict and an independent trial-division check agree",
        "settled": lie})
    with open(os.path.join(HERE, "known_answers.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
