"""Benchmark operations that have no `pgq` subcommand: each calls the public
library functions and prints a one-line summary that the benchmark checks
against its known answer.  Run by perfbench/child.py."""

from __future__ import annotations

from pgq import brauer, fixtures, helpmethod, tableaux


def main_inequality(table: str, tree_name: str) -> int:
    """The main inequality at every genuine unit of composite order p*m, for
    every xi, on one bundled (table, tree) pair."""
    slice_ = fixtures.load_slice(table)
    tree = fixtures.load_tree(tree_name)
    p = tree.prime
    checked = violations = 0
    for cl in slice_.classes:
        if cl.order % p or cl.order == p or (cl.order // p) % p == 0:
            continue
        pa = helpmethod.trivial_pa(slice_, cl.name)
        for xi in range(cl.order // p):
            assignment = brauer.assignment_from_table(slice_, tree, pa, xi)
            holds, _ = brauer.main_inequality_holds(tree, assignment)
            checked += 1
            violations += not holds
    print(f"checked {checked} units, {violations} violations")
    return 1 if violations else 0


def jordan_oracle(parts: str) -> int:
    """The GF(3) Jordan oracle for one module type, checked against LR
    non-vanishing on every (submodule, quotient) pair of types."""
    lam = tuple(int(x) for x in parts.split(","))
    pairs = tableaux.jordan_submodule_quotient_pairs(3, lam)
    w = sum(lam)
    triples = disagreements = 0
    for wu in range(w + 1):
        for mu in tableaux.partitions_of(wu, max_part=3):
            for nu in tableaux.partitions_of(w - wu, max_part=3):
                triples += 1
                lr = tableaux.lr_coefficient(lam, mu, nu)
                disagreements += ((mu, nu) in pairs) != (lr > 0)
    print(f"pairs {len(pairs)}, triples {triples}, disagreements {disagreements}")
    return 1 if disagreements else 0


def lr_symmetry(max_weight: str) -> int:
    """c^lam_{mu nu} == c^lam_{nu mu} for every triple up to the weight."""
    triples = asymmetric = 0
    for w in range(1, int(max_weight) + 1):
        for lam in tableaux.partitions_of(w):
            for mu in tableaux.subpartitions(lam):
                for nu in tableaux.partitions_of(w - tableaux.weight(mu)):
                    triples += 1
                    asymmetric += (tableaux.lr_coefficient(lam, mu, nu)
                                   != tableaux.lr_coefficient(lam, nu, mu))
    print(f"triples {triples}, asymmetric {asymmetric}")
    return 1 if asymmetric else 0
