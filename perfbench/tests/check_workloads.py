"""Fast checks of the workload definitions and known-answer checks.

    python3 -m pytest perfbench/tests/check_workloads.py
"""

import collections
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import workloads  # noqa: E402
from workloads import Op, check, operations  # noqa: E402

SEEDS = range(40)


@pytest.fixture(scope="module")
def answers():
    return workloads.load_answers()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    assert operations(workload, 7) == operations(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_never_changes_operation_count_or_kinds(workload):
    kinds = {seed: collections.Counter(op.kind for op in operations(workload, seed))
             for seed in SEEDS}
    assert len(set(map(frozenset, (k.items() for k in kinds.values())))) == 1


@pytest.mark.parametrize("workload", ("census", "lemmas"))
def test_seed_draws_the_parameterised_inputs(workload):
    drawn = {frozenset(operations(workload, seed)) for seed in SEEDS}
    assert len(drawn) > 1


def test_help_seed_only_reorders():
    base = sorted(operations("help", 0))
    assert all(sorted(operations("help", seed)) == base for seed in SEEDS)
    assert len({tuple(operations("help", seed)) for seed in SEEDS}) > 1


def test_held_out_seed_is_not_a_baseline_seed():
    assert workloads.HELD_OUT_SEED not in workloads.BASELINE_SEEDS


def test_every_drawn_input_has_a_known_answer(answers):
    for bound in workloads.CENSUS_BOUNDS:
        assert str(bound) in answers["census"]["thm51"]
    for family, q in workloads.LIE_QUERIES:
        assert f"{family}/{q}" in answers["lie"]["settled"]
    for parts in workloads.JORDAN_TYPES + workloads.JORDAN_ALWAYS:
        assert ",".join(map(str, parts)) in answers["jordan"]["pairs"]


def test_published_census_counts(answers):
    assert answers["census"]["thm51"]["100000"]["count"] == 5669
    assert answers["census"]["thm51"]["1000000"]["count"] == 46329


S5_6 = Op("help-check", ("help-check", "--table", "s5", "--order", "6"))
C21_7 = Op("help-check", ("help-check", "--table", "c21", "--order", "7", "--format", "json"))


def test_check_accepts_the_known_answer(answers):
    out = "FEASIBLE: 3 partial augmentation vector(s) of order 6 survive all constraints in S5\n"
    assert check(S5_6, 1, out, answers) == (True, True, "")


@pytest.mark.parametrize("code,out", [
    (0, "FEASIBLE: 3 partial augmentation vector(s) of order 6 survive\n"),  # exit code
    (1, "FEASIBLE: 2 partial augmentation vector(s) of order 6 survive\n"),  # count
    (0, "INFEASIBLE: no normalized unit of order 6 in S5\n"),
])
def test_check_rejects_a_wrong_answer(answers, code, out):
    assert not check(S5_6, code, out, answers).ok


def test_inconclusive_is_undecided_not_failed(answers):
    out = '{"status": "too-large", "feasible": []}'
    assert check(C21_7, 1, out, answers) == (True, False, "")


def test_c21_must_be_exactly_the_trivial_units(answers):
    trivial = [{"entries": {f"c{3 * i}": 1}} for i in range(1, 7)]
    doc = '{"status": "feasible", "feasible": %s}'
    assert check(C21_7, 1, doc % json.dumps(trivial), answers).decided
    bad = trivial[:5] + [{"entries": {"c3": 2, "c6": -1}}]
    assert not check(C21_7, 1, doc % json.dumps(bad), answers).ok


def test_census_count_is_checked(answers):
    op = Op("sieve-dual", ("sieve", "--bound", "100000", "--dual"))
    ok = "5669 of 9592 primes <= 100000 satisfy condition thm51 (method phi-factor)\n"
    assert check(op, 0, ok, answers).ok
    assert not check(op, 0, ok.replace("5669", "5670"), answers).ok
