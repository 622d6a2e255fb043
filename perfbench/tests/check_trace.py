"""Checks of the tracer: it must see every binding, leave stdout unchanged,
and attribute work to the layers each workload is meant to exercise.

    python3 -m pytest perfbench/tests/check_trace.py

The stdout and exercise/bypass checks run one untraced and one traced pass
of every workload (a few minutes on two cores).
"""

import json
import os
import subprocess
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

ALIAS_PROBE = """
import json, sys
import pgq, pgq.cli
from pgq import brauer, cyclotomic, helpmethod, numtheory, tableaux
from tracer import Tracer
tracer = Tracer()
wrapped = tracer.install()
samples = {
    "brauer.lupa_multiplicity": brauer.lupa_multiplicity is helpmethod.lupa_multiplicity,
    "brauer.factorint": brauer.factorint is cyclotomic.factorint,
    "pgq.count_N": pgq.count_N is numtheory.count_N,
    "wrapped": [hasattr(f, "__wrapped__") for f in (
        brauer.lupa_multiplicity, brauer.factorint, numtheory.factorize, pgq.count_N,
        *tableaux.ALL_VERIFIERS.values())],
}
left_alone = tracer.unwrapped_bindings()
if len(sys.argv) > 1:  # put one original back: the check must notice
    brauer.lupa_multiplicity = brauer.lupa_multiplicity.__wrapped__
print(json.dumps({"wrapped": wrapped, "left": left_alone,
                  "after": tracer.unwrapped_bindings(), "samples": samples}))
"""


def _probe(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([run.SRC, HERE]))
    out = subprocess.run([sys.executable, "-c", ALIAS_PROBE, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_every_binding_reaches_a_wrapper():
    doc = _probe()
    assert doc["wrapped"] > 100
    assert doc["left"] == []
    assert doc["samples"]["brauer.lupa_multiplicity"]
    assert doc["samples"]["brauer.factorint"]
    assert doc["samples"]["pgq.count_N"]
    assert all(doc["samples"]["wrapped"])


def test_an_unwrapped_alias_is_reported():
    assert _probe("restore-one")["after"] == ["pgq.brauer.lupa_multiplicity"]


@pytest.fixture(scope="module")
def passes():
    """(untraced pass, traced pass) per workload, seed 1."""
    out = {}
    deadline = time.monotonic() + 3600
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as scratch:
        for w in workloads.WORKLOADS:
            ops = workloads.operations(w, 1)
            out[w] = (run.run_pass(ops, scratch, deadline),
                      run.run_pass(ops, scratch, deadline, trace=True))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_stdout_is_byte_identical(passes, workload):
    untraced, traced = passes[workload]
    answers = workloads.load_answers()
    for a, b in zip(untraced, traced):
        assert a.out == b.out, a.op
        assert a.code == b.code, a.op
        assert run.judge(a, answers).ok, a.op
        assert b.layers is not None, b.op


#: layer counts that must be non-zero where a workload exercises the layer
EXERCISED = {
    "help": ("helpmethod.fm_calls", "helpmethod.forms_calls", "helpmethod.lupa_calls",
             "helpmethod.inconclusive", "brauer.assign_calls", "cyclotomic.mul_calls",
             "cyclotomic.trace_calls", "cyclotomic.lift_calls", "cyclotomic.fixed_by_calls",
             "fixtures.docs", "numtheory.factorize_calls", "cli.out_bytes"),
    "census": ("numtheory.values_tested", "numtheory.factorize_calls",
               "numtheory.fallback_ratio", "numtheory.primes_per_s.phi-factor",
               "numtheory.primes_per_s.root-sieve", "cli.out_bytes"),
    "lemmas": ("tableaux.tableaux_checked", "tableaux.lr_calls", "tableaux.jordan_types",
               "cli.out_bytes"),
}
_TABLEAUX = ("tableaux.tableaux_checked", "tableaux.lr_calls", "tableaux.jordan_types")
_HELP = ("helpmethod.fm_calls", "helpmethod.forms_calls", "helpmethod.lupa_calls",
         "helpmethod.inconclusive", "brauer.assign_calls")
_CYCLOTOMIC = ("cyclotomic.mul_calls", "cyclotomic.trace_calls", "cyclotomic.lift_calls",
               "cyclotomic.fixed_by_calls")
#: and zero where the workload is meant to bypass it
BYPASSED = {
    "help": ("numtheory.values_tested", "numtheory.primes_per_s.phi-factor",
             "numtheory.primes_per_s.root-sieve") + _TABLEAUX,
    "census": _HELP + _CYCLOTOMIC + _TABLEAUX + ("fixtures.docs",),
    "lemmas": _HELP + _CYCLOTOMIC + ("fixtures.docs", "numtheory.values_tested",
                                     "numtheory.factorize_calls"),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layers_exercised_and_bypassed(passes, workload):
    values = run.per_layer(*passes[workload])
    assert set(values) == set(run.PER_LAYER)
    assert [m for m in EXERCISED[workload] if not values[m]] == []
    assert [m for m in BYPASSED[workload] if values[m]] == []


def test_lemma_counts_are_exact(passes):
    values = run.per_layer(*passes["lemmas"])
    assert values["tableaux.tableaux_checked"] == 4 * (2127 + 4451)
    assert values["tableaux.jordan_types"] == len(workloads.JORDAN_ALWAYS) + workloads.JORDAN_PER_RUN
