"""Cold-process verdict benchmark for pgq.

    python3 perfbench/run.py --workload help --seed 1 --seconds 30 --trace 0

Each operation of the seeded workload runs in its own fresh Python process,
one after another (a closed loop with one client).  A run measures whole
passes over the operation list: at least one, and another only while it is
expected to end within --seconds.  Every operation's exit code and stdout are
checked against perfbench/known_answers.json.

With --trace 0, the run times a reference process before each operation: a
bare interpreter (`python3 -S -I`) running a fixed loop.  The host's speed drifts
by up to a quarter over minutes, and the reference drifts with it, so the
end-to-end times are reported in units of the run's median reference time
("ref").  The raw seconds are printed above the result.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics.  With --trace 1 the run makes one untraced pass and one traced pass
(layer wrappers from perfbench/tracer.py, plus `-X importtime`), checks that
each operation printed the same bytes in both, and reports the per-layer
metrics.  Run it from the repository root; it reads pgq from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
#: every operation is killed once the run is this old, so a hang in the
#: program still ends the run within the 180 s a run may take
RUN_DEADLINE_S = 165

sys.path.insert(0, HERE)
import workloads  # noqa: E402

#: the reference process: a cold bare interpreter and about 0.25 s of loop.
#: A shorter loop tracked the operations' drift worse.
REFERENCE = [sys.executable, "-S", "-I", "-c",
             "s = 0\nfor i in range(1500000):\n    s += i * i % 7\n"]
#: a run takes at least this many reference samples, however few its operations
MIN_REFERENCES = 15

END_TO_END = {  # name -> unit
    "wall_ref": "ref", "query_ref": "ref", "setup_s": "s", "op_p50_ref": "ref",
    "peak_rss_mb": "MB", "decided_ratio": "ratio", "ok_ratio": "ratio",
}
PER_LAYER = {
    "import.pgq_s": "s", "import.numpy_s": "s", "import.scipy_s": "s",
    "cli.self_s": "s", "cli.out_bytes": "count",
    "fixtures.load_s": "s", "fixtures.docs": "count",
    "cyclotomic.self_s": "s", "cyclotomic.mul_calls": "count",
    "cyclotomic.trace_calls": "count", "cyclotomic.lift_calls": "count",
    "cyclotomic.fixed_by_calls": "count",
    "helpmethod.feasible_s": "s", "helpmethod.fm_s": "s", "helpmethod.forms_s": "s",
    "helpmethod.search_self_s": "s", "helpmethod.fm_calls": "count",
    "helpmethod.forms_calls": "count", "helpmethod.lupa_calls": "count",
    "helpmethod.inconclusive": "count",
    "brauer.assign_s": "s", "brauer.assign_calls": "count", "brauer.inequality_s": "s",
    "brauer.verdict_s": "s", "brauer.tree_check_s": "s",
    "numtheory.count_s": "s", "numtheory.primes_per_s.phi-factor": "1/s",
    "numtheory.primes_per_s.root-sieve": "1/s", "numtheory.values_tested": "count",
    "numtheory.factorize_calls": "count", "numtheory.fallback_ratio": "ratio",
    "numtheory.factorize_s": "s", "numtheory.roots_s": "s", "numtheory.primes_up_to_s": "s",
    "numtheory.summary_s": "s", "numtheory.lie_s": "s",
    "tableaux.verify_s": "s", "tableaux.tableaux_checked": "count", "tableaux.lr_s": "s",
    "tableaux.lr_calls": "count", "tableaux.jordan_s": "s", "tableaux.jordan_types": "count",
    "trace.overhead_ratio": "ratio",
}
IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$")


@dataclass
class Sample:
    """One operation as the parent saw it; times on the monotonic clock."""

    op: workloads.Op
    code: int
    out: bytes
    err: str
    spawn: float
    ready: float | None
    exit: float
    rss_kb: int
    layers: dict | None
    imports: dict


def _child_env(trace_id: int | None, fd: int) -> dict:
    env = dict(os.environ)
    env.pop("PGQ_THREADS", None)
    env.pop("PERFBENCH_TRACE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PERFBENCH_FD"] = str(fd)
    if trace_id is not None:
        env["PERFBENCH_TRACE"] = str(trace_id)
    return env


def _split_imports(err: str) -> tuple[str, dict]:
    """Strip `-X importtime` lines from stderr; return the rest and the self
    time in seconds of the pgq, numpy and scipy packages."""
    rest, totals = [], {"pgq": 0.0, "numpy": 0.0, "scipy": 0.0}
    for line in err.splitlines(keepends=True):
        m = IMPORT_LINE.match(line)
        if not m:
            if not line.startswith("import time:"):
                rest.append(line)
            continue
        top = m.group(3).split(".")[0]
        if top in totals:
            totals[top] += int(m.group(1)) / 1e6
    return "".join(rest), totals


def run_op(op: workloads.Op, scratch: str, deadline: float,
           trace_id: int | None = None) -> Sample:
    """Spawn, wait for and measure one cold operation; kill it at the deadline."""
    flags = ["-X", "importtime"] if trace_id is not None else []
    with tempfile.TemporaryFile(dir=scratch) as out, \
            tempfile.TemporaryFile(dir=scratch) as err, \
            tempfile.TemporaryFile(dir=scratch) as side:
        spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, *flags, CHILD, *op.argv], cwd=ROOT,
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                pass_fds=(side.fileno(),),
                                env=_child_env(trace_id, side.fileno()))
        killer = threading.Timer(max(0.0, deadline - spawn), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        for f in (out, err, side):
            f.seek(0)
        stdout, stderr = out.read(), err.read().decode(errors="replace")
        lines = side.read().decode().splitlines()
    stderr, imports = _split_imports(stderr)
    return Sample(op, proc.returncode, stdout, stderr, spawn,
                  float(lines[0]) if lines else None, end, usage.ru_maxrss,
                  json.loads(lines[1]) if len(lines) > 1 else None, imports)


def reference_s() -> float:
    """Spawn-to-exit time of one reference process."""
    start = time.monotonic()
    subprocess.run(REFERENCE, check=True, stdin=subprocess.DEVNULL)
    return time.monotonic() - start


def run_pass(ops, scratch: str, deadline: float, trace: bool = False,
             refs: list | None = None) -> list[Sample]:
    """One pass over the operations; with refs, a reference time before each."""
    samples = []
    for i, op in enumerate(ops):
        if refs is not None:
            refs.append(reference_s())
        samples.append(run_op(op, scratch, deadline, i if trace else None))
    return samples


def judge(sample: Sample, answers: dict) -> workloads.Verdict:
    """Known-answer check; a crash or a traceback is a failure even if stdout
    looks right."""
    if sample.ready is None or "Traceback (most recent call last)" in sample.err:
        return workloads.Verdict(False, False, "crashed")
    try:
        return workloads.check(sample.op, sample.code, sample.out.decode(), answers)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        return workloads.Verdict(False, False, f"unreadable output: {e!r}")


def wall(samples: list[Sample]) -> float:
    """Time the user waits for the whole list, one operation after another."""
    return sum(s.exit - s.spawn for s in samples)


def seconds(passes: list[list[Sample]], refs: list[float]) -> dict:
    """The run's raw timings in seconds."""
    samples = [s for p in passes for s in p]
    latencies = [s.exit - s.spawn for s in samples]
    ready = [s.ready if s.ready is not None else s.exit for s in samples]
    return {
        "wall_s": statistics.median(wall(p) for p in passes),
        "query_s": statistics.median(
            sum(s.exit - (s.ready if s.ready is not None else s.exit) for s in p)
            for p in passes),
        "setup_s": statistics.median(r - s.spawn for r, s in zip(ready, samples)),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "reference_s": statistics.median(refs),
    }


def end_to_end(passes: list[list[Sample]], verdicts: list[workloads.Verdict],
               raw: dict) -> dict:
    samples = [s for p in passes for s in p]
    ref = raw["reference_s"]
    n = len(verdicts)
    return {
        "wall_ref": raw["wall_s"] / ref,
        "query_ref": raw["query_s"] / ref,
        "setup_s": raw["setup_s"],
        "op_p50_ref": raw["op_p50_s"] / ref,
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024,
        "decided_ratio": sum(v.decided for v in verdicts) / n,
        "ok_ratio": sum(v.ok for v in verdicts) / n,
    }


def per_layer(untraced: list[Sample], traced: list[Sample]) -> dict:
    total: dict[str, float] = {}
    for s in traced:
        for k, v in (s.layers or {}).items():
            total[k] = total.get(k, 0) + v
    values = {name: total.get(name, 0) for name in PER_LAYER}
    for pkg in ("pgq", "numpy", "scipy"):
        values[f"import.{pkg}_s"] = statistics.median(s.imports[pkg] for s in traced)
    values["cli.out_bytes"] = sum(len(s.out) for s in traced if s.op.argv[0] != "lib")
    for method in ("phi-factor", "root-sieve"):
        busy = total.get(f"numtheory.count_time.{method}", 0)
        primes = total.get(f"numtheory.count_primes.{method}", 0)
        values[f"numtheory.primes_per_s.{method}"] = primes / busy if busy else 0
    tested = values["numtheory.values_tested"]
    values["numtheory.fallback_ratio"] = (
        values["numtheory.factorize_calls"] / tested if tested else 0)
    values["trace.overhead_ratio"] = wall(traced) / wall(untraced)
    return values


def _build() -> None:
    """Byte-compile the program so every cold start reads cached bytecode, as
    an installed package does."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "pgq"), HERE],
                   check=True, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pgq", "cli.py")):
        print(f"perfbench: no pgq sources under {SRC}", file=sys.stderr)
        return 2
    _build()
    answers = workloads.load_answers()
    ops = workloads.operations(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
        start = time.monotonic()
        deadline = start + RUN_DEADLINE_S
        passes, refs = [], None if args.trace else []
        while True:
            began = time.monotonic()
            passes.append(run_pass(ops, scratch, deadline, refs=refs))
            now = time.monotonic()
            if args.trace or now + (now - began) > start + args.seconds:
                break
        if args.trace:
            traced = run_pass(ops, scratch, deadline, trace=True)
        else:
            traced = []
            refs += [reference_s() for _ in range(MIN_REFERENCES - len(refs))]
    samples = [s for p in passes for s in p] + traced
    verdicts = [judge(s, answers) for s in samples]
    mismatched = [i for i, s in enumerate(traced) if s.out != passes[0][i].out]
    for i in mismatched:
        verdicts[len(samples) - len(traced) + i] = workloads.Verdict(False, False, "trace changed stdout")
    for s, v in zip(samples, verdicts):
        if not v.ok:
            print(f"FAILED {' '.join(s.op.argv)}: {v.reason} (exit {s.code}) {s.err[-300:]}",
                  file=sys.stderr)
    n_ops = sum(len(p) for p in passes)
    print(f"# workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass, "
          f"{len(passes)} untraced pass(es), {n_ops} latency samples"
          + (", 1 traced pass" if traced else f", {len(refs)} reference samples"))
    if args.trace:
        metrics, units = per_layer(passes[0], traced), PER_LAYER
    else:
        raw = seconds(passes, refs)
        for name, value in raw.items():
            print(f"# {name} = {value:.6g} s (raw)")
        metrics, units = end_to_end(passes, verdicts, raw), END_TO_END
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    failed = sum(not v.ok for v in verdicts)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
