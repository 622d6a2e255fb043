"""Command-line front end.

Exit codes: 0 = success / settled, 1 = open or inconclusive finding,
2 = input error (malformed JSON is reported with line and column).
Machine-readable output is sorted and timestamp-free so repeated runs are
byte-identical.

The command line is read against one table, `COMMANDS`, of each command's
flags with their types, choices and defaults.  A flag is written out in
full, as `--flag value` or `--flag=value`; an abbreviation, an unknown
flag or command, a missing or malformed value and a missing required flag
are each one `input error:` line on stderr with exit 2.  `-h` or `--help`
prints the help of pgq or of one command to stdout.

The first `main` call of a process moves every object then on the garbage
collector's heap (the modules, classes and constants that importing pgq and
numpy left behind) into the permanent generation with
`gc.freeze()`. The collector stays enabled for what the command allocates.
A process whose heap is frozen already at that first call is left as it is,
later calls do not look again, and importing `pgq` or `pgq.cli` freezes
nothing, so a host program's collection is only changed if it calls `main`.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace

from . import brauer, fixtures, helpmethod, numtheory, tableaux

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT = 2


def _emit_json(doc, out):
    json.dump(doc, out, indent=1, sort_keys=True)
    out.write("\n")


def cmd_help_check(args, out) -> int:
    doc = fixtures.resolve(args.table)
    if "rows" in doc:
        fixture = helpmethod.InequalityRowsFixture.from_json(doc)
        if args.order != fixture.unit_order:
            raise ValueError(
                f"fixture carries rows for order {fixture.unit_order}, not {args.order}"
            )
        if args.characters is not None:
            raise ValueError("--characters needs a character table; the fixture carries rows")
        try:
            points = fixture.feasible_points()
            status = "feasible" if points else "infeasible"
        except helpmethod.SearchComplexityError as e:
            points, status = [], "too-large"
            print(e, file=sys.stderr)
        if args.format == "json":
            _emit_json(
                {"group": fixture.group, "order": args.order, "status": status,
                 "points": [list(p) for p in points]}, out)
        else:
            if status == "too-large":
                out.write("INCONCLUSIVE: search region too large for exact enumeration\n")
            elif points:
                sample = ", ".join(f"({a}, {b})" for a, b in points[:5])
                out.write(
                    f"FEASIBLE: feasible point exists for order {args.order} in "
                    f"{fixture.group}: {len(points)} integer points, e.g. {sample}\n"
                )
            else:
                out.write(
                    f"INFEASIBLE: no normalized unit of order {args.order} in {fixture.group}\n"
                )
        return EXIT_OK if status == "infeasible" else EXIT_FINDING

    slice_ = helpmethod.CharacterTableSlice.from_json(doc)
    chars = args.characters.split(",") if args.characters is not None else None
    result = helpmethod.feasible_partial_augmentations(slice_, args.order, characters=chars)
    if result.reason:
        print(result.reason, file=sys.stderr)
    if args.format == "json":
        _emit_json(
            {"group": slice_.group_name, "order": args.order, "status": result.status,
             "variables": result.variables, "bounds": result.bounds,
             "feasible": [pa.to_json() for pa in result.feasible]}, out)
    else:
        if result.status == "infeasible":
            out.write(
                f"INFEASIBLE: no normalized unit of order {args.order} in {slice_.group_name}\n"
            )
            if result.bounds:
                for v, (lo, hi) in sorted(result.bounds.items()):
                    out.write(f"  derived bounds: {lo} <= e_{v} <= {hi}\n")
            for c in result.congruences:
                if c.classes:
                    out.write(f"  congruence: {c}\n")
        elif result.status == "unbounded":
            out.write("INCONCLUSIVE: unbounded search region (no character pins a variable)\n")
        elif result.status == "too-large":
            out.write("INCONCLUSIVE: search region too large for exact enumeration\n")
        else:
            out.write(
                f"FEASIBLE: {len(result.feasible)} partial augmentation vector(s) of order "
                f"{args.order} survive all constraints in {slice_.group_name}\n"
            )
            for pa in result.feasible[:10]:
                out.write(f"  {json.dumps(pa.to_json()['entries'], sort_keys=True)}\n")
    return EXIT_OK if result.status == "infeasible" else EXIT_FINDING


def cmd_verdict(args, out) -> int:
    profile = brauer.GroupArithmeticProfile.from_json(fixtures.resolve(args.profile))
    report = brauer.group_verdict_table(profile)
    if args.format == "json":
        _emit_json(report.to_json(), out)
    elif args.format == "csv":
        out.write("p,q,verdict\n")
        for (p, q), v in sorted(report.verdicts.items()):
            out.write(f"{p},{q},{v}\n")
    else:
        out.write(f"{profile.name}: prime pairs of |G| = {profile.order}\n")
        for (p, q), v in sorted(report.verdicts.items()):
            out.write(f"  ({p}, {q}): {v}\n")
        if report.fully_settled:
            out.write("fully settled: every pair is an edge or settled by the theorem\n")
        else:
            pairs = ", ".join(f"{p}*{q}" for p, q in report.open_pairs)
            out.write(f"open pairs remain: {pairs}\n")
    return EXIT_OK if report.fully_settled else EXIT_FINDING


def cmd_tree_check(args, out) -> int:
    tree = brauer.BrauerTreeSpec.from_json(fixtures.resolve(args.tree))
    diags = brauer.validate_tree(tree)
    if args.format == "json":
        _emit_json({"valid": not diags, "diagnostics": diags}, out)
    else:
        if diags:
            out.write("INVALID tree:\n")
            for d in diags:
                out.write(f"  - {d}\n")
        else:
            out.write(
                f"valid Brauer tree: {len(tree.vertices)} vertices, "
                f"{len(tree.edges)} edges, p = {tree.prime}, t = {tree.t}\n"
            )
    return EXIT_OK if not diags else EXIT_FINDING


def cmd_sieve(args, out) -> int:
    result = numtheory.count_N(args.bound, condition=args.condition, method=args.method)
    if args.dual:
        other = "root-sieve" if args.method != "root-sieve" else "phi-factor"
        check = numtheory.count_N(args.bound, condition=args.condition, method=other)
        if not check.agrees_with(result):
            print(f"dual-path disagreement: {args.method} vs {other} at bound {args.bound}",
                  file=sys.stderr)
            return EXIT_FINDING
    if args.format == "csv":
        out.write("p,status,witness\n")
        for ps, ws in result.blocks():
            out.write("".join(f"{p},square,{w}\n" if w else f"{p},ok,\n"
                              for p, w in zip(ps, ws)))
    elif args.format == "json":
        _emit_json(result.summary(), out)
    else:
        s = result.summary()
        out.write(
            f"{result.count} of {result.total_primes} primes <= {args.bound} satisfy "
            f"condition {args.condition} (method {result.method})\n"
        )
        per_li = "n/a" if s["count_over_li"] is None else f"{s['count_over_li']:.6f}"
        out.write(f"  ratio = {s['ratio']:.6f}, Li(x) = {s['li_x']:.6f}, count/Li = {per_li}\n")
        out.write(f"  Euler-product truncation c = {s['c_truncated']:.6f}\n")
    return EXIT_OK


def cmd_lie(args, out) -> int:
    q_factors = numtheory.factorize(args.q) if args.q >= 2 else {}
    if len(q_factors) != 1:
        raise ValueError(f"q = {args.q} is not a prime power")
    (p, f), = q_factors.items()
    spec = numtheory.LieSeriesSpec(args.family, p, f)
    verdict = numtheory.lie_series_verdict(spec)
    order, parts = numtheory.lie_order(spec)
    if args.format == "json":
        doc = verdict.to_json()
        doc["order"] = str(order.value)
        doc["order_factors"] = {str(p_): e for p_, e in order.factors}
        doc["order_breakdown"] = {label: str(v) for label, v in parts}
        _emit_json(doc, out)
    else:
        out.write(f"{args.family} at q = {args.q}: "
                  f"{'settled' if verdict.settled else 'not-settled-by-lemma'}\n")
        out.write(f"  c = alpha(f) = {verdict.c}; polynomial value = {verdict.poly_value}; "
                  f"alpha = {verdict.alpha_of_poly}\n")
        for name, ok in sorted(verdict.conditions.items()):
            out.write(f"  {name}: {'yes' if ok else 'NO'}\n")
        out.write(f"  |G| = {order.value}\n")
    return EXIT_OK if verdict.settled else EXIT_FINDING


def cmd_tableaux_verify(args, out) -> int:
    if args.max_boxes < 1:
        raise ValueError(f"--max-boxes must be at least 1, got {args.max_boxes}")
    if args.lemma:
        reports = {args.lemma: tableaux.ALL_VERIFIERS[args.lemma](args.max_boxes)}
    else:
        reports = tableaux.verify_lemmas(args.max_boxes, sorted(tableaux.ALL_VERIFIERS))
    ok = all(r.ok for r in reports.values())
    if args.format == "json":
        _emit_json({name: r.to_json() for name, r in reports.items()}, out)
    else:
        for name, r in reports.items():
            out.write(
                f"{name}: checked {r.checked} tableaux up to {args.max_boxes} boxes, "
                f"{len(r.violations)} violation(s)\n"
            )
    return EXIT_OK if ok else EXIT_FINDING


def cmd_selftest(args, out) -> int:
    from . import selftest

    ok = selftest.run(out)
    return EXIT_OK if ok else EXIT_FINDING


#: marks a flag that must be given
_REQUIRED = object()
_TEXT_JSON = ("text", "json")
_TEXT_JSON_CSV = ("text", "json", "csv")

#: command -> (help, {flag: (kind, default, help)}).  A flag's kind is int
#: or str for a value, a tuple of the values it allows, or bool for a switch
#: that takes none.  A command runs cmd_<command, with "-" as "_">.
COMMANDS = {
    "help-check": ("integer feasibility of a hypothetical unit order", {
        "--table": (str, _REQUIRED, "character-table slice or inequality-rows JSON"),
        "--order": (int, _REQUIRED, "the unit order"),
        "--characters": (str, None, "comma-separated character names (default: all)"),
        "--format": (_TEXT_JSON, "text", ""),
    }),
    "verdict": ("prime-pair verdict table for a group profile", {
        "--profile": (str, _REQUIRED, "group profile JSON"),
        "--format": (_TEXT_JSON_CSV, "text", ""),
    }),
    "tree-check": ("validate a Brauer tree specification", {
        "--tree": (str, _REQUIRED, "Brauer tree JSON"),
        "--format": (_TEXT_JSON, "text", ""),
    }),
    "sieve": ("squarefree census of cyclotomic values at primes", {
        "--bound": (int, _REQUIRED, "count the primes up to this bound"),
        "--condition": (tuple(sorted(numtheory.CONDITIONS)), "thm51", ""),
        "--method": (("phi-factor", "root-sieve"), "phi-factor", ""),
        "--dual": (bool, False, "cross-check against an independent counting path"),
        "--format": (_TEXT_JSON_CSV, "text", ""),
    }),
    "lie": ("order formula and squarefreeness verdict for a Lie series", {
        "--family": (numtheory.LIE_FAMILIES, _REQUIRED, ""),
        "--q": (int, _REQUIRED, "prime power field size"),
        "--format": (_TEXT_JSON, "text", ""),
    }),
    "tableaux-verify": ("exhaustive skew-tableau lemma verifiers", {
        "--max-boxes": (int, 8, ""),
        "--lemma": (tuple(sorted(tableaux.ALL_VERIFIERS)), None, "one lemma (default: all)"),
        "--format": (_TEXT_JSON, "text", ""),
    }),
    "selftest": ("run the bundled oracle and fixture checks", {}),
}

_DESCRIPTION = ("prime-graph verification toolkit: HeLP feasibility, Brauer-tree "
                "inequalities, tableau lemma verifiers and squarefree sieves")


def _is_value(arg: str) -> bool:
    """Whether an argument can be a flag's value: anything but a flag, so
    a value that starts with "-" must be a negative number."""
    return not arg.startswith("-") or arg[1:].isdigit()


def _parse_args(argv) -> SimpleNamespace:
    """The flags of one command line as attributes ("--max-boxes" becomes
    max_boxes), with `fn` the function that runs the command.  -h or --help
    makes `fn` print the help instead.

    A flag is its exact long name: `--flag value` or `--flag=value`, a
    switch alone.  A flag given twice keeps its last value.  Anything else
    raises ValueError with a one-line message."""
    if not argv:
        raise ValueError(f"no command given (choose from {', '.join(COMMANDS)})")
    command, *rest = argv
    if command in ("-h", "--help"):
        return SimpleNamespace(fn=_print_help, command=None)
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r} (choose from {', '.join(COMMANDS)})")
    flags = COMMANDS[command][1]
    values = {flag: default for flag, (_, default, _) in flags.items()}
    rest.reverse()
    while rest:
        arg = rest.pop()
        if arg in ("-h", "--help"):
            return SimpleNamespace(fn=_print_help, command=command)
        flag, eq, value = arg.partition("=")
        if flag not in flags:
            raise ValueError(f"{command} has no argument {arg!r} "
                             f"(its flags are {', '.join(flags)})")
        kind = flags[flag][0]
        if kind is bool:
            if eq:
                raise ValueError(f"argument {flag}: takes no value, got {value!r}")
            values[flag] = True
            continue
        if not eq:
            if not rest or not _is_value(rest[-1]):
                raise ValueError(f"argument {flag}: expected one argument")
            value = rest.pop()
        if isinstance(kind, tuple):
            if value not in kind:
                raise ValueError(f"argument {flag}: invalid choice: {value!r} "
                                 f"(choose from {', '.join(map(repr, kind))})")
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"argument {flag}: invalid int value: {value!r}") from None
        values[flag] = value
    missing = [flag for flag, value in values.items() if value is _REQUIRED]
    if missing:
        raise ValueError(f"{command}: the following arguments are required: "
                         f"{', '.join(missing)}")
    return SimpleNamespace(fn=globals()[f"cmd_{command.replace('-', '_')}"],
                           **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def _print_help(args, out) -> int:
    if args.command is None:
        width = max(map(len, COMMANDS))
        out.write(f"usage: pgq COMMAND [FLAGS]\n\n{_DESCRIPTION}\n\ncommands:\n")
        for name, (text, _) in COMMANDS.items():
            out.write(f"  {name:<{width}}  {text}\n")
        out.write("\npgq COMMAND --help lists the flags of a command.\n")
        return EXIT_OK
    text, flags = COMMANDS[args.command]
    rows = []
    for flag, (kind, default, note) in flags.items():
        if isinstance(kind, tuple):
            flag += " {" + ",".join(kind) + "}"
        elif kind is not bool:
            flag += " " + flag[2:].upper().replace("-", "_")
        if default is _REQUIRED:
            note += " (required)"
        elif not (kind is bool or default is None):
            note += f" (default: {default})"
        rows.append((flag, note.strip()))
    width = max((len(f) for f, _ in rows), default=0)
    out.write(f"usage: pgq {args.command} [FLAGS]\n\n{text}\n")
    if rows:
        out.write("\nflags:\n")
        out.writelines(f"  {f:<{width}}  {note}\n" for f, note in rows)
    return EXIT_OK


#: whether `main` has decided on the heap freeze in this process
_heap_settled = False


def main(argv=None, out=None) -> int:
    # The imports leave about 22,000 objects that the collector tracks.
    # Frozen, they are no longer traversed by the collections a command
    # triggers nor by the interpreter's teardown, which took 21-33 ms of
    # the 30-40 ms a small cold query spends after its imports (2 vCPUs).
    # gc.get_freeze_count() walks the whole permanent generation, so it is
    # asked on the first call only.
    global _heap_settled
    if not _heap_settled:
        _heap_settled = True
        if not gc.get_freeze_count():
            gc.freeze()
    out = out if out is not None else sys.stdout
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.fn(args, out)
    except json.JSONDecodeError as e:
        print(f"input error: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}",
              file=sys.stderr)
        return EXIT_INPUT
    except (FileNotFoundError, KeyError, ValueError) as e:
        # str() of a KeyError is the repr of its key, quotes and all
        print(f"input error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    raise SystemExit(main())
