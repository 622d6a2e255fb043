"""Per-layer tracing for one benchmark operation, from outside the program.

`Tracer.install()` replaces the public functions of every `pgq` layer module
(and the public methods of the classes they define) with timing wrappers.
It patches every binding of each function: module attributes, `from ...
import` aliases in other modules, and dict or list entries such as
`tableaux.ALL_VERIFIERS`.  Each call opens a span that records its name,
operation id, parent span, start and end.  When a span closes, the tracer
folds it into the metric groups below, so memory stays bounded however many
calls an operation makes.

A group's time counts only outermost calls into the group, so a nested or
recursive call is not counted twice.  Its count is the number of such
outermost calls.  A self-time group counts each span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

LAYERS = ("cyclotomic", "tableaux", "helpmethod", "brauer", "numtheory", "fixtures", "cli")
#: pgq modules whose bindings are patched but whose own functions are not traced
ALIAS_ONLY = ("pgq", "pgq.selftest")
#: private functions that are layer boundaries all the same
PRIVATE = ("helpmethod._search",)
#: operator methods traced on the cyclotomic element class
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__neg__", "__eq__")

_LOADERS = ("fixtures.resolve", "fixtures.load_json", "fixtures.load_slice",
            "fixtures.load_rows", "fixtures.load_profile", "fixtures.load_tree",
            "helpmethod.CharacterTableSlice.from_json",
            "helpmethod.InequalityRowsFixture.from_json",
            "brauer.BrauerTreeSpec.from_json", "brauer.GroupArithmeticProfile.from_json")

#: metric -> functions; a trailing "*" matches a prefix.  The value is the
#: time of outermost calls into the set.
TIME_GROUPS = {
    "fixtures.load_s": _LOADERS,
    "helpmethod.feasible_s": ("helpmethod.feasible_partial_augmentations",
                              "helpmethod.InequalityRowsFixture.feasible_points"),
    "helpmethod.fm_s": ("helpmethod.fm_bounds",),
    "helpmethod.forms_s": ("helpmethod.multiplicity_form",),
    "brauer.assign_s": ("brauer.assignment_from_table",),
    "brauer.inequality_s": ("brauer.main_inequality_holds",),
    "brauer.verdict_s": ("brauer.group_verdict_table", "brauer.pq_edge_verdict"),
    "brauer.tree_check_s": ("brauer.validate_tree",),
    "numtheory.count_s": ("numtheory.count_N",),
    "numtheory.factorize_s": ("numtheory.factorize",),
    "numtheory.roots_s": ("numtheory.phi_roots_mod_q2",),
    "numtheory.primes_up_to_s": ("numtheory.primes_up_to",),
    "numtheory.summary_s": ("numtheory.SieveResult.summary", "numtheory.li",
                            "numtheory.constant_c"),
    "numtheory.lie_s": ("numtheory.lie_series_verdict", "numtheory.lie_order"),
    "tableaux.verify_s": ("tableaux.verify_lemma_*",),
    "tableaux.lr_s": ("tableaux.lr_coefficient",),
    "tableaux.jordan_s": ("tableaux.jordan_submodule_quotient_pairs",
                          "tableaux.jordan_chain_realizable"),
}

#: metric -> functions; the number of outermost calls into the set
CALL_GROUPS = {
    "fixtures.docs": ("fixtures.resolve", "fixtures.load_json"),
    "cyclotomic.mul_calls": ("cyclotomic.CyclotomicElement.__mul__",
                             "cyclotomic.CyclotomicElement.__rmul__"),
    "cyclotomic.trace_calls": ("cyclotomic.CyclotomicElement.trace_*",),
    "cyclotomic.lift_calls": ("cyclotomic.CyclotomicElement.lift",),
    "cyclotomic.fixed_by_calls": ("cyclotomic.CyclotomicElement.fixed_by",),
    "helpmethod.fm_calls": ("helpmethod.fm_bounds",),
    "helpmethod.forms_calls": ("helpmethod.multiplicity_form",),
    "helpmethod.lupa_calls": ("helpmethod.lupa_multiplicity",),
    "brauer.assign_calls": ("brauer.assignment_from_table",),
    "numtheory.values_tested": ("numtheory.cyclotomic_value",),
    "numtheory.factorize_calls": ("numtheory.factorize",),
    "tableaux.lr_calls": ("tableaux.lr_coefficient",),
    "tableaux.jordan_types": ("tableaux.jordan_submodule_quotient_pairs",),
}

#: metric -> functions; the sum of their self times
SELF_GROUPS = {
    "cli.self_s": ("cli.main", "cli.cmd_*"),
    "cyclotomic.self_s": ("cyclotomic.CyclotomicElement.*",),
    "helpmethod.search_self_s": ("helpmethod._search",),
}

INCONCLUSIVE = ("too-large", "unbounded")


def _matches(name: str, patterns) -> bool:
    return any(name.startswith(p[:-1]) if p.endswith("*") else name == p for p in patterns)


def _is_traceable(obj) -> bool:
    return (isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
            and not inspect.isgeneratorfunction(obj))


class Span:
    __slots__ = ("name", "op_id", "parent", "start", "end", "child")

    def __init__(self, name, op_id, parent, start):
        self.name, self.op_id, self.parent, self.start = name, op_id, parent, start
        self.end = None
        self.child = 0.0  # time covered by child spans


class Tracer:
    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.stack: list[Span] = []
        self.values: dict[str, float] = {}  # metric -> seconds or count
        self.wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self.originals: list = []  # keeps the ids above valid

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        outer = [m for m, pats in {**TIME_GROUPS, **CALL_GROUPS}.items() if _matches(name, pats)]
        selfs = [m for m, pats in SELF_GROUPS.items() if _matches(name, pats)]
        depth = self._depth
        values = self.values
        stack = self.stack
        clock = time.perf_counter
        hook = self._hook_map.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            entered = [m for m in outer if not depth[m]]
            for m in outer:
                depth[m] += 1
            span = Span(name, self.op_id, parent, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                dur = span.end - span.start
                if parent is not None:
                    parent.child += dur
                for m in outer:
                    depth[m] -= 1
                for m in entered:
                    values[m] = values.get(m, 0) + (dur if m in TIME_GROUPS else 1)
                for m in selfs:
                    values[m] = values.get(m, 0) + dur - span.child
            if hook is not None:
                hook(result, dur)
            return result

        self.wrapped[id(fn)] = traced
        self.originals.append(fn)
        return traced

    def _add(self, key: str, amount) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def _hooks(self) -> dict:
        def count_n(result, dur):
            self._add(f"numtheory.count_time.{result.method}", dur)
            self._add(f"numtheory.count_primes.{result.method}", result.total_primes)

        def feasible(result, dur):
            self._add("helpmethod.inconclusive", int(result.status in INCONCLUSIVE))

        def verifier(result, dur):
            self._add("tableaux.tableaux_checked", result.checked)

        hooks = {"numtheory.count_N": count_n,
                 "helpmethod.feasible_partial_augmentations": feasible}
        from pgq import tableaux
        for fn in tableaux.ALL_VERIFIERS.values():
            hooks[f"tableaux.{fn.__name__}"] = verifier
        return hooks

    def install(self) -> int:
        """Wrap every layer function and patch every binding; returns the
        number of functions wrapped."""
        self._depth = {m: 0 for m in (*TIME_GROUPS, *CALL_GROUPS)}
        self._hook_map = self._hooks()
        modules = [importlib.import_module(f"pgq.{layer}") for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, name, operators=layer == "cyclotomic")
                elif (_is_traceable(obj) and obj.__module__ == mod.__name__
                      and (not attr.startswith("_") or name in PRIVATE)):
                    setattr(mod, attr, self._wrap(obj, name))
        for mod in modules + [importlib.import_module(m) for m in ALIAS_ONLY]:
            self._patch_bindings(mod)
        return len(self.wrapped)

    def _wrap_class(self, cls, prefix: str, operators: bool) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (operators and attr in OPERATORS):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                if _is_traceable(raw.__func__):
                    setattr(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif _is_traceable(raw):
                setattr(cls, attr, self._wrap(raw, name))

    def _patch_bindings(self, mod) -> None:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in self.wrapped:
                setattr(mod, attr, self.wrapped[id(obj)])
            elif isinstance(obj, dict):
                for k, v in obj.items():
                    if id(v) in self.wrapped:
                        obj[k] = self.wrapped[id(v)]
            elif isinstance(obj, list):
                obj[:] = [self.wrapped.get(id(v), v) for v in obj]

    def unwrapped_bindings(self) -> list[str]:
        """Bindings in pgq modules that still reach an original function."""
        left = []
        originals = {id(fn) for fn in self.originals}
        for modname in [f"pgq.{layer}" for layer in LAYERS] + list(ALIAS_ONLY):
            for attr, obj in vars(importlib.import_module(modname)).items():
                held = list(obj.values()) if isinstance(obj, dict) else (
                    obj if isinstance(obj, (list, tuple)) else [obj])
                if any(id(v) in originals for v in held):
                    left.append(f"{modname}.{attr}")
        return left
