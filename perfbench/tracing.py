"""Per-layer counts and self times for maxcurves, taken from outside the package.

:meth:`Tracer.installed` replaces, for its duration, every public
function and method of the eight layer modules (plus the arithmetic
operators of field elements and series, and the semigroup sieve) with a
wrapper, and puts the originals back on exit.  A call that enters a
layer from another layer opens a span; a call inside the same layer is
only counted.  A layer's self time is the time of its spans minus the
time of the spans they open in other layers.  Wrapper cost lands in the
calling layer's self time, so self times are for comparing two versions
traced alike, not for adding up to the untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

LAYERS = ("fields", "curves", "census", "series", "orders", "semigroups", "covering", "cli")
OPERATORS = frozenset({"__add__", "__sub__", "__mul__", "__pow__", "__truediv__"})
TABLE_LIMIT = 16  # fields above this degree multiply without log/antilog tables
METRICS = (
    "fields.mul_calls", "fields.mul_untabled_calls", "fields.pow_calls", "fields.inv_calls",
    "fields.frob_calls", "fields.frob_squarings", "fields.solve_calls", "fields.table_build_s",
    "curves.eval_calls", "curves.normalize_calls", "curves.apply_change_calls",
    "census.count_calls", "census.enumerate_calls", "census.points_enumerated",
    "census.sample_calls", "census.points_sampled", "census.sample_yield",
    "series.expand_calls", "series.newton_rounds", "series.expansions_per_point",
    "series.mul_calls", "series.add_calls", "series.pow2k_calls", "series.hasse_calls",
    "series.expand_s", "orders.dp_calls", "orders.frob_check_calls",
    "semigroups.sieve_calls", "semigroups.sieve_cells",
    "covering.census_checks", "covering.fiber_calls", "cli.run_calls",
) + tuple(f"{layer}.self_s" for layer in LAYERS)


@dataclass(frozen=True)
class Hook:
    """Counting done on a wrapped call: ``before`` runs ahead of it and
    returns a token; ``after`` gets the result, the elapsed time (measured
    on every call when ``timed``, else only on spans) and the token."""

    after: Callable
    before: Callable | None = None
    timed: bool = False


def arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def count(metric: str) -> Hook:
    return Hook(lambda tr, args, kwargs, result, elapsed, token: tr.add(metric))


def _mul_int(tr, args, kwargs, result, elapsed, token):
    fld = args[0]
    tr.add("fields.mul_calls")
    if fld.m > TABLE_LIMIT:
        tr.add("fields.mul_untabled_calls")
    if id(fld) not in tr.fields_seen:
        tr.fields_seen.add(id(fld))
        tr.add("fields.table_build_s", elapsed)


def _frob_int(tr, args, kwargs, result, elapsed, token):
    tr.add("fields.frob_calls")
    if arg(args, kwargs, 1, "a"):
        tr.add("fields.frob_squarings", arg(args, kwargs, 2, "k") % args[0].m)


def _evaluate(tr, args, kwargs, result, elapsed, token):
    if tr.caller_layer() != "curves":
        tr.add("curves.eval_calls")


def _enumerate(tr, args, kwargs, result, elapsed, token):
    tr.add("census.enumerate_calls")
    tr.add("census.points_enumerated", len(result))


def _sample(tr, args, kwargs, result, elapsed, token):
    tr.add("census.sample_calls")
    tr.add("census.points_sampled", len(result))
    tr.add("census.enumerated_in_sample", tr.counts["census.points_enumerated"] - token)


def _expand(tr, args, kwargs, result, elapsed, token):
    tr.add("series.expand_calls")
    tr.add("series.newton_rounds", (arg(args, kwargs, 2, "n") - 1).bit_length())
    tr.add("series.expand_s", elapsed)
    point = arg(args, kwargs, 1, "point")
    tr.expansions[(tr.caller_span("series"), point.x.field.m, point.x.bits, point.y.bits)] += 1


def _sieve(tr, args, kwargs, result, elapsed, token):
    tr.add("semigroups.sieve_calls")
    tr.add("semigroups.sieve_cells", args[0].bound + 1)


HOOKS = {
    "BinaryField.mul_int": Hook(_mul_int, timed=True),
    "BinaryField.pow_int": count("fields.pow_calls"),
    "BinaryField.inv_int": count("fields.inv_calls"),
    "BinaryField.frob_int": Hook(_frob_int),
    "linearized_solve": count("fields.solve_calls"),
    "solve_artin_schreier": count("fields.solve_calls"),
    "PlaneCurve.evaluate": Hook(_evaluate),
    "Poly2.evaluate": Hook(_evaluate),
    "normalize": count("curves.normalize_calls"),
    "apply_change": count("curves.apply_change_calls"),
    "count_rational": count("census.count_calls"),
    "enumerate_points": Hook(_enumerate),
    "sample_points": Hook(_sample, before=lambda tr, args, kwargs: tr.counts["census.points_enumerated"]),
    "expand_y_at": Hook(_expand, timed=True),
    "TruncatedSeries.__mul__": count("series.mul_calls"),
    "TruncatedSeries.__add__": count("series.add_calls"),
    "TruncatedSeries.pow2k": count("series.pow2k_calls"),
    "TruncatedSeries.hasse_derivative": count("series.hasse_calls"),
    "dp_orders": count("orders.dp_calls"),
    "frobenius_identity_check": count("orders.frob_check_calls"),
    "NumericalSemigroup.__init__": Hook(_sieve),
    "covering_census_check": count("covering.census_checks"),
    "fiber": count("covering.fiber_calls"),
    "run": count("cli.run_calls"),
}


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.fields_seen: set[int] = set()
        self.expansions: Counter = Counter()
        self._stack: list[list] = []  # [layer, time in spans of other layers, serial]
        self._serials = itertools.count(1)

    def add(self, metric: str, amount=1) -> None:
        self.counts[metric] += amount

    def caller_layer(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def caller_span(self, layer: str) -> int:
        """Serial of the innermost open span outside the given layer."""
        for frame in reversed(self._stack):
            if frame[0] != layer:
                return frame[2]
        return 0

    def root(self, fn: Callable):
        """Run fn as one benchmark operation, the root span of its calls."""
        return self._span("bench", fn, (), {})[0]

    def _span(self, layer: str, fn: Callable, args, kwargs):
        """(result, elapsed) of fn run as a span of the given layer."""
        stack = self._stack
        frame = [layer, 0.0, next(self._serials)]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self.counts[f"{layer}.self_s"] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
        return result, elapsed

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        hook = HOOKS.get(fn.__qualname__)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is None:
                if stack and stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                return self._span(layer, fn, args, kwargs)[0]
            token = hook.before(self, args, kwargs) if hook.before else None
            if stack and stack[-1][0] == layer:
                start = perf_counter() if hook.timed else 0.0
                result = fn(*args, **kwargs)
                elapsed = perf_counter() - start if hook.timed else 0.0
            else:
                result, elapsed = self._span(layer, fn, args, kwargs)
            hook.after(self, args, kwargs, result, elapsed, token)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        package = importlib.import_module("maxcurves")
        modules = {layer: importlib.import_module(f"maxcurves.{layer}") for layer in LAYERS}
        undo: list[tuple[object, str, object]] = []
        wrapped_functions = {}
        for layer, module in modules.items():
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped_functions[value] = self._wrap(layer, value)
                elif inspect.isclass(value):
                    for attr, member in list(vars(value).items()):
                        replacement = self._wrap_member(layer, value, attr, member)
                        if replacement is not None:
                            undo.append((value, attr, member))
                            setattr(value, attr, replacement)
        # functions are also bound by name in the modules that import them
        for module in (package, *modules.values()):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped_functions:
                    undo.append((module, name, value))
                    setattr(module, name, wrapped_functions[value])
        try:
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def _wrap_member(self, layer: str, cls: type, attr: str, member):
        fn = member.__func__ if isinstance(member, classmethod) else member
        if not inspect.isfunction(fn):
            return None
        if attr.startswith("_") and attr not in OPERATORS and f"{cls.__name__}.{attr}" not in HOOKS:
            return None
        wrapped = self._wrap(layer, fn)
        return classmethod(wrapped) if isinstance(member, classmethod) else wrapped

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric per round of the workload, and the ratios."""
        out = dict.fromkeys(METRICS, 0)
        out.update({name: value / rounds for name, value in self.counts.items()})
        enumerated = out.pop("census.enumerated_in_sample", 0)
        out["census.sample_yield"] = out["census.points_sampled"] / enumerated if enumerated else 0.0
        out["series.expansions_per_point"] = max(self.expansions.values(), default=0)
        out.pop("bench.self_s", None)
        unknown = set(out) - set(METRICS)
        if unknown:
            raise KeyError(f"counters outside METRICS: {sorted(unknown)}")
        return out
