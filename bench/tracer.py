"""Span recorder for the traced run.

The recorder wraps every public function of each layer module of the
package, at every module namespace that binds it, so calls between modules
and inside a module are caught.  Spans (name, start, end, parent, op) stay in
memory until the run ends; :meth:`Recorder.restore` puts every original
function back.  Functions of the ``rational`` layer run once per coefficient,
so they are counted but get no span of their own.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("rational", "linalg", "simplex", "freespace", "metric", "chain", "rtree", "ell1", "campaign", "serialize", "cli")
COUNT_ONLY = frozenset({"rational"})
MARK = "_bench_span"  # attribute set on every wrapper; none may survive restore()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bytes_in(extra, args, kwargs, result):
    extra["serialize.bytes_in"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _tableau(extra, args, kwargs, result):
    rows = len(_arg(args, kwargs, 2, "rhs"))
    extra["simplex.tableau_cells"] += rows * (len(_arg(args, kwargs, 0, "costs")) + 1)


def _truncations(extra, args, kwargs, result):
    points = len(_arg(args, kwargs, 0, "space"))
    extra["chain.truncations"] += points * (points - 1) // 2 * len(_arg(args, kwargs, 1, "family").vectors)


# Work counters read from a call's arguments or result, by wrapped function.
PROBES = {
    "simplex.solve_lp": _tableau,
    "chain.basis_constant": _truncations,
    "rtree.dendrogram": lambda extra, a, k, r: extra.update({"rtree.tree_nodes": len(r.nodes)}),
    "ell1.oracle_vs_lp": lambda extra, a, k, r: extra.update({"ell1.oracle_vectors": r.vectors_checked}),
    "campaign.run_campaign": lambda extra, a, k, r: extra.update({"campaign.instances": len(r.instances)}),
    "serialize.load_space": _bytes_in,
    "serialize.dump_json": lambda extra, a, k, r: extra.update({"serialize.bytes_out": len(r.encode())}),
}


def package_modules(package: str) -> dict:
    return {name: mod for name, mod in sys.modules.items() if name == package or name.startswith(package + ".")}


class Recorder:
    """Spans and counters at the layer boundaries of one imported package."""

    def __init__(self, package: str = "ultrafree"):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op]
        self.calls: Counter = Counter()  # by "<layer>.<function>"
        self.errors: Counter = Counter()  # by layer
        self.extra: Counter = Counter()  # PROBES counters
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        modules = package_modules(self.package)
        wrappers = {}
        for layer in LAYERS:
            module = modules[f"{self.package}.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(layer, f"{layer}.{attr}", obj)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def restore(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, layer: str, name: str, func):
        calls, errors, extra = self.calls, self.errors, self.extra

        if layer in COUNT_ONLY:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                calls[name] += 1
                try:
                    return func(*args, **kwargs)
                except BaseException:
                    errors[layer] += 1
                    raise

            setattr(counted, MARK, name)
            return counted

        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            calls[name] += 1
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(extra, args, kwargs, result)
            return result

        setattr(traced, MARK, name)
        return traced

    def layer_times(self) -> tuple[Counter, Counter]:
        """Self seconds per layer, and inclusive seconds per function name.

        A span's self time is its duration minus the durations of its direct
        children, which nest inside it and so never overlap each other.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name.split(".", 1)[0]] += end - start - child[index]
            if parent < 0 or self.spans[parent][0] != name:
                inclusive[name] += end - start
        return self_s, inclusive

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        total = 0
        for span in self.spans:
            if span[0] == name:
                parent = span[3]
                while parent >= 0 and self.spans[parent][0] != ancestor:
                    parent = self.spans[parent][3]
                total += parent >= 0
        return total

    def count_children(self, names: tuple[str, ...], parent_name: str) -> int:
        """Spans called one of ``names`` whose direct parent is called ``parent_name``."""
        return sum(
            1 for name, _, _, parent, _ in self.spans
            if name in names and parent >= 0 and self.spans[parent][0] == parent_name
        )
