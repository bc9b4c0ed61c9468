"""Spans around the public functions of each seshadri layer, from outside.

The program is not changed: `Tracer.install` replaces each traced function
with a wrapper at every place a caller looks it up. Modules bind names with
`from .exact import compare`, so a function is patched on every seshadri
module whose attribute is that very object; methods are patched on their
class. `uninstall` puts the originals back.

A span is (function index, start, end, parent span index, operation id).
Spans stay in memory; `layer_metrics` folds them into per-function call
counts and self times (duration minus the time direct child spans cover).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute path) of every traced function, grouped by layer.
TARGETS = (
    ("exact", "compare"),
    ("exact", "squarefree_decomposition"),
    ("exact", "sqrt_enclosure"),
    ("exact", "RationalInterval.__post_init__"),
    ("exact", "QuadraticNumber.enclosure"),
    ("exact", "parse_quadratic"),
    ("surface", "CurveClass.__post_init__"),
    ("surface", "CurveClass.render"),
    ("surface", "submaximal_locus"),
    ("search", "enumerate_critical_pairs"),
    ("search", "edim_condition"),
    ("search", "check_pair"),
    ("region", "verify_t_bound"),
    ("region", "audit_certificate"),
    ("region", "large_r_inequalities"),
    ("thresholds", "threshold"),
    ("thresholds", "classify"),
    ("thresholds", "verify_coverage"),
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "resolve_config"),
)
LAYERS = ("exact", "surface", "search", "region", "thresholds", "cli")
NAMES = tuple(f"{module}.{path}" for module, path in TARGETS)
_COMPARE = NAMES.index("exact.compare")
_ENCLOSURE = NAMES.index("exact.QuadraticNumber.enclosure")
_ENUMERATE = NAMES.index("search.enumerate_critical_pairs")


class BindingMissed(RuntimeError):
    """A traced function is still reachable unwrapped."""


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "seshadri" or name.startswith("seshadri."))]


def _radicand(x) -> int:
    return getattr(x, "rad", 0)


class Tracer:
    """Records spans while installed; one tracer per traced round."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op_id = -1
        self.cross_field_compares = 0
        self.pairs_enumerated = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, index: int, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span] = (index, start, end, parent, self.op_id)
            if index == _ENUMERATE:
                self.pairs_enumerated += len(result)
            return result

        if index == _COMPARE:
            inner = traced

            def traced(x, y):  # noqa: F811 - compare also counts field crossings
                rx, ry = _radicand(x), _radicand(y)
                if rx and ry and rx != ry:
                    self.cross_field_compares += 1
                return inner(x, y)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        for index, (module, path) in enumerate(TARGETS):
            owner = by_name[f"seshadri.{module}"]
            if "." in path:  # method: patch the class once
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(index, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(index, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, original, wrapper)
        self._check_no_original_left(modules)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _check_no_original_left(self, modules) -> None:
        originals = {id(original) for _, _, original in self._patches}
        for m in modules:
            for attr, value in vars(m).items():
                if id(value) in originals:
                    raise BindingMissed(f"{m.__name__}.{attr} is still unwrapped")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and self seconds, and the derived counts."""
        n = len(NAMES)
        calls, total, child = [0] * n, [0.0] * n, [0.0] * len(self.spans)
        enclosures_in_compare = 0
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for span, (index, start, end, parent, _) in enumerate(self.spans):
            calls[index] += 1
            total[index] += (end - start) - child[span]
            if index == _ENCLOSURE and parent >= 0 and self.spans[parent][0] == _COMPARE:
                enclosures_in_compare += 1
        metrics: dict[str, float] = {}
        for index, name in enumerate(NAMES):
            metrics[f"{name}.calls"] = calls[index]
            metrics[f"{name}.self_s"] = total[index]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                total[i] for i, name in enumerate(NAMES) if name.startswith(layer + ".")
            )
        compares = calls[_COMPARE]
        edims = metrics["search.edim_condition.calls"]
        metrics["exact.compare.cross_field_calls"] = self.cross_field_compares
        metrics["exact.compare.enclosures_per_call"] = (
            enclosures_in_compare / compares if compares else 0.0
        )
        metrics["search.pairs"] = self.pairs_enumerated
        metrics["search.pairs_per_edim"] = self.pairs_enumerated / edims if edims else 0.0
        return metrics

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent span, operation.
        The parent is the line number of the parent span, from 0; -1 at a root."""
        with open(path, "w") as handle:
            for index, start, end, parent, op in self.spans:
                handle.write(json.dumps([NAMES[index], start, end, parent, op]) + "\n")
