"""In-memory span tracing of the ``amplify`` layers, from outside the package.

``Tracer.install`` wraps every public function of every ``amplify`` module
and rebinds each module attribute that refers to it (so that, for instance,
``amplify.classification.canonical_form`` and ``amplify.canonical_form`` both
go through the wrapper); ``uninstall`` puts the originals back.  Spans are
kept in memory with their parent's id; self time is a span's duration minus
the durations of its children.  ``exact_reach`` is only counted: a lattice
op calls it about a hundred thousand times, so a span there would cost more
than the work it measures.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("graphs", "reachability", "skewlattice", "isomorph", "kernels", "classification", "cli")
COUNTED_ONLY = {"reachability.exact_reach"}
OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.failures: Counter[str] = Counter()
        self.found = 0
        self.table_len_max = 0
        self.repeats = 0
        self.seen_relations: set[tuple[int, ...]] = set()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list = []

    # ------------------------------------------------------------ spans

    def call(self, name, fn, args, kwargs):
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failures[name] += 1
            raise
        else:
            self._observe(name, args, result)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((sid, parent, name, start, end, frame[1]))

    def _observe(self, name, args, result):
        if name == "reachability.build_reachability":
            self.table_len_max = max(self.table_len_max, result.preperiod + result.period)
        elif name == "classification.search_bounded_iso":
            self.found += result is not None

    def run_op(self, fn):
        """Call ``fn`` as the root span of one operation."""
        return self.call(OP, fn, (), {})

    def reset(self):
        """Forget spans and counters, but not which relations were seen."""
        self.spans.clear()
        self.counts.clear()
        self.failures.clear()
        self.found = self.table_len_max = self.repeats = 0

    # ------------------------------------------------------------ patching

    def _wrapper(self, name, fn):
        tracer = self
        if name in COUNTED_ONLY:
            counts = self.counts

            def counted(*args):
                counts[name] += 1
                return fn(*args)

            return counted
        if name == "reachability.build_reachability":

            def wrapped(graph):
                if graph.rows in tracer.seen_relations:
                    tracer.repeats += 1
                tracer.seen_relations.add(graph.rows)
                return tracer.call(name, fn, (graph,), {})

        else:

            def wrapped(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self, package: str = "amplify"):
        """Wrap the public functions of every ``package`` layer, everywhere bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[id(fn)] = (fn, self._wrapper(f"{layer}.{attr}", fn))
        self._wrappers = [wrapper for _, wrapper in wrappers.values()]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def leftovers(self, package: str = "amplify") -> list[str]:
        """``module.attr`` names still bound to one of this tracer's wrappers."""
        wrappers = {id(w) for w in self._wrappers}
        return [
            f"{key}.{attr}"
            for key, module in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
            for attr, value in vars(module).items()
            if id(value) in wrappers
        ]

    # ------------------------------------------------------------ report

    def layer_stats(self):
        """Per span name: calls, self seconds, max duration; plus op totals."""
        calls: Counter[str] = Counter(self.counts)
        self_s: defaultdict[str, float] = defaultdict(float)
        max_s: defaultdict[str, float] = defaultdict(float)
        names = {}
        for sid, _, name, start, end, child in self.spans:
            names[sid] = name
            calls[name] += 1
            self_s[name] += end - start - child
            max_s[name] = max(max_s[name], end - start)
        nested: Counter[tuple[str, str]] = Counter()
        for _, parent, name, *_ in self.spans:
            if parent:
                nested[(names[parent], name)] += 1
        op_total = sum(end - start for _, _, name, start, end, _ in self.spans if name == OP)
        return calls, self_s, max_s, nested, op_total
