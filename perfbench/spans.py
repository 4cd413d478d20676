"""Span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's side: ``install`` replaces the
library's public functions with wrappers in every ``copartitions`` module
that holds them, so a call is timed wherever its caller looks the name up.
Nothing inside the library changes.

A span is (layer, parent span, op id, start, end).  Spans stay in memory as
flat arrays until the run ends.  A call into a layer from inside the same
layer opens no new span; it only bumps that function's call counter, so
the tight predicate loops of the parity layer stay cheap to trace.

Per-layer numbers derived from the spans:

* ``busy_s`` -- total duration of the layer's outermost spans;
* ``self_s`` -- sum over the layer's spans of duration minus the time its
  direct child spans cover (children run sequentially, so their durations
  add up without overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# Counter hooks run after the wrapped call returns, inside a span of this
# pseudo-layer, so their cost is charged neither to the layer they count
# nor to the caller's self time.
HOOK_LAYER = "trace.hook"


class Tracer:
    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return lid

    def open(self, lid: int) -> int:
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add_span(self, layer: str, start: float, end: float, parent: int = -1) -> int:
        """Record an already finished span, e.g. one measured in a child process."""
        idx = len(self.start)
        self.layer.append(self.layer_id(layer))
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.start.append(start)
        self.end.append(end)
        return idx

    def wrap(self, layer: str, fn, counter: str | None = None, hook=None):
        """Return ``fn`` wrapped in a span of ``layer``.

        ``counter`` names a count bumped on every call, nested or not.
        ``hook(counts, args, kwargs, result)`` adds the layer's work counts.
        """
        lid = self.layer_id(layer)
        hook_lid = self.layer_id(HOOK_LAYER)
        calls = layer + ".calls"
        stack, layers, counts = self._stack, self.layer, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if stack and layers[stack[-1]] == lid:
                return fn(*args, **kwargs)
            counts[calls] += 1
            idx = self.open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                h = self.open(hook_lid)
                try:
                    hook(counts, args, kwargs, result)
                except Exception:  # a changed return type must not stop the run
                    counts[layer + ".hook_errors"] += 1
                finally:
                    self.close(h)
            return result

        return traced

    def export(self) -> dict:
        return {
            "layers": self.layer_names,
            "layer": self.layer.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
            "absent": self.absent,
        }

    def merge(self, data: dict, base_parent: int = -1):
        """Append spans exported by another tracer, e.g. a child process's.

        Its root spans become children of ``base_parent``.
        """
        offset = len(self.start)
        for lid, parent, start, end in zip(data["layer"], data["parent"], data["start"], data["end"]):
            self.add_span(data["layers"][lid], start, end,
                          parent + offset if parent >= 0 else base_parent)
        self.counts.update(data["counts"])
        for name in data["absent"]:
            if name not in self.absent:
                self.absent.append(name)


def layer_times(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per layer: number of spans, busy time and self time, in seconds."""
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child_time = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child_time[p] += dur[i]
    out: dict[str, dict[str, float]] = {}
    for i in range(n):
        lid = tracer.layer[i]
        entry = out.setdefault(tracer.layer_names[lid], {"spans": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["spans"] += 1
        entry["self_s"] += dur[i] - child_time[i]
        p = tracer.parent[i]
        while p >= 0 and tracer.layer[p] != lid:
            p = tracer.parent[p]
        if p < 0:
            entry["busy_s"] += dur[i]
    return out


# --- what gets wrapped ---------------------------------------------------

def seed_passes(factors, n: int) -> int:
    """Passes the seed kernels run for ``factors`` through n.

    One pass per term of a Pochhammer factor; each reciprocal term with
    exponent e runs one pass per k = e, 2e, 4e, ... <= n.  This is a fixed
    yardstick of the work asked for, not a measurement of the kernel.
    """
    total = 0
    for f in factors:
        if f.sign == "reciprocal":
            total += sum((n // e).bit_length() for e in range(f.c, n + 1, f.m))
        else:
            total += len(range(f.c, n + 1, f.m))
    return total


def _kernel_args(args, kwargs):
    factors = args[0] if args else kwargs["factors"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    return factors, n


def _mod2_hook(counts, args, kwargs, result):
    factors, n = _kernel_args(args, kwargs)
    counts["series.mod2.coeffs"] += n + 1
    counts["series.mod2.seed_passes"] += seed_passes(factors, n)


def _exact_hook(counts, args, kwargs, result):
    factors, n = _kernel_args(args, kwargs)
    counts["series.exact.coeffs"] += n + 1
    counts["series.exact.seed_passes"] += seed_passes(factors, n)
    counts["series.exact.out_bits"] += sum(map(int.bit_length, result.coeffs))


def _objects_hook(measure):
    def hook(counts, args, kwargs, result):
        counts["enumeration.objects"] += measure(result)
    return hook


def _load_hook(counts, args, kwargs, result):
    counts["cache.lookups"] += 1
    if result is not None:
        counts["cache.hits"] += 1


def _columns_hook(counts, args, kwargs, result):
    counts["tables.columns"] += len(result.labels)


# (layer, module, function, counter, hook).  A name missing from the
# library is reported as absent and its layer's metrics read 0.
WRAPPED = (
    ("series.mod2", "copartitions.series", "expand_factors_mod2", None, _mod2_hook),
    ("series.exact", "copartitions.series", "expand_factors", None, _exact_hook),
    ("series.mul", "copartitions.series", "mul", None, None),
    ("enumeration", "copartitions.enumeration", "enumerate_copartitions", None, _objects_hook(len)),
    ("enumeration", "copartitions.enumeration", "count_copartitions", None, _objects_hook(int)),
    ("enumeration", "copartitions.enumeration", "crank_distribution", None,
     _objects_hook(lambda d: sum(d.values()))),
    ("parity", "copartitions.parity", "factorize", "parity.factorize_calls", None),
    ("cache", "copartitions.cache", "cached_copartition_parity", None, None),
    ("cache.load", "copartitions.cache", "load_parity", None, _load_hook),
    ("cache.store", "copartitions.cache", "store_parity", None, None),
    ("tables", "copartitions.tables", "generate_table", None, _columns_hook),
    ("cli", "copartitions.cli", "main", None, None),
)

# Every other public function of these modules is wrapped in the given layer.
WRAPPED_MODULES = (("parity", "copartitions.parity"),)


def _public_functions(module):
    return [name for name, obj in vars(module).items()
            if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__]


def install(tracer: Tracer):
    """Wrap the library's public functions in every loaded copartitions module."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "copartitions" or name.startswith("copartitions."))]
    plan = list(WRAPPED)
    named = {(mod, name) for _, mod, name, _, _ in plan}
    for layer, modname in WRAPPED_MODULES:
        module = sys.modules.get(modname)
        if module is not None:
            plan += [(layer, modname, name, None, None) for name in _public_functions(module)
                     if (modname, name) not in named]
    for layer, modname, name, counter, hook in plan:
        module = sys.modules.get(modname)
        fn = getattr(module, name, None) if module is not None else None
        if fn is None or not callable(fn):
            tracer.absent.append(f"{modname}.{name}")
            continue
        wrapper = tracer.wrap(layer, fn, counter, hook)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapper)
