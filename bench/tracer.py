"""Outside-in tracing of the cpn_holonomy layers.

The tracer wraps, from outside the package, every public function and
method of each layer module and records one span per call: the job it
belongs to, the layer and function, start, end and the enclosing span.
Spans stay in memory; self times are computed at the end. Counters attached
to a few functions record the work done at the same boundary.

Binding is found at run time, so functions that later changes delete or
rename simply stop appearing:

- modules are resolved with importlib, because the package re-exports the
  function `holonomy`, which shadows the submodule of that name;
- functions are the module's own public functions and the public methods
  (plus __post_init__ and operators) of its own classes, as found in the
  module when the tracer is installed;
- every module attribute bound to a wrapped function is patched, because
  several modules import functions by name (holonomy imports the connection
  component functions, gates, dynamics and cli import holonomy).

Time spent in private helpers, properties and generated dataclass methods
counts to the nearest enclosing public call.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

PACKAGE = "cpn_holonomy"
LAYERS = ("cli", "gates", "dynamics", "holonomy", "loops", "multipartite",
          "connection", "chart", "linalg")
COMPILERS = ("gates.compile_u2_block", "gates.compile_unitary")


def _batch(a) -> int:
    """Number of matrices in a stacked (..., d, d) array."""
    size = 1
    for s in a.shape[:-2]:
        size *= s
    return size


def _counters(modules: dict) -> dict:
    """Counters by function key: f(tracer, bound arguments, result)."""
    accept = getattr(modules["holonomy"], "ACCEPT_DEFECT", None)

    def add(name, value_of):
        def count(tr, a, result):
            tr.counts[name] += value_of(a, result)
        return count

    def segments(a, result):
        loop = a["loop"]
        return 0 if loop.is_degenerate() else (loop.num_vertices - 1) * a["segments_per_edge"]

    def certified(tr, a, result):
        tr.counts["holonomy.certified"] += 1
        if accept is not None and result.defect > accept:
            tr.counts["holonomy.projected"] += 1

    def compiled(tr, a, result):
        if tr.open_parent() not in COMPILERS:  # count outermost compiles only
            tr.counts["gates.steps_compiled"] += len(result.steps)

    def batch(a, result):
        return _batch(result)

    return {
        "chart.frame_unitary_batch": add("chart.frames", batch),
        "connection.theta_component_batch": add("connection.components", batch),
        "connection.phi_component_batch": add("connection.components", batch),
        "linalg.expm_antihermitian": add("linalg.exponentials", batch),
        "linalg.expm_hermitian_prop": add("linalg.exponentials", batch),
        "linalg.fold_left": add("linalg.product_factors", lambda a, r: a["factors"].shape[0]),
        "linalg.polar_project": add("linalg.polar_projections", batch),
        "holonomy.holonomy": add("holonomy.segments", segments),
        "holonomy.UnitaryMatrix.from_raw": certified,
        "dynamics.propagate_frames": add("dynamics.steps", lambda a, r: a["steps"]),
        "dynamics.kick_evolution": add("dynamics.kick_intervals",
                                       lambda a, r: a["plan"].num_intervals),
        "gates.compile_u2_block": compiled,
        "gates.compile_unitary": compiled,
        "cli.dump_json": add("cli.json_bytes", lambda a, r: len(r)),
    }


def _traceable(name: str) -> bool:
    return not name.startswith("_") or name in ("__post_init__", "__matmul__")


class Tracer:
    """Records spans around calls into the package layers while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [job, key, start, end, parent index]
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open_parent(self) -> str | None:
        """Key of the span enclosing the call being counted, if any."""
        return self.spans[self._stack[-1]][1] if self._stack else None

    def _wrap(self, key: str, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.job, key, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self, bound.arguments, result)
                except (KeyError, AttributeError, TypeError):  # signature has changed
                    self.counts["trace.counter_errors"] += 1
            return result

        return traced

    def _set(self, owner, name: str, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> list[str]:
        """Patch every layer; return the keys of the wrapped functions."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        sites = [importlib.import_module(PACKAGE), *modules.values()]
        bindings = defaultdict(list)  # id of a value -> every (module, name) bound to it
        for site in sites:
            for attr, val in vars(site).items():
                bindings[id(val)].append((site, attr))
        counters = _counters(modules)
        keys = []
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    wrapper = self._wrap(key, obj, counters.get(key))
                    for site, attr in bindings[id(obj)]:
                        self._set(site, attr, wrapper)
                    keys.append(key)
                elif inspect.isclass(obj):
                    keys += self._install_class(layer, obj, counters)
        return keys

    def _install_class(self, layer: str, cls, counters) -> list[str]:
        keys = []
        for name, raw in list(vars(cls).items()):
            binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if binder else raw
            if not _traceable(name) or not inspect.isfunction(fn) \
                    or fn.__code__.co_filename != inspect.getfile(cls):
                continue  # skips properties and generated dataclass methods
            key = f"{layer}.{cls.__name__}.{name}"
            wrapper = self._wrap(key, fn, counters.get(key))
            self._set(cls, name, binder(wrapper) if binder else wrapper)
            keys.append(key)
        return keys

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def self_times(spans) -> dict[str, float]:
    """Self time per span key: each span's duration minus its children's."""
    child = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (_, key, start, end, _) in enumerate(spans):
        out[key] += end - start - child[i]
    return dict(out)


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]
