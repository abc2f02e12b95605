"""Layer tracing from outside the program.

`Tracer.install` wraps the public functions and methods of every
coxbrauer module (a layer) and rebinds every module-level reference to
them, so calls between modules go through the wrappers.  A call that
enters a layer from another layer opens a span; calls inside one layer
do not.  The tracer keeps the open spans on a stack and, as each closes,
adds its duration less the time of its child spans to the layer's self
time.  Spans are aggregated as they close, per layer and per
(caller layer, callee layer) pair, rather than kept one by one: a tilting
job opens millions of them.  Work counters are taken at the same
wrappers.  `uninstall` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

PACKAGE = "coxbrauer"
LAYERS = ("cli", "brauer_tree", "tree_algebra", "homotopy", "linalg",
          "oracle", "cyclotomic", "ell_arith", "numtheory", "root_data")

# Work counters: (layer, qualified name) -> counter raised by one per call.
CALL_COUNTERS = {
    ("linalg", "rref_mod_prime"): "linalg.rank_calls",
    ("tree_algebra", "TreeAlgebra.target"): "tree_algebra.target_calls",
    ("tree_algebra", "TreeAlgebra.elt_mul"): "tree_algebra.elt_mul_calls",
    ("homotopy", "HomComplex.__init__"): "homotopy.hom_complexes",
    ("homotopy", "ProjComplex.__post_init__"): "homotopy.complexes",
    ("oracle", "character_table"): "oracle.tables",
    **{("brauer_tree", f"PlanarBrauerTree.{name}"): "brauer_tree.lookups"
       for name in ("edge", "vertex", "edges_at", "cyclic_order_at",
                    "successor_at", "predecessor_at")},
    **{("cyclotomic", f"CycloInt.{name}"): "cyclotomic.ops"
       for name in ("zero", "integer", "zeta_power", "__add__", "__sub__",
                    "__neg__", "__mul__", "__rmul__", "is_zero", "as_integer",
                    "galois", "conjugate")},
}

# Counters that measure the call: (args, result) -> amount to add.
SIZE_COUNTERS = {
    ("linalg", "rref_mod_prime"):
        ("linalg.rank_cells", lambda args, res: args[0].shape[0] * args[0].shape[1]),
    ("tree_algebra", "TreeAlgebra.__init__"):
        ("tree_algebra.paths", lambda args, res: args[0].dim),
    ("homotopy", "HomComplex.__init__"):
        ("homotopy.hom_basis",
         lambda args, res: sum(len(b) for b in args[0].basis.values())),
    ("brauer_tree", "assemble_tree"):
        ("brauer_tree.edges", lambda args, res: len(res.edges)),
    ("oracle", "character_table"):
        ("oracle.table_cells", lambda args, res: len(res.values) * len(res.classes)),
}

# Inclusive seconds of one function, wherever it is called from.
TIMED = {("oracle", "CharacterTable.check_orthogonality"): "oracle.orthogonality_s"}

COUNTERS = tuple(sorted({*CALL_COUNTERS.values(),
                         *(name for name, _ in SIZE_COUNTERS.values()),
                         *TIMED.values()}))

# Private and dunder methods are wrapped only when a counter needs them.
_HOOKED = {*CALL_COUNTERS, *SIZE_COUNTERS, *TIMED}


class Tracer:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        # frame: [layer, start, seconds covered by child spans]
        self.stack = [["bench", 0.0, 0.0]]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.edges = Counter()          # (caller layer, callee layer) -> spans
        self.reset()

    def reset(self):
        """Zero every figure in place: installed wrappers hold these dicts."""
        del self.stack[1:]
        self.stack[0][2] = 0.0
        self.self_s.update(dict.fromkeys(LAYERS, 0.0))
        self.calls.update(dict.fromkeys(LAYERS, 0))
        self.counters.update({n: 0.0 if n.endswith("_s") else 0 for n in COUNTERS})
        self.edges.clear()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        stack, clock = self.stack, time.perf_counter
        self_s, calls, counters, edges = (self.self_s, self.calls,
                                          self.counters, self.edges)
        count_key = CALL_COUNTERS.get((layer, qualname))
        size = SIZE_COUNTERS.get((layer, qualname))
        timed_key = TIMED.get((layer, qualname))

        def span(args, kwargs):
            caller = stack[-1]
            if caller[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self_s[layer] += dur - frame[2]
                caller[2] += dur
                calls[layer] += 1
                edges[caller[0], layer] += 1

        if size is None and timed_key is None:
            if count_key is None:
                def wrapper(*args, **kwargs):
                    return span(args, kwargs)
            else:
                def wrapper(*args, **kwargs):
                    counters[count_key] += 1
                    return span(args, kwargs)
        else:
            size_key, measure = size if size else (None, None)

            def wrapper(*args, **kwargs):
                if count_key is not None:
                    counters[count_key] += 1
                t0 = clock()
                result = span(args, kwargs)
                if timed_key is not None:
                    counters[timed_key] += clock() - t0
                if size_key is not None:
                    counters[size_key] += measure(args, result)
                return result

        return functools.wraps(fn)(wrapper)

    # -- installing --------------------------------------------------------

    def _wrap_class(self, layer: str, cls: type):
        for name, attr in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if name.startswith("_") and (layer, qual) not in _HOOKED:
                continue
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(layer, qual, attr.__func__))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(layer, qual, attr.__func__))
            elif callable(attr) and not isinstance(attr, type):
                new = self._wrap(layer, qual, attr)
            else:
                continue                    # properties and plain values
            self._undo.append((cls, name, attr))
            setattr(cls, name, new)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
        # rebind each module-level name, wherever it was imported to
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.counters)
        return out

    def span_edges(self) -> dict[str, int]:
        return {f"{a}->{b}": n for (a, b), n in sorted(self.edges.items())}
