"""In-memory spans and call counters around the public functions of ``srgeom``.

:meth:`Tracer.install` replaces each traced function by a wrapper, both in
its defining module and in every ``srgeom`` module that imported it by name
(``g235`` imports ``structure_functions`` from ``manifold``, for instance);
methods are replaced on their class.  Timed functions record a span: name,
start, end and the index of the enclosing span.  ``expr.simplify`` records a
span only for its outermost call and counts every call, recursive ones
included.  The smart constructors and ``differentiate`` are only counted.

A span's self time is its duration minus the time covered by its direct
children, so the self times of all spans under a root add up to the root's
duration.  Spans stay in memory until :meth:`Tracer.dump` writes them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# (module, attribute, span name); "Class.method" attributes patch the class.
TIMED = (
    ("contact", "extract_contact_data", "contact.extract_contact_data"),
    ("contact", "morimoto_grading_contact", "contact.morimoto_grading_contact"),
    ("contact", "connection_prime", "contact.connection_prime"),
    ("contact", "connection_double_prime", "contact.connection_double_prime"),
    ("contact", "morimoto_connection_contact", "contact.morimoto_connection_contact"),
    ("g235", "intrinsic_frame_235", "g235.intrinsic_frame_235"),
    ("g235", "morimoto_grading_235", "g235.morimoto_grading_235"),
    ("g235", "morimoto_connection_235", "g235.morimoto_connection_235"),
    ("connection", "Connection.__init__", "connection.Connection_init"),
    ("connection", "Connection.torsion_tensor", "connection.torsion_tensor"),
    ("connection", "Connection.curvature_tensor", "connection.curvature_tensor"),
    ("connection", "Connection.torsion_at", "connection.torsion_at"),
    ("connection", "Connection.curvature_at", "connection.curvature_at"),
    ("connection", "check_morimoto", "connection.check_morimoto"),
    ("connection", "flatness_check", "connection.flatness_check"),
    ("manifold", "check_constant_symbol", "manifold.check_constant_symbol"),
    ("manifold", "structure_functions", "manifold.structure_functions"),
    ("manifold", "frame_inverse", "manifold.frame_inverse"),
    ("lie", "isometry_algebra", "lie.isometry_algebra"),
)
COUNTED = ("add", "mul", "differentiate")
SIMPLIFY = "expr.simplify"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []  # (name id, start, end, parent span index)
        self.calls: list = []
        self.total_s: list = []
        self.self_s: list = []
        self._stack: list = []  # [span index, name id, start, child seconds]
        self._cells: dict = {}  # counter name -> one-element list
        self._simplify_stats = lambda: (0, 0)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    # -- spans -----------------------------------------------------------------

    def _enter(self, nid: int) -> None:
        self._stack.append([len(self.spans), nid, time.perf_counter(), 0.0])
        self.spans.append(None)

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, nid, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        self.spans[idx] = (nid, start, end, parent[0] if parent else -1)
        self.calls[nid] += 1
        self.total_s[nid] += dur
        self.self_s[nid] += dur - child
        if parent:
            parent[3] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        self._enter(self._name_id(name))
        try:
            yield
        finally:
            self._exit()

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name: str, fn):
        nid = self._name_id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def _counted(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _simplify(self, fn):
        nid = self._name_id(SIMPLIFY)
        enter, exit_ = self._enter, self._exit
        calls = changed = depth = 0

        @functools.wraps(fn)
        def simplify(e):
            nonlocal calls, changed, depth
            calls += 1
            top = not depth
            if top:
                enter(nid)
            depth += 1
            try:
                out = fn(e)
            finally:
                depth -= 1
                if top:
                    exit_()
            if out is not e:
                changed += 1
            return out

        self._simplify_stats = lambda: (calls, changed)
        return simplify

    def install(self) -> None:
        """Wrap every traced function of the imported ``srgeom`` package."""
        pkg = importlib.import_module("srgeom")
        for mod in ("expr", "lie", "manifold", "connection", "contact", "g235", "models"):
            importlib.import_module(f"srgeom.{mod}")
        expr = pkg.expr
        wrappers = [(expr.simplify, self._simplify(expr.simplify))]
        wrappers += [
            (getattr(expr, n), self._counted(f"expr.{n}", getattr(expr, n)))
            for n in COUNTED
        ]
        for mod, attr, name in TIMED:
            owner = sys.modules[f"srgeom.{mod}"]
            if "." in attr:
                cls, meth = attr.split(".")
                klass = getattr(owner, cls)
                setattr(klass, meth, self._timed(name, getattr(klass, meth)))
            else:
                fn = getattr(owner, attr)
                wrappers.append((fn, self._timed(name, fn)))
        modules = [m for k, m in sys.modules.items()
                   if k == "srgeom" or k.startswith("srgeom.")]
        for orig, wrapper in wrappers:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        calls, changed = self._simplify_stats()
        return {
            "spans": {
                name: {"calls": self.calls[i], "total_s": self.total_s[i],
                       "self_s": self.self_s[i]}
                for i, name in enumerate(self.names)
            },
            "counts": {name: cell[0] for name, cell in self._cells.items()},
            "simplify_calls": calls,
            "simplify_changed": changed,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)

