"""Spans around the public functions of a package, recorded from outside it.

:meth:`Tracer.install` wraps every public function and every public method
or property of every public class defined in the package's modules, and
rebinds each wrapper in every module namespace that holds the original
(``ordelic.normals.roe_batch`` as well as ``ordelic._kernels.roe_batch``).
Each call records a span (name, start, end, parent) and, for kernel calls,
the number of rows in its last argument.  Spans stay in flat arrays in
memory until :meth:`Tracer.summary` reduces them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def layer_of(module_name: str) -> str:
    """``ordelic._kernels`` -> ``kernels``; ``ordelic.audit`` -> ``audit``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self, package: str, skip_modules=(), rows_layers=()):
        self.package = package
        self.skip_modules = set(skip_modules)
        self.rows_layers = set(rows_layers)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.rows = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, rows: int = 0) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, fn, name: str, count_rows: bool):
        nid = self.name_id(name)
        opener, closer = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = len(args[-1]) if count_rows and args else 0
            idx = opener(nid, rows)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_class(self, cls, prefix: str, count_rows: bool) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, property) and member.fget is not None:
                new = property(self._wrap(member.fget, name, False),
                               member.fset, member.fdel, member.__doc__)
            elif isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(member.__func__, name, False))
            elif inspect.isfunction(member):
                new = self._wrap(member, name, count_rows)
            else:
                continue
            self._patch(cls, attr, new)

    def install(self) -> None:
        """Wrap the package's public callables and rebind the wrappers."""
        modules = self._modules()
        wrappers: dict[int, tuple] = {}
        for mod in modules:
            if mod.__name__ in self.skip_modules:
                continue
            layer = layer_of(mod.__name__)
            count_rows = layer in self.rows_layers
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}",
                                                         count_rows))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch_class(obj, f"{layer}.{attr}", count_rows)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self, groups: dict[str, set]) -> dict:
        """Per span name: calls, total ``s`` (outermost calls only, so
        recursion and nesting are not counted twice), ``self_s`` and rows;
        the same for each named group of span names; per layer self time.

        Raises ValueError when a child span does not fit inside its parent.
        """
        names = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        rows = np.frombuffer(self.rows, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        pid = parent[has_parent]
        if (np.any(start[has_parent] < start[pid]) or np.any(end[has_parent] > end[pid])
                or np.any(self_t < -1e-9)):
            raise ValueError("a child span does not fit inside its parent span")

        def outermost(key):
            top = np.ones(len(key), dtype=bool)
            anc = parent.copy()
            while True:
                live = np.nonzero(anc >= 0)[0]
                if not len(live):
                    return top
                top[live] &= key[anc[live]] != key[live]
                anc[live] = parent[anc[live]]

        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=dur * outermost(names), minlength=width)
        own = np.bincount(names, weights=self_t, minlength=width)
        nrows = np.bincount(names, weights=rows, minlength=width)
        out = {"spans": int(len(dur))}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "s": float(total[i]),
                         "self_s": float(own[i]), "rows": int(nrows[i])}
        for group, members in groups.items():
            key = np.array([g for g, name in enumerate(self.names)
                            if name in members] or [-1])
            in_group = np.isin(names, key)
            gkey = np.where(in_group, 0, np.arange(1, len(names) + 1))
            out[group] = {"calls": int(in_group.sum()),
                          "s": float(np.sum(dur[in_group & outermost(gkey)])),
                          "self_s": float(np.sum(self_t[in_group])), "rows": 0}
        layers: dict[str, float] = {}
        for name, stat in list(out.items()):
            if name in self._ids:
                layer = name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + stat["self_s"]
        out["layers"] = layers
        return out
