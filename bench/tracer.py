"""Spans around the public functions of every ddstab module, kept in memory.

The benchmark never edits the package. ``Tracer.install`` replaces each
public function of each layer module with a wrapper that records a span,
and patches that wrapper into every ``ddstab`` module that holds the same
function object under any name. Modules import one another by name
(``from .synthesis import solve_plain_lmi``), so patching only the defining
module would leave those calls unseen. ``BarrierBackend.solve`` is wrapped
on the class. ``numpy.linalg.cholesky``, ``numpy.linalg.svd`` and
``scipy.linalg.cho_factor`` are counted, not spanned, so the solver's self
time keeps the factorizations it does.

A span is ``(name, start, end, parent, item, extra)``: times from
``time.perf_counter`` in seconds, ``parent`` the index of the enclosing
span or -1, ``item`` the id of the benchmark item that caused it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "experiments", "informativity", "synthesis", "sdp",
          "verification", "data", "linalg")

# (module, attribute) of the counted third-party kernels
COUNTED = (("numpy.linalg", "cholesky"), ("numpy.linalg", "svd"),
           ("scipy.linalg", "cho_factor"))


def _solve_extra(args, result):
    problem = args[1]
    size = max((C.shape[0] for C, _ in problem.blocks), default=0)
    return {"d": problem.dim, "s": size, "t": float(result.t)}


def _sample_extra(args, result):
    return {"rejected": result is None}


# extra fields recorded on a span from its arguments and result
EXTRAS = {"sdp.solve": _solve_extra, "data.sample_consistent": _sample_extra}


class Tracer:
    """Records spans and kernel counts while installed; see the module doc."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[tuple[int, str]] = []
        self.item = None
        # (kernel name, name of the innermost open span) -> calls
        self.counts: Counter = Counter()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        """Reserve a span slot and make it the parent of spans opened next."""
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append((idx, name))
        return idx

    def close(self, idx: int, name: str, start: float, extra=None) -> None:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else -1
        self.spans[idx] = (name, start, end, parent, self.item, extra)

    def add(self, name: str, start: float, end: float, extra=None) -> None:
        """Append a finished span measured by the caller."""
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append((name, start, end, parent, self.item, extra))

    def _wrap(self, name: str, fn):
        make_extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, name, start, {"raised": type(exc).__name__})
                raise
            self.close(idx, name, start,
                       make_extra(args, result) if make_extra else None)
            return result

        return traced

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            inner = self.stack[-1][1] if self.stack else None
            self.counts[(name, inner)] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _set(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> "Tracer":
        modules = {name: importlib.import_module(f"ddstab.{name}") for name in LAYERS}
        package = [m for n, m in sorted(sys.modules.items())
                   if (n == "ddstab" or n.startswith("ddstab.")) and m is not None]
        replaced = {}
        for layer, module in modules.items():
            for fname, fn in vars(module).items():
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                replaced[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for module in package:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)
        sdp = modules["sdp"]
        for cls in (sdp.BarrierBackend, sdp.CvxpyBackend):
            self._set(cls, "solve", self._wrap("sdp.solve", cls.solve))
        for modname, attr in COUNTED:
            module = importlib.import_module(modname)
            self._set(module, attr, self._count(f"{modname}.{attr}",
                                                getattr(module, attr)))
        return self

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def dump(self, path: str, **fields) -> None:
        """Write every span and count once, as one JSON document."""
        payload = {
            **fields,
            "fields": ["name", "start", "end", "parent", "item", "extra"],
            "spans": self.spans,
            "counts": [[k, inner, v] for (k, inner), v in sorted(
                self.counts.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
