"""Layer spans recorded from outside the program.

The tracer wraps every public module-level function of the ``meskit`` modules
and rebinds each name, in every module namespace that holds it, to the
wrapper.  Calls between modules go through those namespaces, so a call such
as ``meskit.classify.recover_unitary`` -> ``meskit.classify.pi`` is seen as a
``classify.recover_unitary`` span with a ``states.pi`` child.  ``src/`` is
not changed.  Spans are folded into per-name totals in memory (calls, busy
seconds, self seconds) and handed out with :meth:`Tracer.snapshot`.

Busy time of a name counts only its outermost active call, so recursion
through a wrapper is not counted twice.  Self time is a span's duration minus
the time of its direct child spans.  ``covered_s`` is the time inside
outermost spans of the library layers (everything but ``cli``), i.e. the
part of an operation that the per-layer numbers explain.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types

LAYERS = ("tensor", "states", "superop", "choi", "extension", "classify", "lemmas", "serialize")
MODULES = LAYERS + ("cli",)


class Tracer:
    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: dict[str, float] = {}
        self.covered_s = 0.0
        self._stack: list[list] = []  # [name, child seconds]
        self._active: dict[str, int] = {}
        self._lib_depth = 0

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def record(self, name: str, seconds: float) -> None:
        """A span measured by the caller (e.g. the CLI import), with no children."""
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        entry[2] += seconds
        if not self._stack:
            self.covered_s += seconds

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "covered_s": self.covered_s}

    def wrap(self, name: str, fn, hook=None):
        library = name.split(".", 1)[0] != "cli"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer._stack.append(frame)
            depth = tracer._active.get(name, 0)
            tracer._active[name] = depth + 1
            tracer._lib_depth += library
            start = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs)
            except BaseException as exc:
                tracer.add(f"{name}.raised.{type(exc).__name__}", 1)
                raise
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer._active[name] = depth
                tracer._lib_depth -= library
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                entry = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                if depth == 0:
                    entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if library and tracer._lib_depth == 0:
                    tracer.covered_s += elapsed

        return wrapper

    def install(self) -> None:
        """Rebind every public meskit function to a span wrapper."""
        if self._restore:
            return
        import meskit

        modules = {short: importlib.import_module(f"meskit.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                traceable = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                if attr.startswith("_") or not traceable or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = self.wrap(name, obj, _HOOKS.get(name))
        for mod in (meskit, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        # run_all iterates a list of function objects, not names.
        checks = modules["lemmas"]._CHECKS
        self._restore.append((checks, slice(None), list(checks)))
        checks[:] = [(label, wrappers.get(id(fn), fn)) for label, fn in checks]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(key, slice):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()


def _span_basis_hook(tracer: Tracer, fn, args, kwargs):
    misses = fn.cache_info().misses
    drawn = tracer.calls("states.pi")
    basis = fn(*args, **kwargs)
    if fn.cache_info().misses > misses:
        tracer.add("superop.span_mes_basis.misses", 1)
        tracer.add("superop.span_basis_size", len(basis))
        tracer.add("superop.span_elements_drawn", tracer.calls("states.pi") - drawn)
    return basis


def _read_json_hook(tracer: Tracer, fn, args, kwargs):
    tracer.add("serialize.bytes_read", os.path.getsize(args[0]))
    return fn(*args, **kwargs)


def _write_json_hook(tracer: Tracer, fn, args, kwargs):
    fn(*args, **kwargs)
    tracer.add("serialize.bytes_written", os.path.getsize(args[0]))


def _extend_hook(tracer: Tracer, fn, args, kwargs):
    ext = fn(*args, **kwargs)
    tracer.add("extension.matrix_bytes", ext.matrix.nbytes)
    return ext


_HOOKS = {
    "superop.span_mes_basis": _span_basis_hook,
    "serialize.read_json": _read_json_hook,
    "serialize.write_json": _write_json_hook,
    "extension.extend": _extend_hook,
}
