"""Per-layer spans for one esvsim CLI process, patched in from outside.

``install()`` wraps every public function of the esvsim layers, and every
function one esvsim module imports from another (such as
``fock._apply_unitary`` in ``dynamics`` and ``protocols``), and binds each
wrapper in every esvsim module namespace that bound the original.  No
library file changes.  A span's self time is its duration minus the time
of the wrapped calls made inside it.

A few spans also count computed work from their arguments: ``n3`` (sum of
n**3 over eigensolves of n x n matrices) and ``bytes`` (input plus output
array bytes).  Those counts come from array sizes, not from a hardware
counter.
"""

from __future__ import annotations

import functools
import sys
import time
import types
import warnings

LAYERS = ("fock", "states", "separability", "measures", "channels", "dynamics", "protocols", "cli")
_CALLABLES = (types.FunctionType, functools._lru_cache_wrapper)


def _array_bytes(state) -> int:
    arr = getattr(state, "mat", None)
    if arr is None:
        arr = getattr(state, "amps", state)
    return int(getattr(arr, "nbytes", 0))


def _eig_work(args, result):
    return {"n3": len(result) ** 3}


def _io_bytes(args, result):
    return {"bytes": _array_bytes(args[0]) + _array_bytes(result)}


# span -> function of (positional args, result) giving work counts
WORK = {
    "fock.eigs_hermitian": _eig_work,
    "fock.partial_transpose": _io_bytes,
    "fock.apply_beamsplitter": _io_bytes,
}


class Tracer:
    """Span totals and counters of one process."""

    def __init__(self):
        self.spans: dict[str, dict[str, float]] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.truncation_warnings = 0
        self._open: list[float] = []     # child time accumulated per open span
        self._originals: dict[str, object] = {}

    def wrap(self, key: str, fn):
        layer = key.split(".", 1)[0]
        stats = self.spans.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        work = WORK.get(key)
        open_spans = self._open
        self._originals[key] = fn

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                child = open_spans.pop()
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed
            if work is not None:
                for name, value in work(args, result).items():
                    stats[name] = stats.get(name, 0) + value
            return result

        return span

    def report(self) -> dict:
        """Spans, per-layer errors, truncation warnings and lru_cache counts."""
        caches = {key: fn.cache_info()._asdict() for key, fn in self._originals.items()
                  if hasattr(fn, "cache_info")}
        return {"spans": self.spans, "errors": self.errors,
                "truncation_warnings": self.truncation_warnings, "caches": caches}


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside esvsim modules.

    Counts TruncationWarning emissions before the warnings filter drops
    repeats, then forwards the call.  The span wrappers add stack frames, so
    under tracing a warning names a wrapper as its location; only stderr
    differs, never the CSV.
    """

    def __init__(self, tracer: Tracer, category: type):
        self._tracer = tracer
        self._category = category

    def warn(self, message, category=None, stacklevel=1, source=None):
        if category is not None and issubclass(category, self._category):
            self._tracer.truncation_warnings += 1
        warnings.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(warnings, name)


def _home(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    prefix, _, layer = module.partition(".")
    return layer if prefix == "esvsim" and layer in LAYERS else None


def install() -> Tracer:
    """Wrap the esvsim layers of this process; esvsim.cli must be imported."""
    tracer = Tracer()
    modules = {layer: sys.modules[f"esvsim.{layer}"] for layer in LAYERS}
    targets: dict[int, tuple[str, object]] = {}
    for layer, module in modules.items():
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, _CALLABLES) and _home(obj) == layer:
                targets[id(obj)] = (f"{layer}.{name}", obj)
        for obj in vars(module).values():
            home = _home(obj)
            if isinstance(obj, _CALLABLES) and home not in (None, layer):
                targets[id(obj)] = (f"{home}.{obj.__name__}", obj)
    wrappers = {ident: tracer.wrap(key, fn) for ident, (key, fn) in targets.items()}
    counting = _CountingWarnings(tracer, modules["fock"].TruncationWarning)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "esvsim" and not mod_name.startswith("esvsim."):
            continue
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, name, wrappers[id(obj)])
            elif obj is warnings:
                setattr(module, name, counting)
    return tracer
