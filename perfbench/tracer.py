"""Per-layer host self-time, measured by wrapping each layer from outside.

A *layer* is one package of the program under ``src/repro`` (``sim``,
``mpi``, ``io``, ...).  :class:`LayerTracer` wraps every public function
and method defined in a layer's modules (plus ``__init__``), so that a
call into the layer switches the "current layer" and the return switches
it back.  Each switch charges the time since the previous switch to the
layer that was current, so

* a layer's ``self_s`` is the host time spent inside its own wrapped
  calls, minus the time spent in other wrapped layers they call;
* the time in no wrapped layer at all (the benchmark's glue, the
  ``repro.experiments`` job builders, unwrapped packages) is
  ``unattributed_s``;
* and ``sum(self_s) + unattributed_s`` telescopes to the time between
  :meth:`start` and :meth:`stop`.

Generator functions (the simulated ranks' code) are wrapped so that each
resume step -- every ``send``/``throw`` the caller drives -- is charged to
the generator's layer, not only its creation.

Callers import functions by name (``core.api`` imports ``collective_read``
from ``io``), so :meth:`install` replaces every module-level binding of a
wrapped function in every loaded module, not only the defining one, and
:meth:`uninstall` restores them all.  References captured elsewhere
(dict values, default arguments, bound methods stored before install)
stay unwrapped; their time is charged to the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The program's layers, in the order the metric catalogue lists them.
LAYERS: Tuple[str, ...] = ("sim", "cluster", "mpi", "io", "core", "pfs",
                           "dataspace", "workloads", "faults", "integrity")

#: A meter turns one call into an amount of work: ``meter(args, kwargs,
#: result) -> number``, summed per wrapped function.
Meter = Callable[[tuple, dict, Any], float]

_UNATTRIBUTED = -1


def layer_modules() -> Dict[str, List[types.ModuleType]]:
    """Import every module of each package in :data:`LAYERS`."""
    out: Dict[str, List[types.ModuleType]] = {}
    for layer in LAYERS:
        pkg = importlib.import_module(f"repro.{layer}")
        mods = [pkg]
        for info in pkgutil.walk_packages(pkg.__path__, prefix=f"{pkg.__name__}."):
            mods.append(importlib.import_module(info.name))
        out[layer] = mods
    return out


def _wants(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


class LayerTracer:
    """Self-time and call counts per layer; see the module docstring.

    ``modules`` maps a layer name to the modules that make it up.
    ``meters`` maps a wrapped function's qualified name
    (``module.qualname``) to a :data:`Meter`.
    """

    def __init__(self, modules: Dict[str, List[types.ModuleType]],
                 meters: Optional[Dict[str, Meter]] = None) -> None:
        self.layers: Tuple[str, ...] = tuple(modules)
        self._modules = modules
        self._meters = dict(meters or {})
        #: original function -> wrapper (one wrapper per function object).
        self._wrappers: Dict[Any, Any] = {}
        #: qualified name -> [calls, metered amount] of its wrapper.
        self._cells: Dict[str, List[float]] = {}
        #: (owner, attribute, original value) of every patch applied.
        self._patches: List[Tuple[Any, str, Any]] = []
        # The wrappers close over these three lists, so they are only
        # ever changed in place.  ``_acc`` holds seconds per layer, with
        # the unattributed time in the last slot; ``_state`` is [current
        # layer index, time of the last switch, charging on?].
        self._acc: List[float] = [0.0] * (len(self.layers) + 1)
        self._state: List[Any] = [_UNATTRIBUTED, 0.0, False]
        self._stack: List[int] = []
        acc, state, stack = self._acc, self._state, self._stack
        clock = time.perf_counter

        def enter(layer: int) -> None:
            if state[2]:
                now = clock()
                acc[state[0]] += now - state[1]
                state[1] = now
            stack.append(state[0])
            state[0] = layer

        def leave() -> None:
            if state[2]:
                now = clock()
                acc[state[0]] += now - state[1]
                state[1] = now
            state[0] = stack.pop()

        self._enter, self._exit = enter, leave

    # -- accounting --------------------------------------------------------
    def reset(self) -> None:
        """Zero every time and count."""
        self._acc[:] = [0.0] * len(self._acc)
        self._state[:] = [_UNATTRIBUTED, 0.0, False]
        self._stack.clear()
        for cell in self._cells.values():
            cell[0] = cell[1] = 0

    def start(self) -> None:
        """Begin charging time (to ``unattributed`` until a layer is entered)."""
        self._state[1] = time.perf_counter()
        self._state[2] = True

    def stop(self) -> None:
        """Charge the time up to now and stop."""
        state, now = self._state, time.perf_counter()
        self._acc[state[0]] += now - state[1]
        state[1:] = [now, False]

    @property
    def depth(self) -> int:
        """Layer calls entered but not yet left (0 when balanced)."""
        return len(self._stack)

    def self_seconds(self) -> Dict[str, float]:
        """Host self-time per layer since the last :meth:`reset`."""
        return dict(zip(self.layers, self._acc))

    @property
    def unattributed_s(self) -> float:
        """Host time inside :meth:`start`/:meth:`stop` in no wrapped layer."""
        return self._acc[_UNATTRIBUTED]

    def calls(self, qualname: str) -> int:
        """Calls of the wrapped function ``qualname`` since the last reset."""
        cell = self._cells.get(qualname)
        return int(cell[0]) if cell else 0

    def metered(self, qualname: str) -> float:
        """Sum of ``qualname``'s meter since the last reset."""
        cell = self._cells.get(qualname)
        return cell[1] if cell else 0.0

    def layer_calls(self, layer: str) -> int:
        """Calls into every wrapped function of ``layer``."""
        prefixes = tuple(m.__name__ + "." for m in self._modules[layer])
        return int(sum(cell[0] for name, cell in self._cells.items()
                       if name.startswith(prefixes)))

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn: Any, layer: int) -> Any:
        wrapper = self._wrappers.get(fn)
        if wrapper is not None:
            return wrapper
        qualname = f"{fn.__module__}.{fn.__qualname__}"
        cell = self._cells.setdefault(qualname, [0, 0])
        meter = self._meters.get(qualname)
        enter, leave = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                cell[0] += 1
                gen = fn(*args, **kwargs)
                send, throw = gen.send, gen.throw
                value: Any = None
                exc: Optional[BaseException] = None
                while True:
                    enter(layer)
                    try:
                        item = send(value) if exc is None else throw(exc)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave()
                    exc = None
                    try:
                        value = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as thrown:  # forwarded into gen
                        exc, value = thrown, None
        else:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                cell[0] += 1
                enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                if meter is not None:
                    cell[1] += meter(args, kwargs, result)
                return result

        self._wrappers[fn] = wrapper
        return wrapper

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer function and rebind it everywhere it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for index, layer in enumerate(self.layers):
            for mod in self._modules[layer]:
                for name, obj in list(vars(mod).items()):
                    if isinstance(obj, types.FunctionType):
                        if _wants(name) and obj.__module__ == mod.__name__:
                            self._wrap(obj, index)
                    elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                        self._install_class(obj, index)
        # Module-level bindings, wherever a caller imported them by name.
        for mod in list(sys.modules.values()):
            if not isinstance(mod, types.ModuleType):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    self._patch(mod, name, self._wrappers[obj])

    def _install_class(self, cls: type, layer: int) -> None:
        for name, attr in list(vars(cls).items()):
            if not _wants(name):
                continue
            if isinstance(attr, types.FunctionType):
                self._patch(cls, name, self._wrap(attr, layer))
            elif isinstance(attr, (staticmethod, classmethod)):
                inner = attr.__func__
                if isinstance(inner, types.FunctionType):
                    self._patch(cls, name, type(attr)(self._wrap(inner, layer)))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()
