"""Spans measured from outside the program: wrap, fold, dump, merge.

:func:`install` wraps every callable of :data:`layers.SPANS` in a span
and rebinds each module-level name that referred to the original, so
``from x import f`` call sites are timed too.  Spans fold as they close:
each thread keeps a stack, a closing span adds its duration to its
parent's child time, and its *self time* is its duration minus that
child time.  A call into a span from inside a span of the same name is
part of it, not a new boundary crossing.  Each process keeps its fold
in memory and writes it out when it exits; :func:`merge` sums the
files of all processes.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

#: Directory the traced processes write their folds into.
SPANS_DIR_ENV = "PERFBENCH_SPANS_DIR"

FIELDS = ("calls", "total", "self", "units")


class Recorder:
    """Folds nested spans into per-name calls / total / self / units."""

    def __init__(self, clock: "Callable[[], float]" = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: "list[dict[str, list[float]]]" = []

    def _thread_state(self) -> "tuple[list[list[Any]], dict[str, list[float]]]":
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})
            with self._lock:
                self._tables.append(state[1])
            self._local.state = state
        return state

    def call(
        self,
        name: str,
        fn: "Callable[..., Any]",
        args: tuple,
        kwargs: dict,
        units: "Callable[[Any], int] | None" = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack, table = self._thread_state()
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, self.clock(), 0.0]
        stack.append(frame)
        done = 0
        try:
            result = fn(*args, **kwargs)
            done = units(result) if units is not None else 1
            return result
        finally:
            duration = self.clock() - frame[1]
            stack.pop()
            if stack:
                stack[-1][2] += duration
            row = table.get(name)
            if row is None:
                row = table[name] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += duration
            row[2] += max(0.0, duration - frame[2])
            row[3] += done

    def fold(self) -> "dict[str, dict[str, float]]":
        """This process's spans, summed over its threads."""
        with self._lock:
            tables = list(self._tables)
        return merge({name: dict(zip(FIELDS, row)) for name, row in t.items()} for t in tables)


def merge(folds: "Iterable[dict[str, dict[str, float]]]") -> "dict[str, dict[str, float]]":
    """Sum per-span fields over several folds (threads or processes)."""
    out: "dict[str, dict[str, float]]" = {}
    for fold in folds:
        for name, row in fold.items():
            acc = out.setdefault(name, dict.fromkeys(FIELDS, 0))
            for field in FIELDS:
                acc[field] += row.get(field, 0)
    return out


def resolve(target: str) -> "tuple[Any, str, Any]":
    """``module:Qual.name`` -> (owner, attribute, raw attribute value).

    Raises ``LookupError`` when the target no longer exists; a method
    must be defined in its class's own body, not inherited.
    """
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target}: {part!r} not found")
    namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
    if attr not in namespace:
        raise LookupError(f"{target}: {attr!r} not defined there")
    return owner, attr, namespace[attr]


def _wrap(recorder: Recorder, spec: Any, fn: "Callable[..., Any]") -> "Callable[..., Any]":
    name, units, name_of = spec.name, spec.units, spec.name_of

    if name_of is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, units)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name_of(*args, **kwargs), fn, args, kwargs, units)

    return wrapper


def install(recorder: Recorder, spans: "Iterable[Any]") -> "dict[str, int]":
    """Wrap every target of ``spans``; returns, per target, how many
    bindings now point at its wrapper (its definition plus each module
    that imported it by name).  Raises ``LookupError`` listing every
    target that no longer exists."""
    plan = []
    missing = []
    for spec in spans:
        for target in spec.targets:
            try:
                plan.append((spec, target) + resolve(target))
            except (LookupError, ImportError) as exc:
                missing.append(str(exc))
    if missing:
        raise LookupError("layer table out of date:\n  " + "\n  ".join(missing))

    bindings: "dict[str, int]" = {}
    free: "dict[int, tuple[Any, str, Any]]" = {}  # id(original) -> (original, target, wrapper)
    for spec, target, owner, attr, raw in plan:
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(_wrap(recorder, spec, raw.__func__))
        elif callable(raw):
            wrapped = _wrap(recorder, spec, raw)
            if not isinstance(owner, type):
                free[id(raw)] = (raw, target, wrapped)
        else:
            raise LookupError(f"{target}: not a function or method")
        setattr(owner, attr, wrapped)
        bindings[target] = 1

    # Rebind ``from module import fn`` copies of the wrapped free functions.
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            hit = free.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[2])
                bindings[hit[1]] += 1
    return bindings


def install_from_env() -> None:
    """Start-up hook body: wrap the layer table and dump the fold of
    this process into ``$PERFBENCH_SPANS_DIR`` when it exits."""
    from perfbench.layers import ENTRY_MODULES, SPANS

    out_dir = Path(os.environ[SPANS_DIR_ENV])
    for module in ENTRY_MODULES:
        importlib.import_module(module)
    recorder = Recorder()
    bindings = install(recorder, SPANS)

    def dump() -> None:
        doc = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "bindings": bindings,
            "spans": recorder.fold(),
        }
        path = out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")

    atexit.register(dump)


def load_dir(directory: Path) -> "list[dict[str, Any]]":
    """Every per-process fold a traced pass wrote into ``directory``."""
    return [
        json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(Path(directory).glob("spans-*.json"))
    ]
