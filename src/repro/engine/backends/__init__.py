"""Pluggable execution backends for :func:`~repro.engine.executor.map_tasks`.

Three implementations of one protocol (:class:`ExecutionBackend`):

* :class:`SerialBackend` — a plain loop in the calling process; the
  reference implementation every other backend must match byte-for-byte;
* :class:`ProcessPoolBackend` — a local
  :class:`~concurrent.futures.ProcessPoolExecutor` fleet;
* :class:`DispatchBackend` — a multi-host work-stealing file queue
  served by ``repro worker`` processes.

Each is a transport under one recovery machine,
:class:`~repro.engine.backends.base.TaskRecovery`, which alone decides
retries, timeouts, worker loss, quarantine, and the ordered settle.

:func:`resolve_executor` maps the ``--executor`` vocabulary (``auto`` /
``serial`` / ``pool`` / ``dispatch``, or an already-constructed backend
instance) to a backend; ``auto`` preserves the historical behaviour of
picking serial for ``jobs <= 1`` or single-task sweeps and the pool
otherwise.
"""

from __future__ import annotations

from repro.engine.backends.base import (
    ExecutionBackend,
    RunState,
    TaskEnvelope,
    TaskRecovery,
    execute_task,
    get_worker_context,
    get_worker_name,
    install_worker_bundle,
    record_event,
    set_worker_context,
    set_worker_name,
    settle_failure,
    settle_success,
    worker_bundle,
)
from repro.engine.backends.dispatch import DispatchBackend, worker_loop
from repro.engine.backends.pool import ProcessPoolBackend
from repro.engine.backends.serial import SerialBackend
from repro.engine.faults import EXECUTOR_MODES

__all__ = [
    "DispatchBackend",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "RunState",
    "SerialBackend",
    "TaskEnvelope",
    "TaskRecovery",
    "execute_task",
    "get_worker_context",
    "get_worker_name",
    "install_worker_bundle",
    "record_event",
    "resolve_executor",
    "set_worker_context",
    "set_worker_name",
    "settle_failure",
    "settle_success",
    "worker_bundle",
    "worker_loop",
]


def resolve_executor(choice, n_jobs: int, n_pending: int) -> ExecutionBackend:
    """Turn an ``--executor`` choice into a backend instance.

    ``choice`` may be a mode string from
    :data:`~repro.engine.faults.EXECUTOR_MODES`, an
    :class:`ExecutionBackend` instance (used as-is, so the CLI can hand
    one configured :class:`DispatchBackend` to every ``map_tasks`` call
    of a run), or ``None`` (= ``"auto"``).
    """
    if choice is None:
        choice = "auto"
    if not isinstance(choice, str):
        if not callable(getattr(choice, "run", None)):
            raise TypeError(
                f"executor must be one of {EXECUTOR_MODES} or an "
                f"ExecutionBackend instance, got {choice!r}"
            )
        return choice
    if choice == "auto":
        if n_jobs <= 1 or n_pending <= 1:
            return SerialBackend()
        return ProcessPoolBackend()
    if choice == "serial":
        return SerialBackend()
    if choice == "pool":
        return ProcessPoolBackend()
    if choice == "dispatch":
        return DispatchBackend()
    raise ValueError(
        f"executor must be one of {EXECUTOR_MODES}, got {choice!r}"
    )
