"""Serial backend — a plain loop in the calling process.

The reference implementation of the backend protocol: every other
backend must produce exactly the results this loop produces.  It is the
recovery machine's in-process transport
(:meth:`~repro.engine.backends.base.TaskRecovery.run_inline`); per-task
wall-clock timeouts cannot be enforced in-process and are ignored
(documented in ``map_tasks``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.engine.backends.base import ExecutionBackend, RunState, TaskRecovery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Task

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Execute every pending task in the calling process, in task order."""

    name = "serial"

    def run(
        self,
        state: RunState,
        pending: "list[Task]",
        results: "dict[int, Any]",
    ) -> None:
        recovery = TaskRecovery(state, pending, results)
        recovery.run_inline(recovery.order)
