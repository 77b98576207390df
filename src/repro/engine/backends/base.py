"""Shared machinery of every execution backend.

An :class:`ExecutionBackend` turns a list of pending
:class:`~repro.engine.executor.Task` objects into settled results under
one :class:`RunState` (the resolved knobs of a ``map_tasks`` call).
Everything that must behave identically no matter *where* a task runs
lives here:

* :func:`execute_task` — the instrumented task invocation (chaos hooks,
  telemetry buffers, wall-clock) that runs in whatever process executes
  the task;
* :class:`TaskEnvelope` — the result wrapper that carries worker-side
  telemetry (and the worker's identity) back to the dispatching process;
* :func:`settle_success` / :func:`settle_failure` — the single settle
  path (metric merge, task span, journal record, failure report) every
  backend funnels through, in task order;
* :class:`TaskRecovery` — the task-recovery state machine (attempts,
  retries, timeouts, worker loss, quarantine, ordered settle, and the
  in-process transport every degrade-to-local path shares); a backend
  is only the transport that issues attempts and reports their fate;
* :func:`worker_bundle` / :func:`install_worker_bundle` — the shared
  state a worker process must install before running tasks (context,
  guard mode, chaos plan, metrics switch, array-backend config), used
  by both the process pool's initializer and the multi-host dispatch
  workers.

The determinism contract is enforced by this split: task randomness
rides on the tasks (spawned seeds), shared state ships via the bundle,
and results settle in task order — so serial, process-pool, and
dispatch execution produce bit-identical aggregates.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro import backend as array_backend
from repro.engine import chaos, guards
from repro.engine.faults import RetryPolicy, RunReport, TaskFailure
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Task
    from repro.engine.journal import RunJournal

__all__ = [
    "ExecutionBackend",
    "RunState",
    "TaskEnvelope",
    "TaskRecovery",
    "execute_task",
    "get_worker_context",
    "get_worker_name",
    "install_worker_bundle",
    "record_event",
    "set_worker_name",
    "settle_failure",
    "settle_success",
    "worker_bundle",
]

#: Per-process shared state installed by ``map_tasks``'s ``context``
#: argument — set once per worker (pool initializer, dispatch-queue
#: bundle, or around the serial loop) and read back with
#: :func:`get_worker_context`.
_WORKER_CONTEXT: Any = None

#: Identity of this worker process on task spans (``None`` in the main
#: process; ``pool-<pid>`` in pool workers; the ``repro worker`` name in
#: dispatch workers).
_WORKER_NAME: "str | None" = None


def get_worker_context() -> Any:
    """The shared object passed as ``map_tasks(..., context=...)``.

    Valid only inside a task function during a :func:`map_tasks` call
    that supplied a context; returns ``None`` otherwise.
    """
    return _WORKER_CONTEXT


def set_worker_context(context: Any) -> Any:
    """Install the per-process shared context; returns the previous one."""
    global _WORKER_CONTEXT
    previous = _WORKER_CONTEXT
    _WORKER_CONTEXT = context
    return previous


def get_worker_name() -> "str | None":
    """This process's worker identity, if it has declared one."""
    return _WORKER_NAME


def set_worker_name(name: "str | None") -> None:
    """Declare this process's worker identity (attached to task spans)."""
    global _WORKER_NAME
    _WORKER_NAME = name


def observing() -> bool:
    """Whether task executions should ship telemetry envelopes: metrics
    are being collected, or a tracer wants per-task spans (directly or
    via cross-process span collection)."""
    return (
        obs_metrics.collecting()
        or obs_trace.current_tracer() is not None
        or obs_trace.span_collection()
    )


def worker_bundle(context: Any) -> tuple:
    """Everything a worker process must install before running tasks:
    the shared context, the guard strictness, any chaos plan, whether to
    buffer telemetry metrics for shipping back, the array-backend
    configuration (so workers — pool or dispatch, local or remote —
    compute under the parent's backend/dtype/top-k policy and the
    determinism invariant holds), whether to collect task spans for
    trace stitching, and the event-bus directory of a monitored run."""
    plan = chaos.current_plan()
    return (
        context,
        guards.get_guard_mode(),
        None if plan is None else plan.to_dict(),
        observing(),
        array_backend.get_config().to_dict(),
        obs_trace.current_tracer() is not None or obs_trace.span_collection(),
        obs_events.current_events_dir(),
    )


def install_worker_bundle(bundle: tuple) -> None:
    """Install a :func:`worker_bundle` in this process: shared context,
    guards, chaos, the metrics switch, the array-backend config, the
    span-collection switch, and (for monitored runs) the event bus."""
    context, guard_mode, chaos_doc, metrics_on, backend_doc, trace_on, events_dir = (
        bundle
    )
    set_worker_context(context)
    guards.set_guard_mode(guard_mode)
    chaos.install(None if chaos_doc is None else chaos.ChaosPlan.from_dict(chaos_doc))
    obs_metrics.set_collection(metrics_on)
    array_backend.set_config(array_backend.BackendConfig.from_dict(backend_doc))
    # A forked pool worker inherits the parent's TraceWriter (and its
    # file descriptor) — drop it: workers must *buffer* spans for the
    # dispatcher to stitch, never write the trace file themselves, or
    # their forked id counters would collide with the parent's.
    obs_trace.install_tracer(None)
    obs_trace.set_span_collection(trace_on)
    if events_dir is not None:
        obs_events.ensure_bus(events_dir, role="worker")


@dataclass
class TaskEnvelope:
    """A task result plus the telemetry measured where it executed.

    When metrics collection is on, workers ship their buffered counter
    deltas (plus the task's wall-clock and the worker's identity) back
    to the dispatching process on this envelope; :func:`settle_success`
    unwraps it, so journals, failure handling, and driver aggregation
    only ever see the raw value — the envelope can never leak into
    result bytes.
    """

    value: Any
    metrics: "obs_metrics.MetricsRegistry | None"
    seconds: float
    worker: "str | None" = None
    #: Spans collected where the task executed, for cross-process trace
    #: stitching: ``None`` = this process did not collect (the settler
    #: falls back to a synthesized task span), ``[]`` = the task span
    #: was already emitted in place (a real tracer was installed), a
    #: non-empty list = a :class:`~repro.obs.trace.SpanCollector` buffer
    #: for :func:`~repro.obs.trace.emit_subtree`.
    spans: "list[dict[str, Any]] | None" = None


def execute_task(fn: "Callable[[Task], Any]", task: "Task", stage: str) -> Any:
    """Run one task with chaos + telemetry instrumentation (executes in
    the worker).  Successful executions return a :class:`TaskEnvelope`
    when metrics are being collected; failed attempts drop their buffer
    (only metrics of executions that produced a result are aggregated,
    which keeps the merged totals identical across worker counts).

    When tracing is on, the task's span is opened *here*, in the
    executing process: with a local tracer (serial backend) it emits in
    place; in a worker it is buffered by a
    :class:`~repro.obs.trace.SpanCollector` — together with any spans
    the task function itself opened — and shipped back on the envelope
    for stitching, so distributed traces keep every worker's subtree.
    """
    chaos.set_current_task(stage, task.index)
    collect = observing()
    previous = obs_metrics.begin_task() if collect else None
    collector: "obs_trace.SpanCollector | None" = None
    prev_tracer = None
    start = time.perf_counter()
    try:
        obs_events.emit("task-start", stage=stage, index=task.index)
        chaos.on_task_start(stage, task.index)
        if obs_trace.current_tracer() is None and obs_trace.span_collection():
            collector = obs_trace.SpanCollector()
            prev_tracer = obs_trace.install_tracer(collector)
        if obs_trace.current_tracer() is not None:
            meta: "dict[str, Any]" = {"index": task.index, "stage": stage}
            if _WORKER_NAME is not None:
                meta["worker"] = _WORKER_NAME
            with obs_trace.span(f"task-{task.index}", kind="task", **meta):
                value = fn(task)
        else:
            value = fn(task)
    finally:
        if collector is not None:
            obs_trace.install_tracer(prev_tracer)
        chaos.set_current_task(None, None)
        delta = obs_metrics.end_task(previous) if collect else None
    if not collect:
        return value
    spans = collector.records if collector is not None else (
        [] if obs_trace.current_tracer() is not None else None
    )
    return TaskEnvelope(value, delta, time.perf_counter() - start, _WORKER_NAME, spans)


@dataclass
class RunState:
    """Resolved knobs of one ``map_tasks`` call, handed to the backend."""

    fn: "Callable[[Task], Any]"
    stage: str
    context: Any
    on_error: str
    retry: RetryPolicy
    timeout: "float | None"
    journal: "RunJournal | None"
    report: "RunReport | None"
    n_jobs: int = 1
    #: Poison-task circuit breaker: after this many fatal attempts
    #: (worker deaths) a task is quarantined instead of re-issued.
    quarantine_after: int = 3


def settle_success(state: RunState, task: "Task", outcome: Any) -> Any:
    """Unwrap a telemetry envelope (merge metrics, emit the task span),
    journal the raw value, and return it.  The journal always stores the
    unwrapped value, so a checkpointed run resumes identically whether
    telemetry was on or off when it recorded."""
    if isinstance(outcome, TaskEnvelope):
        value = outcome.value
        obs_metrics.merge_task_metrics(outcome.metrics)
        obs_metrics.observe("executor.task_seconds", outcome.seconds)
        if outcome.spans:
            # A worker collected the task's span subtree: stitch it into
            # the local trace with fresh ids under the open stage span.
            obs_trace.emit_subtree(outcome.spans)
        elif outcome.spans is None:
            # Legacy envelope (no collection where it ran): synthesize
            # the task span from the shipped duration.
            meta: "dict[str, Any]" = {"index": task.index, "stage": state.stage}
            if outcome.worker is not None:
                meta["worker"] = outcome.worker
            obs_trace.record_complete(
                "task-" + str(task.index), "task", outcome.seconds, **meta
            )
        # spans == [] means the span already emitted where it executed.
        obs_events.emit(
            "task-done",
            stage=state.stage,
            index=task.index,
            seconds=round(outcome.seconds, 6),
            worker=outcome.worker,
            experiment=obs_trace.current_experiment(),
        )
    else:
        value = outcome
        obs_events.emit(
            "task-done",
            stage=state.stage,
            index=task.index,
            experiment=obs_trace.current_experiment(),
        )
    if state.journal is not None:
        state.journal.record(state.stage, task.index, value)
    return value


def settle_failure(state: RunState, failure: TaskFailure) -> TaskFailure:
    """Record a terminal task failure everywhere it must be visible."""
    obs_metrics.add("executor.task_failures")
    obs_events.emit(
        "task-failed",
        stage=failure.stage,
        index=failure.index,
        fail_kind=failure.kind,
        error_type=failure.error_type,
        attempts=failure.attempts,
        experiment=obs_trace.current_experiment(),
    )
    if state.report is not None:
        state.report.record_failure(failure)
    if state.journal is not None:
        state.journal.log_failure(failure)
    warnings.warn(failure.describe(), stacklevel=3)
    return failure


def record_event(state: RunState, kind: str, detail: str, **extra) -> None:
    """Record a degradation event (timeout, pool-broken, worker-lost...)."""
    obs_metrics.add("executor.events." + kind)
    obs_events.emit(kind, stage=state.stage, detail=detail, **extra)
    warnings.warn(f"{kind}: {detail}", stacklevel=3)
    if state.report is not None:
        state.report.record_event(kind, detail, stage=state.stage, **extra)


class TaskRecovery:
    """The task-recovery state machine of one backend ``run``.

    It owns everything a task's fate depends on, so every transport
    recovers identically.  A task is *waiting* (due at a clock time,
    with the attempt number it will be issued at), *in flight* (issued
    as :attr:`attempt`; a report about any other attempt is stale and
    ignored), or *resolved* (its value or :class:`TaskFailure` held
    until every earlier task resolved, then settled in task order).

    A transport only issues attempts (:meth:`due`, :meth:`issue`) and
    reports their fate: :meth:`complete`, :meth:`error`,
    :meth:`timeout`, :meth:`lost` (its worker died), or :meth:`requeue`
    (the transport itself dropped the attempt).  Errors and timeouts
    follow ``on_error`` × :class:`RetryPolicy`; a loss re-issues the
    same attempt until the task has killed ``quarantine_after`` workers
    (counted across incarnations through the journal's crash counts,
    so a resumed run quarantines known poison tasks up front) and is
    quarantined.  :meth:`run_inline` executes tasks in this process —
    the serial backend, and every degrade-to-local path.
    """

    def __init__(
        self,
        state: RunState,
        pending: "list[Task]",
        results: "dict[int, Any]",
        clock: "Callable[[], float]" = time.monotonic,
    ):
        self.state = state
        self.tasks = {t.index: t for t in pending}
        self.order = [t.index for t in pending]
        self.results = results
        self.clock = clock
        self.attempt = {i: 0 for i in self.order}
        self.waiting: "dict[int, tuple[float, int]]" = {i: (0.0, 1) for i in self.order}
        self.open = set(self.order)
        self._resolved: "dict[int, tuple[bool, Any]]" = {}
        #: How many tasks (a prefix of :attr:`order`) have settled.
        self.settled = 0
        crashes = {} if state.journal is None else state.journal.crash_counts(state.stage)
        self.losses = {i: crashes.get(i, 0) for i in self.order}
        if state.on_error != "raise":
            for idx in self.order:
                if self.losses[idx] >= state.quarantine_after:
                    self._quarantine(idx)

    @property
    def finished(self) -> bool:
        """Every task resolved (and therefore settled)."""
        return not self.open

    def unresolved(self) -> "list[int]":
        return sorted(self.open)

    def inflight(self) -> "list[int]":
        return sorted(i for i in self.open if i not in self.waiting)

    def due(self) -> "list[int]":
        """Waiting tasks whose (re)issue time has come."""
        now = self.clock()
        return sorted(i for i, (at, _) in self.waiting.items() if at <= now)

    def wait(self, indices) -> None:
        """Sleep until every listed waiting task is due."""
        last = max((self.waiting[i][0] for i in indices if i in self.waiting), default=0.0)
        delay = last - self.clock()
        if delay > 0:
            time.sleep(delay)

    def issue(self, idx: int) -> int:
        """Start a waiting task's next attempt; returns its number."""
        _, self.attempt[idx] = self.waiting.pop(idx)
        return self.attempt[idx]

    def current(self, idx: int, attempt: int) -> bool:
        """Whether a report about ``attempt`` of ``idx`` still counts."""
        return idx in self.open and idx not in self.waiting and self.attempt[idx] == attempt

    def requeue(self, idx: int) -> None:
        """The transport dropped an in-flight attempt through no fault
        of the task: issue the same attempt again, now."""
        self.waiting[idx] = (self.clock(), self.attempt[idx])

    def abandon(self) -> None:
        """Requeue every in-flight task (its transport went away)."""
        for idx in self.inflight():
            self.requeue(idx)

    def complete(self, idx: int, attempt: int, outcome: Any) -> None:
        if self.current(idx, attempt):
            self._resolve(idx, True, outcome)

    def error(
        self,
        idx: int,
        attempt: int,
        exc: BaseException,
        error_type: "str | None" = None,
        message: "str | None" = None,
    ) -> None:
        """The attempt raised ``exc`` (a remote transport may describe
        the original exception separately when it could not ship it)."""
        if not self.current(idx, attempt):
            return
        if self.state.on_error == "raise":
            raise exc
        self._retry_or_fail(
            idx, attempt, "error",
            error_type or type(exc).__name__,
            str(exc) if message is None else message,
        )

    def timeout(self, idx: int, attempt: int, budget: float) -> None:
        """The attempt overran its ``budget`` seconds of wall clock."""
        if not self.current(idx, attempt):
            return
        if self.state.on_error == "raise":
            raise TimeoutError(
                f"task {idx} (stage {self.state.stage!r}) exceeded its "
                f"{budget:g}s wall-clock budget"
            )
        self._retry_or_fail(
            idx, attempt, "timeout", "TimeoutError", f"exceeded {budget:g}s budget"
        )

    def _retry_or_fail(
        self, idx: int, attempt: int, kind: str, error_type: str, message: str
    ) -> None:
        retry = self.state.retry
        if self.state.on_error == "retry" and attempt < retry.max_attempts:
            obs_metrics.add("executor.retries")
            self.waiting[idx] = (self.clock() + retry.delay(idx, attempt), attempt + 1)
            return
        self._resolve(
            idx, False,
            TaskFailure(idx, self.state.stage, kind, error_type, message, attempt),
        )

    def lost(self, idx: int) -> bool:
        """The worker executing ``idx`` died.  Worker loss is not a task
        failure: the same attempt is re-issued — until the task has
        killed ``quarantine_after`` workers, when it is quarantined
        (never re-issued, never run in this process: it just proved it
        kills its host).  Returns whether it was quarantined."""
        state = self.state
        self.losses[idx] += 1
        if state.journal is not None:
            self.losses[idx] = max(
                self.losses[idx], state.journal.record_crash(state.stage, idx)
            )
        obs_metrics.add("executor.worker_losses")
        if self.losses[idx] < state.quarantine_after:
            self.requeue(idx)
            return False
        if state.on_error == "raise":
            raise RuntimeError(
                f"task {idx} (stage {state.stage!r}) killed {self.losses[idx]} "
                "worker(s) and was quarantined; re-run with --on-error skip or "
                "retry to let the remaining tasks complete without it"
            )
        self._quarantine(idx)
        return True

    def _quarantine(self, idx: int) -> None:
        count = self.losses[idx]
        obs_metrics.add("quarantine.tasks")
        record_event(
            self.state,
            "quarantined",
            f"task {idx} killed its worker {count} time(s) "
            f"(quarantine-after={self.state.quarantine_after}); no longer re-issued",
            index=idx,
        )
        self.waiting.pop(idx, None)
        self._resolve(
            idx, False,
            TaskFailure(
                index=idx,
                stage=self.state.stage,
                kind="quarantined",
                error_type="WorkerLost",
                message=f"worker died {count} time(s) executing this task",
                attempts=max(self.attempt[idx], count),
            ),
        )

    def _resolve(self, idx: int, ok: bool, outcome: Any) -> None:
        """Resolve a task, then settle the resolved prefix in task order."""
        self.open.discard(idx)
        self._resolved[idx] = (ok, outcome)
        order = self.order
        while self.settled < len(order) and order[self.settled] in self._resolved:
            i = order[self.settled]
            ok, outcome = self._resolved.pop(i)
            self.results[i] = (
                settle_success(self.state, self.tasks[i], outcome)
                if ok
                else settle_failure(self.state, outcome)
            )
            self.settled += 1

    def run_inline(self, indices) -> None:
        """Execute the listed waiting tasks in this process, attempt
        after attempt, until each resolves.  Nothing can preempt a task
        here, so ``timeout`` does not apply, and no worker can be lost."""
        previous = set_worker_context(self.state.context)
        try:
            for idx in indices:
                while idx in self.waiting:
                    self.wait((idx,))
                    attempt = self.issue(idx)
                    try:
                        outcome = execute_task(self.state.fn, self.tasks[idx], self.state.stage)
                    except Exception as exc:
                        self.error(idx, attempt, exc)
                    else:
                        self.complete(idx, attempt, outcome)
        finally:
            set_worker_context(previous)

    def degrade(self, detail: str, indices, **extra) -> None:
        """Record a ``degraded-serial`` event and run ``indices`` inline."""
        record_event(self.state, "degraded-serial", detail, **extra)
        self.run_inline(indices)


class ExecutionBackend:
    """Protocol of an execution backend.

    A backend receives the resolved :class:`RunState`, the pending tasks
    (journal-replayed results already removed), and the mutable
    ``results`` mapping to fill — one entry per pending task index,
    holding either the task's value or a
    :class:`~repro.engine.faults.TaskFailure`.  Backends must settle
    every outcome through :func:`settle_success` / :func:`settle_failure`
    and must never touch task randomness, so any backend at any worker
    count produces bit-identical aggregates.
    """

    #: Short name used by ``--executor`` and the ambient policy.
    name = "abstract"

    def run(
        self,
        state: RunState,
        pending: "list[Task]",
        results: "dict[int, Any]",
    ) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (dispatch workers, queues)."""
