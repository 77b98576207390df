"""Process-pool backend — :class:`concurrent.futures.ProcessPoolExecutor`.

A transport under the shared :class:`~repro.engine.backends.base.TaskRecovery`
machine, which decides every task's fate (retry, skip, raise, timeout,
worker loss, quarantine, ordered settle).  Workers are initialised with
the shared worker bundle; each round issues every unresolved task to a
fresh pool and awaits the futures in task order.  A hung task ends the
round (the pool is torn down so the remaining tasks keep running); a
broken pool (a worker died hard) is rebuilt under ``retry`` within a
bounded budget, else the remainder runs in the calling process.

Blame for a break: every submission runs under an *in-flight marker* (a
file named for the task index, holding the worker's pid) that the
worker removes when the task settles — so the markers that survive a
break identify exactly which tasks were executing, and matching their
pids against the dead workers' narrows that to the tasks whose worker
actually died.  Only those are reported to the machine as worker
losses; innocent co-resident tasks are simply re-issued.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import TYPE_CHECKING, Any

from repro.engine.backends.base import (
    ExecutionBackend,
    RunState,
    TaskRecovery,
    execute_task,
    install_worker_bundle,
    record_event,
    set_worker_name,
    worker_bundle,
)
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Task

__all__ = ["ProcessPoolBackend"]

#: How many times a broken pool is rebuilt (under ``on_error="retry"``)
#: before the remainder degrades to the calling process.
_MAX_POOL_REBUILDS = 2


def _init_worker(bundle: tuple) -> None:
    """Pool initializer: install the shared worker bundle and declare
    this process's identity for task spans."""
    install_worker_bundle(bundle)
    set_worker_name(f"pool-{os.getpid()}")


def _execute_marked(marker_dir: str, fn, task, stage: str):
    """Run one task under an in-flight marker (executes in the worker).

    The marker (named for the task index, holding this worker's pid) is
    removed however the task settles — return or raise — so it survives
    only a hard worker death (``SIGKILL``, ``os._exit``), which is
    precisely the signal the dispatching process needs to blame the
    right task when the pool breaks.  Marker I/O is best effort: a full
    disk costs blame precision, never the task.
    """
    path = os.path.join(marker_dir, f"inflight-{int(task.index):06d}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
    except OSError:
        path = None
    try:
        return execute_task(fn, task, stage)
    finally:
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead workers."""
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except Exception:  # already gone
            pass


class ProcessPoolBackend(ExecutionBackend):
    """Execute pending tasks on a local pool of worker processes."""

    name = "pool"

    def run(
        self,
        state: RunState,
        pending: "list[Task]",
        results: "dict[int, Any]",
    ) -> None:
        recovery = TaskRecovery(state, pending, results)
        marker_dir = tempfile.mkdtemp(prefix="repro-pool-inflight-")
        try:
            self._run_rounds(recovery, marker_dir)
        finally:
            shutil.rmtree(marker_dir, ignore_errors=True)

    def _run_rounds(self, recovery: TaskRecovery, marker_dir: str) -> None:
        """Issue every unresolved task to a fresh pool per round until
        all resolve; a round ends early when the pool breaks or a task
        overruns its budget (the pool is then torn down)."""
        state = recovery.state
        pool_breaks = 0
        unresolved_at_break: "int | None" = None
        while not recovery.finished:
            round_ = recovery.unresolved()
            recovery.wait(round_)
            self._clear_markers(marker_dir)
            pool = ProcessPoolExecutor(
                max_workers=min(max(state.n_jobs, 1), len(round_)),
                initializer=_init_worker,
                initargs=(worker_bundle(state.context),),
            )
            try:
                futures = {
                    idx: (
                        recovery.issue(idx),
                        pool.submit(_execute_marked, marker_dir, state.fn,
                                    recovery.tasks[idx], state.stage),
                    )
                    for idx in round_
                }
                abort = self._await(recovery, futures)
            except BaseException:
                _kill_pool(pool)
                raise
            if abort is None:
                pool.shutdown(wait=True)
                continue
            # Work that finished cleanly before the abort must not be lost.
            for idx, (attempt, fut) in futures.items():
                if fut.done() and not fut.cancelled() and fut.exception() is None:
                    recovery.complete(idx, attempt, fut.result())
            dead_pids = self._dead_pids(pool) if abort == "broken" else set()
            _kill_pool(pool)
            if abort == "broken":
                # The rebuild budget guards against a *stuck* loop, not
                # against many distinct transient deaths: a break that
                # arrives with fewer unresolved tasks than the previous
                # one means the run is advancing, so the budget restarts.
                unresolved = len(recovery.open)
                if unresolved_at_break is not None and unresolved < unresolved_at_break:
                    pool_breaks = 0
                unresolved_at_break = unresolved
                pool_breaks += 1
                record_event(
                    state,
                    "pool-broken",
                    "a worker process died and broke the pool "
                    f"({unresolved} task(s) unresolved)",
                )
                blamed = self._blame(marker_dir, recovery.inflight(), dead_pids)
                quarantined = [idx for idx in blamed if recovery.lost(idx)]
                if quarantined:
                    # The breaker removed the culprit: forward progress,
                    # so the rebuild budget starts over for the survivors.
                    pool_breaks = 0
            recovery.abandon()
            if abort == "broken" and not recovery.finished:
                if state.on_error != "retry" or pool_breaks > _MAX_POOL_REBUILDS:
                    recovery.degrade(
                        f"re-executing the unfinished {len(recovery.open)} task(s) "
                        "in the calling process",
                        recovery.unresolved(),
                    )
                    return
                obs_metrics.add("executor.pool_rebuilds")

    @staticmethod
    def _await(recovery: TaskRecovery, futures: dict) -> "str | None":
        """Report each future's fate in task order; returns why the
        round must end early (``"broken"``/``"timeout"``), or ``None``."""
        state = recovery.state
        for idx, (attempt, fut) in futures.items():
            try:
                value = fut.result(timeout=state.timeout)
            except BrokenExecutor:
                return "broken"
            except _FuturesTimeout as exc:
                if fut.done():  # the task itself raised a TimeoutError
                    recovery.error(idx, attempt, exc)
                    continue
                budget = state.timeout if state.timeout is not None else 0.0
                record_event(
                    state,
                    "timeout",
                    f"task {idx} exceeded its {budget:g}s wall-clock budget; "
                    "restarting the worker pool",
                    index=idx,
                )
                recovery.timeout(idx, attempt, budget)
                return "timeout"
            except Exception as exc:
                recovery.error(idx, attempt, exc)
            else:
                recovery.complete(idx, attempt, value)
        return None

    @staticmethod
    def _dead_pids(pool: ProcessPoolExecutor) -> "set[int]":
        """Pids of workers that died on their own (before the teardown)."""
        procs = list((getattr(pool, "_processes", None) or {}).values())
        return {p.pid for p in procs if p.exitcode not in (None, 0)}

    @staticmethod
    def _clear_markers(marker_dir: str) -> None:
        """Drop stale in-flight markers (e.g. left by a timeout teardown)."""
        try:
            names = os.listdir(marker_dir)
        except OSError:
            return
        for name in names:
            try:
                os.unlink(os.path.join(marker_dir, name))
            except OSError:
                pass

    @staticmethod
    def _blame(
        marker_dir: str, inflight: "list[int]", dead_pids: "set[int]"
    ) -> "list[int]":
        """Unresolved task indices whose in-flight marker survived the
        break — narrowed to markers held by a worker that actually died,
        when the dead workers are identifiable (innocent tasks that were
        merely co-resident in the pool are not blamed)."""
        marked: "dict[int, int | None]" = {}
        try:
            names = os.listdir(marker_dir)
        except OSError:
            return []
        for name in names:
            if not name.startswith("inflight-"):
                continue
            path = os.path.join(marker_dir, name)
            idx: "int | None" = None
            pid: "int | None" = None
            try:
                idx = int(name.split("-", 1)[1])
                with open(path, "r", encoding="utf-8") as fh:
                    pid = int(fh.read().strip() or "0")
            except (OSError, ValueError):
                pass
            try:
                os.unlink(path)
            except OSError:
                pass
            if idx is not None and idx in inflight:
                marked[idx] = pid
        if not marked:
            return []
        blamed = [i for i, pid in marked.items() if pid in dead_pids]
        return sorted(blamed if blamed else marked)
