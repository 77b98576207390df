"""Dispatch backend — multi-host work-stealing over a shared directory.

The serial and pool backends are bounded by one machine's core count.
This backend removes that ceiling without a network stack: the
dispatcher (the process inside ``map_tasks``) publishes a *task queue*
as plain files under a runs root, and any number of worker processes —
started with ``repro worker <runs-root>``, on this host or on any host
that mounts the same directory — steal tasks from it::

    <runs-root>/queues/<queue-id>/
        manifest.json        # queue announce: stage, status open|closed,
                             # task count, worker heartbeat period
        bundle.pkl           # task function + shared worker bundle
                             # (context, guards, chaos plan, metrics
                             # switch, array-backend config)
        todo/task-NNNNNN-aK.pkl      # unclaimed work unit, attempt K
        claimed/task-NNNNNN-aK.pkl   # claimed by exactly one worker
        leases/lease-NNNNNN.json     # who holds it; mtime = heartbeat
        results/task-NNNNNN-aK.pkl   # per-task result envelope

Small tasks amortize the claim/heartbeat/pickle round trip through
**chunking**: a queue file is a *work unit* — a list of consecutive
tasks named after its head task's index — and a worker claims the whole
unit at once (``chunk`` tasks per claim, auto-sized from the task and
worker counts by default).  Results still stream back as one envelope
*per task*, settled strictly in task order, so chunking is invisible to
result bytes; on a lost worker or a retry, surviving tasks of a unit
are re-issued as singleton units.

Work stealing is one atomic ``os.rename`` from ``todo/`` into
``claimed/`` — exactly one worker wins the race, no locks, no server.
The winner records a lease (:class:`~repro.engine.journal.LeaseLedger`)
and touches it while the task executes; the dispatcher measures
heartbeats on its **own** monotonic clock (cross-host wall clocks are
never compared), declares a worker lost when its lease stops moving,
and re-issues the task.  Every file is written atomically
(write-then-rename), so readers on any host see whole records or
nothing.

Determinism is inherited, not re-proven: tasks carry their spawned
seeds, workers install the dispatcher's exact bundle before executing,
result envelopes are settled strictly in task order, and retry /
timeout / worker-loss recovery re-executes tasks whose randomness lives
on the task — so ``--executor dispatch`` with any worker count (and any
worker deaths) produces result bytes identical to ``--executor serial``.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.engine import chaos
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
from repro.engine.journal import LeaseLedger
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.utils.atomic import atomic_write_bytes, atomic_write_text, exhaustion_kind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Task

__all__ = [
    "DEFAULT_DISPATCH_ROOT",
    "DISPATCH_ROOT_ENV",
    "DispatchBackend",
    "sleep_echo_task",
    "worker_loop",
]

#: Where queues live when no root is configured (matches the CLI's
#: default ``--runs-root``).
DEFAULT_DISPATCH_ROOT = ".repro-runs"

#: Environment override for the queue root when ``--executor dispatch``
#: is selected without a configured backend instance.
DISPATCH_ROOT_ENV = "REPRO_DISPATCH_ROOT"

_MANIFEST_FORMAT = "repro-dispatch-queue"
_MANIFEST_VERSION = 1

#: Seconds without any claim before the dispatcher reminds the user
#: that dispatch needs ``repro worker`` processes.
_NO_WORKER_HINT_AFTER = 10.0

_TASK_FILE = re.compile(r"^task-(\d{6})-a(\d+)\.pkl$")
_SAFE = re.compile(r"[^-._A-Za-z0-9]")


def _task_name(index: int, attempt: int) -> str:
    return f"task-{int(index):06d}-a{int(attempt)}.pkl"


def _parse_task_name(name: str) -> "tuple[int, int] | None":
    m = _TASK_FILE.match(name)
    return None if m is None else (int(m.group(1)), int(m.group(2)))


def sleep_echo_task(task: "Task") -> Any:
    """Benchmark/smoke task function, module-level so external dispatch
    workers can unpickle it by reference: optionally sleeps
    ``payload["sleep"]`` seconds, then echoes its payload."""
    payload = task.payload
    if isinstance(payload, dict) and payload.get("sleep"):
        time.sleep(float(payload["sleep"]))
    return payload


def seeded_norm_task(task: "Task") -> float:
    """Soak-harness task function (module-level for the same reason as
    :func:`sleep_echo_task`): draws from the task's *spawned seed* — the
    determinism contract's randomness channel — so a re-executed attempt
    (after a retry, a lost worker, or a quarantine near-miss) reproduces
    the exact bytes of the first, on any backend at any worker count."""
    import numpy as np

    n = int(task.payload.get("n", 64)) if isinstance(task.payload, dict) else 64
    values = np.random.default_rng(task.seed).standard_normal(n)
    return float(np.sum(values * values))


# ---------------------------------------------------------------------------
# Dispatcher side.
# ---------------------------------------------------------------------------


@dataclass
class _Unit:
    """One live work unit, keyed by its head task's index: the members
    still in flight, the queue-file attempt, the size at issue time
    (which scales the wall-clock budget), and what the dispatcher has
    seen of its claim and heartbeats on its own monotonic clock."""

    members: "list[int]"
    attempt: int
    size: int
    claimed_at: "float | None" = None
    beat: "tuple[float, float] | None" = None  # (lease mtime, seen at)


class DispatchBackend(ExecutionBackend):
    """Publish tasks to a shared-directory queue and merge streamed
    result envelopes back in task order.

    Parameters
    ----------
    root:
        The shared runs root (workers join with ``repro worker ROOT``).
        Defaults to ``$REPRO_DISPATCH_ROOT`` or ``.repro-runs``.
    local_workers:
        Convenience: spawn this many local ``repro worker`` processes
        the first time a queue opens (killed again by :meth:`close`).
        Zero (the default) relies on externally started workers.
    lease_timeout:
        Seconds a claimed unit's lease may go without a heartbeat before
        its worker is declared lost and the unit's unfinished tasks are
        re-issued.
    poll:
        Dispatcher poll interval in seconds.
    chunk:
        Tasks per claimed work unit.  ``None`` (the default) auto-sizes
        to ``num_tasks // (4 · workers)`` clamped into ``[1, 16]`` — a
        few units per worker so stealing still balances load, but small
        tasks stop paying one claim/heartbeat/pickle round trip each.
        Results are identical for every chunk size.
    """

    name = "dispatch"

    def __init__(
        self,
        root=None,
        *,
        local_workers: int = 0,
        lease_timeout: float = 10.0,
        poll: float = 0.05,
        chunk: "int | None" = None,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        if chunk is not None and int(chunk) < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self.root = Path(
            root
            if root is not None
            else os.environ.get(DISPATCH_ROOT_ENV, DEFAULT_DISPATCH_ROOT)
        )
        self.local_workers = int(local_workers)
        self.lease_timeout = float(lease_timeout)
        self.poll = float(poll)
        self.chunk = None if chunk is None else int(chunk)
        self._seq = 0
        self._procs: "list[subprocess.Popen]" = []
        self._spawned = False

    def _resolve_chunk(self, num_tasks: int) -> int:
        """Tasks per work unit: the explicit setting, or auto-sized so
        every worker still sees several units to steal."""
        if self.chunk is not None:
            return self.chunk
        workers = self.local_workers if self.local_workers > 0 else 4
        return max(1, min(16, num_tasks // (workers * 4)))

    # -- queue lifecycle ---------------------------------------------------

    def _queue_dir(self, stage: str) -> Path:
        self._seq += 1
        stage_part = _SAFE.sub("_", stage) or "stage"
        queue_id = f"{socket.gethostname()}-{os.getpid()}-{self._seq:03d}-{stage_part}"
        return self.root / "queues" / queue_id

    def _open_queue(self, recovery: TaskRecovery, units: "dict[int, _Unit]") -> Path:
        """Publish bundle + chunked todo units, then the manifest
        (workers only act once the manifest appears, so ordering makes
        the queue appear atomically complete)."""
        state = recovery.state
        chaos.on_write("dispatch.queue", state.stage)
        qdir = self._queue_dir(state.stage)
        for sub in ("todo", "claimed", "leases", "results"):
            (qdir / sub).mkdir(parents=True)
        bundle_doc = {
            "fn": state.fn,
            "stage": state.stage,
            "bundle": worker_bundle(state.context),
        }
        atomic_write_bytes(
            qdir / "bundle.pkl",
            pickle.dumps(bundle_doc, protocol=pickle.HIGHEST_PROTOCOL),
        )
        publish = recovery.unresolved()
        chunk = self._resolve_chunk(len(publish))
        for lo in range(0, len(publish), chunk):
            group = publish[lo : lo + chunk]
            attempt = max(recovery.issue(idx) for idx in group)
            units[group[0]] = _Unit(group, attempt, len(group))
            tasks = [recovery.tasks[idx] for idx in group]
            atomic_write_bytes(
                qdir / "todo" / _task_name(group[0], attempt),
                pickle.dumps(
                    tasks if len(tasks) > 1 else tasks[0],
                    protocol=pickle.HIGHEST_PROTOCOL,
                ),
            )
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "queue": qdir.name,
            "stage": state.stage,
            "status": "open",
            "tasks": len(publish),
            "chunk": chunk,
            "heartbeat": max(0.2, self.lease_timeout / 4.0),
        }
        atomic_write_text(qdir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
        obs_metrics.add("executor.dispatch.queues")
        obs_events.emit(
            "queue-open",
            queue=qdir.name,
            stage=state.stage,
            tasks=len(publish),
            chunk=chunk,
        )
        return qdir

    @staticmethod
    def _close_queue(qdir: Path) -> None:
        try:
            doc = json.loads((qdir / "manifest.json").read_text(encoding="utf-8"))
            doc["status"] = "closed"
            atomic_write_text(qdir / "manifest.json", json.dumps(doc) + "\n")
        except OSError:
            pass
        shutil.rmtree(qdir, ignore_errors=True)
        obs_events.emit("queue-closed", queue=qdir.name)

    # -- local convenience workers ----------------------------------------

    def _ensure_workers(self) -> None:
        if self.local_workers <= 0 or self._spawned:
            return
        self._spawned = True
        pkg_root = str(Path(__file__).resolve().parents[3])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
        for i in range(self.local_workers):
            self._procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker", str(self.root),
                        "--poll", "0.02", "--max-idle", "600",
                        "--name", f"local-{os.getpid()}-{i}",
                    ],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )

    def close(self) -> None:
        """Terminate any locally spawned workers."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        self._procs.clear()
        self._spawned = False

    # -- the dispatch loop -------------------------------------------------

    def run(
        self,
        state: RunState,
        pending: "list[Task]",
        results: "dict[int, Any]",
    ) -> None:
        if not pending:
            return
        recovery = TaskRecovery(state, pending, results)
        # The live work units, keyed by head task index.
        units: "dict[int, _Unit]" = {}
        try:
            qdir = self._open_queue(recovery, units)
        except OSError as exc:
            kind = exhaustion_kind(exc)
            if kind is None:
                raise
            # The queue root itself is exhausted: the degraded-local
            # path (execute in the dispatcher process) beats crashing.
            recovery.abandon()
            recovery.degrade(
                f"cannot publish the dispatch queue ({kind}: {exc}); executing "
                f"{len(recovery.open)} task(s) in the dispatcher process",
                recovery.unresolved(),
            )
            return
        ledger = LeaseLedger(qdir / "leases")
        self._ensure_workers()
        pulse = obs_events.Heartbeat(
            "dispatcher", period=min(2.0, max(0.5, self.lease_timeout / 4.0))
        )
        started = time.monotonic()
        hinted = False
        try:
            while not recovery.finished:
                now = time.monotonic()
                pulse.beat(tasks=recovery.settled, stage=state.stage,
                           inflight=sum(u.claimed_at is not None for u in units.values()))
                self._harvest(recovery, qdir, ledger, units)
                self._watch_inflight(recovery, qdir, ledger, units, now)
                self._issue_due(recovery, qdir, units)
                if (
                    not hinted
                    and not recovery.finished
                    and now - started > _NO_WORKER_HINT_AFTER
                    and all(u.claimed_at is None for u in units.values())
                ):
                    hinted = True
                    print(
                        f"dispatch: no worker has claimed a task yet; start "
                        f"workers with: repro worker {self.root}",
                        file=sys.stderr,
                    )
                if not recovery.finished:
                    time.sleep(self.poll)
        finally:
            self._close_queue(qdir)

    @staticmethod
    def _clear_unit(qdir: Path, ledger: LeaseLedger, units: "dict[int, _Unit]",
                    head: int) -> "_Unit":
        """Drop a work unit's queue file, lease, and table entry."""
        unit = units.pop(head)
        for sub in ("claimed", "todo"):
            try:
                (qdir / sub / _task_name(head, unit.attempt)).unlink()
            except OSError:
                pass
        ledger.release(head)
        return unit

    def _harvest(self, recovery: TaskRecovery, qdir: Path, ledger: LeaseLedger,
                 units: "dict[int, _Unit]") -> None:
        """Consume streamed per-task result envelopes and report them."""
        results_dir = qdir / "results"
        try:
            names = sorted(p.name for p in results_dir.iterdir())
        except OSError:
            return
        for name in names:
            parsed = _parse_task_name(name)
            if parsed is None:
                continue
            idx, attempt = parsed
            path = results_dir / name
            try:
                doc = pickle.loads(path.read_bytes())
            except Exception:
                doc = None
            try:
                path.unlink()
            except OSError:
                pass
            if doc is None or not recovery.current(idx, attempt):
                continue  # torn, stale (timed out and re-issued), or unknown
            head = next(h for h, u in units.items() if idx in u.members)
            units[head].members.remove(idx)
            if not units[head].members:
                self._clear_unit(qdir, ledger, units, head)
            if doc.get("ok"):
                recovery.complete(idx, attempt, doc["outcome"])
            else:
                recovery.error(idx, attempt, _remote_exception(doc, idx, recovery.state),
                               str(doc.get("error_type")), str(doc.get("message")))

    def _watch_inflight(self, recovery: TaskRecovery, qdir: Path,
                        ledger: LeaseLedger, units: "dict[int, _Unit]",
                        now: float) -> None:
        """Track unit claims and heartbeats; enforce the wall-clock
        budget; report units whose worker stopped heartbeating."""
        timeout = recovery.state.timeout
        for head, unit in list(units.items()):
            if not (qdir / "claimed" / _task_name(head, unit.attempt)).exists():
                pending_results = any(
                    (qdir / "results" / _task_name(m, unit.attempt)).exists()
                    for m in unit.members
                )
                if unit.claimed_at is not None and not pending_results:
                    # Claim vanished without results for the live members
                    # (a worker died mid-cleanup): a lost worker.  When
                    # result files exist the worker simply finished
                    # between our harvest and this scan.
                    self._worker_lost(recovery, qdir, ledger, units, head)
                continue
            if unit.claimed_at is None:
                unit.claimed_at = now
            mt = ledger.mtime(head)
            if mt is not None and (unit.beat is None or mt != unit.beat[0]):
                unit.beat = (mt, now)
            # A unit executes its tasks back to back on one claim, so its
            # budget is the per-task budget times its issue size.
            if timeout is not None and now - unit.claimed_at > timeout * unit.size:
                budget = timeout * unit.size
                record_event(
                    recovery.state,
                    "timeout",
                    f"work unit {head} ({len(unit.members)} unfinished tasks) "
                    f"exceeded its {budget:g}s wall-clock budget on the dispatch "
                    "backend; abandoning the attempt",
                    index=head,
                )
                self._clear_unit(qdir, ledger, units, head)
                for idx in unit.members:
                    recovery.timeout(idx, unit.attempt, budget)
                continue
            last_sign = unit.beat[1] if unit.beat is not None else unit.claimed_at
            if now - last_sign > self.lease_timeout:
                self._worker_lost(recovery, qdir, ledger, units, head)

    def _worker_lost(self, recovery: TaskRecovery, qdir: Path, ledger: LeaseLedger,
                     units: "dict[int, _Unit]", head: int) -> None:
        lease = ledger.load(head) or {}
        obs_metrics.add("executor.dispatch.workers_lost")
        record_event(
            recovery.state,
            "worker-lost",
            f"worker {lease.get('worker', '<unknown>')!r} stopped "
            f"heartbeating while holding work unit {head} "
            f"({len(units[head].members)} unfinished tasks); re-issuing them",
            index=head,
        )
        for idx in self._clear_unit(qdir, ledger, units, head).members:
            recovery.lost(idx)

    @staticmethod
    def _issue_due(recovery: TaskRecovery, qdir: Path,
                   units: "dict[int, _Unit]") -> None:
        """Re-issue due tasks as singleton units.  A task whose index
        still heads a live unit (its siblings remain in flight under that
        head) waits until the unit drains, so queue-file names and the
        head's lease stay unambiguous."""
        stage = recovery.state.stage
        for idx in recovery.due():
            if idx in units:
                continue
            attempt = recovery.issue(idx)
            obs_metrics.add("executor.dispatch.reissues")
            obs_events.emit("reissue", stage=stage, index=idx, attempt=attempt)
            try:
                chaos.on_write("dispatch.todo", stage, idx)
                atomic_write_bytes(
                    qdir / "todo" / _task_name(idx, attempt),
                    pickle.dumps(recovery.tasks[idx], protocol=pickle.HIGHEST_PROTOCOL),
                )
            except OSError as exc:
                recovery.requeue(idx)
                kind = exhaustion_kind(exc)
                if kind is not None:
                    # The queue filesystem is exhausted — re-queueing
                    # cannot succeed, so fall back to the degraded-local
                    # path.  (A transient error just retries next poll.)
                    recovery.degrade(
                        f"cannot re-issue task {idx} ({kind}: {exc}); executing "
                        "it in the dispatcher process",
                        [idx],
                        index=idx,
                    )
                continue
            units[idx] = _Unit([idx], attempt, 1)


def _remote_exception(doc: dict, idx: int, state: RunState) -> BaseException:
    """The exception a worker shipped back, or a stand-in naming it."""
    try:
        exc = pickle.loads(doc["exception"])
        if isinstance(exc, BaseException):
            return exc
    except Exception:
        pass
    return RuntimeError(
        f"task {idx} (stage {state.stage!r}) failed on worker "
        f"{doc.get('worker')!r}: [{doc.get('error_type')}] {doc.get('message')}"
    )


# ---------------------------------------------------------------------------
# Worker side (``repro worker <runs-root>``).
# ---------------------------------------------------------------------------


def _scan_queues(root: Path) -> "list[Path]":
    """Open dispatch queues under a runs root, oldest name first."""
    queues = root / "queues"
    try:
        candidates = sorted(p for p in queues.iterdir() if p.is_dir())
    except OSError:
        return []
    return [p for p in candidates if (p / "manifest.json").is_file()]


def _claim_next(qdir: Path) -> "tuple[Path, int, int] | None":
    """Steal one work unit: atomically rename a todo file into
    ``claimed/``.

    Exactly one worker wins each rename; losers see ``FileNotFoundError``
    and move on to the next file.  A unit file holds either a bare
    :class:`Task` or a list of consecutive tasks; the returned index is
    the unit's head (its first member).
    """
    todo = qdir / "todo"
    try:
        names = sorted(p.name for p in todo.iterdir())
    except OSError:
        return None
    for name in names:
        parsed = _parse_task_name(name)
        if parsed is None:
            continue
        target = qdir / "claimed" / name
        try:
            os.rename(todo / name, target)
        except OSError:
            continue  # another worker won the race (or the queue closed)
        return target, parsed[0], parsed[1]
    return None


def _heartbeat_loop(ledger: LeaseLedger, index: int, period: float,
                    stop: threading.Event) -> None:
    while not stop.wait(period):
        ledger.heartbeat(index)


def _failure_doc(exc: BaseException, worker: str, attempt: int) -> "dict[str, Any]":
    """The result envelope of a failed attempt (the exception itself
    rides along when it pickles, for re-raising under ``raise``)."""
    try:
        shipped: "bytes | None" = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        shipped = None
    return {
        "ok": False,
        "error_type": type(exc).__name__,
        "message": str(exc),
        "exception": shipped,
        "worker": worker,
        "attempt": attempt,
    }


def _run_claimed(qdir: Path, fn, stage: str, worker: str, heartbeat: float,
                 claimed: Path, head: int, attempt: int) -> None:
    """Execute one stolen work unit and stream one envelope per member
    task back.  Never raises: every failure becomes an envelope (or, for
    hard process death, a stale lease the dispatcher will notice).

    The heartbeat lease is keyed by the unit's head index and covers all
    members.  Member envelopes carry the *unit's* attempt number (the
    dispatcher issued every member at that attempt) and are written
    before the claimed file is removed, so a vanished claim with no
    member envelopes reliably signals a dead worker.
    """
    ledger = LeaseLedger(qdir / "leases")
    ledger.claim(head, attempt, worker)
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop, args=(ledger, head, heartbeat, stop), daemon=True
    )
    beat.start()
    try:
        try:
            payload_obj = pickle.loads(claimed.read_bytes())
        except Exception as exc:
            # The unit file itself is unreadable: report on the head; the
            # dispatcher recovers any remaining members via the
            # lost-worker path once the claim disappears.
            try:
                atomic_write_bytes(
                    qdir / "results" / _task_name(head, attempt),
                    pickle.dumps(_failure_doc(exc, worker, attempt),
                                 protocol=pickle.HIGHEST_PROTOCOL),
                )
            except OSError:
                pass
            return
        tasks = payload_obj if isinstance(payload_obj, list) else [payload_obj]
        for task in tasks:
            try:
                outcome = execute_task(fn, task, stage)
                doc = {"ok": True, "outcome": outcome, "worker": worker, "attempt": attempt}
                payload = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                payload = pickle.dumps(_failure_doc(exc, worker, attempt),
                                       protocol=pickle.HIGHEST_PROTOCOL)
            try:
                chaos.on_write("dispatch.result", stage, task.index)
                atomic_write_bytes(
                    qdir / "results" / _task_name(task.index, attempt), payload
                )
            except OSError:
                pass  # queue closed under us; the attempt was re-issued
    finally:
        stop.set()
        beat.join(timeout=1.0)
        ledger.release(head)
        try:
            claimed.unlink()
        except OSError:
            pass


def _drain_queue(
    qdir: Path,
    worker: str,
    pulse: "obs_events.Heartbeat | None" = None,
    done_before: int = 0,
) -> int:
    """Steal and execute tasks from one queue until its todo pile is
    empty; returns how many tasks this worker executed."""
    try:
        manifest = json.loads((qdir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return 0
    if (
        manifest.get("format") != _MANIFEST_FORMAT
        or manifest.get("status") != "open"
    ):
        return 0
    try:
        bundle_doc = pickle.loads((qdir / "bundle.pkl").read_bytes())
        install_worker_bundle(bundle_doc["bundle"])
        fn, stage = bundle_doc["fn"], bundle_doc["stage"]
    except Exception:
        return 0  # half-removed queue, or a bundle this worker cannot load
    heartbeat = float(manifest.get("heartbeat", 1.0))
    count = 0
    while True:
        stolen = _claim_next(qdir)
        if stolen is None:
            return count
        claimed, head, attempt = stolen
        _run_claimed(qdir, fn, stage, worker, heartbeat, claimed, head, attempt)
        count += 1
        if pulse is not None:
            pulse.beat(tasks=done_before + count, worker=worker)


def worker_loop(
    root,
    *,
    name: "str | None" = None,
    poll: float = 0.1,
    max_idle: "float | None" = None,
    heartbeat: float = obs_events.DEFAULT_HEARTBEAT_PERIOD,
) -> int:
    """Serve dispatch queues under ``root`` until told to stop.

    The body of ``repro worker``: scan for open queues, steal tasks,
    execute them under the dispatcher's shipped bundle, and stream
    envelopes back.  Exits 0 after ``max_idle`` seconds with nothing to
    do (``None`` = serve forever).  Chaos ``worker-lost`` faults may
    kill this process hard — that is the point of them.

    When the runs root has an ``events/`` directory (a monitored run is
    or was live), the worker joins the event bus: a ``worker-start``
    line, periodic ``heartbeat`` lines carrying host/pid/RSS and the
    tasks-per-second rate (every ``heartbeat`` seconds; ``0`` disables),
    and a ``worker-exit`` line on a clean idle exit.  A SIGKILLed worker
    simply stops heartbeating — which is exactly what ``repro top``'s
    stale-heartbeat warning and the dispatcher's lease timeout detect.
    """
    root = Path(root)
    worker = name or f"{socket.gethostname()}-{os.getpid()}"
    chaos.declare_worker_process()
    set_worker_name(worker)
    events_dir = root / obs_events.EVENTS_DIRNAME
    pulse = obs_events.Heartbeat("worker", period=heartbeat)
    total = 0
    idle_since = time.monotonic()
    try:
        while True:
            if obs_events.current_bus() is None and events_dir.is_dir():
                # A monitored run appeared (or was live before we
                # started): join the bus under our worker identity.
                obs_events.install(
                    obs_events.EventBus(events_dir, f"worker-{worker}")
                )
                obs_events.emit("worker-start", worker=worker)
            pulse.beat(tasks=total, worker=worker)
            processed = 0
            for qdir in _scan_queues(root):
                processed += _drain_queue(qdir, worker, pulse, total)
            total += processed
            if processed:
                idle_since = time.monotonic()
            else:
                if max_idle is not None and time.monotonic() - idle_since >= max_idle:
                    obs_events.emit("worker-exit", worker=worker, tasks=total)
                    return 0
                time.sleep(poll)
    finally:
        bus = obs_events.install(None)
        if bus is not None:
            bus.close()
