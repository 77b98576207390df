#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction CLI.

Run from the repository root::

    python3 perfbench/run.py --workload paper-all --seed 1 --seconds 20 --trace 0

Every workload is a closed loop: it starts one cold ``python -m repro``
process, waits for it, checks its outputs, and only then starts the
next.  ``--trace 0`` measures the end-to-end metrics with nothing
attached to the program; ``--trace 1`` makes one untraced and one traced
pass of the workload and reports the per-layer metrics (see README.md).
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import golden, importtime, layers, tracing  # noqa: E402

WORK = ROOT / ".perfbench-work"
HOOK_DIR = Path(__file__).resolve().parent / "hook"

#: Paper-scale drivers of ``paper-all``: every driver but E14, E17 and E22,
#: so that a run fits the benchmark's time budget.  Together they take about
#: 40% of a full paper run, and each is a variant of a driver kept here (E14
#: of E5/E15, E17 of E1, E22 of E2/E16); E14's paper-scale time and memory
#: also swing by 2x with the seed.  All 22 run on ``cli-cold``.
PAPER_ALL = tuple(e for e in layers.EXPERIMENT_IDS if e not in ("E14", "E17", "E22"))
#: The six sweep drivers the dispatch executor farms out: 263 tasks.
FLEET = ("E1", "E3", "E5", "E6", "E7", "E13")
FLEET_TASKS = 263
FLEET_WORKERS = 2
SETUP_REPEATS = 5
IMPORT_PROBES = 3
PROCESS_TIMEOUT = 150.0

WORKLOADS = ("paper-all", "cli-cold", "fleet-dispatch")


class BenchError(RuntimeError):
    """A failure that voids the run: no result line is printed."""


@dataclass
class Tally:
    """Outcome of the timed body: samples plus result accounting."""

    main: "list[float]" = field(default_factory=list)  # wall of each main pass
    calls: "list[float]" = field(default_factory=list)  # per-call cli_p50_s samples
    attempted: int = 0
    failed: "list[str]" = field(default_factory=list)
    digests_checked: int = 0


class Program:
    """Starts cold ``repro`` processes from the checkout's ``src/``."""

    def __init__(self, spans_dir: "Path | None" = None):
        path = [str(ROOT / "src")]
        self.env = dict(os.environ)
        self.env.pop(tracing.SPANS_DIR_ENV, None)
        if spans_dir is not None:
            path.insert(0, str(HOOK_DIR))
            self.env[tracing.SPANS_DIR_ENV] = str(spans_dir)
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        self.started = 0

    def cmd(self, *args: str) -> "list[str]":
        return [sys.executable, "-m", "repro", *args]

    def run(self, *args: str) -> "tuple[float, int, str]":
        """(wall seconds, exit code, stderr) of one cold CLI call."""
        self.started += 1
        start = time.perf_counter()
        proc = subprocess.run(
            self.cmd(*args),
            env=self.env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=PROCESS_TIMEOUT,
        )
        wall = time.perf_counter() - start
        err = proc.stderr or ""
        if proc.returncode == 97:
            raise BenchError(f"trace hook refused to start:\n{err}")
        return wall, proc.returncode, err

    def start(self, log: Path, *args: str) -> subprocess.Popen:
        """Start a long-lived CLI process; its stderr goes to ``log``."""
        self.started += 1
        with open(log, "w", encoding="utf-8") as err:
            return subprocess.Popen(
                self.cmd(*args), env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err
            )


# -- output checks ---------------------------------------------------------


def check_run(
    tally: Tally,
    ids: "tuple[str, ...]",
    out: Path,
    rc: int,
    scale: str,
    digests: "dict[str, str]",
    err: str,
) -> None:
    """Count ``ids`` as attempted and record each result that fails:
    non-zero exit, failed shape check, incomplete summary, or result
    bytes that differ from the golden digest.

    The CLI exits 1 when any shape check fails, so a non-zero exit is
    charged to the results whose checks failed; only an exit that no
    failed check explains fails every result of the call."""
    tally.attempted += len(ids)
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        entries = {e["experiment_id"]: e for e in summary["experiments"]}
    except (OSError, ValueError, KeyError) as exc:
        reason = f"exit {rc}, no summary ({exc}): {err.strip()[-300:]}"
        tally.failed.extend(f"{e} [{scale}] {reason}" for e in ids)
        return
    explained = rc == 1 and any(not entries.get(e, {}).get("passed") for e in ids)
    for exp in ids:
        entry = entries.get(exp)
        result = out / f"{exp}.json"
        if rc != 0 and not explained:
            reason = f"exit {rc}: {err.strip()[-300:]}"
        elif entry is None or not entry.get("passed"):
            reason = "shape check failed"
        elif summary.get("incomplete") or entry.get("incomplete"):
            reason = "summary incomplete"
        elif not result.is_file():
            reason = "no result JSON"
        elif exp in digests and golden.digest(result) != digests[exp]:
            reason = "result bytes differ from golden digest"
        else:
            tally.digests_checked += exp in digests
            continue
        tally.failed.append(f"{exp} [{scale}] {reason}")


# -- workload bodies ---------------------------------------------------------


class Workload:
    """One workload: set-up, one pass of its timed body, tear-down."""

    scale = "quick"
    workers = 1  # processes that execute tasks: the caller itself unless dispatched

    def __init__(self, name: str, seed: int, work: Path, table: dict):
        self.name = name
        self.seed = seed
        self.work = work
        self.digests = golden.expected(table, self.scale, seed)
        self.passes = 0

    def set_up(self, program: Program) -> None:
        pass

    def tear_down(self) -> None:
        pass

    def body(self, program: Program, tally: Tally) -> None:
        raise NotImplementedError

    def out_dir(self, tag: str) -> Path:
        out = self.work / f"out-{self.passes}-{tag}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def artifacts(self) -> "dict[str, float]":
        """Byte counts of the telemetry and journal files of the last pass."""
        return {"engine.journal_bytes": 0, "obs.event_bytes": 0, "obs.trace_bytes": 0}


class PaperAll(Workload):
    scale = "paper"

    def body(self, program: Program, tally: Tally) -> None:
        out = self.out_dir("paper")
        wall, rc, err = program.run(
            "run", ",".join(PAPER_ALL), "--scale", "paper", "--jobs", "1",
            "--seed", str(self.seed), "--out", str(out),
        )
        check_run(tally, PAPER_ALL, out, rc, self.scale, self.digests, err)
        tally.main.append(wall)
        tally.calls.append(wall)


class CliCold(Workload):
    def body(self, program: Program, tally: Tally) -> None:
        total = 0.0
        for exp in layers.EXPERIMENT_IDS:
            out = self.out_dir(exp)
            wall, rc, err = program.run("run", exp, "--seed", str(self.seed), "--out", str(out))
            check_run(tally, (exp,), out, rc, self.scale, self.digests, err)
            tally.calls.append(wall)
            total += wall
        tally.main.append(total)


class FleetDispatch(Workload):
    """Dispatch pass served by two external workers, then a cold resume."""

    scale = "paper"
    workers = FLEET_WORKERS

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.procs: "list[subprocess.Popen]" = []
        self.runs_root = self.work / "runs"
        self.last: "dict[str, float]" = {}

    def set_up(self, program: Program) -> None:
        self.runs_root = self.work / f"runs-{self.passes}"
        events = self.runs_root / "events"
        events.mkdir(parents=True)
        self.procs = [
            program.start(self.work / f"worker-{self.passes}-{i}.log", "worker", str(self.runs_root))
            for i in range(self.workers)
        ]
        # A worker joins the event bus (one file each) once it is serving.
        deadline = time.monotonic() + 60
        while len(list(events.glob("worker-*.jsonl"))) < self.workers:
            dead = [p for p in self.procs if p.poll() is not None]
            if dead:
                logs = "".join(p.read_text() for p in self.work.glob("worker-*.log"))
                raise BenchError(f"worker exited {dead[0].returncode}:\n{logs}")
            if time.monotonic() > deadline:
                raise BenchError("dispatch workers did not start within 60 s")
            time.sleep(0.05)

    def tear_down(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []

    def body(self, program: Program, tally: Tally) -> None:
        run_id = f"fleet-{self.seed}-{self.passes}"
        common = (
            "run", ",".join(FLEET), "--scale", "paper", "--seed", str(self.seed),
            "--executor", "dispatch", "--runs-root", str(self.runs_root),
            "--monitor", "--trace", "--metrics",
        )
        fresh = self.out_dir("fresh")
        wall, rc, err = program.run(*common, "--run-id", run_id, "--out", str(fresh))
        check_run(tally, FLEET, fresh, rc, self.scale, self.digests, err)
        records = list((self.runs_root / run_id).rglob("task-*.json"))
        if rc == 0 and len(records) != FLEET_TASKS:
            tally.failed.append(f"journal holds {len(records)} records, expected {FLEET_TASKS}")
        for name in ("trace.jsonl", "metrics.json", "metrics.prom"):
            if rc == 0 and not (fresh / name).is_file():
                tally.failed.append(f"telemetry file {name} missing")
        tally.main.append(wall)

        resumed = self.out_dir("resume")
        wall, rc, err = program.run(*common, "--resume", run_id, "--out", str(resumed))
        check_run(tally, FLEET, resumed, rc, self.scale, self.digests, err)
        tally.calls.append(wall)
        self.last = {
            "engine.journal_bytes": sum(p.stat().st_size for p in records),
            "obs.event_bytes": sum(
                p.stat().st_size for p in (self.runs_root / "events").glob("*.jsonl")
            ),
            "obs.trace_bytes": (fresh / "trace.jsonl").stat().st_size
            if (fresh / "trace.jsonl").is_file()
            else 0,
        }

    def artifacts(self) -> "dict[str, float]":
        return dict(self.last)


CLASSES = {"paper-all": PaperAll, "cli-cold": CliCold, "fleet-dispatch": FleetDispatch}


# -- measurement -------------------------------------------------------------


def one_pass(workload: Workload, program: Program, tally: Tally) -> float:
    start = time.perf_counter()
    workload.body(program, tally)
    workload.passes += 1
    return time.perf_counter() - start


def measure_setup(program: Program) -> "list[float]":
    """Walls of cold ``repro list`` calls: start-up every CLI call pays."""
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, rc, err = program.run("list")
        if rc != 0:
            raise BenchError(f"repro list exited {rc}: {err}")
        walls.append(wall)
    return walls


def end_to_end(workload: Workload, seconds: float) -> "tuple[Tally, dict, list[str]]":
    program = Program()
    setup = measure_setup(program)
    tally = Tally()
    try:
        workload.set_up(program)
        start = time.perf_counter()
        walls = [one_pass(workload, program, tally)]
        # Closed loop: another pass only if it should end within --seconds.
        while time.perf_counter() - start + statistics.median(walls) <= seconds:
            walls.append(one_pass(workload, program, tally))
    finally:
        workload.tear_down()
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(tally.main), "s", len(tally.main)),
        "cli_p50_s": (statistics.median(tally.calls), "s", len(tally.calls)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", workload.passes),
    }
    notes = [f"passes={workload.passes}  timed={sum(walls):.2f}s"]
    if isinstance(workload, FleetDispatch):
        notes.append(
            f"tasks_per_s={FLEET_TASKS / metrics['wall_s'][0]:.3f} tasks/s (fresh pass, "
            f"n={len(tally.main)})  resume_s={metrics['cli_p50_s'][0]:.4f} s (n={len(tally.calls)})"
        )
    return tally, metrics, notes


def import_breakdown(program: Program) -> "dict[str, float]":
    """Median ``import.*`` metrics over cold ``-X importtime`` start-ups."""
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "list"],
            env=program.env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=PROCESS_TIMEOUT,
        )
        if proc.returncode != 0:
            raise BenchError(f"importtime probe exited {proc.returncode}")
        probes.append(importtime.parse(proc.stderr))
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


def traced(workload: Workload) -> "tuple[Tally, dict, list[str]]":
    """One untraced and one traced pass; per-layer metrics from the latter."""
    plain = Program()
    metrics: "dict[str, float]" = import_breakdown(plain)
    tally = Tally()
    try:
        workload.set_up(plain)
        untraced_wall = one_pass(workload, plain, tally)
    finally:
        workload.tear_down()

    spans_dir = workload.work / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    hooked = Program(spans_dir)
    try:
        workload.set_up(hooked)
        traced_wall = one_pass(workload, hooked, tally)
    finally:
        workload.tear_down()

    docs = tracing.load_dir(spans_dir)
    if len(docs) != hooked.started:
        raise BenchError(
            f"{hooked.started} traced processes ran but {len(docs)} wrote spans"
        )
    merged = tracing.merge(d["spans"] for d in docs)
    metrics.update(layers.span_metrics(merged))
    metrics["engine.worker_useful_ratio"] = layers.useful_ratio(merged, workload.workers)
    metrics.update(workload.artifacts())
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0

    bindings = docs[0]["bindings"]
    trace_doc = {
        "workload": workload.name,
        "seed": workload.seed,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "processes": len(docs),
        "bindings": bindings,
        "metrics": metrics,
        "spans": merged,
    }
    trace_path = WORK / "traces" / f"{workload.name}-seed{workload.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(trace_doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    many = sorted((n, t) for t, n in bindings.items() if n > 1)[-5:]
    notes = [
        f"untraced={untraced_wall:.3f}s traced={traced_wall:.3f}s processes={len(docs)}",
        f"wrapped {len(bindings)} callables through {sum(bindings.values())} bindings; "
        "most rebound: " + ", ".join(f"{t}={n}" for n, t in reversed(many)),
        f"trace written to {trace_path.relative_to(ROOT)}",
    ]
    out = {m: (metrics[m], layers.unit_of(m), 1) for m in layers.PER_LAYER_METRICS}
    return tally, out, notes


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the repro CLI.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = CLASSES[args.workload](args.workload, args.seed, work, golden.load())
    try:
        if args.trace:
            tally, metrics, notes = traced(workload)
        else:
            tally, metrics, notes = end_to_end(workload, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}  " + "  ".join(notes))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit:6s} n={n}")
    print(f"  {tally.digests_checked} of {tally.attempted} results matched their golden digests")
    if tally.digests_checked < tally.attempted:
        print(f"  digests not recorded for the rest (seed {args.seed}, {workload.scale} scale): "
              "shape checks only")
    print(f"  failed_ratio {len(tally.failed)}/{tally.attempted}")
    for failure in tally.failed:
        print(f"  FAILED {failure}")
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
