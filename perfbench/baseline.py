#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

From the repository root::

    python3 perfbench/baseline.py --seeds 1-10 --write perfbench/BASELINE.json

For every workload it runs ``perfbench/run.py`` once per seed, then prints
each end-to-end metric's median, quartiles and spread.  The spread is the
distance between the first and third quartiles as a share of the median,
the figure ``BENCHMARK.json``'s bounds are judged against.  With
``--trace`` it adds one traced run per workload.  ``--write`` records the
summary and the environment it was measured in.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def seeds_arg(text: str) -> "list[int]":
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: "list[float]") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def blas_threads() -> "int | None":
    """Thread count of the OpenBLAS bundled with NumPy, if it is one."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def main(argv: "list[str] | None" = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--write", type=Path, help="write the summary to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc: dict = {"environment": environment(), "run_seconds": bench["run_seconds"],
                 "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, bench["run_seconds"], 0) for s in args.seeds]
        failed = sum(r["failed"] for r in results)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "metrics": {
                m: summary([r["metrics"][m]["value"] for r in results]) for m in bounds
            },
        }
        print(f"== {workload}: {len(results)} runs, failed {failed}/{entry['attempted']}")
        for m, s in entry["metrics"].items():
            flag = "" if s["spread"] <= bounds[m] / 3 else "  (spread above a third of the bound)"
            print(f"  {m:14s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}"
                  f"  spread {s['spread']:.3f} (bound {bounds[m]}){flag}")
        if args.trace:
            traced = run_once(workload, args.seeds[0], bench["run_seconds"], 1)
            entry["trace"] = {m: v["value"] for m, v in traced["metrics"].items()}
        doc["workloads"][workload] = entry
        if args.write:
            args.write.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
