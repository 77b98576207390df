#!/usr/bin/env python3
"""Compare the per-layer metrics of two traced runs, workload by workload.

Each side is a trace file written by ``perfbench/run.py --trace 1`` or a
directory of them (``.perfbench-work/traces/`` by default)::

    python3 perfbench/diff.py parent-traces/ change-traces/

For each workload present on both sides it prints every per-layer metric
that is non-zero on either side, its two values, and the change — so a
performance change can show in which layer its saving appears.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402


def load(path: Path) -> "dict[str, dict]":
    """Trace documents keyed by workload (the last file wins on a tie)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = {}
    for f in files:
        doc = json.loads(f.read_text(encoding="utf-8"))
        docs[doc["workload"]] = doc
    return docs


def rows(before: dict, after: dict) -> "list[tuple[str, float, float]]":
    return [
        (m, before.get(m, 0), after.get(m, 0))
        for m in layers.PER_LAYER_METRICS
        if before.get(m, 0) or after.get(m, 0)
    ]


def verdict(metric: str, x: float, y: float) -> str:
    if x == y:
        return ""
    better = (y > x) == (metric in layers.HIGHER_IS_BETTER)
    return "better" if better else "worse"


def render(workload: str, a: dict, b: dict) -> str:
    lines = [f"== {workload}  (seed {a['seed']} -> {b['seed']})"]
    lines.append(f"  {'metric':30s} {'before':>14s} {'after':>14s} {'delta':>14s} {'change':>8s}")
    for metric, x, y in rows(a["metrics"], b["metrics"]):
        change = f"{(y - x) / x:+.1%}" if x else "new"
        lines.append(
            f"  {metric:30s} {x:14.6g} {y:14.6g} {y - x:+14.6g} {change:>8s} {verdict(metric, x, y)}"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="Per-layer deltas between two traced runs.")
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    a, b = load(args.before), load(args.after)
    common = [w for w in a if w in b]
    if not common:
        print("no workload traced on both sides", file=sys.stderr)
        return 1
    print("\n\n".join(render(w, a[w], b[w]) for w in common))
    return 0


if __name__ == "__main__":
    sys.exit(main())
