"""Golden sha256 digests of the E*.json result files.

The reproduction promises byte-identical result JSON for a given scale
and seed, whatever the executor, job count or telemetry setting, so
every workload checks its outputs against digests recorded here.  A
seed with no recorded digests falls back to the shape checks alone.

Record (or extend) the table from the repository root::

    python3 perfbench/golden.py --scale quick --seeds default,1,2
    python3 perfbench/golden.py --scale paper --seeds 3 --experiments E1,E2

A seed is recorded only from a run whose shape checks all pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
ROOT = Path(__file__).resolve().parent.parent
DEFAULT = "default"


def seed_key(seed: "int | None") -> str:
    return DEFAULT if seed is None else str(seed)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load() -> "dict[str, dict[str, dict[str, str]]]":
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def expected(table: dict, scale: str, seed: "int | None") -> "dict[str, str]":
    """Recorded digests for one scale and seed, keyed by experiment
    (empty when that seed was not recorded)."""
    return table.get(scale, {}).get(seed_key(seed), {})


def _record(scale: str, seed: "int | None", experiments: str, work: Path) -> "dict[str, str]":
    out = work / f"{scale}-{seed_key(seed)}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, "-m", "repro", "run", experiments, "--scale", scale, "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}); nothing recorded")
    return {p.stem: digest(p) for p in sorted(out.glob("E*.json"))}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("quick", "paper"), required=True)
    parser.add_argument("--seeds", required=True, help="comma list; 'default' = no --seed")
    parser.add_argument("--experiments", default="all")
    parser.add_argument("--work", default=str(ROOT / ".perfbench-work" / "golden"))
    args = parser.parse_args(argv)
    table = load() if GOLDEN_PATH.exists() else {}
    for token in args.seeds.split(","):
        seed = None if token == DEFAULT else int(token)
        digests = _record(args.scale, seed, args.experiments, Path(args.work))
        table.setdefault(args.scale, {}).setdefault(seed_key(seed), {}).update(digests)
        GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(digests)} digests: scale={args.scale} seed={seed_key(seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
