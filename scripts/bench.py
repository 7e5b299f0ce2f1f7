#!/usr/bin/env python3
"""Run every benchmark workload untraced and traced; collect one JSON file.

Usage, from anywhere::

    python scripts/bench.py --out BENCH_<n>.json [--seed N] [--seconds S] [--tiny]

For each workload of ``BENCHMARK.json`` it runs ``perfbench/run.py`` once
with ``--trace 0`` (end-to-end metrics) and once with ``--trace 1``
(per-layer metrics), and keeps the JSON object each prints last.  It
appends one record to the list in ``--out``: those objects under the
workload's name, together with the core count, the Python and numpy
versions, the checkout's commit, whether ``src/`` has uncommitted
changes (``dirty``) and the line count of ``src/kgalign/*.py``
(``src_lines``), from which a change's net src delta is taken.  Run it in
two checkouts with the same ``--out`` for a before/after file.  All timing
is the benchmark's own; this script adds none.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON list to append to")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="perfbench run length per invocation")
    ap.add_argument("--tiny", action="store_true", help="perfbench's tiny workloads")
    return ap.parse_args(argv)


def _commit() -> str:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def _dirty() -> bool:
    """Whether ``src/`` differs from the commit: a record of an edited tree
    does not measure its commit.  Outside a git checkout it counts as dirty."""
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                            capture_output=True, text=True)
    return status.returncode != 0 or bool(status.stdout.strip())


def _src_lines() -> int:
    """Total line count of ``src/kgalign/*.py``, as ``wc -l`` counts."""
    return sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "kgalign").glob("*.py"))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {"commit": _commit(), "dirty": _dirty(), "src_lines": _src_lines(),
              "nproc": len(os.sched_getaffinity(0)),
              "python": platform.python_version(), "numpy": numpy.__version__,
              "seed": args.seed, "seconds": args.seconds, "tiny": args.tiny,
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"bench: {' '.join(cmd[1:])} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            record["workloads"].setdefault(workload, {})[key] = result
            print(f"{workload} trace {trace}: correct={result['correct']}", flush=True)
    out = Path(args.out)
    records = json.loads(out.read_text(encoding="utf-8")) if out.exists() else []
    out.write_text(json.dumps(records + [record], indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
