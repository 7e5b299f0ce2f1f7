#!/usr/bin/env python3
"""Run every benchmark workload untraced and traced; collect one JSON file.

Usage, from anywhere::

    python scripts/bench.py --out BENCH_<n>.json [--seed N] [--seconds S] [--tiny]
    python scripts/bench.py --out AB.json --against REV --pairs N [--workload W] ...

For each workload of ``BENCHMARK.json`` it runs ``perfbench/run.py`` once
with ``--trace 0`` (end-to-end metrics) and once with ``--trace 1``
(per-layer metrics), and keeps the JSON object each prints last.  It
appends one record to the list in ``--out``: those objects under the
workload's name, together with the core count, the Python and numpy
versions, the checkout's commit, whether ``src/`` has uncommitted
changes (``dirty``) and the line count of ``src/kgalign/*.py``
(``src_lines``), from which a change's net src delta is taken.  Run it in
two checkouts with the same ``--out`` for a before/after file.

``--against REV`` instead compares this checkout, as it stands, with
``REV``, which it checks out into a temporary ``git worktree``.  For each
workload (or only ``--workload``) it runs ``perfbench/run.py --trace 0``
in both, ``--pairs`` times, alternating which side runs first.  For each
end-to-end metric the record holds both sides' values per pair, their
medians and quartiles, the median paired ratio (this checkout over
``REV``) and how many pairs this checkout won, by the metric's ``better``
direction in ``BENCHMARK.json``.  The record also holds ``REV``'s line
count of ``src/kgalign/*.py`` (``against_src_lines``), so ``src_lines -
against_src_lines`` is the change's net src delta.  All timing is the
benchmark's own; this script adds none.

With ``--against`` it also records whether the two trees write the same
outputs.  For each workload (or only ``--workload``) at seeds 0 and 1,
``perfbench/run.py``'s ``Bench`` writes the dataset and the run config once
(``--tiny`` shrinks them as it does the benchmark's), and each tree's own
``perfbench/child.py`` runs it once, untraced, into the same run directory.
``outputs_identical[workload][seed][file]`` says whether ``metrics.jsonl``,
``manifest.txt`` and ``pseudo_final.tsv`` are byte-identical; a difference
is recorded, not an error.

Each ``perfbench/run.py`` and ``child.py`` runs in a session of its own.
When this script is interrupted (Ctrl-C included), it sends that session
SIGINT, so ``run.py`` removes its ``.perfbench_work/`` directory, and
SIGKILLs whatever is left after ``STOP_GRACE_S`` seconds.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
STOP_GRACE_S = 10.0
IDENTITY_SEEDS = (0, 1)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON list to append to")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="perfbench run length per invocation")
    ap.add_argument("--tiny", action="store_true", help="perfbench's tiny workloads")
    ap.add_argument("--against", metavar="REV",
                    help="compare with this git revision in paired untraced runs")
    ap.add_argument("--pairs", type=int, default=10, help="paired runs per workload")
    ap.add_argument("--workload", help="only this workload")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def _commit(rev: str = "HEAD") -> str:
    head = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                          capture_output=True, text=True)
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def _dirty() -> bool:
    """Whether ``src/`` differs from the commit: a record of an edited tree
    does not measure its commit.  Outside a git checkout it counts as dirty."""
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                            capture_output=True, text=True)
    return status.returncode != 0 or bool(status.stdout.strip())


def _src_lines(root: Path = ROOT) -> int:
    """Total line count of ``root``'s ``src/kgalign/*.py``, as ``wc -l`` counts."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "kgalign").glob("*.py"))


def _run(cmd: list[str], root: Path, env: dict | None = None) -> str | None:
    """The standard output of ``cmd``, run in ``root`` in a session of its
    own, or None (its output on stderr) when it fails."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        _stop_session(proc)
        raise
    if proc.returncode != 0:
        sys.stderr.write(stdout + stderr)
        print(f"bench: {' '.join(cmd[1:])} in {root} exited {proc.returncode}",
              file=sys.stderr)
        return None
    return stdout


def _perfbench(root: Path, args, workload: str, trace: int) -> dict | None:
    """The JSON object that ``perfbench/run.py`` in ``root`` prints last,
    or None when it fails."""
    stdout = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else []), root)
    return None if stdout is None else json.loads(stdout.splitlines()[-1])


def _perfbench_run():
    """This checkout's ``perfbench/run.py`` as a module, with this
    checkout's ``src`` importable for its ``Bench``."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outputs_identical(args, trees: list[Path], work: Path,
                       workloads: list[str]) -> dict | None:
    """Per workload, seed and deterministic file, whether the ``trees``
    wrote the same bytes on one dataset and run config; None when a run
    fails."""
    run = _perfbench_run()
    work.mkdir()
    run_dir, spec_path = work / "run", work / "spec.json"
    identical: dict = {}
    for workload in workloads:
        for seed in IDENTITY_SEEDS:
            bench = run.Bench(argparse.Namespace(workload=workload, seed=seed, tiny=args.tiny),
                              work / f"{workload}-{seed}")
            spec_path.write_text(json.dumps(dict(
                config=bench.config, run_dir=str(run_dir), run_id=0, traced=False,
                setup_reps=1)), encoding="utf-8")
            outputs = []
            for tree in trees:
                env = dict(os.environ, PYTHONPATH=str(tree / "src"))
                if _run([sys.executable, "perfbench/child.py", str(spec_path)], tree,
                        env) is None:
                    return None
                outputs.append([(run_dir / name).read_bytes()
                                for name in run.DETERMINISTIC_FILES])
                shutil.rmtree(run_dir)
            same = {name: a == b for name, a, b in zip(run.DETERMINISTIC_FILES, *outputs)}
            identical.setdefault(workload, {})[str(seed)] = same
            print(f"{workload} seed {seed}: outputs identical {same}", flush=True)
    return identical


def _stop_session(proc: subprocess.Popen) -> None:
    """Stop the session ``proc`` leads: SIGINT, so ``run.py``'s ``finally``
    removes its work directory, then SIGKILL for what is left."""
    for sig in (signal.SIGINT, signal.SIGKILL):
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, sig)
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc.communicate(timeout=STOP_GRACE_S)  # drains the pipes as it waits


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _compare(base: list[float], change: list[float], better: str) -> dict:
    """One metric's paired summary; ``base[i]`` and ``change[i]`` are pair
    ``i``.  A ratio over a zero base is left out of the median."""
    ratios = [c / b for b, c in zip(base, change) if b != 0]
    won = sum(c < b if better == "lower" else c > b for b, c in zip(base, change))
    return {"base": base, "change": change,
            "base_median": statistics.median(base),
            "change_median": statistics.median(change),
            "base_quartiles": _quartiles(base), "change_quartiles": _quartiles(change),
            "median_ratio": statistics.median(ratios) if ratios else None,
            "change_won": won}


def _untraced_and_traced(args, record: dict, workloads: list[str]) -> bool:
    """Fill ``record`` with one untraced and one traced result per workload;
    False when a run fails."""
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _perfbench(ROOT, args, workload, trace)
            if result is None:
                return False
            record["workloads"].setdefault(workload, {})[key] = result
            print(f"{workload} trace {trace}: correct={result['correct']}", flush=True)
    return True


def _paired(args, spec: dict, record: dict, workloads: list[str]) -> bool:
    """Fill ``record`` with ``--pairs`` alternating runs of ``args.against``
    and this checkout, and whether their outputs are identical; False when a
    run fails."""
    with tempfile.TemporaryDirectory(prefix="kgalign-bench-") as tmp:
        tree = Path(tmp) / "base"
        add = subprocess.run(["git", "worktree", "add", "--detach", str(tree),
                              record["against"]], cwd=ROOT, capture_output=True, text=True)
        if add.returncode != 0:
            sys.stderr.write(add.stderr)
            return False
        record["against_src_lines"] = _src_lines(tree)
        try:
            for workload in workloads:
                runs = {"base": [], "change": []}
                for i in range(args.pairs):
                    sides = [("base", tree), ("change", ROOT)]
                    for side, root in sides if i % 2 == 0 else sides[::-1]:
                        result = _perfbench(root, args, workload, 0)
                        if result is None:
                            return False
                        if not result["correct"]:
                            print(f"bench: {workload} in {root} is not correct: {result}",
                                  file=sys.stderr)
                            return False
                        runs[side].append(result["metrics"])
                    print(f"{workload} pair {i}: wall_s "
                          f"{runs['base'][-1]['wall_s']['value']:.4f} -> "
                          f"{runs['change'][-1]['wall_s']['value']:.4f}", flush=True)
                record["workloads"][workload] = {
                    m["name"]: _compare([r[m["name"]]["value"] for r in runs["base"]],
                                        [r[m["name"]]["value"] for r in runs["change"]],
                                        m["better"])
                    for m in spec["end_to_end"]}
            record["outputs_identical"] = _outputs_identical(
                args, [tree, ROOT], Path(tmp) / "identity", workloads)
            if record["outputs_identical"] is None:
                return False
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT,
                           capture_output=True)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in workloads:
            print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
            return 1
        workloads = [args.workload]
    record = {"commit": _commit(), "dirty": _dirty(), "src_lines": _src_lines(),
              "nproc": len(os.sched_getaffinity(0)),
              "python": platform.python_version(), "numpy": numpy.__version__,
              "seed": args.seed, "seconds": args.seconds, "tiny": args.tiny,
              "workloads": {}}
    if args.against is None:
        if not _untraced_and_traced(args, record, workloads):
            return 1
    else:
        record.update(against=_commit(args.against), pairs=args.pairs)
        if record["against"] == "unknown":
            print(f"bench: {args.against!r} is not a git revision", file=sys.stderr)
            return 1
        if not _paired(args, spec, record, workloads):
            return 1
    out = Path(args.out)
    records = json.loads(out.read_text(encoding="utf-8")) if out.exists() else []
    out.write_text(json.dumps(records + [record], indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
