"""Self-test of the benchmark: every workload at a tiny size.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.

For each workload it runs ``run.py --tiny`` untraced and traced and checks
that the run is correct, that every end-to-end (untraced) or per-layer
(traced) metric of ``BENCHMARK.json`` is printed by name with its unit, and
that the work counts the traced run reports are the ones its layers must
show.  It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only ``BENCHMARK.json`` and ``perfbench``.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# counts that must be nonzero (True) or zero (False) on each tiny workload
EXPECTED_COUNTS = {
    "selftrain-embed-n300": {"models.fit_triple_epochs": True,
                             "compatibility.refine_rows": True,
                             "strategies.pseudo_pairs": True},
    "refine-oracle-n3000": {"models.fit_triple_epochs": False,
                            "calibration.fit_cells": True,
                            "compatibility.refine_rows": True},
    "onetoone-oracle-n3000": {"models.fit_triple_epochs": False,
                              "calibration.fit_cells": False,
                              "compatibility.refine_rows": False,
                              "strategies.candidate_edges": True},
}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_workload(workload: str, trace: int) -> list[str]:
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--tiny"])
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 2:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in expected):
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} missing or wrong unit")
            continue
        prefix = f"{m['name']} = "
        if not any(l.startswith(prefix) and l.endswith(f" {m['unit']}") for l in lines):
            problems.append(f"{where}: {m['name']} not printed with its unit")
        if not trace and not got["value"] > 0:
            problems.append(f"{where}: end-to-end {m['name']} is {got['value']}")
    if trace:
        for name, nonzero in EXPECTED_COUNTS[workload].items():
            if (result["metrics"][name]["value"] > 0) != nonzero:
                problems.append(f"{where}: {name} = {result['metrics'][name]['value']}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "refine-oracle-n3000", "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark ran in a directory without the sources"]
    return []


def main() -> int:
    problems = check_refuses_without_sources()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            problems += check_workload(w["name"], trace)
            print(f"{w['name']} trace {trace} checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
