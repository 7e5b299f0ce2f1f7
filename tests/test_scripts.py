"""The README quick-start scripts run end to end on a tiny synthetic twin."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TINY = ["--entities", "60", "--triples", "240", "--iterations", "1", "--epochs", "1"]
SWEEP_KEYS = {"ratio", "method", "hit1", "hit10", "mrr",
              "pseudo_precision", "pseudo_recall"}


def test_quick_start_scripts_run(tmp_path):
    # both scripts put their run roots under mkdtemp; keep them in tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path))

    def run(script, *args):
        return subprocess.run([sys.executable, str(SCRIPTS / script), *TINY, *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True)

    exp = run("run_synthetic_experiment.py")
    assert exp.returncode == 0, exp.stderr
    lines = exp.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
    table = lines[start:lines.index("", start)]
    assert [row.split()[0] for row in table] == [
        "Supervised", "MutHighestProb", "BiThr", "UniThr", "SimThr", "OneToOne",
        "MutNearest",
    ]

    out = tmp_path / "sweep.jsonl"
    sweep = run("sweep_annotation.py", "--ratios", "0.1", "--out", str(out))
    assert sweep.returncode == 0, sweep.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["method"] for r in records] == [
        "Supervised", "MutHighestProb", "SimThr", "MutNearest",
    ]
    assert all(set(r) == SWEEP_KEYS for r in records)


def test_bench_collects_every_workload_untraced_and_traced(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text('[{"earlier": "record"}]')  # the script appends
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench.py"), "--tiny",
                           "--seconds", "0", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    earlier, record = json.loads(out.read_text())
    assert earlier == {"earlier": "record"}
    assert {"commit", "nproc", "python", "numpy"} <= set(record)
    assert isinstance(record["dirty"], bool)
    src_lines = sum(p.read_bytes().count(b"\n")
                    for p in (SCRIPTS.parent / "src" / "kgalign").glob("*.py"))
    assert type(record["src_lines"]) is int and record["src_lines"] == src_lines > 0
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    assert list(record["workloads"]) == [w["name"] for w in spec["workloads"]]
    for result in record["workloads"].values():
        assert result["end_to_end"]["correct"] and result["per_layer"]["correct"]
        assert "wall_s" in result["end_to_end"]["metrics"]
        assert "calibration.fit_s" in result["per_layer"]["metrics"]
