"""The README's commands parse, and its scripts run end to end on a tiny
synthetic twin."""

import importlib.util
import json
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

from kgalign.cli import _build_parser
from kgalign.selftrain import config_from_mapping, parse_config_file

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = SCRIPTS.parent / "README.md"
TINY = ["--entities", "60", "--triples", "240", "--iterations", "1", "--epochs", "1"]
SWEEP_KEYS = {"ratio", "method", "alpha", "theta", "hit1", "hit10", "mrr",
              "pseudo_precision", "pseudo_recall"}
METHODS = ["Supervised", "MutHighestProb", "BiThr", "UniThr", "SimThr", "OneToOne",
           "MutNearest"]


def readme_commands() -> list[list[str]]:
    """Each ``python scripts/...`` and ``kgalign ...`` line of README's code
    blocks, split as a shell would."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    lines = (line.strip() for block in blocks for line in block.splitlines())
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith(("python scripts/", "kgalign "))]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    """A renamed script or flag fails here rather than in a reader's shell."""
    if argv[0] == "kgalign":
        parse = _build_parser().parse_args
        argv = argv[1:]
    else:
        spec = importlib.util.spec_from_file_location("readme_script",
                                                      SCRIPTS.parent / argv[1])
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        parse = script.parse_args
        argv = argv[2:]
    try:
        parse(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {argv}")


def test_readme_shows_every_script_and_command():
    shown = {argv[1] for argv in readme_commands()}
    assert {f"scripts/{p.name}" for p in SCRIPTS.glob("*.py")} <= shown
    assert {"partition", "run", "import-sim", "stats", "eval"} <= shown


def test_readme_config_block_loads(tmp_path):
    """The ``run.conf`` example under the README's config section loads as
    written: a comment takes a line of its own, since ``#`` inside a value
    is part of it."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^### Config format\n.*?^```[^\n]*\n(.*?)^```", text,
                      re.M | re.S).group(1)
    conf = tmp_path / "run.conf"
    conf.write_text(block, encoding="utf-8")
    config = config_from_mapping(parse_config_file(conf))
    assert (config.strategy, config.ratio, config.model, config.top_k) == \
        ("MutHighestProb", 0.05, "embedding", 10)


def test_quick_start_scripts_run(tmp_path):
    """The sweep writes one record per (ratio, seed, method) run and one
    table row per (ratio, method), the mean over the seeds."""
    out = tmp_path / "sweep.jsonl"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "sweep_annotation.py"), *TINY,
         "--ratios", "0.1", "0.2", "--seeds", "0", "1", "--out", str(out)],
        cwd=tmp_path, env=dict(os.environ, TMPDIR=str(tmp_path)),  # runs go under mkdtemp
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["ratio"], r["seed"], r["method"]) for r in records] == [
        (ratio, seed, method) for ratio in (0.1, 0.2) for seed in (0, 1)
        for method in METHODS]
    assert all(set(r) == SWEEP_KEYS | {"seed"} for r in records)
    assert {r["method"]: (r["alpha"], r["theta"]) for r in records} == {
        "Supervised": (None, None), "MutHighestProb": (None, None),
        "BiThr": (0.2, None), "UniThr": (0.2, None), "SimThr": (None, 0.5),
        "OneToOne": (None, 0.5), "MutNearest": (None, None)}
    lines = proc.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
    table = [row.split() for row in lines[start:lines.index("", start)]]
    assert [row[:2] for row in table] == [
        [ratio, method] for ratio in ("0.1", "0.2") for method in METHODS]
    for ratio, method, hit1, *_ in table:
        runs = [r["hit1"] for r in records if (str(r["ratio"]), r["method"]) == (ratio, method)]
        assert hit1 == f"{sum(runs) / len(runs):.3f}"


def test_sweep_passes_each_threshold_to_its_strategies_only(tmp_path):
    """``--alpha`` reaches the probability thresholds and ``--theta`` the
    similarity ones; each record and run manifest says which was used."""
    out = tmp_path / "sweep.jsonl"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "sweep_annotation.py"), *TINY, "--ratios", "0.1",
         "--strategies", "BiThr", "UniThr", "SimThr", "OneToOne", "MutHighestProb",
         "--alpha", "0.3", "--theta", "0.1", "--out", str(out),
         "--out-dir", str(tmp_path / "root")],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    used = {"BiThr": (0.3, None), "UniThr": (0.3, None), "SimThr": (None, 0.1),
            "OneToOne": (None, 0.1), "MutHighestProb": (None, None),
            "Supervised": (None, None)}
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert {r["method"]: (r["alpha"], r["theta"]) for r in records} == used
    manifests = [dict(line.split(" = ", 1) for line in m.read_text().splitlines()
                      if line.split(" = ")[0] in ("mode", "strategy", "alpha", "theta"))
                 for m in (tmp_path / "root" / "runs").glob("*/manifest.txt")]
    assert sorted((m["strategy"], m["alpha"], m["theta"]) for m in manifests
                  if m["mode"] == "'selftrain'") == sorted(
        (repr(method), repr(alpha), repr(theta))
        for method, (alpha, theta) in used.items() if method != "Supervised")


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


def test_bench_pairs_this_checkout_against_a_revision(tmp_path):
    """``--against`` runs both sides untraced once per pair and records,
    per end-to-end metric, both sides' values and their paired summary, and
    whether both sides' outputs are byte-identical."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPTS.parent,
                          capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    def worktrees():
        return subprocess.run(["git", "worktree", "list"], cwd=SCRIPTS.parent,
                              capture_output=True, text=True).stdout

    before = worktrees()
    out = tmp_path / "ab.json"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench.py"), "--tiny",
                           "--seconds", "0", "--pairs", "1", "--against", "HEAD",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    [record] = json.loads(out.read_text())
    assert record["against"] == head.stdout.strip() and record["pairs"] == 1
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    assert list(record["workloads"]) == [w["name"] for w in spec["workloads"]]
    for metrics in record["workloads"].values():
        assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
        for m in metrics.values():
            assert set(m) == {"base", "change", "base_median", "change_median",
                              "base_quartiles", "change_quartiles", "median_ratio",
                              "change_won"}
            assert len(m["base"]) == len(m["change"]) == 1
            assert m["base_quartiles"] == [m["base_median"]] * 2 == m["base"] * 2
            assert m["change_quartiles"] == [m["change_median"]] * 2 == m["change"] * 2
            assert m["change_won"] in (0, 1)
    wall = record["workloads"]["refine-oracle-n3000"]["wall_s"]
    assert wall["median_ratio"] == wall["change"][0] / wall["base"][0]
    # the revision's src line count, read from the object store
    def git(*args):
        return subprocess.run(["git", *args], cwd=SCRIPTS.parent, capture_output=True,
                              check=True).stdout
    paths = git("ls-tree", "--name-only", "HEAD", "src/kgalign/").decode().split()
    src_lines = sum(git("show", f"HEAD:{path}").count(b"\n")
                    for path in paths if path.endswith(".py"))
    assert type(record["against_src_lines"]) is int
    assert record["against_src_lines"] == src_lines > 0
    # this checkout writes the same outputs as its own commit, on every
    # workload at both seeds
    files = ["metrics.jsonl", "manifest.txt", "pseudo_final.tsv"]
    assert record["outputs_identical"] == {
        w["name"]: {seed: dict.fromkeys(files, True) for seed in ("0", "1")}
        for w in spec["workloads"]}
    assert worktrees() == before  # the temporary worktree is gone


def marked_processes(mark: str) -> dict[int, str]:
    """The command line of each live process whose environment holds
    ``mark``, by process id."""
    found = {}
    for proc in Path("/proc").iterdir():
        try:
            if proc.name.isdigit() and mark.encode() in (proc / "environ").read_bytes():
                found[int(proc.name)] = (proc / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:  # gone, or not ours to read
            pass
    return {pid: cmd.decode() for pid, cmd in found.items()}


def test_interrupted_bench_stops_its_runs_and_removes_their_work(tmp_path):
    """SIGINT to ``bench.py --against`` alone, while this checkout's side of
    the first pair runs: no ``perfbench/run.py`` or ``child.py`` it started
    outlives it, and no ``.perfbench_work/`` entry is left behind."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPTS.parent,
                          capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    if not Path("/proc/self/environ").exists():
        pytest.skip("reads processes' environments from /proc")
    key, value = "KGALIGN_BENCH_STOP_TEST", uuid.uuid4().hex
    mark = f"{key}={value}"
    checkout_work = SCRIPTS.parent / ".perfbench_work"
    before = set(checkout_work.glob("*"))

    def checkout_entries():
        return set(checkout_work.glob("*")) - before

    # the first pair runs the revision first, in a worktree under TMPDIR
    bench = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "bench.py"), "--tiny", "--seconds", "0",
         "--against", "HEAD", "--pairs", "1", "--workload", "onetoone-oracle-n3000",
         "--out", str(tmp_path / "ab.json")],
        env=dict(os.environ, TMPDIR=str(tmp_path), **{key: value}),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not checkout_entries():
            assert bench.poll() is None, "bench.py ended before this checkout's run"
            assert time.monotonic() < deadline, "no run in this checkout within 120 s"
            time.sleep(0.01)
        bench.send_signal(signal.SIGINT)
        bench.wait(timeout=60)
        left, work_left = marked_processes(mark), checkout_entries()
        work_left |= set(tmp_path.glob("**/.perfbench_work/*"))
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
        for pid in marked_processes(mark):
            os.kill(pid, signal.SIGKILL)
        for entry in checkout_entries():
            shutil.rmtree(entry, ignore_errors=True)
    assert sorted(left.values()) == []
    assert work_left == set()
