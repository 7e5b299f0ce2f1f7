"""Benchmark of the kgalign self-training loop, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

The benchmark writes a synthetic-twin dataset from ``--seed`` (dataset seed
``11 + N``, run seed ``N``), then runs ``SelfTrainRun(config).run()`` again
and again, each time in a fresh process, until ``--seconds`` have passed and
at least two runs are done.  Every run's outputs are checked, and repeat
runs must write byte-identical ``metrics.jsonl``, ``manifest.txt`` and
``pseudo_final.tsv``.  With ``--trace 0`` it reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
runs and reports the per-layer metrics.  The last line of standard output
is one JSON object; ``--tiny`` shrinks every workload for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DATASET_SEED_BASE = 11
TINY_ENTITIES = 80
TINY_EPOCHS = 2
SETUP_REPS = 5        # SelfTrainRun(config) timings per untraced run
DEADLINE_S = 170.0    # a whole invocation stays under the 180 s limit
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Every workload is a structural twin: 4 triples per entity, 8 relations,
# 10% perturbation, 5% of the links labelled.
WORKLOADS = {
    # fit-bound: EmbeddingAligner.fit is most of the time, refinement the rest
    "selftrain-embed-n300": dict(
        n_entities=300, model="embedding", strategy="MutHighestProb",
        iterations=6, epochs=40),
    # refinement-bound: fit is a no-op; calibration and refinement dominate
    "refine-oracle-n3000": dict(
        n_entities=3000, model="oracle", oracle_noise=0.3,
        strategy="MutHighestProb", iterations=1, epochs=1),
    # matching-bound: greedy one-to-one over ~0.8M raw-similarity edges
    "onetoone-oracle-n3000": dict(
        n_entities=3000, model="oracle", oracle_noise=0.3,
        strategy="OneToOne", theta=0.45, iterations=3, epochs=1),
}

METRICS_FIELDS = ("iter", "hit1", "hit10", "mrr", "pseudo_count",
                  "pseudo_precision", "pseudo_recall", "loss", "seconds")
DETERMINISTIC_FILES = ("metrics.jsonl", "manifest.txt", "pseudo_final.tsv")
INJECTIVE_STRATEGIES = ("MutHighestProb", "OneToOne")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help=f"{TINY_ENTITIES} entities, at most {TINY_EPOCHS} epochs")
    return ap.parse_args(argv)


def _run_config(workload: str, seed: int, tiny: bool, data: Path, out: Path) -> dict:
    config = dict(WORKLOADS[workload])
    del config["n_entities"]
    if tiny:
        config["epochs"] = min(config["epochs"], TINY_EPOCHS)
    config.update(dataset_dir=str(data), ratio=0.05, seed=seed, out_dir=str(out))
    return config


def _check_outputs(run_dir: Path, config: dict, labels) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct."""
    problems = []
    for name in ("result.json",) + DETERMINISTIC_FILES:
        if not (run_dir / name).is_file():
            problems.append(f"missing {name}")
    if problems:
        return problems
    lines = (run_dir / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    if len(lines) != config["iterations"]:
        problems.append(f"metrics.jsonl has {len(lines)} lines, "
                        f"expected {config['iterations']}")
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if tuple(rec) != METRICS_FIELDS or rec["iter"] != i:
            problems.append(f"metrics.jsonl line {i + 1} is malformed")
        elif not rec["hit1"] <= rec["hit10"]:
            problems.append(f"iteration {i}: hit1 > hit10")
    pseudo = [row.split("\t") for row in
              (run_dir / "pseudo_final.tsv").read_text(encoding="utf-8").splitlines()]
    if any(len(row) != 5 for row in pseudo):
        problems.append("pseudo_final.tsv row without five columns")
        return problems
    src, tgt = [row[0] for row in pseudo], [row[1] for row in pseudo]
    if not (set(src) <= labels[0] and set(tgt) <= labels[1]):
        problems.append("pseudo_final.tsv names an entity outside the KGs")
    if config["strategy"] in INJECTIVE_STRATEGIES and (
            len(set(src)) != len(src) or len(set(tgt)) != len(tgt)):
        problems.append(f"{config['strategy']} pseudo set is not injective")
    if lines and json.loads(lines[-1])["pseudo_count"] != len(pseudo):
        problems.append("pseudo_final.tsv disagrees with the final pseudo_count")
    return problems


def _median_iqr(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class Bench:
    def __init__(self, args, work: Path):
        from kgalign.kg import load_dataset
        from kgalign.synth import write_twin_dataset

        self.args = args
        self.work = work
        n = TINY_ENTITIES if args.tiny else WORKLOADS[args.workload]["n_entities"]
        data = write_twin_dataset(
            work / "data", n_entities=n, n_triples=4 * n, n_relations=8,
            perturbation=0.1, seed=DATASET_SEED_BASE + args.seed)
        self.config = _run_config(args.workload, args.seed, args.tiny, data,
                                  work / "runs")
        pair, _ = load_dataset(data)
        self.labels = (set(pair.source.entity_labels),
                       set(pair.target.entity_labels))
        self.runs: list[dict] = []
        self.reference: dict[str, bytes] | None = None
        self.quality: dict | None = None  # final metrics.jsonl line

    def _spawn(self, traced: bool, deadline: float) -> dict:
        i = len(self.runs)
        run_dir = self.work / "runs" / f"run{i}"
        run_dir.mkdir(parents=True)
        spec = dict(config=self.config, run_dir=str(run_dir), run_id=i,
                    traced=traced, setup_reps=1 if traced else SETUP_REPS)
        spec_path = self.work / f"spec{i}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = dict(index=i, traced=traced, problems=[])
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                env=env, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            run["problems"].append("timed out")
            return run
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            run["problems"].append(f"exit code {proc.returncode}")
            return run
        run["problems"] = _check_outputs(run_dir, self.config, self.labels)
        if run["problems"]:
            return run
        run.update(json.loads((run_dir / "result.json").read_text(encoding="utf-8")))
        files = {name: (run_dir / name).read_bytes() for name in DETERMINISTIC_FILES}
        if self.reference is None:
            self.reference = files
            last = (run_dir / "metrics.jsonl").read_text(encoding="utf-8").splitlines()[-1]
            self.quality = json.loads(last)
        for name in DETERMINISTIC_FILES:
            if files[name] != self.reference[name]:
                run["problems"].append(f"{name} differs from the first run")
        if traced:
            from tracing import layer_metrics, load_spans
            run["layers"] = layer_metrics(load_spans(run_dir / "spans.jsonl"))
        return run

    def measure(self, start: float) -> None:
        """Closed loop: one run at a time until the time is used up."""
        trace = bool(self.args.trace)
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            traced = trace and len(self.runs) % 2 == 1
            t_run = time.perf_counter()
            run = self._spawn(traced, start + DEADLINE_S)
            self.runs.append(run)
            longest = max(longest, time.perf_counter() - t_run)
            now = time.perf_counter()
            wall = (f"run() {run['wall_s']:.3f}s cpu {run['cpu_s']:.3f}s "
                    if "wall_s" in run else "")
            print(f"run {run['index']} {'traced' if traced else 'untraced'} "
                  f"{now - t_run:.2f}s {wall}" + ("; ".join(run["problems"]) or "ok"),
                  flush=True)
            if "timed out" in run["problems"]:
                return
            done = len(self.runs) >= 2 and not (trace and len(self.runs) % 2)
            if done and (now - t0 >= self.args.seconds
                         or now + (2 if trace else 1) * longest > start + DEADLINE_S):
                return

    def _ok(self, traced: bool) -> list[dict]:
        return [r for r in self.runs if r["traced"] == traced and not r["problems"]]

    def end_to_end(self) -> dict[str, float]:
        runs = self._ok(False)
        if not runs:
            return {}
        wall, q1, q3 = _median_iqr([r["wall_s"] for r in runs])
        print(f"wall_s median {wall:.4f} s over {len(runs)} runs "
              f"(quartiles {q1:.4f}, {q3:.4f})")
        q = self.quality
        return {
            "wall_s": wall,
            "setup_s": statistics.median(s for r in runs for s in r["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "hit1": q["hit1"], "mrr": q["mrr"],
            "pseudo_precision": q["pseudo_precision"],
            "pseudo_recall": q["pseudo_recall"],
        }

    def per_layer(self) -> dict[str, float]:
        traced = self._ok(True)
        untraced = self._ok(False)
        if not traced or not untraced:
            return {}
        from tracing import COUNTS
        for r in traced[1:]:
            if any(r["layers"][k] != traced[0]["layers"][k] for k in COUNTS):
                r["problems"].append("work counts differ from the first traced run")
        out = {k: v if k in COUNTS else statistics.median(r["layers"][k] for r in traced)
               for k, v in traced[0]["layers"].items()}
        out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
        return out


def _report(bench: Bench, spec: dict) -> None:
    key = "per_layer" if bench.args.trace else "end_to_end"
    values = bench.per_layer() if bench.args.trace else bench.end_to_end()
    failed = sum(1 for r in bench.runs if r["problems"])
    metrics = {}
    for m in spec[key]:
        if m["name"] not in values:
            continue
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value} {m['unit']}")
    correct = failed == 0 and len(metrics) == len(spec[key])
    print(json.dumps({"correct": correct, "attempted": len(bench.runs),
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    start = time.perf_counter()
    args = _parse_args(argv)
    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "kgalign" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"perfbench: {SRC / 'kgalign'} or {spec_file} is missing; "
              "run from the root of a kgalign checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy

    print(f"# workload {args.workload} seed {args.seed} "
          f"dataset_seed {DATASET_SEED_BASE + args.seed} trace {args.trace}"
          f"{' tiny' if args.tiny else ''}")
    print(f"# nproc {nproc} blas_threads {nproc} python {platform.python_version()} "
          f"numpy {numpy.__version__}", flush=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        bench = Bench(args, work)
        bench.measure(start)
        _report(bench, json.loads(spec_file.read_text(encoding="utf-8")))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other invocation is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
