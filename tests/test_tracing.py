"""The benchmark's tracer and self-test against the package they run.

``perfbench/tracing.py`` patches package functions by name and reads their
parameters by name.  These runs install it, unchanged, around tiny twin
runs, so renaming a traced function or parameter fails here and not only
in a traced benchmark run.  The benchmark's self-test runs here as well.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from kgalign.selftrain import RunConfig, SelfTrainRun

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# exact counts pin what the tracer reads from the calibration fit, the
# refinement and the strategy: one fit per direction and iteration over 8
# labelled rows x 80 columns; 2 directions x 2 iterations x 72 unlabelled
# rows, 10 candidates each, and the argmaxes the refinement moved.
# OneToOne is handed the whole 80 x 80 matrix, so its candidate edges are
# those above theta in every row and column, labelled ones included
EXACT_COUNTS = {"MutHighestProb": {
    "calibration.fit_cells": 2560,
    "compatibility.refine_rows": 288, "compatibility.refine_candidates": 2880,
    "compatibility.refine_moved_rows": 128, "strategies.candidate_edges": 144,
    "strategies.pseudo_pairs": 80},
    "OneToOne": {"strategies.candidate_edges": 1448, "strategies.pseudo_pairs": 136}}


@pytest.mark.parametrize("strategy, extra, nonzero", [
    ("MutHighestProb", {}, ["calibration.fit_cells"]),
    ("OneToOne", {"theta": 0.45}, ["strategies.candidate_edges",
                                    "strategies.pseudo_pairs"]),
])
def test_tracer_counts_work(twin_dataset_dir, tmp_path, strategy, extra, nonzero):
    tracing = load_tracing()
    tracer = tracing.Tracer(run_id=0)
    tracer.install()
    try:
        cfg = RunConfig(dataset_dir=str(twin_dataset_dir), strategy=strategy,
                        model="oracle", ratio=0.1, iterations=2, epochs=1,
                        out_dir=str(tmp_path / "runs"), **extra)
        with tracer.span(tracing.ROOT_SPAN):
            run = SelfTrainRun(cfg)
            run.run()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    assert sorted(k for k in nonzero if metrics[k] <= 0) == []
    exact = EXACT_COUNTS.get(strategy, {})
    assert {k: metrics[k] for k in exact} == exact
    # the refinement reads raw similarities, so no run calibrates a matrix
    assert metrics["calibration.calibrate_cells"] == 0
    n_src, n_tgt = run.pair.source.n_entities, run.pair.target.n_entities
    directions = 2 if strategy == "MutHighestProb" else 1
    assert metrics["models.similarity_cells"] == directions * cfg.iterations * n_src * n_tgt


def test_benchmark_selftest_passes():
    # every workload at a tiny size, untraced and traced: run determinism,
    # the output checks, injective pseudo sets and the traced work counts
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
