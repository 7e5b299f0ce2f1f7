"""The benchmark's tracer against the package it wraps.

``perfbench/tracing.py`` patches package functions by name and reads their
parameters by name.  These runs install it, unchanged, around tiny twin
runs, so renaming a traced function or parameter fails here and not only
in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from kgalign.selftrain import RunConfig, SelfTrainRun

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("strategy, extra, nonzero", [
    ("MutHighestProb", {}, ["compatibility.refine_rows", "strategies.candidate_edges",
                            "strategies.pseudo_pairs", "calibration.fit_cells"]),
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
    n_src, n_tgt = run.pair.source.n_entities, run.pair.target.n_entities
    directions = 2 if strategy == "MutHighestProb" else 1
    assert metrics["models.similarity_cells"] == directions * cfg.iterations * n_src * n_tgt
