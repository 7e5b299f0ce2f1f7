"""Layer spans for the benchmark, recorded from outside the package.

``Tracer.install`` replaces the functions the self-training orchestrator
calls into each module with wrappers that record one span per call (name,
start, end, parent span, run id) plus the work counts of that call.  Spans
stay in memory until ``dump`` writes them as JSON lines when the run ends.
``layer_metrics`` turns a run's spans into the per-layer metrics.

A span's self time is its duration minus the durations of its direct
child spans, so ``build_assignment`` nested inside ``refine_rows`` is
charged to ``compatibility.assignment`` and not to
``compatibility.refine``.  Counts are taken after the span has ended and
only at the outermost span of a name (``bi_threshold`` calls
``uni_threshold``), so counting costs tracing overhead, not layer time.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from kgalign import compatibility, models, selftrain, strategies

ROOT_SPAN = "selftrain.run"
SETUP_SPAN = "selftrain.setup"


def _argmax_lowest_id(q: np.ndarray, col_ids) -> np.ndarray:
    cols = np.asarray(col_ids)
    best = q == q.max(axis=1, keepdims=True)
    return np.where(best, cols[None, :], np.iinfo(np.int64).max).min(axis=1)


def _count_fit(a, result):
    pair = a["kg_pair"]
    n_triples = len(pair.source.triples) + len(pair.target.triples)
    return {"models.fit_triple_epochs": a["epochs"] * n_triples,
            "models.fit_train_pairs": len(a["train"])}


def _count_similarities(a, result):
    return {"models.similarity_cells": int(result.scores.size)}


def _count_cells(key):
    return lambda a, result: {key: int(np.asarray(a["sims"]).size)}


def _count_refine(a, result):
    before = _argmax_lowest_id(np.asarray(a["q_matrix"], dtype=np.float64),
                               a["col_ids"])
    after = np.array([row.argmax_candidate() for row in result])
    return {"compatibility.refine_rows": len(result),
            "compatibility.refine_candidates": sum(len(r.cand_ids) for r in result),
            "compatibility.refine_moved_rows": int((before != after).sum())}


def _count_strategy(edges):
    def count(a, result):
        return {"strategies.candidate_edges": int(edges(a)),
                "strategies.pseudo_pairs": len(result)}
    return count


_STRATEGY_EDGES = {
    # pairs each strategy scores before it keeps any
    "uni_threshold": lambda a: sum(len(r.cand_ids) for r in a["rows"]),
    "bi_threshold": lambda a: sum(len(r.cand_ids)
                                  for r in a["rows_forward"] + a["rows_reverse"]),
    "mutual_highest_probability": lambda a: len(a["rows_forward"]),
    "similarity_threshold": lambda a: len(a["row_ids"]),
    "one_to_one_matching": lambda a: int((np.asarray(a["sims"]) > a["theta"]).sum()),
    "mutual_nearest": lambda a: len(a["fwd_row_ids"]),
}

# (owner, attribute, span name, counter); the owner's attribute is what the
# orchestrator resolves at call time, so patching it catches every call.
TARGETS = [
    (selftrain, "load_dataset", "kg.load", None),
    (selftrain, "partition_mappings", "kg.partition", None),
    (selftrain, "fit_calibration", "calibration.fit", _count_cells("calibration.fit_cells")),
    (selftrain, "calibrate_matrix", "calibration.calibrate",
     _count_cells("calibration.calibrate_cells")),
    (selftrain, "evaluate_rows", "metrics.evaluate", None),
    (selftrain, "pseudo_quality", "metrics.pseudo_quality", None),
    (compatibility, "build_assignment", "compatibility.assignment", None),
    (compatibility, "estimate_relation_stats", "compatibility.stats", None),
    (compatibility, "refine_rows", "compatibility.refine", _count_refine),
]
TARGETS += [(strategies, name, "strategies.generate", _count_strategy(edges))
            for name, edges in _STRATEGY_EDGES.items()]
for _cls in (models.EmbeddingAligner, models.SyntheticOracle,
             models.ExternalSimilarityModel):
    # only the trainable model does fit work worth counting
    _fit_count = _count_fit if _cls is models.EmbeddingAligner else None
    TARGETS += [(_cls, "__init__", "models.build", None),
                (_cls, "fit", "models.fit", _fit_count),
                (_cls, "similarities", "models.similarities", _count_similarities)]

SECONDS = ["models.fit", "models.similarities", "kg.load", "kg.partition",
           "models.build", "calibration.fit", "calibration.calibrate",
           "compatibility.assignment", "compatibility.stats",
           "compatibility.refine", "strategies.generate", "metrics.evaluate",
           "metrics.pseudo_quality"]
COUNTS = ["models.fit_triple_epochs", "models.fit_train_pairs",
          "models.similarity_cells", "calibration.fit_cells",
          "calibration.calibrate_cells", "compatibility.refine_rows",
          "compatibility.refine_candidates", "compatibility.refine_moved_rows",
          "strategies.candidate_edges", "strategies.pseudo_pairs"]


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "parent": parent, "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, count):
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            parent = rec["parent"]
            if count is not None and (parent is None
                                      or tracer.spans[parent]["name"] != name):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["counts"] = count(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def load_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer seconds (self time) and work counts of one traced run;
    ``selftrain.self_s`` is the self time of the ``run()`` span."""
    self_time = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            self_time[s["parent"]] -= s["end"] - s["start"]
    out = {f"{name}_s": 0.0 for name in SECONDS}
    out.update({key: 0 for key in COUNTS})
    out["selftrain.self_s"] = 0.0
    for s, t in zip(spans, self_time):
        if s["name"] == ROOT_SPAN:
            out["selftrain.self_s"] += t
        elif s["name"] != SETUP_SPAN:
            out[f"{s['name']}_s"] += t
        for key, n in s.get("counts", {}).items():
            out[key] += n
    return out
