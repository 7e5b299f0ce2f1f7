"""One timed self-training run in a fresh process.

Usage: ``python3 perfbench/child.py SPEC.json`` with ``src`` on
``PYTHONPATH``.  The spec names the run config, the run directory, how many
times to time ``SelfTrainRun(config)`` and whether to trace.  The last
set-up object is the one that runs.  Results go to ``result.json`` in the
run directory and, when traced, spans to ``spans.jsonl``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from kgalign.selftrain import RunConfig, SelfTrainRun

from tracing import ROOT_SPAN, SETUP_SPAN, Tracer


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    config = RunConfig(**spec["config"])
    run_dir = Path(spec["run_dir"])
    tracer = Tracer(spec["run_id"]) if spec["traced"] else None
    if tracer:
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    setup_s = []
    run = None
    for _ in range(spec["setup_reps"]):
        run = None  # free the previous model before building the next
        t0 = time.perf_counter()
        with span(SETUP_SPAN):
            run = SelfTrainRun(config, run_dir)
        setup_s.append(time.perf_counter() - t0)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with span(ROOT_SPAN):
        run.run()
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    if tracer:
        tracer.uninstall()
        tracer.dump(run_dir / "spans.jsonl")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_kb / 1024}
    (run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
