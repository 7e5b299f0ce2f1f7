#!/usr/bin/env python3
"""Sweep the labelled-data share and record how each method degrades.

For every ratio in the sweep, runs supervised training plus the selected
strategies and appends one JSON line per (ratio, method) to the output
file, ready for plotting.

Usage:
    python scripts/sweep_annotation.py --out sweep.jsonl
    python scripts/sweep_annotation.py --ratios 0.01 0.05 0.1 --strategies MutHighestProb SimThr
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kgalign.selftrain import RunConfig, run_selftrain, run_supervised
from kgalign.strategies import THRESHOLD_FIELD
from kgalign.synth import write_twin_dataset


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--entities", type=int, default=300)
    ap.add_argument("--triples", type=int, default=1200)
    ap.add_argument("--ratios", type=float, nargs="+",
                    default=[0.01, 0.05, 0.1, 0.2, 0.3])
    ap.add_argument("--strategies", nargs="+",
                    default=["MutHighestProb", "SimThr", "MutNearest"])
    ap.add_argument("--threshold", type=float, default=0.5,
                    help="value used for whichever threshold a strategy needs")
    ap.add_argument("--iterations", type=int, default=6)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="sweep.jsonl")
    return ap.parse_args()


def main():
    args = parse_args()
    root = Path(tempfile.mkdtemp(prefix="kgalign-sweep-"))
    ds = write_twin_dataset(
        root / "dataset", n_entities=args.entities, n_triples=args.triples,
        perturbation=0.1, seed=11,
    )

    def record(fh, ratio, method, report):
        fh.write(json.dumps({
            "ratio": ratio,
            "method": method,
            "hit1": report.hit1,
            "hit10": report.hit10,
            "mrr": report.mrr,
            "pseudo_precision": report.pseudo_precision,
            "pseudo_recall": report.pseudo_recall,
        }) + "\n")
        fh.flush()
        print(f"ratio={ratio:<5} {method:>16s} hit1={report.hit1:.3f}")

    with open(args.out, "w", encoding="utf-8") as fh:
        for ratio in args.ratios:
            base = dict(
                dataset_dir=str(ds), ratio=ratio, seed=args.seed,
                iterations=args.iterations, epochs=args.epochs,
                out_dir=str(root / "runs"),
            )
            record(fh, ratio, "Supervised",
                   run_supervised(RunConfig(mode="supervised", **base)))
            for strategy in args.strategies:
                cfg = RunConfig(mode="selftrain", strategy=strategy, **base)
                if strategy in THRESHOLD_FIELD:
                    setattr(cfg, THRESHOLD_FIELD[strategy], args.threshold)
                record(fh, ratio, strategy, run_selftrain(cfg)[-1])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
