#!/usr/bin/env python3
"""Compare supervised training and self-training strategies on a synthetic
twin, across labelled shares and seeds.

Generates a structural-twin KG pair, then, for every ratio and seed, runs
supervised training and each selected strategy under the same iteration and
epoch budget.  Writes one JSON line per (ratio, seed, method) run to
``--out``, ready for plotting, and prints one table row per (ratio, method)
with the means over the seeds.

Usage:
    python scripts/sweep_annotation.py --ratios 0.05
    python scripts/sweep_annotation.py --ratios 0.01 0.05 0.1 --seeds 0 1 2 --strategies MutHighestProb SimThr
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

STRATEGIES = ["MutHighestProb", "BiThr", "UniThr", "SimThr", "OneToOne", "MutNearest"]
RECORDED = ("hit1", "hit10", "mrr", "pseudo_precision", "pseudo_recall")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--entities", type=int, default=300)
    ap.add_argument("--triples", type=int, default=1200)
    ap.add_argument("--relations", type=int, default=8)
    ap.add_argument("--perturbation", type=float, default=0.1)
    ap.add_argument("--ratios", type=float, nargs="+",
                    default=[0.01, 0.05, 0.1, 0.2, 0.3], help="labelled shares")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--strategies", nargs="+", default=STRATEGIES)
    ap.add_argument("--alpha", type=float, default=0.2,
                    help="refined-probability threshold of UniThr and BiThr")
    ap.add_argument("--theta", type=float, default=0.5,
                    help="cosine-similarity threshold of SimThr and OneToOne")
    ap.add_argument("--iterations", type=int, default=6)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--out", default="sweep.jsonl", help="JSON lines, one per run")
    ap.add_argument("--out-dir", default=None, help="run output root (default: temp)")
    return ap.parse_args(argv)


def mean(reports, key):
    return sum(getattr(r, key) for r in reports) / len(reports)


def main():
    args = parse_args()
    root = Path(args.out_dir) if args.out_dir else Path(tempfile.mkdtemp(prefix="kgalign-"))
    ds = write_twin_dataset(
        root / "dataset", n_entities=args.entities, n_triples=args.triples,
        n_relations=args.relations, perturbation=args.perturbation, seed=11,
    )
    print(f"dataset: {ds} ({args.entities} entities, {args.triples} triples)")
    methods = ["Supervised", *args.strategies]
    finals = {}  # (ratio, method) -> final report of each seed's run
    with open(args.out, "w", encoding="utf-8") as fh:
        for ratio in args.ratios:
            for seed in args.seeds:
                base = dict(dataset_dir=str(ds), ratio=ratio, seed=seed,
                            iterations=args.iterations, epochs=args.epochs,
                            out_dir=str(root / "runs"))
                for method in methods:
                    # the threshold this method's runs use; the other stays None
                    threshold = {"alpha": None, "theta": None}
                    if method in THRESHOLD_FIELD:
                        field = THRESHOLD_FIELD[method]
                        threshold[field] = getattr(args, field)
                    if method == "Supervised":
                        report = run_supervised(RunConfig(mode="supervised", **base))
                    else:
                        report = run_selftrain(RunConfig(strategy=method, **threshold,
                                                         **base))[-1]
                    finals.setdefault((ratio, method), []).append(report)
                    fh.write(json.dumps({"ratio": ratio, "seed": seed, "method": method,
                                         **threshold,
                                         **{k: getattr(report, k) for k in RECORDED}}) + "\n")
                    fh.flush()
                    print(f"ratio={ratio:<5} seed={seed} {method:>16s} hit1={report.hit1:.3f}")

    header = (f"{'ratio':>6s} {'method':>16s} {'hit@1':>7s} {'hit@10':>7s} {'mrr':>7s} "
              f"{'pseudo':>7s} {'prec':>6s} {'rec':>6s}")
    print(header)
    print("-" * len(header))
    for (ratio, method), rs in finals.items():
        pseudo = ("-",) * 3 if method == "Supervised" else (
            f"{mean(rs, 'pseudo_count'):.0f}", f"{mean(rs, 'pseudo_precision'):.3f}",
            f"{mean(rs, 'pseudo_recall'):.3f}")
        print(f"{ratio:>6g} {method:>16s} {mean(rs, 'hit1'):7.3f} {mean(rs, 'hit10'):7.3f} "
              f"{mean(rs, 'mrr'):7.3f} {pseudo[0]:>7} {pseudo[1]:>6} {pseudo[2]:>6}")
    print(f"\nwrote {args.out}; run artifacts under {root / 'runs'}")


if __name__ == "__main__":
    main()
