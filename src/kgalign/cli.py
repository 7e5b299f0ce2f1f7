"""Command-line harness.

Subcommands: ``partition`` (split a links file), ``run`` (supervised or
self-training experiment), ``import-sim`` (validate/convert an external
similarity file), ``stats`` (dump relation statistics), ``eval`` (score a
similarity or pseudo-mapping file against test links).

Exit codes: 0 success, 1 configuration/validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from . import compatibility
from .kg import (
    KgFormatError,
    MappingSet,
    load_dataset,
    load_links_file,
    partition_mappings,
    write_partition,
)
from .metrics import evaluate_rows, pseudo_quality
from .selftrain import (
    ConfigError,
    RunConfig,
    SelfTrainRun,
    config_from_mapping,
    parse_config_file,
)
from .models import SRC_TO_TGT, row_slabs
from .simio import (
    SimFormatError,
    read_dense_sim,
    read_sim_matrix,
    validate_against,
    write_sim_matrix,
)


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="run a supervised or self-training experiment")
    p.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, default=None, help=f"override {f.name}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgalign")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="split a links file into labelled/test")
    p.add_argument("--links", required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="partition")

    _add_run_parser(sub)

    p = sub.add_parser("import-sim", help="validate an external similarity file")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--sim-file", required=True)
    p.add_argument("--to-dense", help="optionally write a dense copy here")

    p = sub.add_parser("stats", help="dump relation statistics for a dataset")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--ratio", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="relation_stats.tsv")

    p = sub.add_parser("eval", help="evaluate similarities or pseudo mappings")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--ratio", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sim-file")
    p.add_argument("--pseudo-file")
    return parser


def _cmd_partition(args) -> int:
    links = MappingSet(tuple(dict.fromkeys(load_links_file(args.links))))
    part = partition_mappings(links, args.ratio, args.seed)
    write_partition(args.out, part)
    print(
        f"wrote {len(part.labelled)} labelled / {len(part.test)} test links to {args.out}"
    )
    return 0


def _cmd_run(args) -> int:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            mapping[f.name] = value
    config = config_from_mapping(mapping)
    run = SelfTrainRun(config)
    reports = run.run()
    last = reports[-1]
    print(f"run directory: {run.run_dir}")
    print(
        f"final: hit1={last.hit1:.4f} hit10={last.hit10:.4f} mrr={last.mrr:.4f} "
        f"pseudo={last.pseudo_count}"
    )
    return 0


def _cmd_import_sim(args) -> int:
    pair, _ = load_dataset(args.dataset_dir)
    matrix = read_sim_matrix(args.sim_file)
    validate_against(matrix, pair.source.n_entities, pair.target.n_entities)
    print(f"ok: {args.sim_file} (direction {matrix.direction})")
    if args.to_dense:
        write_sim_matrix(args.to_dense, matrix)
        print(f"wrote dense copy to {args.to_dense}")
    return 0


def _cmd_stats(args) -> int:
    pair, links = load_dataset(args.dataset_dir)
    part = partition_mappings(links, args.ratio, args.seed)
    src, tgt = np.array(part.labelled.pairs, dtype=np.int64).T
    assignment = np.full(pair.source.n_entities, -1, dtype=np.int64)
    assignment[src] = tgt
    stats = compatibility.estimate_relation_stats(pair, assignment)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("kind\tkey\tvalue\n")
        for r, v in sorted(stats.src_inv_fun.items()):
            fh.write(f"src_inv_fun\t{r}\t{v:.6g}\n")
        for r, v in sorted(stats.tgt_inv_fun.items()):
            fh.write(f"tgt_inv_fun\t{r}\t{v:.6g}\n")
        for (a, b), v in sorted(stats.subrel_src_in_tgt.items()):
            fh.write(f"subrel_src_in_tgt\t{a}:{b}\t{v:.6g}\n")
        for (a, b), v in sorted(stats.subrel_tgt_in_src.items()):
            fh.write(f"subrel_tgt_in_src\t{a}:{b}\t{v:.6g}\n")
    print(f"wrote relation statistics to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    pair, links = load_dataset(args.dataset_dir)
    part = partition_mappings(links, args.ratio, args.seed)
    out: dict[str, float | int | None] = {"n_test": len(part.test)}
    if args.sim_file:
        matrix = read_dense_sim(
            args.sim_file, SRC_TO_TGT, pair.source.n_entities, pair.target.n_entities
        )
        test_src = [s for s, _ in part.test.pairs]
        truth = np.array([t for _, t in part.test.pairs])
        report = evaluate_rows(row_slabs(matrix.scores, test_src), truth)
        out.update(hit1=report.hit1, hit10=report.hit10, mrr=report.mrr)
    if args.pseudo_file:
        id_pairs = []
        with open(args.pseudo_file, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                parts = line.rstrip("\r\n").split("\t")
                s, t = parts[0], parts[1] if len(parts) > 1 else None
                if s not in pair.source.entity_ids or t not in pair.target.entity_ids:
                    raise ConfigError(
                        f"{args.pseudo_file}:{lineno}: expected known source and "
                        f"target labels, tab-separated; got {line.strip()!r}"
                    )
                id_pairs.append((pair.source.entity_ids[s], pair.target.entity_ids[t]))
        pseudo = MappingSet(tuple(dict.fromkeys(id_pairs)))
        precision, recall, empty = pseudo_quality(pseudo, part.test)
        out.update(
            pseudo_count=len(pseudo), pseudo_precision=precision,
            pseudo_recall=recall, pseudo_empty=empty,
        )
    if len(out) == 1:
        raise ConfigError("eval needs --sim-file and/or --pseudo-file")
    print(json.dumps(out))
    return 0


_COMMANDS = {
    "partition": _cmd_partition,
    "run": _cmd_run,
    "import-sim": _cmd_import_sim,
    "stats": _cmd_stats,
    "eval": _cmd_eval,
}

_CONFIG_ERRORS = (ConfigError, KgFormatError, SimFormatError, ValueError,
                  FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - exit-code boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
