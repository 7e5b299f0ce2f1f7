"""Self-training orchestration: supervised bootstrap and the full loop.

Each self-training iteration (a) fits the model on the current training
set (labelled mappings plus the previous iteration's pseudo mappings),
(b) computes the forward similarities (the reverse ones only for strategies
that read them), (c) fits the similarity calibration on labelled rows and
records it, (d) for both source-role choices, refines each unlabelled
row's top-k candidates by similarity (``compatibility.refine_slabs``),
(e) generates pseudo mappings with the configured strategy and evaluates.
The first pseudo-generation pass counts as iteration 0.

Outputs land in a per-run directory: a key-value manifest (deterministic,
so repeat runs hash identically), a ``metrics.jsonl`` stream with one
object per iteration, per-iteration wall-clock and ``model.fit`` seconds in
``timings.jsonl``, and the final pseudo mapping TSV.  The ``seconds`` field
of ``metrics.jsonl`` is written as 0.0 so the stream is byte-reproducible
for a fixed config and seed; real timings live in ``timings.jsonl``, which
is exempt from the reproducibility contract.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import compatibility, strategies
from .calibration import CalibrationError, ProbRow, fit_calibration
from .calibration import calibrate_matrix  # unused; the benchmark's tracer wraps it by name
from .kg import KgPair, MappingSet, load_dataset, partition_mappings, write_pseudo_tsv
from .metrics import evaluate_rows, pseudo_quality
from .models import (
    SRC_TO_TGT,
    TGT_TO_SRC,
    EmbeddingAligner,
    EmbeddingAlignerParams,
    ExternalSimilarityModel,
    SimMatrix,
    SyntheticOracle,
    row_slabs,
)
from .simio import read_dense_sim

MODEL_SEED_OFFSET = 1
ORACLE_SEED_OFFSET = 2


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    dataset_dir: str
    mode: str = "selftrain"            # selftrain | supervised
    strategy: str = "MutHighestProb"
    alpha: float | None = None         # probability threshold (UniThr, BiThr)
    theta: float | None = None         # similarity threshold (SimThr, OneToOne)
    uni_source: str = "kg1"            # UniThr direction
    ratio: float = 0.3
    seed: int = 0
    model: str = "embedding"           # embedding | oracle | external
    dim: int = 64
    margin: float = 1.0
    negatives: int = 5
    lr: float = 0.01
    epochs: int = 50
    iterations: int = 10
    top_k: int = 10
    oracle_noise: float = 0.3
    sim_file: str | None = None
    sim_file_reverse: str | None = None
    out_dir: str = "runs"

    def validate(self) -> None:
        d = Path(self.dataset_dir)
        for name in ("rel_triples_1", "rel_triples_2", "ent_links"):
            if not (d / name).exists():
                raise ConfigError(f"dataset file missing: {d / name}")
        if self.mode not in ("selftrain", "supervised"):
            raise ConfigError(f"unknown mode: {self.mode!r}")
        if self.model not in ("embedding", "oracle", "external"):
            raise ConfigError(f"unknown model: {self.model!r}")
        if not (0.0 < self.ratio < 1.0):
            raise ConfigError("ratio must be in (0,1)")
        for name, low, strict in (  # (field, lower bound, bound excluded)
            ("seed", 0, False), ("iterations", 1, False), ("epochs", 1, False),
            ("top_k", 1, False), ("dim", 1, False), ("negatives", 1, False),
            ("margin", 0.0, False), ("lr", 0.0, True),
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and (value > low if strict else value >= low)):
                raise ConfigError(
                    f"{name} must be finite and {'>' if strict else '>='} {low}")
        if not (0.0 <= self.oracle_noise <= 1.0):
            raise ConfigError("oracle_noise must be in [0,1]")
        if self.model == "external":
            if not self.sim_file:
                raise ConfigError("model=external requires sim_file")
            for path in (self.sim_file, self.sim_file_reverse):
                if path and not Path(path).exists():
                    raise ConfigError(f"similarity file missing: {path}")
        else:
            for name in ("sim_file", "sim_file_reverse"):
                if getattr(self, name):
                    raise ConfigError(f"{name} needs model=external, got model={self.model}")
        self._validate_strategy()

    def _validate_strategy(self) -> None:
        s = self.strategy
        if s not in strategies.ALL_STRATEGIES:
            raise ConfigError(f"unknown strategy: {s!r}")
        wanted = strategies.THRESHOLD_FIELD.get(s)
        if wanted is None:
            if self.alpha is not None or self.theta is not None:
                raise ConfigError(f"strategy {s} takes no threshold")
        else:
            other = "theta" if wanted == "alpha" else "alpha"
            if getattr(self, wanted) is None:
                raise ConfigError(f"strategy {s} requires {wanted}")
            if wanted == "alpha" and not (0.0 < self.alpha < 1.0):
                raise ConfigError("alpha must be in (0,1)")
            if wanted == "theta" and not math.isfinite(self.theta):
                raise ConfigError("theta must be finite")
            if getattr(self, other) is not None:
                raise ConfigError(f"strategy {s} takes {wanted}, not {other}")
        if self.uni_source not in ("kg1", "kg2"):
            raise ConfigError("uni_source must be kg1 or kg2")


_NUMBER_TYPES = {"int": (int, "an integer"), "float": (float, "a number")}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` config format; '#' starts a comment line."""
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping


def config_from_mapping(mapping: dict[str, str]) -> RunConfig:
    """Build a RunConfig from string key-values, coercing field types."""
    known = {f.name: f for f in fields(RunConfig)}
    kwargs: dict = {}
    for key, value in mapping.items():
        if key not in known:
            raise ConfigError(f"unknown config key: {key!r}")
        kwargs[key] = _coerce(key, value, known[key].type)
    if "dataset_dir" not in kwargs:
        raise ConfigError("config requires dataset_dir")
    return RunConfig(**kwargs)


def _coerce(key: str, value, type_str: str):
    if not isinstance(value, str):
        return value
    if type_str.endswith(" | None") and value.lower() == "none":
        return None
    number = _NUMBER_TYPES.get(type_str.removesuffix(" | None"))
    if number:
        convert, what = number
        try:
            return convert(value)
        except ValueError:
            raise ConfigError(f"{key}: expected {what}, got {value!r}") from None
    return value


def resolved_config_items(config: RunConfig) -> list[tuple[str, str]]:
    return [(k, repr(v)) for k, v in sorted(asdict(config).items())]


def config_hash(config: RunConfig) -> str:
    text = "\n".join(f"{k} = {v}" for k, v in resolved_config_items(config))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def prepare_run_dir(config: RunConfig) -> Path:
    """Timestamp + config-hash directory; never reuses an existing one."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(config.out_dir) / f"{stamp}-{config_hash(config)[:8]}"
    candidate = base
    n = 1
    while candidate.exists():
        candidate = base.with_name(f"{base.name}-{n}")
        n += 1
    candidate.mkdir(parents=True)
    return candidate


@dataclass(frozen=True)
class IterationReport:
    iteration: int
    hit1: float
    hit10: float
    mrr: float
    pseudo_count: int
    pseudo_precision: float | None
    pseudo_recall: float | None
    loss: float
    seconds: float

    def __post_init__(self):
        for v in (self.hit1, self.hit10, self.mrr):
            if not (0.0 <= v <= 1.0):
                raise ValueError("ranking metrics must be in [0,1]")
        if self.pseudo_count < 0:
            raise ValueError("pseudo_count must be nonnegative")


def metrics_line(report: IterationReport) -> str:
    """The exact nine-field metrics stream line; seconds zeroed so the
    stream is byte-reproducible (real timing goes to timings.jsonl).  The
    fields are ``IterationReport``'s, in its order, ``iteration`` as ``iter``."""
    row = asdict(report)
    return json.dumps({"iter": row.pop("iteration"), **row, "seconds": 0.0})


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SelfTrainRun:
    """One experiment: loads data, partitions, builds the model, iterates."""

    def __init__(self, config: RunConfig, run_dir: str | Path | None = None):
        config.validate()
        self.config = config
        self.pair, self.links = load_dataset(config.dataset_dir)
        self.partition = partition_mappings(self.links, config.ratio, config.seed)
        self.test = self.partition.test
        # each direction's labelled counterparts, -1 where there is none
        src, tgt = np.array(self.partition.labelled.pairs, dtype=np.int64).T
        self.labelled_fwd = np.full(self.pair.source.n_entities, -1, dtype=np.int64)
        self.labelled_fwd[src] = tgt
        self.labelled_rev = np.full(self.pair.target.n_entities, -1, dtype=np.int64)
        self.labelled_rev[tgt] = src
        self.unlab_src = np.flatnonzero(self.labelled_fwd < 0)
        self.unlab_tgt = np.flatnonzero(self.labelled_rev < 0)
        self.model = self._build_model()
        # made only now, so a failed set-up leaves no empty run directory
        self._made_run_dir = not run_dir
        if run_dir:
            self.run_dir = Path(run_dir)
            self.run_dir.mkdir(parents=True, exist_ok=True)
        else:
            self.run_dir = prepare_run_dir(config)
        self.reports: list[IterationReport] = []
        self._calibration_log: list[tuple[str, float]] = []

    def _build_model(self):
        cfg = self.config
        if cfg.model == "embedding":
            params = EmbeddingAlignerParams(
                dim=cfg.dim, margin=cfg.margin, negatives=cfg.negatives, lr=cfg.lr,
            )
            return EmbeddingAligner(params, seed=cfg.seed + MODEL_SEED_OFFSET)
        if cfg.model == "oracle":
            return SyntheticOracle(
                self.pair, self.links, noise_rate=cfg.oracle_noise,
                seed=cfg.seed + ORACLE_SEED_OFFSET,
            )
        n_src, n_tgt = self.pair.source.n_entities, self.pair.target.n_entities
        forward = read_dense_sim(cfg.sim_file, SRC_TO_TGT, n_src, n_tgt)
        reverse = None
        if cfg.sim_file_reverse:
            reverse = read_dense_sim(cfg.sim_file_reverse, TGT_TO_SRC, n_src, n_tgt)
        return ExternalSimilarityModel(forward=forward, reverse=reverse)

    # ------------------------------------------------------------------
    # per-direction pipeline
    # ------------------------------------------------------------------

    def _refined_direction(
        self, oriented: KgPair, sims: SimMatrix, labelled: np.ndarray,
        row_ids, col_ids, iteration: int, tag: str,
    ) -> list[ProbRow]:
        cfg = self.config
        lab_rows = np.flatnonzero(labelled >= 0)
        truth_cols = labelled[lab_rows]
        try:
            # the gathered block is the fit's alone, freed before refinement
            beta, _ = fit_calibration(sims.scores[lab_rows], truth_cols)
        except CalibrationError as err:
            raise CalibrationError(
                f"{tag} calibration at iteration {iteration}: {err}") from None
        self._calibration_log.append((f"iter{iteration}.{tag}", beta))
        return compatibility.refine_slabs(oriented, sims, labelled, row_ids, col_ids,
                                          cfg.top_k)

    def _generate_pseudo(self, sim_fwd: SimMatrix, iteration: int,
                         held: MappingSet) -> MappingSet:
        """This iteration's pseudo set; ``held`` is the previous one, which
        only ``OneToOne`` reads."""
        cfg = self.config
        if cfg.strategy in strategies.PROBABILITY_STRATEGIES:
            sim_rev = self.model.similarities(TGT_TO_SRC)
            fwd_rows = self._refined_direction(
                self.pair, sim_fwd, self.labelled_fwd,
                self.unlab_src, self.unlab_tgt, iteration, "fwd",
            )
            rev_rows = self._refined_direction(
                self.pair.swapped(), sim_rev, self.labelled_rev,
                self.unlab_tgt, self.unlab_src, iteration, "rev",
            )
            if cfg.strategy == "UniThr":
                if cfg.uni_source == "kg1":
                    return strategies.uni_threshold(fwd_rows, cfg.alpha)
                return strategies.uni_threshold(rev_rows, cfg.alpha).flipped()
            if cfg.strategy == "BiThr":
                return strategies.bi_threshold(fwd_rows, rev_rows, cfg.alpha)
            return strategies.mutual_highest_probability(fwd_rows, rev_rows)

        if cfg.strategy == "SimThr":
            return strategies.similarity_threshold(
                sim_fwd.scores, self.unlab_src, self.unlab_tgt, cfg.theta
            )
        if cfg.strategy == "OneToOne":
            return strategies.one_to_one_matching(
                sim_fwd.scores, self.unlab_src, self.unlab_tgt, cfg.theta, held,
            )
        sim_rev = self.model.similarities(TGT_TO_SRC)
        return strategies.mutual_nearest(
            sim_fwd.scores, self.unlab_src, self.unlab_tgt,
            sim_rev.scores, self.unlab_tgt, self.unlab_src,
        )

    # ------------------------------------------------------------------
    # main loops
    # ------------------------------------------------------------------

    def _evaluate(self, sim_fwd: SimMatrix):
        test_src = [s for s, _ in self.test.pairs]
        truth_cols = np.array([t for _, t in self.test.pairs])
        return evaluate_rows(row_slabs(sim_fwd.scores, test_src), truth_cols)

    def _emit(self, report: IterationReport, fit_s: float) -> None:
        # the first report starts both streams, in a run directory reused too
        mode = "a" if self.reports else "w"
        self.reports.append(report)
        with open(self.run_dir / "metrics.jsonl", mode, encoding="utf-8") as fh:
            fh.write(metrics_line(report) + "\n")
        with open(self.run_dir / "timings.jsonl", mode, encoding="utf-8") as fh:
            fh.write(json.dumps({"iter": report.iteration, "seconds": report.seconds,
                                 "fit_s": fit_s}) + "\n")

    def run(self) -> list[IterationReport]:
        try:
            return self._iterate()
        except BaseException:
            if self._made_run_dir and not self.reports:
                # nothing reported, so nothing was written: remove the directory
                with contextlib.suppress(OSError):
                    self.run_dir.rmdir()
            raise

    def _iterate(self) -> list[IterationReport]:
        cfg = self.config
        train = self.partition.labelled
        pseudo = MappingSet((), scores=())
        for iteration in range(cfg.iterations):
            t0 = time.perf_counter()
            trace = self.model.fit(self.pair, train, cfg.epochs)
            fit_s = time.perf_counter() - t0
            sim_fwd = self.model.similarities(SRC_TO_TGT)
            if cfg.mode == "selftrain":
                pseudo = self._generate_pseudo(sim_fwd, iteration, pseudo)
                precision, recall, _ = pseudo_quality(pseudo, self.test)
                train = self.partition.labelled.union(pseudo)
                report_kwargs = dict(pseudo_count=len(pseudo), pseudo_precision=precision,
                                     pseudo_recall=recall)
            else:
                report_kwargs = dict(pseudo_count=0, pseudo_precision=None, pseudo_recall=None)
            ev = self._evaluate(sim_fwd)
            report = IterationReport(
                iteration=iteration, hit1=ev.hit1, hit10=ev.hit10, mrr=ev.mrr,
                loss=float(trace[-1]) if trace else 0.0,
                seconds=time.perf_counter() - t0, **report_kwargs,
            )
            self._emit(report, fit_s)
        write_pseudo_tsv(
            self.run_dir / "pseudo_final.tsv", self.pair, pseudo,
            iteration=cfg.iterations - 1, strategy=cfg.strategy,
        )
        self._write_manifest()
        return self.reports

    def _write_manifest(self) -> None:
        lines = [f"{k} = {v}" for k, v in resolved_config_items(self.config)]
        d = Path(self.config.dataset_dir)
        for name in ("rel_triples_1", "rel_triples_2", "ent_links"):
            lines.append(f"dataset.{name}.sha256 = {_file_sha256(d / name)}")
        lines.append(f"partition.n_labelled = {len(self.partition.labelled)}")
        lines.append(f"partition.n_test = {len(self.partition.test)}")
        for tag, beta in self._calibration_log:
            lines.append(f"calibration.{tag}.beta = {beta!r}")
        (self.run_dir / "manifest.txt").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )


def run_selftrain(config: RunConfig,
                  run_dir: str | Path | None = None) -> list[IterationReport]:
    """Run the full self-training loop; one report per iteration."""
    if config.mode != "selftrain":
        raise ConfigError("run_selftrain requires mode=selftrain")
    return SelfTrainRun(config, run_dir).run()


def run_supervised(config: RunConfig,
                   run_dir: str | Path | None = None) -> IterationReport:
    """Supervised-only training at the same total epoch budget."""
    if config.mode != "supervised":
        raise ConfigError("run_supervised requires mode=supervised")
    reports = SelfTrainRun(config, run_dir).run()
    return reports[-1]

