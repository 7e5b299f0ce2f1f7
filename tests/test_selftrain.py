import dataclasses
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from kgalign import compatibility, models, selftrain, strategies
from kgalign import kg as kg_module
from kgalign.calibration import CalibrationError
from kgalign.kg import KgPair, MappingSet, load_dataset
from kgalign.models import SRC_TO_TGT, TGT_TO_SRC, SimMatrix
from kgalign.selftrain import (
    ConfigError,
    RunConfig,
    SelfTrainRun,
    config_from_mapping,
    config_hash,
    metrics_line,
    parse_config_file,
    refine_slabs,
    run_selftrain,
    run_supervised,
)
from kgalign.simio import write_sim_matrix
from kgalign.synth import write_twin_dataset

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

METRIC_FIELDS = [
    "iter", "hit1", "hit10", "mrr", "pseudo_count",
    "pseudo_precision", "pseudo_recall", "loss", "seconds",
]


def base_config(dataset_dir, tmp_path, **overrides) -> RunConfig:
    # replace() rejects a misspelt or removed field instead of ignoring it
    return dataclasses.replace(RunConfig(
        dataset_dir=str(dataset_dir),
        mode="selftrain",
        strategy="MutHighestProb",
        model="oracle",
        oracle_noise=0.3,
        ratio=0.1,
        seed=0,
        iterations=2,
        epochs=1,
        out_dir=str(tmp_path / "runs"),
    ), **overrides)


class TestConfig:
    def test_missing_dataset_rejected(self, tmp_path):
        cfg = RunConfig(dataset_dir=str(tmp_path / "nope"))
        with pytest.raises(ConfigError, match="dataset"):
            cfg.validate()

    def test_threshold_strategy_requires_threshold(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, strategy="UniThr")
        with pytest.raises(ConfigError, match="alpha"):
            cfg.validate()

    def test_no_hyperparameter_strategy_rejects_threshold(
        self, twin_dataset_dir, tmp_path
    ):
        cfg = base_config(twin_dataset_dir, tmp_path, alpha=0.5)
        with pytest.raises(ConfigError, match="no threshold"):
            cfg.validate()

    def test_similarity_strategy_rejects_alpha(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, strategy="SimThr",
                          theta=0.5, alpha=0.5)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_zero_iterations_rejected(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, iterations=0)
        with pytest.raises(ConfigError, match="iterations"):
            cfg.validate()

    @pytest.mark.parametrize("field, value", [
        ("dim", 0), ("negatives", 0), ("lr", -0.01), ("lr", 0.0),
        ("margin", -1.0),
        ("lr", float("inf")), ("lr", float("nan")), ("margin", float("inf")),
        ("margin", float("nan")), ("theta", float("nan")),
        ("theta", float("inf")), ("theta", float("-inf")), ("seed", -1),
    ])
    def test_bad_hyperparameter_rejected(self, twin_dataset_dir, tmp_path,
                                         field, value):
        # theta is read only by the similarity-threshold strategies
        strategy = {"strategy": "SimThr"} if field == "theta" else {}
        cfg = base_config(twin_dataset_dir, tmp_path, **strategy, **{field: value})
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

    @pytest.mark.parametrize("fields, message", [
        ({"strategy": "Nope", "theta": float("nan")}, "unknown strategy"),
        ({"strategy": "SimThr", "theta": float("nan")}, "theta"),
        ({"alpha": 0.5}, "no threshold"),
        ({"uni_source": "kg3"}, "uni_source"),
    ])
    def test_supervised_run_checks_strategy_fields(self, twin_dataset_dir, tmp_path,
                                                   fields, message):
        # a supervised run reads none of them, but records them in its manifest
        cfg = base_config(twin_dataset_dir, tmp_path, mode="supervised", **fields)
        with pytest.raises(ConfigError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("field", ["sim_file", "sim_file_reverse"])
    def test_sim_file_needs_external_model(self, twin_dataset_dir, tmp_path, field):
        cfg = base_config(twin_dataset_dir, tmp_path, **{field: "sims.tsv"})
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

    @pytest.mark.parametrize("key, value, kind", [
        ("epochs", "abc", "an integer"), ("top_k", "2.5", "an integer"),
        ("ratio", "x", "a number"), ("alpha", "", "a number"),
    ])
    def test_bad_number_names_key(self, key, value, kind):
        with pytest.raises(ConfigError, match=f"^{key}: expected {kind}, got"):
            config_from_mapping({"dataset_dir": "x", key: value})

    def test_config_file_roundtrip(self, twin_dataset_dir, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# comment\n"
            f"dataset_dir = {twin_dataset_dir}\n"
            "mode = selftrain\n"
            "strategy = UniThr\n"
            "alpha = 0.6\n"
            "iterations = 3\n"
            "debug_dump = true\n",
            encoding="utf-8",
        )
        cfg = config_from_mapping(parse_config_file(conf))
        assert cfg.strategy == "UniThr"
        assert cfg.alpha == 0.6
        assert cfg.iterations == 3
        assert cfg.debug_dump is True

    def test_unknown_key_rejected(self):
        for key in ("bogus", "refine_passes", "rank_with_refined",
                    "stats_labelled_only", "cold_restart", "calib_lr", "calib_epochs"):
            with pytest.raises(ConfigError, match="unknown config key"):
                config_from_mapping({"dataset_dir": "x", key: "1"})

    def test_hash_stable_under_key_order(self, twin_dataset_dir, tmp_path):
        a = base_config(twin_dataset_dir, tmp_path)
        b = base_config(twin_dataset_dir, tmp_path)
        assert config_hash(a) == config_hash(b)


class TestMetricsStream:
    def test_exact_fields_in_order(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path)
        run = SelfTrainRun(cfg)
        run.run()
        lines = (run.run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == cfg.iterations
        for line in lines:
            obj = json.loads(line)
            assert list(obj.keys()) == METRIC_FIELDS
            assert obj["seconds"] == 0.0

    def test_three_iterations_three_reports(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, iterations=3)
        reports = run_selftrain(cfg)
        assert [r.iteration for r in reports] == [0, 1, 2]

    def test_byte_identical_reruns(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, model="embedding",
                          epochs=2, iterations=2)
        run_a = SelfTrainRun(cfg)
        run_a.run()
        run_b = SelfTrainRun(cfg)
        run_b.run()
        assert run_a.run_dir != run_b.run_dir
        read = lambda r, name: (r.run_dir / name).read_bytes()
        assert read(run_a, "metrics.jsonl") == read(run_b, "metrics.jsonl")
        assert read(run_a, "manifest.txt") == read(run_b, "manifest.txt")
        assert read(run_a, "pseudo_final.tsv") == read(run_b, "pseudo_final.tsv")

    @pytest.mark.parametrize("name, overrides", [
        ("muthighestprob", dict(strategy="MutHighestProb")),
        ("onetoone", dict(strategy="OneToOne", theta=0.45)),
        # every labelled truth leads its row: each fitted β is inf
        ("muthighestprob_noisefree", dict(strategy="MutHighestProb", oracle_noise=0.0)),
        # with two candidates per row, refined probabilities clear 0.5 often
        ("unithr", dict(strategy="UniThr", alpha=0.5, top_k=2)),
        ("bithr", dict(strategy="BiThr", alpha=0.5, top_k=2)),
    ])
    def test_outputs_match_golden_files(self, twin_dataset_dir, tmp_path, name, overrides):
        # the oracle model runs no BLAS product, so these bytes do not
        # depend on the thread count; the files change only with results
        run = SelfTrainRun(base_config(twin_dataset_dir, tmp_path, **overrides))
        run.run()
        for f in ("metrics.jsonl", "pseudo_final.tsv"):
            assert (run.run_dir / f).read_bytes() == (GOLDEN_DIR / name / f).read_bytes(), f
        # the fitted parameters; the rest of the manifest names tmp paths
        calib = [line + "\n" for line in (run.run_dir / "manifest.txt").read_text().splitlines()
                 if line.startswith("calibration.")]
        assert "".join(calib) == (GOLDEN_DIR / name / "calibration.txt").read_text()

    def test_reused_run_dir_starts_streams_empty(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path)
        fresh = SelfTrainRun(cfg)
        fresh.run()
        reused = tmp_path / "reused"
        for _ in range(2):
            SelfTrainRun(cfg, reused).run()
        assert ((reused / "metrics.jsonl").read_bytes()
                == (fresh.run_dir / "metrics.jsonl").read_bytes())
        timings = (reused / "timings.jsonl").read_text().splitlines()
        assert len(timings) == cfg.iterations

    def test_run_dir_contents(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path)
        run = SelfTrainRun(cfg)
        run.run()
        for name in ("manifest.txt", "metrics.jsonl", "pseudo_final.tsv",
                      "timings.jsonl"):
            assert (run.run_dir / name).exists()
        timings = [json.loads(ln) for ln in
                   (run.run_dir / "timings.jsonl").read_text().splitlines()]
        assert [t["iter"] for t in timings] == list(range(cfg.iterations))
        for t in timings:
            assert set(t) == {"iter", "seconds", "fit_s"}
            assert 0.0 <= t["fit_s"] <= t["seconds"]


class TestSupervised:
    def test_beats_random_guessing(self, twin_dataset_dir, tmp_path):
        cfg = base_config(
            twin_dataset_dir, tmp_path, mode="supervised", model="embedding",
            ratio=0.3, iterations=2, epochs=30,
        )
        report = run_supervised(cfg)
        pair_targets = 80
        assert report.hit1 > 1.0 / pair_targets

    def test_supervised_pseudo_fields_null(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, mode="supervised")
        run = SelfTrainRun(cfg)
        run.run()
        obj = json.loads((run.run_dir / "metrics.jsonl").read_text().splitlines()[0])
        assert obj["pseudo_precision"] is None
        assert obj["pseudo_recall"] is None
        assert obj["pseudo_count"] == 0

    def test_mode_mismatch_rejected(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path)
        with pytest.raises(ConfigError):
            run_supervised(cfg)

    def test_same_seed_identical_reports(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, mode="supervised",
                          model="embedding", epochs=2)
        a = run_supervised(cfg)
        b = run_supervised(cfg)
        assert (a.hit1, a.hit10, a.mrr, a.loss) == (b.hit1, b.hit10, b.mrr, b.loss)


class _RecordingModel:
    """Wraps a model to record every training set passed to fit and every
    similarity direction asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.train_sets: list[set] = []
        self.directions: list[str] = []

    def fit(self, pair, train, epochs):
        self.train_sets.append(train.as_set())
        return self.inner.fit(pair, train, epochs)

    def similarities(self, direction):
        self.directions.append(direction)
        return self.inner.similarities(direction)


class TestLoopContracts:
    def test_training_set_is_labelled_union_pseudo(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, iterations=3)
        run = SelfTrainRun(cfg)
        recorder = _RecordingModel(run.model)
        run.model = recorder
        reports = run.run()
        labelled = run.partition.labelled.as_set()
        assert recorder.train_sets[0] == labelled
        # iteration t >= 1 trains on labelled ∪ pseudo from iteration t-1
        for t in (1, 2):
            train = recorder.train_sets[t]
            assert labelled <= train
            assert len(train) == len(labelled) + reports[t - 1].pseudo_count

    @pytest.mark.parametrize("strategy, extra, reads_reverse", [
        ("OneToOne", {"theta": 0.5}, False),
        ("SimThr", {"theta": 0.5}, False),
        ("MutNearest", {}, True),
        ("MutHighestProb", {}, True),
    ])
    def test_reverse_similarities_only_when_read(
        self, twin_dataset_dir, tmp_path, strategy, extra, reads_reverse
    ):
        cfg = base_config(twin_dataset_dir, tmp_path, strategy=strategy, **extra)
        run = SelfTrainRun(cfg)
        recorder = _RecordingModel(run.model)
        run.model = recorder
        run.run()
        reverse = [TGT_TO_SRC] * cfg.iterations if reads_reverse else []
        assert [d for d in recorder.directions if d == TGT_TO_SRC] == reverse
        assert recorder.directions.count(SRC_TO_TGT) == cfg.iterations

    def test_baselines_never_touch_compatibility(
        self, twin_dataset_dir, tmp_path, monkeypatch
    ):
        calls = {"n": 0}
        original = compatibility.estimate_relation_stats

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(compatibility, "estimate_relation_stats", counting)
        cfg = base_config(twin_dataset_dir, tmp_path, strategy="SimThr",
                          theta=0.5, alpha=None)
        run_selftrain(cfg)
        assert calls["n"] == 0

        cfg2 = base_config(twin_dataset_dir, tmp_path)
        run_selftrain(cfg2)
        assert calls["n"] == 2 * cfg2.iterations  # both directions, every iteration

    def test_edge_tables_built_once_per_run(self, twin_dataset_dir, tmp_path,
                                            monkeypatch):
        built = []
        original = kg_module._edge_table

        def counting(kg):
            built.append(kg)
            return original(kg)

        monkeypatch.setattr(kg_module, "_edge_table", counting)
        run = SelfTrainRun(base_config(twin_dataset_dir, tmp_path, iterations=3))
        run.run()
        assert len(built) == 2
        assert built[0] is run.pair.source and built[1] is run.pair.target

    def test_pseudo_pairs_reference_only_unlabelled(self, twin_dataset_dir, tmp_path):
        for strategy, extra in (
            ("MutHighestProb", {}),
            ("BiThr", {"alpha": 0.2}),
            ("SimThr", {"theta": 0.5}),
            ("OneToOne", {"theta": 0.5}),
            ("MutNearest", {}),
        ):
            cfg = base_config(twin_dataset_dir, tmp_path, strategy=strategy, **extra)
            run = SelfTrainRun(cfg)
            run.run()
            labelled_src = {s for s, _ in run.partition.labelled.pairs}
            labelled_tgt = {t for _, t in run.partition.labelled.pairs}
            final = run.reports[-1]
            pseudo_path = run.run_dir / "pseudo_final.tsv"
            rows = [
                line.split("\t") for line in pseudo_path.read_text().splitlines()
            ]
            assert len(rows) == final.pseudo_count
            for row in rows:
                s = run.pair.source.entity_ids[row[0]]
                t = run.pair.target.entity_ids[row[1]]
                assert s not in labelled_src
                assert t not in labelled_tgt

    def test_uni_thr_direction_kg2(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, strategy="UniThr",
                          alpha=0.3, uni_source="kg2")
        reports = run_selftrain(cfg)
        assert reports[-1].pseudo_count > 0

    def test_one_to_one_accumulates_across_iterations(
        self, twin_dataset_dir, tmp_path
    ):
        cfg = base_config(twin_dataset_dir, tmp_path, strategy="OneToOne",
                          theta=0.5, iterations=3)
        run = SelfTrainRun(cfg)
        reports = run.run()
        counts = [r.pseudo_count for r in reports]
        assert counts == sorted(counts)  # on this twin the held set never shrinks

    def test_model_failure_leaves_partial_metrics(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, iterations=3)
        run = SelfTrainRun(cfg)

        class _FailsOnSecondFit:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def fit(self, pair, train, epochs):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("model exploded")
                return self.inner.fit(pair, train, epochs)

            def similarities(self, direction):
                return self.inner.similarities(direction)

        run.model = _FailsOnSecondFit(run.model)
        with pytest.raises(RuntimeError, match="exploded"):
            run.run()
        flushed = (run.run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(flushed) == 1  # iteration 0 was flushed before the abort

    def test_debug_dump_writes_refinement_tsv(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, iterations=1,
                          debug_dump=True)
        run = SelfTrainRun(cfg)
        run.run()
        dumps = sorted(run.run_dir.glob("refine_debug_iter0_*.tsv"))
        assert [p.name for p in dumps] == [
            "refine_debug_iter0_fwd.tsv", "refine_debug_iter0_rev.tsv",
        ]
        header, first, *_ = dumps[0].read_text().splitlines()
        assert header == "entity\tcandidate\tscore_sum\tprobability"
        assert len(first.split("\t")) == 4


    def test_saturated_calibration_keeps_similarity_candidates(
        self, twin_dataset_dir, tmp_path, monkeypatch
    ):
        # at this β every calibrated row underflows to 0 past its top
        # entry; the candidates must still follow the similarities
        def saturated(sims, truth_cols):
            return 1e300, [0.0]

        monkeypatch.setattr(selftrain, "fit_calibration", saturated)
        cfg = base_config(twin_dataset_dir, tmp_path, iterations=1, debug_dump=True)
        run = SelfTrainRun(cfg)
        run.run()
        scores = run.model.similarities(SRC_TO_TGT).scores
        dumped: dict[int, list[int]] = {}
        lines = (run.run_dir / "refine_debug_iter0_fwd.tsv").read_text().splitlines()
        for line in lines[1:]:
            entity, candidate, _, _ = line.split("\t")
            dumped.setdefault(int(entity), []).append(int(candidate))
        assert sorted(dumped) == run.unlab_src
        for u, cands in dumped.items():
            by_similarity = sorted(run.unlab_tgt, key=lambda c: (-scores[u, c], c))
            assert cands == by_similarity[:cfg.top_k]


class TestOracleRuns:
    def test_mutual_strategy_beats_simthr_precision(
        self, twin_dataset_dir, tmp_path
    ):
        for seed in range(3):
            mut = run_selftrain(base_config(twin_dataset_dir, tmp_path, seed=seed))
            simthr = run_selftrain(
                base_config(twin_dataset_dir, tmp_path, seed=seed,
                            strategy="SimThr", theta=0.5)
            )
            assert mut[0].pseudo_precision >= simthr[0].pseudo_precision

    def test_noise_free_oracle_perfect_hit1(self, twin_dataset_dir, tmp_path):
        cfg = base_config(twin_dataset_dir, tmp_path, oracle_noise=0.0,
                          iterations=1)
        reports = run_selftrain(cfg)
        assert reports[0].hit1 == 1.0


class TestMetricsLine:
    def test_serialization_shape(self):
        from kgalign.selftrain import IterationReport

        report = IterationReport(
            iteration=1, hit1=0.5, hit10=0.9, mrr=0.6, pseudo_count=3,
            pseudo_precision=0.8, pseudo_recall=0.4, pseudo_empty=False,
            loss=0.12, seconds=3.4,
        )
        obj = json.loads(metrics_line(report))
        assert list(obj.keys()) == METRIC_FIELDS
        assert obj["seconds"] == 0.0
        assert obj["pseudo_count"] == 3


class TestSlabbedRefinement:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_one_block(self, data):
        pair = KgPair(oracle.random_kg(data, "a", 9), oracle.random_kg(data, "b", 9))
        n_src, n_tgt = pair.source.n_entities, pair.target.n_entities
        n_lab = data.draw(st.integers(0, min(n_src, n_tgt)))
        src = data.draw(st.permutations(range(n_src)))[:n_lab]
        tgt = data.draw(st.permutations(range(n_tgt)))[:n_lab]
        # a coarse grid makes ties common, in the argmax and in the top k
        seed = data.draw(st.integers(0, 2**32 - 1))
        forward = SimMatrix(np.random.default_rng(seed).integers(
            0, 4, size=(n_src, n_tgt)).astype(float))
        if data.draw(st.booleans(), label="reverse"):
            # rows of the transposed view: columns of the C-ordered product
            oriented, sims, labelled = pair.swapped(), forward.transposed(), dict(zip(tgt, src))
            n_rows, n_cols = n_tgt, n_src
        else:
            oriented, sims, labelled = pair, forward, dict(zip(src, tgt))
            n_rows, n_cols = n_src, n_tgt
        row_ids = sorted(set(range(n_rows)) - set(labelled))
        col_ids = sorted(set(range(n_cols)) - set(labelled.values()))
        top_k = data.draw(st.integers(1, 5))
        slab = data.draw(st.sampled_from([1, 2, 3, n_rows + 1]), label="slab rows")

        ref_sink: list = []
        try:
            ref_assignment, ref_rows = oracle.refine_one_block(
                oriented, sims, labelled, row_ids, col_ids, top_k, ref_sink)
        except ValueError as exc:  # unlabelled rows but no unlabelled column
            with pytest.raises(ValueError, match=str(exc)):
                refine_slabs(oriented, sims, labelled, row_ids, col_ids, top_k)
            return
        sink: list = []
        with mock.patch.object(models, "SLAB_BYTES", 8 * n_cols * slab), mock.patch.object(
                compatibility, "estimate_relation_stats",
                wraps=compatibility.estimate_relation_stats) as stats_of:
            rows = refine_slabs(oriented, sims, labelled, row_ids, col_ids, top_k,
                                debug_sink=sink)
        # the statistics are estimated once, from the merged frozen assignment
        stats_of.assert_called_once()
        assignment = stats_of.call_args.args[1]
        assert list(assignment.mapping.items()) == list(ref_assignment.mapping.items())
        assert [(r.entity, r.cand_ids, r.probs.tobytes()) for r in rows] == [
            (r.entity, r.cand_ids, r.probs.tobytes()) for r in ref_rows]
        assert sink == ref_sink

    @pytest.mark.parametrize("strategy, theta, bound, ratio", [
        ("MutHighestProb", None, 0.17, 0.05), ("MutHighestProb", None, 0.45, 0.3),
        ("OneToOne", 0.45, 0.15, 0.05), ("SimThr", 0.45, 0.06, 0.05),
        ("MutNearest", None, 0.06, 0.05),
    ], ids=["MutHighestProb-None-0.17", "MutHighestProb-None-0.45-ratio0.3",
            "OneToOne-0.45-0.15", "SimThr-0.45-0.06", "MutNearest-None-0.06"])
    def test_memory_stays_below_half_a_matrix(self, tmp_path, strategy, theta, bound, ratio):
        # one iteration's pseudo generation and evaluation on the benchmark's
        # n=3000 oracle twin; one gathered n x n block of either pass alone
        # would exceed the bound.  The raw-similarity strategies read slabs
        # and gather no more than what OneToOne's slab pass leaves; the
        # calibration fit gathers its labelled rows once (0.3 n x n at ratio
        # 0.3) and writes its gaps one slab at a time.  Measured peaks: 0.137
        # and 0.376 (ratio 0.3), 0.10, 0.03 and 0.03 x n*n; with the fit's
        # gaps as whole blocks MutHighestProb peaked at 0.207 and 0.947
        n = 3000
        data = write_twin_dataset(tmp_path / "ds", n_entities=n, n_triples=4 * n,
                                  n_relations=8, perturbation=0.1, seed=11)
        run = SelfTrainRun(RunConfig(
            dataset_dir=str(data), model="oracle", oracle_noise=0.3, ratio=ratio,
            strategy=strategy, theta=theta, iterations=1, epochs=1,
            out_dir=str(tmp_path / "runs")))
        sim_fwd = run.model.similarities(SRC_TO_TGT)
        tracemalloc.start()
        try:
            run._generate_pseudo(sim_fwd, 0, MappingSet((), scores=()))
            run._evaluate(sim_fwd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = sim_fwd.scores.size * sim_fwd.scores.itemsize
        assert peak < bound * matrix_bytes, f"peak {peak / matrix_bytes:.2f} x n*n"


def write_kg_dataset(d: Path, source, target, links) -> None:
    """Two KGs' triples and the ``(source label, target label)`` links in the
    dataset layout."""
    d.mkdir()
    for kg, name in ((source, "rel_triples_1"), (target, "rel_triples_2")):
        (d / name).write_text("".join(
            f"{kg.entity_labels[h]}\t{kg.relation_labels[r]}\t{kg.entity_labels[t]}\n"
            for h, r, t in kg.triples), encoding="utf-8")
    (d / "ent_links").write_text("".join(f"{s}\t{t}\n" for s, t in links),
                                 encoding="utf-8")


def write_drawn_sim_file(data, path: Path, scores: np.ndarray, direction: str) -> np.ndarray:
    """``scores`` in the dense layout, or its top-K file with a drawn k and
    fill; returns the dense scores the file stands for."""
    matrix = SimMatrix(scores, direction=direction)
    if data.draw(st.booleans(), label=f"{direction} top-K"):
        k = data.draw(st.integers(1, scores.shape[1]), label="k")
        fill = data.draw(st.sampled_from([None, 0.0, 0.5]), label="fill")
        return oracle.write_top_k(path, matrix, k, fill).scores
    write_sim_matrix(path, matrix)
    return scores


class TestReferenceIteration:
    """Two-iteration runs of the external model against chains of
    ``oracle.reference_iteration`` on random KG pairs, every strategy, and
    tie-heavy score grids read back from dense and top-K files."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_run_matches_reference(self, data):
        source, target = oracle.random_kg(data, "a"), oracle.random_kg(data, "b")
        assume(min(source.n_entities, target.n_entities) >= 2)
        n_links = data.draw(st.integers(2, min(source.n_entities, target.n_entities)))
        links = list(zip(data.draw(st.permutations(source.entity_labels))[:n_links],
                         data.draw(st.permutations(target.entity_labels))[:n_links]))
        strategy = data.draw(st.sampled_from(strategies.ALL_STRATEGIES))
        wanted = strategies.THRESHOLD_FIELD.get(strategy)
        threshold = {} if wanted is None else {wanted: data.draw(st.sampled_from(
            [0.25, 0.5, 0.75] if wanted == "alpha" else [0.0, 0.25, 0.5]), label=wanted)}
        seed = data.draw(st.integers(0, 2**32 - 1), label="grid seed")
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp) / "ds"
            write_kg_dataset(d, source, target, links)
            pair, id_links = load_dataset(d)
            n_src, n_tgt = pair.source.n_entities, pair.target.n_entities
            # a 0.25-step grid makes ties common everywhere; most truths
            # score the grid's top, so most calibration fits succeed
            rng = np.random.default_rng(seed)
            grid_fwd = rng.integers(0, 5, (n_src, n_tgt)) / 4.0
            grid_rev = rng.integers(0, 5, (n_tgt, n_src)) / 4.0
            for (u, t), top in zip(id_links.pairs, rng.random(len(id_links)) < 0.8):
                if top:
                    grid_fwd[u, t] = grid_rev[t, u] = 1.0
            fwd = write_drawn_sim_file(data, d / "fwd.tsv", grid_fwd, SRC_TO_TGT)
            reverse_file = data.draw(st.booleans(), label="reverse file")
            rev = (write_drawn_sim_file(data, d / "rev.tsv", grid_rev, TGT_TO_SRC)
                   if reverse_file else fwd.T)
            cfg = RunConfig(
                dataset_dir=str(d), model="external", sim_file=str(d / "fwd.tsv"),
                sim_file_reverse=str(d / "rev.tsv") if reverse_file else None,
                strategy=strategy, **threshold,
                uni_source=data.draw(st.sampled_from(["kg1", "kg2"]), label="uni_source"),
                ratio=data.draw(st.sampled_from([0.3, 0.5]), label="ratio"),
                seed=data.draw(st.integers(0, 3), label="seed"),
                top_k=data.draw(st.sampled_from([1, 2, 3, 10]), label="top_k"),
                iterations=2, epochs=1, out_dir=str(Path(tmp) / "runs"))
            run = SelfTrainRun(cfg)

            expected, held = [], MappingSet((), scores=())
            try:
                for _ in range(cfg.iterations):
                    expected.append(oracle.reference_iteration(
                        run.pair, fwd, rev, run.partition.labelled, run.test, held, cfg))
                    held = expected[-1]["pseudo"]
            except CalibrationError:
                with pytest.raises(CalibrationError):
                    run.run()
                return
            generated, real_generate = [], SelfTrainRun._generate_pseudo

            def generate(self, *args):
                generated.append(real_generate(self, *args))
                return generated[-1]

            with mock.patch.object(SelfTrainRun, "_generate_pseudo", generate):
                reports = run.run()
            # fixed scores make a chain's held set its own fresh matching, so
            # one more iteration starts from a drawn scored one-to-one set
            held_pairs = list(zip(data.draw(st.permutations(run.unlab_src)),
                                  data.draw(st.permutations(run.unlab_tgt))))
            held_pairs = held_pairs[:data.draw(st.integers(0, len(held_pairs)))]
            held = MappingSet(tuple(held_pairs), scores=tuple(
                data.draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])) for _ in held_pairs))
            expected.append(oracle.reference_iteration(
                run.pair, fwd, rev, run.partition.labelled, run.test, held, cfg))
            sim_fwd = run.model.similarities(SRC_TO_TGT)
            generated.append(run._generate_pseudo(sim_fwd, cfg.iterations, held))
            reports.append(run._evaluate(sim_fwd))

        for report, pseudo, want in zip(reports, generated, expected, strict=True):
            assert pseudo.pairs == want["pseudo"].pairs
            np.testing.assert_allclose(pseudo.scores, want["pseudo"].scores,
                                       rtol=0, atol=1e-12)
            assert (report.hit1, report.hit10, report.mrr) == (
                want["hit1"], want["hit10"], want["mrr"])
        betas = [beta for want in expected for beta in want["betas"]]
        assert [beta for _, beta in run._calibration_log] == pytest.approx(betas, rel=1e-12)
