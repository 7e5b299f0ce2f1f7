import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign.cli import main
from kgalign.kg import load_dataset
from kgalign.models import SRC_TO_TGT, TGT_TO_SRC, SimMatrix
from kgalign.selftrain import config_from_mapping
from kgalign.simio import read_sim_matrix, write_sim_matrix
from kgalign.synth import write_twin_dataset
from oracle import write_partition_by_ids, write_top_k

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


@pytest.fixture()
def run_conf(twin_dataset_dir, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"dataset_dir = {twin_dataset_dir}\n"
        "mode = selftrain\n"
        "strategy = MutHighestProb\n"
        "model = oracle\n"
        "oracle_noise = 0.3\n"
        "ratio = 0.1\n"
        "seed = 0\n"
        "iterations = 2\n"
        "epochs = 1\n"
        f"out_dir = {tmp_path / 'runs'}\n",
        encoding="utf-8",
    )
    return conf


class TestPartitionCommand:
    def test_writes_split_files(self, twin_dataset_dir, tmp_path, capsys):
        out = tmp_path / "part"
        code = main([
            "partition", "--links", str(twin_dataset_dir / "ent_links"),
            "--ratio", "0.30", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        labelled = (out / "labelled.tsv").read_text().splitlines()
        test = (out / "test.tsv").read_text().splitlines()
        assert len(labelled) == 24  # 30% of the 80 links
        assert len(test) == 56
        manifest = (out / "partition_manifest.txt").read_text()
        assert "ratio = 0.3" in manifest
        assert "seed = 7" in manifest

    def test_bad_ratio_exits_one(self, twin_dataset_dir, tmp_path, capsys):
        code = main([
            "partition", "--links", str(twin_dataset_dir / "ent_links"),
            "--ratio", "1.5", "--seed", "7", "--out", str(tmp_path / "p"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_interning_reference(self, data):
        """The label pairs split directly give the bytes the id interning gave,
        with repeated rows and labels used on both sides."""
        pairs = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                   min_size=2, max_size=7,
                                   unique_by=(lambda p: p[0], lambda p: p[1])))
        rows = data.draw(st.permutations(
            pairs + data.draw(st.lists(st.sampled_from(pairs), max_size=4))))
        rows = [(f"e{s}", f"e{t}") for s, t in rows]
        ratio = data.draw(st.sampled_from([0.2, 0.3, 0.5, 0.7]))
        seed = data.draw(st.integers(0, 2**32))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            links = tmp / "ent_links"
            links.write_text("".join(f"{s}\t{t}\n" for s, t in rows), encoding="utf-8")
            code = main(["partition", "--links", str(links), "--ratio", str(ratio),
                         "--seed", str(seed), "--out", str(tmp / "got")])
            try:
                write_partition_by_ids(rows, ratio, seed, tmp / "want")
            except ValueError:  # a split with an empty side
                assert code == 1
                return
            assert code == 0
            for name in ("labelled.tsv", "test.tsv", "partition_manifest.txt"):
                assert (tmp / "got" / name).read_bytes() == (tmp / "want" / name).read_bytes()


class TestRunCommand:
    def test_config_file_run(self, run_conf, tmp_path, capsys):
        code = main(["run", "--config", str(run_conf)])
        assert code == 0
        out = capsys.readouterr().out
        run_dir = next(
            line.split(": ", 1)[1] for line in out.splitlines()
            if line.startswith("run directory")
        )
        lines = (tmp_path / "runs").glob("*/metrics.jsonl")
        metrics = list(lines)
        assert metrics
        parsed = [json.loads(l) for l in metrics[0].read_text().splitlines()]
        assert [p["iter"] for p in parsed] == [0, 1]

    def test_flag_overrides_config(self, run_conf, tmp_path):
        code = main(["run", "--config", str(run_conf), "--iterations", "1"])
        assert code == 0
        newest = max((tmp_path / "runs").glob("*/metrics.jsonl"))
        assert len(newest.read_text().splitlines()) == 1

    @pytest.mark.parametrize("name", ["rel_triples_1", "rel_triples_2"])
    def test_empty_triple_file_exits_one_naming_it(self, dbp_sample_dir, tmp_path,
                                                   capsys, name):
        d = tmp_path / "ds"
        shutil.copytree(dbp_sample_dir, d)
        (d / name).write_text("", encoding="utf-8")
        assert main(["run", "--dataset-dir", str(d), "--model", "oracle",
                     "--iterations", "1", "--out-dir", str(tmp_path / "runs")]) == 1
        assert f"{d / name}: empty triple file" in capsys.readouterr().err

    def test_missing_threshold_names_field(self, run_conf, capsys):
        code = main(["run", "--config", str(run_conf), "--strategy", "UniThr"])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_bad_hyperparameter_exits_one(self, run_conf, capsys):
        code = main(["run", "--config", str(run_conf), "--lr", "-0.01"])
        assert code == 1
        assert "lr" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--strategy", "SimThr", "--theta", "nan"], ["--margin", "inf"],
        ["--lr", "inf"], ["--lr", "nan"],
        # a supervised run reads no threshold, but records it
        ["--mode", "supervised", "--strategy", "SimThr", "--theta", "nan"],
    ])
    def test_nonfinite_setting_exits_one_before_running(self, run_conf, tmp_path,
                                                        capsys, flags):
        code = main(["run", "--config", str(run_conf)] + flags)
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("flags", [["--margin", "1e308"], ["--lr", "1e300"]])
    def test_overflowing_training_exits_one(self, dbp_sample_dir, tmp_path, capsys,
                                            recwarn, flags):
        # finite settings that overflow the first step: the loss is inf, or
        # the entity norms are, and every row would be divided to zero
        code = main(["run", "--dataset-dir", str(dbp_sample_dir), "--model", "embedding",
                     "--epochs", "2", "--iterations", "2",
                     "--out-dir", str(tmp_path / "runs")] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert "lr (" in err and "margin (" in err
        # the one-line error is the only output: numpy warned nothing before it
        assert not recwarn.list
        # the first iteration failed, so no run directory stays behind
        assert not any((tmp_path / "runs").iterdir())

    @pytest.mark.parametrize("flags, message", [
        (["--ratio", "0.999"], "empty test set"),
        (["--seed", "-1"], "seed"),
    ])
    def test_failed_setup_leaves_no_run_directory(self, run_conf, tmp_path, capsys,
                                                  flags, message):
        code = main(["run", "--config", str(run_conf)] + flags)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_sim_file_with_internal_model_exits_one(self, run_conf, tmp_path, capsys):
        code = main(["run", "--config", str(run_conf),
                     "--sim-file", str(tmp_path / "nonexistent.tsv")])
        assert code == 1
        assert "sim_file" in capsys.readouterr().err

    def test_bad_number_exits_one_naming_key(self, run_conf, capsys):
        code = main(["run", "--config", str(run_conf), "--epochs", "abc"])
        assert code == 1
        assert "epochs: expected an integer, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--epochs", "epochs: expected an integer, got 'none'"),
        ("--seed", "seed: expected an integer, got 'none'"),
        ("--ratio", "ratio: expected a number, got 'none'"),
        ("--oracle-noise", "oracle_noise: expected a number, got 'none'"),
        # a path field keeps the word, and names the missing file
        ("--dataset-dir", "dataset file missing: none"),
    ])
    def test_none_only_clears_optional_fields(self, run_conf, tmp_path, capsys,
                                              flag, message):
        code = main(["run", "--config", str(run_conf), flag, "none"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_none_clears_an_optional_field(self):
        config = config_from_mapping({"dataset_dir": "d", "theta": "None",
                                      "sim_file": "none"})
        assert config.theta is None and config.sim_file is None

    def test_paper_default_ratio_runs(self, tmp_path, capsys):
        # at ratio 0.3 the labelled rows are many and overlap, and the
        # calibration's optimum is finite; a fit that diverged exited 2 here
        data = write_twin_dataset(tmp_path / "ds", n_entities=1000, n_triples=4000,
                                  n_relations=8, perturbation=0.1, seed=11)
        code = main(["run", "--dataset-dir", str(data), "--model", "oracle",
                     "--ratio", "0.3", "--iterations", "1", "--epochs", "1",
                     "--out-dir", str(tmp_path / "runs")])
        assert code == 0, capsys.readouterr().err
        manifest = next((tmp_path / "runs").glob("*/manifest.txt")).read_text()
        beta = dict(line.split(" = ") for line in manifest.splitlines()
                    if line.startswith("calibration."))
        assert beta.keys() == {"calibration.iter0.fwd.beta", "calibration.iter0.rev.beta"}
        assert float(beta["calibration.iter0.fwd.beta"]) == pytest.approx(12.98015, abs=1e-5)
        assert float(beta["calibration.iter0.rev.beta"]) == pytest.approx(14.19650, abs=1e-5)

    def test_run_directories_never_overwritten(self, run_conf, tmp_path):
        assert main(["run", "--config", str(run_conf), "--iterations", "1"]) == 0
        assert main(["run", "--config", str(run_conf), "--iterations", "1"]) == 0
        dirs = list((tmp_path / "runs").iterdir())
        assert len(dirs) == 2


class TestImportSim:
    def make_sim_file(self, twin_dataset_dir, tmp_path, topk=False,
                      direction=SRC_TO_TGT):
        pair, _ = load_dataset(twin_dataset_dir)
        rng = np.random.default_rng(0)
        dense = SimMatrix(
            scores=rng.uniform(-1, 1, (pair.source.n_entities, pair.target.n_entities)),
            direction=direction,
        )
        path = tmp_path / f"sims-{direction}.tsv"
        if topk:
            return path, write_top_k(path, dense, k=5)
        write_sim_matrix(path, dense)
        return path, dense

    def test_dense_roundtrip(self, twin_dataset_dir, tmp_path):
        path, dense = self.make_sim_file(twin_dataset_dir, tmp_path)
        back = read_sim_matrix(path)
        np.testing.assert_allclose(back.scores, dense.scores)
        assert main(["import-sim", "--dataset-dir", str(twin_dataset_dir),
                     "--sim-file", str(path)]) == 0

    def test_topk_validate_and_convert(self, twin_dataset_dir, tmp_path, capsys):
        path, dense = self.make_sim_file(twin_dataset_dir, tmp_path, topk=True)
        dense_out = tmp_path / "dense.tsv"
        assert main(["import-sim", "--dataset-dir", str(twin_dataset_dir),
                     "--sim-file", str(path), "--to-dense", str(dense_out)]) == 0
        assert f"ok: {path} (direction {SRC_TO_TGT})" in capsys.readouterr().out
        assert np.array_equal(read_sim_matrix(dense_out).scores, dense.scores)

    def test_dimension_mismatch_rejected(self, twin_dataset_dir, tmp_path, capsys):
        bad = SimMatrix(scores=np.zeros((3, 4)), direction=SRC_TO_TGT)
        path = tmp_path / "bad.tsv"
        write_sim_matrix(path, bad)
        code = main(["import-sim", "--dataset-dir", str(twin_dataset_dir),
                     "--sim-file", str(path)])
        assert code == 1

    def test_malformed_file_exits_one_naming_line(self, twin_dataset_dir, tmp_path,
                                                  capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("#sim-format v1\n#direction src_to_tgt\n#rows 1\n#cols 2\n"
                        "#layout topk\n#fill 0.0\n0:0.9\t1\n", encoding="utf-8")
        code = main(["import-sim", "--dataset-dir", str(twin_dataset_dir),
                     "--sim-file", str(path)])
        assert code == 1
        assert f"{path}:7: " in capsys.readouterr().err

    @pytest.mark.parametrize("body, line", [
        ("0:0.9\t1:0.5\n1:nan\t0:0.5\n", 8), ("0:0.9\t1:0.5\n0:0.5\t1:0.9\n", 8),
        ("0:0.9\t1:0.5\n0:0.9\n", 8), ("0:0.9\t1:0.5\n0:0.9\t0:0.5\n", 8),
    ], ids=["nan", "unsorted", "unequal-widths", "duplicate-id"])
    def test_malformed_topk_fails_external_run(self, twin_dataset_dir, tmp_path, capsys,
                                               body, line):
        path = tmp_path / "bad.tsv"
        path.write_text("#sim-format v1\n#direction src_to_tgt\n#rows 2\n#cols 2\n"
                        "#layout topk\n#fill 0.0\n" + body, encoding="utf-8")
        assert self.run_external(twin_dataset_dir, tmp_path, path) == 1
        assert f"{path}:{line}: " in capsys.readouterr().err

    def test_import_accepts_either_direction(self, twin_dataset_dir, tmp_path):
        path, _ = self.make_sim_file(twin_dataset_dir, tmp_path, direction=TGT_TO_SRC)
        assert main(["import-sim", "--dataset-dir", str(twin_dataset_dir),
                     "--sim-file", str(path)]) == 0

    def run_external(self, twin_dataset_dir, tmp_path, forward, reverse=None):
        extra = ["--sim-file-reverse", str(reverse)] if reverse else []
        return main([
            "run", "--dataset-dir", str(twin_dataset_dir),
            "--mode", "selftrain", "--strategy", "SimThr", "--theta", "0.5",
            "--model", "external", "--sim-file", str(forward), *extra,
            "--iterations", "1", "--epochs", "1", "--ratio", "0.1",
            "--out-dir", str(tmp_path / "runs-ext"),
        ])

    def test_external_model_run(self, twin_dataset_dir, tmp_path):
        path, _ = self.make_sim_file(twin_dataset_dir, tmp_path)
        assert self.run_external(twin_dataset_dir, tmp_path, path) == 0

    def test_order_reversing_calibration_exits_two(self, twin_dataset_dir, tmp_path,
                                                   capsys):
        # each row's truth holds its lowest similarity, so the loss rises
        # from β = 0, and the raw order is not the calibrated one
        pair, links = load_dataset(twin_dataset_dir)
        scores = np.random.default_rng(0).uniform(
            0, 1, (pair.source.n_entities, pair.target.n_entities))
        src, tgt = np.array(links.pairs).T
        scores[src, tgt] = -1.0
        path = tmp_path / "reversed.tsv"
        write_sim_matrix(path, SimMatrix(scores=scores, direction=SRC_TO_TGT))
        code = main([
            "run", "--dataset-dir", str(twin_dataset_dir), "--model", "external",
            "--sim-file", str(path), "--iterations", "1", "--ratio", "0.1",
            "--out-dir", str(tmp_path / "runs-ext"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "fwd calibration at iteration 0: reverses the similarity order" in err
        slope = re.search(r"loss slope at beta = 0 is (\S+), not < 0", err)
        assert slope and float(slope.group(1)) > 0

    def test_external_run_checks_file_directions(self, twin_dataset_dir, tmp_path,
                                                 capsys):
        # the twin KGs are the same size, so only the header tells the
        # directions apart
        fwd, _ = self.make_sim_file(twin_dataset_dir, tmp_path)
        rev, _ = self.make_sim_file(twin_dataset_dir, tmp_path, direction=TGT_TO_SRC)
        assert self.run_external(twin_dataset_dir, tmp_path, fwd, rev) == 0
        assert self.run_external(twin_dataset_dir, tmp_path, rev) == 1
        assert "expected src_to_tgt" in capsys.readouterr().err
        assert self.run_external(twin_dataset_dir, tmp_path, fwd, fwd) == 1
        assert "expected tgt_to_src" in capsys.readouterr().err


# (command, flag, kind of bad path)
BAD_PATHS = [
    ("run", "--config", "missing"), ("eval", "--sim-file", "missing"),
    ("eval", "--pseudo-file", "missing"), ("partition", "--links", "missing"),
    ("import-sim", "--sim-file", "missing"),
    ("stats", "--out", "missing"),  # an output file whose directory is missing
    ("run", "--config", "dir"), ("eval", "--sim-file", "dir"),
    ("eval", "--pseudo-file", "dir"), ("import-sim", "--sim-file", "dir"),
    ("stats", "--out", "dir"), ("stats", "--out", "under_file"),
    ("run", "--out-dir", "file"), ("partition", "--out", "file"),
]


class TestStatsAndEval:
    @pytest.mark.parametrize("command", ["partition", "stats", "eval"])
    def test_negative_seed_exits_one_naming_seed(self, twin_dataset_dir, tmp_path,
                                                 capsys, command):
        args = {
            "partition": ["--links", str(twin_dataset_dir / "ent_links"),
                          "--ratio", "0.3", "--out", str(tmp_path / "p")],
            "stats": ["--dataset-dir", str(twin_dataset_dir),
                      "--out", str(tmp_path / "stats.tsv")],
            "eval": ["--dataset-dir", str(twin_dataset_dir),
                     "--pseudo-file", str(twin_dataset_dir / "ent_links")],
        }[command]
        assert main([command, "--seed", "-1"] + args) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stats_match_golden_files(self, dbp_sample_dir, tmp_path, seed):
        out = tmp_path / "stats.tsv"
        assert main(["stats", "--dataset-dir", str(dbp_sample_dir), "--ratio", "0.3",
                     "--seed", str(seed), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "stats" / f"seed{seed}.tsv").read_bytes()

    def test_stats_dump(self, twin_dataset_dir, tmp_path):
        out = tmp_path / "stats.tsv"
        assert main(["stats", "--dataset-dir", str(twin_dataset_dir),
                     "--ratio", "0.3", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind\tkey\tvalue"
        kinds = {line.split("\t")[0] for line in lines[1:]}
        assert "src_inv_fun" in kinds
        assert "subrel_src_in_tgt" in kinds

    def test_stats_with_no_labelled_triple_writes_only_inverse_functionalities(self, tmp_path):
        # one of the two links is labelled, so no triple has both ends
        # assigned: no relation pair is co-observed
        d = tmp_path / "ds"
        d.mkdir()
        (d / "rel_triples_1").write_text("a\tr\tb\nc\tr\tb\n", encoding="utf-8")
        (d / "rel_triples_2").write_text("w\ts\tx\ny\ts\tx\n", encoding="utf-8")
        (d / "ent_links").write_text("a\tw\nc\ty\n", encoding="utf-8")
        out = tmp_path / "stats.tsv"
        assert main(["stats", "--dataset-dir", str(d), "--ratio", "0.5",
                     "--out", str(out)]) == 0
        assert out.read_text() == ("kind\tkey\tvalue\n"
                                   "src_inv_fun\t0\t0.5\nsrc_inv_fun\t1\t1\n"
                                   "tgt_inv_fun\t0\t0.5\ntgt_inv_fun\t1\t1\n")

    def test_eval_sim_file(self, twin_dataset_dir, tmp_path, capsys):
        pair, links = load_dataset(twin_dataset_dir)
        rng = np.random.default_rng(1)
        dense = SimMatrix(
            scores=rng.uniform(size=(pair.source.n_entities, pair.target.n_entities))
        )
        path = tmp_path / "s.tsv"
        write_sim_matrix(path, dense)
        assert main(["eval", "--dataset-dir", str(twin_dataset_dir),
                     "--sim-file", str(path), "--ratio", "0.3", "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["hit1"] <= 1.0
        assert out["n_test"] == 56

    def test_eval_sim_file_must_be_forward(self, twin_dataset_dir, tmp_path, capsys):
        pair, _ = load_dataset(twin_dataset_dir)
        path = tmp_path / "s.tsv"
        write_sim_matrix(path, SimMatrix(
            scores=np.zeros((pair.target.n_entities, pair.source.n_entities)),
            direction=TGT_TO_SRC,
        ))
        assert main(["eval", "--dataset-dir", str(twin_dataset_dir),
                     "--sim-file", str(path)]) == 1
        assert "expected src_to_tgt" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", ["only-one-column", "nobody\tnobody"])
    def test_eval_pseudo_file_rejects_bad_rows(self, twin_dataset_dir, tmp_path,
                                               capsys, bad_row):
        pair, _ = load_dataset(twin_dataset_dir)
        good = f"{pair.source.entity_labels[0]}\t{pair.target.entity_labels[0]}"
        path = tmp_path / "pseudo.tsv"
        path.write_text(f"{good}\n\n{good}\t0\tMutHighestProb\t0.9\n{bad_row}\n",
                        encoding="utf-8")
        assert main(["eval", "--dataset-dir", str(twin_dataset_dir),
                     "--pseudo-file", str(path)]) == 1
        assert f"{path}:4" in capsys.readouterr().err
        path.write_text(f"{good}\n\n{good}\n", encoding="utf-8")
        assert main(["eval", "--dataset-dir", str(twin_dataset_dir),
                     "--pseudo-file", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["pseudo_count"] == 1

    def test_eval_pseudo_file(self, twin_dataset_dir, tmp_path, run_conf, capsys):
        assert main(["run", "--config", str(run_conf)]) == 0
        pseudo = max((tmp_path / "runs").glob("*/pseudo_final.tsv"))
        assert main(["eval", "--dataset-dir", str(twin_dataset_dir),
                     "--pseudo-file", str(pseudo), "--ratio", "0.1",
                     "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert 0.0 <= out["pseudo_precision"] <= 1.0

    def test_eval_pseudo_file_with_bom(self, twin_dataset_dir, tmp_path, capsys):
        # a UTF-8 BOM before the first label is read as the triple and link
        # readers read it, not as part of the label
        pair, links = load_dataset(twin_dataset_dir)
        text = "".join(f"{pair.source.entity_labels[s]}\t{pair.target.entity_labels[t]}\n"
                       for s, t in links.pairs[:5])
        lines = []
        for name, prefix in (("plain.tsv", ""), ("bom.tsv", "\ufeff")):
            (tmp_path / name).write_text(prefix + text, encoding="utf-8")
            assert main(["eval", "--dataset-dir", str(twin_dataset_dir),
                         "--pseudo-file", str(tmp_path / name)]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert json.loads(lines[0])["pseudo_count"] == 5

    def test_eval_without_inputs_fails(self, twin_dataset_dir, capsys):
        code = main(["eval", "--dataset-dir", str(twin_dataset_dir)])
        assert code == 1

    @pytest.mark.parametrize("command, flag, kind", BAD_PATHS, ids=[
        "-".join(case[:2] if case[2] == "missing" else case) for case in BAD_PATHS])
    def test_missing_file_exits_one_naming_it(self, twin_dataset_dir, tmp_path, capsys,
                                              command, flag, kind):
        """A missing path, or one of the wrong kind (a directory where a file
        is read or written, a file where a directory is made), exits 1."""
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("x\n", encoding="utf-8")
        path = {"missing": tmp_path / "absent" / "file.tsv", "dir": tmp_path / "adir",
                "under_file": tmp_path / "afile" / "x.tsv", "file": tmp_path / "afile"}[kind]
        others = {
            "run": [] if flag == "--config" else [
                "--dataset-dir", str(twin_dataset_dir), "--model", "oracle",
                "--iterations", "1", "--epochs", "1"],
            "partition": ["--ratio", "0.3", "--seed", "0"] + (
                ["--out", str(tmp_path / "p")] if flag == "--links"
                else ["--links", str(twin_dataset_dir / "ent_links")]),
        }.get(command, ["--dataset-dir", str(twin_dataset_dir)])
        assert main([command, flag, str(path)] + others) == 1
        assert str(path) in capsys.readouterr().err


class TestLinksFile:
    """A links file is one-to-one: exact repeats are dropped, but an entity
    linked to a second partner is a format error."""

    def dataset(self, tmp_path, links: str):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "rel_triples_1").write_text("a\tr\tb\nc\tr\td\n", encoding="utf-8")
        (d / "rel_triples_2").write_text("w\ts\tx\ny\ts\tz\n", encoding="utf-8")
        (d / "ent_links").write_text(links, encoding="utf-8")
        return d

    @pytest.mark.parametrize("links, line, message", [
        ("a\tw\nb\tx\n\na\tx\n", 4, "source 'a' is already linked to 'w'"),
        ("a\tw\nb\tw\n", 2, "target 'w' is already linked to 'a'"),
    ])
    @pytest.mark.parametrize("command", ["stats", "partition"])
    def test_entity_linked_twice_exits_one_naming_line(self, tmp_path, capsys,
                                                       links, line, message, command):
        d = self.dataset(tmp_path, links)
        args = {"stats": ["--dataset-dir", str(d), "--out", str(tmp_path / "s.tsv")],
                "partition": ["--links", str(d / "ent_links"), "--ratio", "0.5",
                              "--seed", "0", "--out", str(tmp_path / "p")]}[command]
        assert main([command] + args) == 1
        assert f"{d / 'ent_links'}:{line}: {message}" in capsys.readouterr().err

    def test_exact_repeats_are_dropped(self, tmp_path, capsys):
        d = self.dataset(tmp_path, "a\tw\nb\tx\na\tw\nc\ty\nd\tz\n")
        assert main(["stats", "--dataset-dir", str(d), "--ratio", "0.5",
                     "--out", str(tmp_path / "s.tsv")]) == 0
        _, links = load_dataset(d)
        assert links.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
