"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (run with ``pytest -s`` or ``-rA`` to
see them); a failed assertion marks the criterion red.  Runtime caps are
asserted where the criterion states one.
"""

import json
import time

import numpy as np
import pytest

from kgalign.calibration import (
    CalibrationParams,
    calibrate_row,
    cross_entropy_and_grad,
    fit_calibration,
)
from kgalign.cli import main as cli_main
from kgalign.compatibility import (
    Assignment,
    RelationStats,
    conditional_distribution,
    estimate_relation_stats,
    local_compatibility,
)
from kgalign.kg import Kg, KgPair, load_dataset
from kgalign.selftrain import RunConfig, SelfTrainRun, run_selftrain, run_supervised
from kgalign.strategies import (
    ProbRow,
    mutual_highest_probability,
    mutual_nearest,
    similarity_threshold,
    uni_threshold,
)
from kgalign.synth import write_twin_dataset
from oracle import (
    conditional_from_joint,
    enumerate_joint,
    local_compatibility as reference_compatibility,
)


def _report(n: int, message: str) -> None:
    print(f"\nPASS criterion {n}: {message}")


def _prob_rows(matrix, row_ids, col_ids):
    return [
        ProbRow(entity=u, cand_ids=tuple(col_ids), probs=np.asarray(row))
        for u, row in zip(row_ids, matrix)
    ]


# ---------------------------------------------------------------------------
# 1. similarity-to-probability calibration
# ---------------------------------------------------------------------------

def test_criterion_1_normalizer_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    for _ in range(200):
        width = int(rng.integers(1, 15))
        params = CalibrationParams(
            offset=float(rng.uniform(-3, 3)),
            scale=float(rng.uniform(-3, 3)),
            temperature=float(np.exp(rng.uniform(-2, 2))),
        )
        row = calibrate_row(rng.uniform(-1, 1, size=width), params)
        assert np.all(row.probs >= 0)
        assert abs(float(row.probs.sum()) - 1.0) <= 1e-9

    worst = 0.0
    h = 1e-6
    for _ in range(100):
        sims = rng.uniform(-1, 1, size=(4, 5))
        truth = rng.integers(0, 5, size=4)
        params = CalibrationParams(
            offset=float(rng.uniform(-1, 1)),
            scale=float(rng.uniform(0.2, 2.0)),
            temperature=float(rng.uniform(0.3, 3.0)),
        )
        _, grad = cross_entropy_and_grad(sims, truth, params)
        theta = np.array([params.offset, params.scale, np.log(params.temperature)])
        num = np.zeros(3)
        for i in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp, _ = cross_entropy_and_grad(
                sims, truth, CalibrationParams(tp[0], tp[1], float(np.exp(tp[2])))
            )
            lm, _ = cross_entropy_and_grad(
                sims, truth, CalibrationParams(tm[0], tm[1], float(np.exp(tm[2])))
            )
            num[i] = (lp - lm) / (2 * h)
        rel = np.abs(grad - num) / np.maximum(
            1.0, np.maximum(np.abs(grad), np.abs(num))
        )
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4

    truth = rng.integers(0, 10, size=20)
    sims = np.zeros((20, 10))
    sims[np.arange(20), truth] = 1.0
    _, trace = fit_calibration(sims, truth)
    assert min(trace) < 0.01

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"rows normalized, gradcheck {worst:.1e} < 1e-4, "
               f"idealized fit loss {min(trace):.1e} < 0.01 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. local-compatibility factor
# ---------------------------------------------------------------------------

def _hand_stats():
    return RelationStats(
        src_inv_fun={0: 0.5, 1: 0.0},
        tgt_inv_fun={0: 0.4, 1: 0.0},
        subrel_tgt_in_src={(0, 0): 0.8},
        subrel_src_in_tgt={(0, 0): 0.9},
    )


def _fan_instance(d, rng):
    src = Kg.from_label_triples([("e", f"r{i}", f"n{i}") for i in range(d)])
    tgt = Kg.from_label_triples([("e'", f"s{i}", f"n{i}'") for i in range(d)])
    stats = RelationStats(
        src_inv_fun={r: float(rng.uniform(0, 1)) for r in range(2 * src.n_relations)},
        tgt_inv_fun={r: float(rng.uniform(0, 1)) for r in range(2 * tgt.n_relations)},
        subrel_tgt_in_src={
            (rt, rs): float(rng.uniform(0, 1))
            for rt in range(2 * tgt.n_relations)
            for rs in range(2 * src.n_relations)
        },
        subrel_src_in_tgt={
            (rs, rt): float(rng.uniform(0, 1))
            for rs in range(2 * src.n_relations)
            for rt in range(2 * tgt.n_relations)
        },
    )
    return KgPair(src, tgt), stats


def test_criterion_2_local_compatibility_oracle():
    t0 = time.perf_counter()

    pair = KgPair(
        Kg.from_label_triples([("e", "r", "n")]),
        Kg.from_label_triples([("e'", "r'", "n'")]),
    )
    g1 = local_compatibility(0, 0, Assignment(mapping={1: 1}), pair, _hand_stats())
    assert g1 == pytest.approx(0.616, abs=1e-12)

    pair2 = KgPair(
        Kg.from_label_triples([("e", "r", "n"), ("e", "r", "m")]),
        Kg.from_label_triples([("e'", "r'", "n'"), ("e'", "r'", "m'")]),
    )
    g2 = local_compatibility(
        0, 0, Assignment(mapping={1: 1, 2: 2}), pair2, _hand_stats()
    )
    assert g2 == pytest.approx(0.852544, abs=1e-12)

    rng = np.random.default_rng(2)
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        pair, stats = _fan_instance(d, rng)
        src, tgt = pair.source, pair.target
        scores = []
        for matched in range(d + 1):
            mapping = {
                src.entity_ids[f"n{i}"]: tgt.entity_ids[f"n{i}'"]
                for i in range(matched)
            }
            g = local_compatibility(0, 0, Assignment(mapping=mapping), pair, stats)
            assert 0.0 <= g < 1.0
            assert abs(g - reference_compatibility(0, 0, mapping.get, pair, stats)) < 1e-12
            scores.append(g)
        assert all(a <= b + 1e-15 for a, b in zip(scores, scores[1:]))

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"hand cases exact to 1e-12; range, monotonicity and reference "
               f"agreement on 1000 instances ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. conditional vs exhaustive joint
# ---------------------------------------------------------------------------

def _random_tiny_pair(rng, n=6, t=10, r=2):
    tr1, tr2 = set(), set()
    while len(tr1) < t:
        h, tt = rng.integers(0, n, 2)
        if h != tt:
            tr1.add((f"a{h}", f"r{rng.integers(0, r)}", f"a{tt}"))
    while len(tr2) < t:
        h, tt = rng.integers(0, n, 2)
        if h != tt:
            tr2.add((f"b{h}", f"s{rng.integers(0, r)}", f"b{tt}"))
    k1 = Kg.from_label_triples(sorted(tr1), extra_entities=tuple(f"a{i}" for i in range(n)))
    k2 = Kg.from_label_triples(sorted(tr2), extra_entities=tuple(f"b{i}" for i in range(n)))
    return KgPair(k1, k2)


def test_criterion_3_conditional_joint_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        pair = _random_tiny_pair(rng, n=7, t=12)
        labelled = {0: 0, 1: 1}
        unlabelled = [2, 3, 4, 5]
        grids = {
            u: tuple(sorted(rng.choice(pair.target.n_entities, 4, replace=False).tolist()))
            for u in unlabelled
        }
        mapping = dict(labelled)
        for u in unlabelled:
            mapping[u] = grids[u][rng.integers(0, 4)]
        assignment = Assignment(mapping=mapping)
        stats = estimate_relation_stats(pair, assignment)
        joint = enumerate_joint(pair, stats, labelled, grids)
        assert abs(sum(joint.values()) - 1.0) < 1e-12
        for u in unlabelled:
            expected = conditional_from_joint(joint, u, mapping)
            row = conditional_distribution(u, grids[u], assignment, pair, stats)
            for c, p in zip(row.cand_ids, row.probs):
                worst = max(worst, abs(float(p) - expected[c]))
    assert worst < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, f"conditional matches enumeration, max error {worst:.1e} "
               f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. qualitative neighborhood-evidence scenarios
# ---------------------------------------------------------------------------

def test_criterion_4_scenario_compatibility_ordering():
    src = Kg.from_label_triples([("e2", "father", "e1"), ("e2", "friend", "e3")])
    tgt_a = Kg.from_label_triples(
        [("e2'", "father'", "e1'"), ("e2'", "friend'", "e3'")]
    )
    pair_a = KgPair(src, tgt_a)
    lab_a = {src.entity_ids["e1"]: tgt_a.entity_ids["e1'"],
             src.entity_ids["e3"]: tgt_a.entity_ids["e3'"]}
    assign_a = Assignment(mapping=lab_a)
    g_a = local_compatibility(
        src.entity_ids["e2"], tgt_a.entity_ids["e2'"], assign_a, pair_a,
        estimate_relation_stats(pair_a, assign_a),
    )

    tgt_b = Kg.from_label_triples([("e1'", "father'", "e3'")], extra_entities=("e4'",))
    pair_b = KgPair(src, tgt_b)
    lab_b = {src.entity_ids["e1"]: tgt_b.entity_ids["e1'"],
             src.entity_ids["e3"]: tgt_b.entity_ids["e3'"]}
    assign_b = Assignment(mapping=lab_b)
    g_b = local_compatibility(
        src.entity_ids["e2"], tgt_b.entity_ids["e4'"], assign_b, pair_b,
        estimate_relation_stats(pair_b, assign_b),
    )

    assert g_a > g_b
    _report(4, f"supported candidate scores {g_a:.4f} > unsupported {g_b:.4f}")


# ---------------------------------------------------------------------------
# 5. strategy contracts
# ---------------------------------------------------------------------------

def test_criterion_5_strategy_contracts():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        fwd = _prob_rows(rng.dirichlet(np.ones(m), size=n), range(n), range(m))
        rev = _prob_rows(rng.dirichlet(np.ones(n), size=m), range(m), range(n))
        mut_prob = mutual_highest_probability(fwd, rev)
        sim_f, sim_r = rng.uniform(size=(n, m)), rng.uniform(size=(m, n))
        mut_near = mutual_nearest(sim_f, range(n), range(m), sim_r, range(m), range(n))
        for got in (mut_prob, mut_near):
            srcs = [s for s, _ in got.pairs]
            tgts = [t for _, t in got.pairs]
            assert len(set(srcs)) == len(srcs)
            assert len(set(tgts)) == len(tgts)

    rows = _prob_rows(rng.dirichlet(np.ones(6), size=10), range(10), range(6))
    sweep = [uni_threshold(rows, a).as_set() for a in np.linspace(0.05, 0.95, 20)]
    for smaller, larger in zip(sweep[1:], sweep):
        assert smaller <= larger
    sims = rng.uniform(-1, 1, size=(10, 6))
    sweep = [
        similarity_threshold(sims, range(10), range(6), t).as_set()
        for t in np.linspace(-1, 1, 20)
    ]
    for smaller, larger in zip(sweep[1:], sweep):
        assert smaller <= larger
    _report(5, "mutual strategies injective on 1000 tables; thresholds "
               "anti-monotone on 20-step sweeps")


# ---------------------------------------------------------------------------
# 6. end-to-end trend on synthetic twins
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end_trend(tmp_path):
    t0 = time.perf_counter()
    ds = write_twin_dataset(
        tmp_path / "ds", n_entities=300, n_triples=1200, n_relations=8,
        perturbation=0.1, seed=11,
    )

    def cfg(mode, seed, strategy="MutHighestProb", theta=None):
        c = RunConfig(
            dataset_dir=str(ds), mode=mode, strategy=strategy, theta=theta,
            model="embedding", ratio=0.05, seed=seed, iterations=6, epochs=40,
            out_dir=str(tmp_path / "runs"),
        )
        return c

    sup_hit, mut_hit, mut_prec, simthr_prec = [], [], [], []
    for seed in (0, 1, 2):
        sup = run_supervised(cfg("supervised", seed))
        sup_hit.append(sup.hit1)
        mut = run_selftrain(cfg("selftrain", seed))
        mut_hit.append(mut[-1].hit1)
        mut_prec.append(mut[-1].pseudo_precision)
        simthr = run_selftrain(cfg("selftrain", seed, strategy="SimThr", theta=0.5))
        simthr_prec.append(simthr[-1].pseudo_precision)

    mean = lambda xs: sum(xs) / len(xs)
    gap = mean(mut_hit) - mean(sup_hit)
    assert gap >= 0.05
    assert mean(mut_prec) >= mean(simthr_prec)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, f"hit@1 gap {gap:+.3f} >= 0.05; final precision "
               f"{mean(mut_prec):.3f} >= {mean(simthr_prec):.3f} ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 7. noise isolation with the synthetic oracle
# ---------------------------------------------------------------------------

def test_criterion_7_noise_isolation(tmp_path):
    ds = write_twin_dataset(
        tmp_path / "ds", n_entities=100, n_triples=400, n_relations=5,
        perturbation=0.1, seed=21,
    )

    def cfg(strategy, seed, theta=None):
        return RunConfig(
            dataset_dir=str(ds), mode="selftrain", strategy=strategy, theta=theta,
            model="oracle", oracle_noise=0.3, ratio=0.05, seed=seed,
            iterations=2, epochs=1, out_dir=str(tmp_path / "runs"),
        )

    margins = []
    for seed in range(5):
        mut = run_selftrain(cfg("MutHighestProb", seed))
        simthr = run_selftrain(cfg("SimThr", seed, theta=0.5))
        assert mut[0].pseudo_precision >= simthr[0].pseudo_precision
        margins.append(mut[0].pseudo_precision - simthr[0].pseudo_precision)
    _report(7, f"first-iteration precision margin over SimThr in 5/5 runs "
               f"(min {min(margins):+.3f})")


# ---------------------------------------------------------------------------
# 8. reproducibility of the metrics stream
# ---------------------------------------------------------------------------

def test_criterion_8_reproducibility(tmp_path, twin_dataset_dir):
    cfg = RunConfig(
        dataset_dir=str(twin_dataset_dir), mode="selftrain",
        strategy="MutHighestProb", model="embedding", ratio=0.1, seed=4,
        iterations=2, epochs=3, out_dir=str(tmp_path / "runs"),
    )
    a = SelfTrainRun(cfg)
    a.run()
    b = SelfTrainRun(cfg)
    b.run()
    bytes_a = (a.run_dir / "metrics.jsonl").read_bytes()
    bytes_b = (b.run_dir / "metrics.jsonl").read_bytes()
    assert bytes_a == bytes_b
    _report(8, "metrics.jsonl byte-identical across repeat runs")


# ---------------------------------------------------------------------------
# 9. benchmark-format data compatibility
# ---------------------------------------------------------------------------

def test_criterion_9_data_roundtrip(tmp_path, dbp_sample_dir, capsys):
    pair, links = load_dataset(dbp_sample_dir)
    assert len(links) == 40

    part_dir = tmp_path / "part"
    assert cli_main([
        "partition", "--links", str(dbp_sample_dir / "ent_links"),
        "--ratio", "0.3", "--seed", "1", "--out", str(part_dir),
    ]) == 0
    assert (part_dir / "labelled.tsv").exists()

    assert cli_main([
        "run", "--dataset-dir", str(dbp_sample_dir), "--mode", "selftrain",
        "--strategy", "MutHighestProb", "--model", "embedding",
        "--ratio", "0.3", "--seed", "1", "--iterations", "2", "--epochs", "5",
        "--out-dir", str(tmp_path / "runs"),
    ]) == 0
    pseudo = max((tmp_path / "runs").glob("*/pseudo_final.tsv"))

    assert cli_main([
        "eval", "--dataset-dir", str(dbp_sample_dir), "--pseudo-file",
        str(pseudo), "--ratio", "0.3", "--seed", "1",
    ]) == 0
    out_lines = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("{")
    ]
    result = json.loads(out_lines[-1])
    assert 0.0 <= result["pseudo_precision"] <= 1.0
    _report(9, "fixture loaded and round-tripped partition -> run -> eval")
