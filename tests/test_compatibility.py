import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from kgalign.calibration import CalibrationParams, calibrate_matrix
from kgalign.compatibility import (
    FactorModel,
    RelationStats,
    build_assignment,
    conditional_distribution,
    estimate_relation_stats,
    local_compatibility,
    refine_rows,
)
from kgalign import models
from kgalign import kg as kg_module
from kgalign.kg import Kg, KgPair, _edge_table
from kgalign.synth import twin_label_data


def kg_of(triples, extra=()):
    return Kg.from_label_triples(triples, extra_entities=extra)


def random_tiny_pair(rng, n=6, t=10, r=2):
    tr1, tr2 = set(), set()
    while len(tr1) < t:
        h, tt = rng.integers(0, n, 2)
        if h != tt:
            tr1.add((f"a{h}", f"r{rng.integers(0, r)}", f"a{tt}"))
    while len(tr2) < t:
        h, tt = rng.integers(0, n, 2)
        if h != tt:
            tr2.add((f"b{h}", f"s{rng.integers(0, r)}", f"b{tt}"))
    k1 = kg_of(sorted(tr1), extra=tuple(f"a{i}" for i in range(n)))
    k2 = kg_of(sorted(tr2), extra=tuple(f"b{i}" for i in range(n)))
    return KgPair(k1, k2)


def whole(q, row_ids, col_ids) -> np.ndarray:
    """A whole matrix with the block ``q`` at ``(row_ids, col_ids)``; every
    other cell scores above the block, so an argmax read outside the ids
    shows."""
    sims = np.full((max(row_ids, default=-1) + 1, max(col_ids, default=-1) + 1),
                   np.max(q, initial=0.0) + 1.0)
    sims[np.ix_(row_ids, col_ids)] = q
    return sims


def assert_stats_equal(got: RelationStats, want: RelationStats) -> None:
    """Every array of ``got`` equal to ``want``'s, dtype kind included."""
    for f in dataclasses.fields(RelationStats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype.kind == b.dtype.kind and np.array_equal(a, b), f.name


def assigned(q, row_ids, col_ids, labelled: dict[int, int], n: int) -> np.ndarray:
    """The frozen assignment over ``n`` source entities from the block
    ``q``: ``labelled``, and ``build_assignment``'s argmax written in at
    each other row."""
    y = oracle.assignment_array(labelled, n)
    rows = np.asarray(row_ids, dtype=np.int64)
    free = y[rows] < 0
    y[rows[free]] = build_assignment(whole(q, row_ids, col_ids), row_ids, col_ids)[free]
    return y


class TestEdgeTable:
    """Each entity's edges by far end, and one pair's edges outgoing then
    incoming, each in triple order: the order the factor sums add in.  The
    table is its own join on endpoint pairs."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_edge_table_holds_each_triple_once_per_orientation(self, data):
        kg = oracle.random_kg(data, "e", max_entities=12)
        near, rel, far, ptr = _edge_table(kg)
        assert ptr[-1] == len(near) == 2 * len(kg.triples)
        for e in range(kg.n_entities):
            span = slice(ptr[e], ptr[e + 1])
            assert (near[span] == e).all()
            assert list(zip(rel[span].tolist(), far[span].tolist())) == \
                sorted(oracle.directed_adjacency(kg, e), key=lambda edge: edge[1])

    def test_edge_table_order_and_self_loop(self):
        # b's edges run by far end: its three edges to a, outgoing first,
        # then its edge to d
        kg = Kg.from_label_triples([("a", "r", "b"), ("b", "q", "a"), ("a", "q", "b"),
                                    ("c", "r", "c"), ("b", "q", "d")])
        a, b, c, d = (kg.entity_ids[x] for x in "abcd")
        r, q, n_rel = kg.relation_ids["r"], kg.relation_ids["q"], kg.n_relations
        _, rel, far, ptr = _edge_table(kg)
        edges = [list(zip(rel[ptr[e]:ptr[e + 1]].tolist(), far[ptr[e]:ptr[e + 1]].tolist()))
                 for e in range(kg.n_entities)]
        assert edges[a] == [(r, b), (q, b), (q + n_rel, b)]
        assert edges[b] == [(q, a), (r + n_rel, a), (q + n_rel, a), (q, d)]
        assert edges[c] == [(r, c), (r + n_rel, c)]
        assert edges[d] == [(q + n_rel, b)]
        assert oracle.neighbors(kg, c) == (c,)
        assert oracle.neighbors(kg, b) == (a, d)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_find_and_matches_equal_a_scan(self, data):
        kg = oracle.random_kg(data, "e", max_entities=8)
        n = kg.n_entities
        queries = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-1, n - 1)),
                                     max_size=20))
        self.check_find_and_matches(kg.edges, queries)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_find_and_matches_equal_a_scan_past_one_filter_word(self, data):
        """More than 64 entities, so neighbours share filter bits, and a hub
        whose 64 consecutive neighbours set every bit of its word."""
        n = data.draw(st.integers(65, 160), label="n")
        hub = data.draw(st.integers(0, n - 1), label="hub")
        first = data.draw(st.integers(0, n - 64), label="first hub neighbour")
        triples = {(hub, 0, first + i) for i in range(64)}
        triples |= set(data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, 2), st.integers(0, n - 1)), max_size=2 * n)))
        kg = Kg(entity_labels=tuple(f"e{i}" for i in range(n)),
                relation_labels=("r0", "r1", "r2"), triples=tuple(sorted(triples)))
        table = kg.edges
        assert table.sig[hub] == -1  # all 64 bits
        edge = st.integers(0, len(table.near) - 1)
        queries = data.draw(st.lists(st.one_of(
            st.tuples(st.integers(0, n - 1), st.integers(-1, n - 1)),
            st.tuples(st.just(hub), st.integers(-1, n - 1)),
            # a true pair, and one that shares its filter bit
            edge.map(lambda e: (int(table.near[e]), int(table.far[e]))),
            edge.map(lambda e: (int(table.near[e]), int(table.far[e]) ^ 64)).filter(
                lambda ab: ab[1] < n)), max_size=40))
        self.check_find_and_matches(table, queries)

    @staticmethod
    def check_find_and_matches(table, queries):
        near = np.array([a for a, _ in queries], dtype=np.int64)
        far = np.array([b for _, b in queries], dtype=np.int64)
        scan = [[e for e in range(len(table.near)) if (table.near[e], table.far[e]) == ab]
                for ab in queries]
        pos, hit = table.find(near, far)
        assert hit.tolist() == [bool(edges) for edges in scan]
        for p, edges in zip(pos[hit].tolist(), [edges for edges in scan if edges]):
            assert list(range(table.bounds[p], table.bounds[p + 1])) == edges
        q, e = table.matches(near, far)
        assert list(zip(q.tolist(), e.tolist())) == \
            [(i, edge) for i, edges in enumerate(scan) for edge in edges]


class TestSharedEdgeTables:
    """Each KG builds its table once, and both orientations of a pair read
    the same two tables."""

    def test_tables_built_once_and_shared_by_both_orientations(self, monkeypatch):
        built = []
        original = kg_module._edge_table
        monkeypatch.setattr(kg_module, "_edge_table",
                            lambda kg: built.append(kg) or original(kg))
        pair = random_tiny_pair(np.random.default_rng(0))
        assignment = oracle.assignment_array({0: 1, 2: 3, 4: 0}, pair.source.n_entities)
        stats = estimate_relation_stats(pair, assignment)
        assert [id(kg) for kg in built] == [id(pair.source), id(pair.target)]
        assert_stats_equal(estimate_relation_stats(pair, assignment), stats)
        assert pair.swapped().source.edges is pair.target.edges
        assert pair.swapped().target.edges is pair.source.edges
        assert len(built) == 2


def inverse_functionality(kg: Kg) -> np.ndarray:
    none = oracle.assignment_array({}, kg.n_entities)
    return estimate_relation_stats(KgPair(kg, kg), none).src_inv_fun


class TestRelationStats:
    def test_inverse_functionality_tail_and_head(self):
        kg = kg_of([("a", "r", "b"), ("a", "r", "c")])
        inv_fun = inverse_functionality(kg)
        assert inv_fun[0] == 1.0        # 2 distinct tails / 2 pairs
        assert inv_fun[0 + kg.n_relations] == 0.5  # 1 distinct head / 2 pairs

    def test_duplicated_input_leaves_inv_fun_unchanged(self):
        triples = [("a", "r", "b"), ("b", "r", "c"), ("a", "q", "c")]
        a = inverse_functionality(kg_of(triples))
        b = inverse_functionality(kg_of(triples * 2))
        assert np.array_equal(a, b)

    def test_subrel_add_one_smoothing(self):
        src = kg_of([("a", "r", "b")])
        tgt = kg_of([("a'", "r'", "b'")])
        pair = KgPair(src, tgt)
        assignment = oracle.assignment_array(
            {src.entity_ids["a"]: tgt.entity_ids["a'"],
             src.entity_ids["b"]: tgt.entity_ids["b'"]}, src.n_entities)
        stats = estimate_relation_stats(pair, assignment)
        # one r'-trial supported by r between the counterparts: (1+1)/(1+2),
        # and the same for the inverse orientations
        assert np.array_equal(stats.pairs, [[0, 0], [1, 1]])
        assert stats.subrel_tgt_in_src == pytest.approx([2 / 3, 2 / 3])
        assert stats.subrel_src_in_tgt == pytest.approx([2 / 3, 2 / 3])
        assert np.array_equal(stats.tgt_trials, [1, 1])
        assert np.array_equal(stats.src_trials, [1, 1])

    def test_subrel_zero_trials_is_half(self):
        src = kg_of([("a", "r", "b")])
        tgt = kg_of([("a'", "r'", "b'")])
        pair = KgPair(src, tgt)
        none = oracle.assignment_array({}, src.n_entities)
        stats = estimate_relation_stats(pair, none)
        assert stats.pairs.shape == (0, 2) and stats.subrel_tgt_in_src.shape == (0,)
        assert np.array_equal(stats.tgt_trials, [0, 0])
        # both survival terms read the prior 1/2; every inverse functionality is 1
        assert FactorModel(pair, stats, none).log_surv[0, 0] == 2 * np.log(0.5)

    def test_trialed_unsupported_pair_shrinks_toward_zero(self):
        src = kg_of([("a", "r", "b")])
        tgt = kg_of([("a'", "r'", "b'"), ("b'", "q'", "a'")])
        pair = KgPair(src, tgt)
        assignment = oracle.assignment_array(
            {src.entity_ids["a"]: tgt.entity_ids["b'"],
             src.entity_ids["b"]: tgt.entity_ids["a'"]}, src.n_entities)
        stats = estimate_relation_stats(pair, assignment)
        # r'(a',b') maps onto (b, a): no r triple there, but q'(b',a') does map
        assert stats.tgt_trials[0] == stats.src_trials[0] == 1
        assert [0, 0] not in stats.pairs.tolist()
        # so both terms of (r, r') read their prior 1/3; if(r) = if(r') = 1
        log_surv = FactorModel(pair, stats, assignment).log_surv
        assert log_surv[0, 0] == pytest.approx(2 * np.log(1 - 1 / 3), rel=1e-15)

    def test_all_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        pair = random_tiny_pair(rng, n=8, t=14, r=3)
        mapping = {i: i for i in range(6)}
        stats = estimate_relation_stats(
            pair, oracle.assignment_array(mapping, pair.source.n_entities))
        values = np.concatenate([stats.src_inv_fun, stats.tgt_inv_fun,
                                 stats.subrel_src_in_tgt, stats.subrel_tgt_in_src])
        assert len(stats.pairs) and ((0.0 <= values) & (values <= 1.0)).all()


def hand_stats():
    """Stats for the worked single-pair example: P(r'⊆r)=0.8, if(r)=0.5,
    P(r⊆r')=0.9, if(r')=0.4; inverse orientations neutralized."""
    return oracle.DictStats(
        src_inv_fun={0: 0.5, 1: 0.0},
        tgt_inv_fun={0: 0.4, 1: 0.0},
        subrel_tgt_in_src={(0, 0): 0.8},
        subrel_src_in_tgt={(0, 0): 0.9},
        tgt_trials={},
        src_trials={},
    )


class TestLocalCompatibility:
    def test_single_matched_pair(self):
        pair = KgPair(kg_of([("e", "r", "n")]), kg_of([("e'", "r'", "n'")]))
        a = oracle.assignment_array({1: 1}, pair.source.n_entities)  # n -> n'
        g = local_compatibility(0, 0, a, pair, oracle.stats_arrays(pair, hand_stats()))
        assert g == pytest.approx(0.616, abs=1e-12)

    def test_two_matched_pairs(self):
        pair = KgPair(
            kg_of([("e", "r", "n"), ("e", "r", "m")]),
            kg_of([("e'", "r'", "n'"), ("e'", "r'", "m'")]),
        )
        a = oracle.assignment_array({1: 1, 2: 2}, pair.source.n_entities)
        g = local_compatibility(0, 0, a, pair, oracle.stats_arrays(pair, hand_stats()))
        assert g == pytest.approx(0.852544, abs=1e-12)
        assert g > 0.616  # more evidence, higher score

    def test_no_matching_evidence_is_zero(self):
        pair = KgPair(kg_of([("e", "r", "n")]), kg_of([("e'", "r'", "n'")]))
        a = oracle.assignment_array({}, pair.source.n_entities)  # nothing assigned: 0
        assert local_compatibility(0, 0, a, pair, oracle.stats_arrays(pair, hand_stats())) == 0.0

    @pytest.mark.parametrize("change, message", [
        # extra pairs outside the 2 x 2 directed relations
        (lambda s: dict(pairs=np.vstack([s.pairs, [[7, 3], [5, 9]]]),
                        subrel_tgt_in_src=np.append(s.subrel_tgt_in_src, [0.5, 0.5]),
                        subrel_src_in_tgt=np.append(s.subrel_src_in_tgt, [0.5, 0.5])),
         r"pair source relation ids must be in \[0, 2\)"),
        (lambda s: dict(src_inv_fun=np.append(s.src_inv_fun, 0.3)),
         r"src_inv_fun has shape \(3,\), not \(2,\): the KGs have 2 and 2 directed"),
        (lambda s: dict(tgt_inv_fun=s.tgt_inv_fun[:1]),
         r"tgt_inv_fun has shape \(1,\), not \(2,\)"),
        (lambda s: dict(subrel_src_in_tgt=s.subrel_src_in_tgt[:0]),
         r"subrel_src_in_tgt has shape \(0,\), not \(1,\)"),
    ], ids=["pairs-outside", "third-inv-fun", "missing-inv-fun", "short-subrel"])
    def test_statistics_that_do_not_fit_the_pair_rejected(self, change, message):
        pair = KgPair(kg_of([("e", "r", "n")]), kg_of([("e'", "r'", "n'")]))
        a = oracle.assignment_array({1: 1}, pair.source.n_entities)
        stats = oracle.stats_arrays(pair, hand_stats())
        assert local_compatibility(0, 0, a, pair, stats) == pytest.approx(0.616, abs=1e-12)
        with pytest.raises(ValueError, match=message):
            FactorModel(pair, dataclasses.replace(stats, **change(stats)), a)

    def d_neighbor_instance(self, d, rng):
        """Entity with d neighbors mirrored on the target side, random stats."""
        src = kg_of([("e", f"r{i}", f"n{i}") for i in range(d)])
        tgt = kg_of([("e'", f"s{i}", f"n{i}'") for i in range(d)])
        stats = oracle.DictStats(
            src_inv_fun={r: float(rng.uniform(0, 1))
                         for r in range(2 * src.n_relations)},
            tgt_inv_fun={r: float(rng.uniform(0, 1))
                         for r in range(2 * tgt.n_relations)},
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
        pair = KgPair(src, tgt)
        return pair, oracle.stats_arrays(pair, stats)

    def test_range_and_monotonicity_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            pair, stats = self.d_neighbor_instance(d, rng)
            src, tgt = pair.source, pair.target
            scores = []
            for matched in range(d + 1):
                mapping = {
                    src.entity_ids[f"n{i}"]: tgt.entity_ids[f"n{i}'"]
                    for i in range(matched)
                }
                a = oracle.assignment_array(mapping, src.n_entities)
                g = local_compatibility(0, 0, a, pair, stats)
                assert 0.0 <= g < 1.0
                scores.append(g)
            assert all(a <= b + 1e-15 for a, b in zip(scores, scores[1:]))


def exact_sum_scenario():
    """Graphs and injected stats realizing factor-score sums 0.6 and 0.1.

    Candidate 1 collects 0.4 from its own factor and 0.2 from the shared
    neighbor's factor (through the inverse orientation); candidate 2
    collects 0.06 and 0.04 the same way.
    """
    src = kg_of([("u", "r", "n")])
    tgt = kg_of([("c1", "p", "n'"), ("c2", "q", "n'")])
    pair = KgPair(src, tgt)
    # src relations: r=0, r^-1=1; tgt: p=0, q=1, p^-1=2, q^-1=3
    stats = oracle.DictStats(
        src_inv_fun={0: 0.8, 1: 0.8},
        tgt_inv_fun={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0},
        subrel_tgt_in_src={
            (0, 0): 0.5,    # p ⊆ r: 0.5*0.8 = 0.4
            (2, 1): 0.25,   # p^-1 ⊆ r^-1: 0.25*0.8 = 0.2
            (1, 0): 0.075,  # q ⊆ r: 0.06
            (3, 1): 0.05,   # q^-1 ⊆ r^-1: 0.04
        },
        subrel_src_in_tgt={
            (0, 0): 0.0, (1, 2): 0.0, (0, 1): 0.0, (1, 3): 0.0,
        },
    )
    assignment = oracle.assignment_array({src.entity_ids["n"]: tgt.entity_ids["n'"]},
                                         src.n_entities)
    u = src.entity_ids["u"]
    cands = (tgt.entity_ids["c1"], tgt.entity_ids["c2"])
    return pair, oracle.stats_arrays(pair, stats), assignment, u, cands


class TestConditionalDistribution:
    def test_softmax_of_hand_built_sums(self):
        pair, stats, assignment, u, cands = exact_sum_scenario()
        sums = FactorModel(pair, stats, assignment).factor_sums(np.array([u]), np.array([cands]))
        np.testing.assert_allclose(sums[0], [0.6, 0.1], atol=1e-12)
        row = conditional_distribution(u, cands, assignment, pair, stats)
        np.testing.assert_allclose(row.probs, [0.62246, 0.37754], atol=1e-5)

    def test_isolated_entity_uniform(self):
        src = kg_of([("a", "r", "b")], extra=("u",))
        tgt = kg_of([("a'", "r'", "b'")], extra=("x", "y", "z"))
        pair = KgPair(src, tgt)
        assignment = oracle.assignment_array({0: 0, 1: 1}, src.n_entities)
        stats = estimate_relation_stats(pair, assignment)
        u = src.entity_ids["u"]
        cands = tuple(tgt.entity_ids[c] for c in ("x", "y", "z"))
        row = conditional_distribution(u, cands, assignment, pair, stats)
        np.testing.assert_allclose(row.probs, 1 / 3, atol=1e-12)

    def test_empty_candidates_rejected(self):
        pair = KgPair(kg_of([("a", "r", "b")]), kg_of([("x", "s", "y")]))
        none = oracle.assignment_array({}, pair.source.n_entities)
        stats = estimate_relation_stats(pair, none)
        with pytest.raises(ValueError):
            conditional_distribution(0, (), none, pair, stats)

    def test_matches_bruteforce_on_random_tiny_instances(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10):
            pair = random_tiny_pair(rng)
            labelled = {0: 0, 1: 1}
            unlabelled = [2, 3, 4]
            grids = {
                u: tuple(
                    sorted(rng.choice(pair.target.n_entities, 3, replace=False).tolist())
                )
                for u in unlabelled
            }
            mapping = dict(labelled)
            for u in unlabelled:
                mapping[u] = grids[u][rng.integers(0, 3)]
            assignment = oracle.assignment_array(mapping, pair.source.n_entities)
            stats = estimate_relation_stats(pair, assignment)
            joint = oracle.enumerate_joint(
                pair, oracle.estimate_relation_stats(pair, mapping), labelled, grids)
            for u in unlabelled:
                expected = oracle.conditional_from_joint(joint, u, mapping)
                row = conditional_distribution(u, grids[u], assignment, pair, stats)
                for c, p in zip(row.cand_ids, row.probs):
                    worst = max(worst, abs(p - expected[c]))
        assert worst < 1e-9


class TestEnumerateJoint:
    def test_small_table_normalizes(self):
        rng = np.random.default_rng(1)
        pair = random_tiny_pair(rng)
        stats = oracle.estimate_relation_stats(pair, {0: 0})
        grids = {2: (0, 1, 2), 3: (1, 2, 3)}
        joint = oracle.enumerate_joint(pair, stats, {0: 0}, grids)
        assert len(joint) == 9
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_unlabelled_two_candidates(self):
        rng = np.random.default_rng(2)
        pair = random_tiny_pair(rng)
        stats = oracle.estimate_relation_stats(pair, {0: 0})
        joint = oracle.enumerate_joint(pair, stats, {0: 0}, {1: (0, 3)})
        assert len(joint) == 2
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)

    def test_state_space_cap(self):
        rng = np.random.default_rng(3)
        pair = random_tiny_pair(rng)
        stats = oracle.estimate_relation_stats(pair, {})
        grids = {u: tuple(range(6)) for u in range(6)}
        grids[0] = tuple(range(6))  # 6^6 = 46656 ok; push over with wide grids
        too_big = {u: tuple(range(6)) for u in range(6)}
        too_big.update({10 + u: tuple(range(6)) for u in range(2)})  # 6^8 > 1e5
        with pytest.raises(ValueError, match="cap"):
            oracle.enumerate_joint(pair, stats, {}, too_big)


class TestRefineRows:
    def scenario(self):
        rng = np.random.default_rng(4)
        pair = random_tiny_pair(rng, n=7, t=12, r=2)
        labelled = {0: 0, 1: 1}
        row_ids = [2, 3, 4, 5, 6]
        col_ids = [c for c in range(pair.target.n_entities) if c not in (0, 1)]
        q = rng.dirichlet(np.ones(len(col_ids)), size=len(row_ids))
        assignment = assigned(q, row_ids, col_ids, labelled, pair.source.n_entities)
        stats = estimate_relation_stats(pair, assignment)
        return pair, assignment, stats, row_ids, col_ids, q

    def test_full_width_equals_conditional(self):
        pair, assignment, stats, row_ids, col_ids, q = self.scenario()
        refined = refine_rows(
            q, row_ids, col_ids, FactorModel(pair, stats, assignment), top_k=len(col_ids)
        )
        for i, row in enumerate(refined):
            full = conditional_distribution(
                row_ids[i], row.cand_ids, assignment, pair, stats
            )
            np.testing.assert_allclose(row.probs, full.probs, atol=1e-12)
            assert set(row.cand_ids) == set(col_ids)

    def test_top_k_is_renormalized_restriction(self):
        pair, assignment, stats, row_ids, col_ids, q = self.scenario()
        factors = FactorModel(pair, stats, assignment)
        full = refine_rows(q, row_ids, col_ids, factors, top_k=len(col_ids))
        k = 2
        truncated = refine_rows(q, row_ids, col_ids, factors, top_k=k)
        for full_row, trunc_row in zip(full, truncated):
            dist = dict(zip(full_row.cand_ids, full_row.probs))
            kept = list(trunc_row.cand_ids)
            expected = np.array([dist[c] for c in kept])
            expected /= expected.sum()
            np.testing.assert_allclose(trunc_row.probs, expected, atol=1e-12)

    def test_renormalization_arithmetic(self):
        # the top-2 of [0.5, 0.3, 0.2] renormalizes to [0.625, 0.375]
        kept = np.array([0.5, 0.3])
        np.testing.assert_allclose(kept / kept.sum(), [0.625, 0.375])

    def test_deterministic_and_order_invariant(self):
        pair, assignment, stats, row_ids, col_ids, q = self.scenario()
        factors = FactorModel(pair, stats, assignment)
        a = refine_rows(q, row_ids, col_ids, factors, top_k=3)
        b = refine_rows(q, row_ids, col_ids, factors, top_k=3)
        # reversed row order computes against the same frozen assignment
        rev = refine_rows(q[::-1], row_ids[::-1], col_ids, factors, top_k=3)
        by_entity = {r.entity: r for r in rev}
        for ra, rb in zip(a, b):
            assert ra.cand_ids == rb.cand_ids
            assert np.array_equal(ra.probs, rb.probs)
            rr = by_entity[ra.entity]
            assert ra.cand_ids == rr.cand_ids
            np.testing.assert_allclose(ra.probs, rr.probs, atol=0)


def assert_matches_reference(pair, stats, assignment, q, row_ids, col_ids, top_k, u):
    """Factor score, sums and refined rows against the triple-scanning
    reference, which reads the reference statistics: scores within 1e-12,
    candidates and argmaxes exact."""
    mapping = oracle.assignment_mapping(assignment)
    ref_stats = oracle.estimate_relation_stats(pair, mapping)
    for c in col_ids:
        assert local_compatibility(u, c, assignment, pair, stats) == pytest.approx(
            oracle.local_compatibility(u, c, mapping.get, pair, ref_stats),
            rel=0, abs=1e-12,
        )
    factors = FactorModel(pair, stats, assignment)
    np.testing.assert_allclose(
        factors.factor_sums(np.array([u]), np.array([col_ids]))[0],
        oracle.compatibility_sums(u, col_ids, mapping, pair, ref_stats),
        rtol=0, atol=1e-12,
    )

    refined = refine_rows(q, row_ids, col_ids, factors, top_k=top_k)
    reference = oracle.refine_rows(q, row_ids, col_ids, pair, ref_stats, mapping, top_k)
    assert [row.entity for row in refined] == list(row_ids)
    assert len(refined) == len(reference)
    for row, (cands, sums) in zip(refined, reference):
        assert row.cand_ids == cands
        probs = oracle.softmax(sums)
        np.testing.assert_allclose(row.probs, probs, rtol=0, atol=1e-12)
        best = min(range(len(cands)), key=lambda j: (-probs[j], cands[j]))
        assert row.argmax_candidate() == cands[best]


def assert_assignment_matches_reference(q, row_ids, col_ids, labelled, n):
    """``build_assignment``'s argmax of every row of the block ``q``,
    labelled rows included, and the array with the other rows' argmaxes
    written over ``labelled``, against the reference's dicts."""
    best = build_assignment(whole(q, row_ids, col_ids), row_ids, col_ids)
    assert best.dtype == np.int64
    assert dict(zip(row_ids, best.tolist())) == oracle.build_assignment(q, row_ids, col_ids, {})
    assert oracle.assignment_mapping(assigned(q, row_ids, col_ids, labelled, n)) == \
        oracle.build_assignment(q, row_ids, col_ids, labelled)


class TestAgainstOracle:
    """The compiled factor model against the triple-scanning reference on
    random small KG pairs, self-loops and parallel edges included."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_stats_sums_and_refined_rows_match_reference(self, data):
        pair = KgPair(oracle.random_kg(data, "a"), oracle.random_kg(data, "b"))
        n_src, n_tgt = pair.source.n_entities, pair.target.n_entities
        labelled = data.draw(st.dictionaries(
            st.integers(0, n_src - 1), st.integers(0, n_tgt - 1), max_size=3))
        row_ids = [u for u in range(n_src) if u not in labelled]
        col_ids = list(range(n_tgt))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # a coarse grid makes top-k and argmax ties common
        q = rng.integers(0, 3, size=(len(row_ids), n_tgt)).astype(float)
        top_k = data.draw(st.integers(1, n_tgt))

        assert_assignment_matches_reference(q, row_ids, col_ids, labelled, n_src)
        assignment = assigned(q, row_ids, col_ids, labelled, n_src)
        stats = estimate_relation_stats(pair, assignment)
        assert_stats_equal(stats, oracle.stats_arrays(pair, oracle.estimate_relation_stats(
            pair, oracle.build_assignment(q, row_ids, col_ids, labelled))))

        u = data.draw(st.integers(0, n_src - 1))
        assert_matches_reference(pair, stats, assignment, q, row_ids, col_ids, top_k, u)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_partial_assignment_and_shuffled_ids_match_reference(self, data):
        # rows and neighbours without a counterpart, rows and columns in
        # any order, and top_k up to beyond the column count
        pair = KgPair(oracle.random_kg(data, "a"), oracle.random_kg(data, "b"))
        n_src, n_tgt = pair.source.n_entities, pair.target.n_entities
        row_ids = data.draw(st.permutations(range(n_src)))
        row_ids = row_ids[:data.draw(st.integers(1, n_src))]
        col_ids = data.draw(st.permutations(range(n_tgt)))
        col_ids = col_ids[:data.draw(st.integers(1, n_tgt))]
        mapping = data.draw(st.dictionaries(
            st.integers(0, n_src - 1), st.integers(0, n_tgt - 1), max_size=n_src))
        assignment = oracle.assignment_array(mapping, n_src)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        q = rng.integers(0, 3, size=(len(row_ids), len(col_ids))).astype(float)
        top_k = data.draw(st.integers(1, len(col_ids) + 3))

        stats = estimate_relation_stats(pair, assignment)
        assert_stats_equal(
            stats, oracle.stats_arrays(pair, oracle.estimate_relation_stats(pair, mapping)))
        u = data.draw(st.integers(0, n_src - 1))
        assert_matches_reference(pair, stats, assignment, q, row_ids, col_ids, top_k, u)


class TestRawOrderEqualsCalibratedOrder:
    """The run refines the raw similarity block.  A calibration with a
    positive scale is monotone, so where it keeps each row's distinct
    values distinct, refining the calibrated block gives the same
    assignment, candidates and probabilities, bytes included."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_refining_calibrated_and_raw_blocks_agree(self, data):
        pair = KgPair(oracle.random_kg(data, "a"), oracle.random_kg(data, "b"))
        n_src, n_tgt = pair.source.n_entities, pair.target.n_entities
        row_ids = data.draw(st.permutations(range(n_src)))
        row_ids = row_ids[:data.draw(st.integers(1, n_src))]
        col_ids = data.draw(st.permutations(range(n_tgt)))
        col_ids = col_ids[:data.draw(st.integers(1, n_tgt))]
        labelled = data.draw(st.dictionaries(
            st.integers(0, n_src - 1), st.integers(0, n_tgt - 1), max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (len(row_ids), len(col_ids))
        # a coarse grid makes raw ties common; they must break the same way
        raw = (rng.integers(0, 4, size=shape) / 4 if data.draw(st.booleans())
               else rng.uniform(-1, 1, size=shape))
        finite = dict(allow_nan=False, allow_infinity=False)
        params = CalibrationParams(
            offset=data.draw(st.floats(-5, 5, **finite)),
            scale=data.draw(st.floats(1e-3, 20, **finite)),
            temperature=data.draw(st.floats(1e-2, 10, **finite)),
        )
        q = calibrate_matrix(raw, params)
        assume(all(len(set(a.tolist())) == len(set(b.tolist())) for a, b in zip(q, raw)))
        top_k = data.draw(st.integers(1, len(col_ids) + 2))

        results = []
        for block in (q, raw):
            assignment = assigned(block, row_ids, col_ids, labelled, n_src)
            stats = estimate_relation_stats(pair, assignment)
            rows = refine_rows(block, row_ids, col_ids,
                               FactorModel(pair, stats, assignment), top_k=top_k)
            results.append((assignment.tolist(), [(r.entity, r.cand_ids, r.probs.tobytes())
                                         for r in rows]))
        assert results[0] == results[1]


class TestZeroSurvival:
    """Sub-relation probability 1 and inverse functionality 1 make a matched
    survival term exactly 0: the factor scores 1, its log survival is
    -inf, and the sums stay finite."""

    def scenario(self):
        pair = KgPair(kg_of([("a0", "r", "a1"), ("a1", "r", "a2")]),
                      kg_of([("b0", "s", "b1"), ("b1", "s", "b2")]))
        certain = {(a, b): 1.0 for a in range(2) for b in range(2)}
        stats = oracle.DictStats(
            src_inv_fun={0: 1.0, 1: 1.0}, tgt_inv_fun={0: 1.0, 1: 1.0},
            subrel_tgt_in_src=certain, subrel_src_in_tgt=dict(certain),
        )
        return pair, stats, oracle.assignment_array({0: 0, 1: 1, 2: 2}, 3)

    def test_local_compatibility(self):
        pair, ref_stats, assignment = self.scenario()
        stats = oracle.stats_arrays(pair, ref_stats)
        assert local_compatibility(1, 1, assignment, pair, stats) == 1.0
        assert local_compatibility(1, 0, assignment, pair, stats) == 0.0
        assert local_compatibility(0, 0, assignment, pair, stats) == 1.0
        assert local_compatibility(0, 1, assignment, pair, stats) == 0.0

    def test_compatibility_sums(self):
        pair, ref_stats, assignment = self.scenario()
        [sums] = FactorModel(pair, oracle.stats_arrays(pair, ref_stats), assignment).factor_sums(
            np.array([1]), np.array([[0, 1, 2]]))
        assert np.array_equal(sums, [0.0, 3.0, 0.0])
        assert np.array_equal(
            sums, oracle.compatibility_sums(1, (0, 1, 2), {0: 0, 1: 1, 2: 2}, pair, ref_stats))

    def test_refine_rows(self):
        pair, ref_stats, assignment = self.scenario()
        factors = FactorModel(pair, oracle.stats_arrays(pair, ref_stats), assignment)
        q = np.full((1, 3), 1.0 / 3)
        [row] = refine_rows(q, [1], [0, 1, 2], factors, top_k=3)
        assert row.cand_ids == (0, 1, 2)
        np.testing.assert_allclose(row.probs, oracle.softmax(np.array([0.0, 3.0, 0.0])),
                                   rtol=0, atol=1e-12)
        assert row.argmax_candidate() == 1


class TestFactorModel:
    """``FactorModel`` reads relation evidence through the target KG's pair
    join: no table with a per-target-pair dimension."""

    def test_edge_log_survival_sums_left_to_right(self):
        # target pairs joined by 1, 2, 3 and 5 directed edges, with parallel
        # relations in both orientations
        tgt = kg_of([("b0", "s0", "b1"),
                     ("b2", "s0", "b3"), ("b3", "s1", "b2"),
                     ("b4", "s0", "b5"), ("b4", "s1", "b5"), ("b5", "s2", "b4"),
                     ("b6", "s0", "b7"), ("b6", "s1", "b7"), ("b7", "s2", "b6"),
                     ("b6", "s3", "b7"), ("b7", "s4", "b6")])
        src = kg_of([("a0", "r0", "a1"), ("a1", "r1", "a2")])
        pair = KgPair(src, tgt)
        none = oracle.assignment_array({}, src.n_entities)
        f = FactorModel(pair, estimate_relation_stats(pair, none), none)
        edges = tgt.edges
        counts = np.diff(edges.bounds)
        assert sorted(counts.tolist()) == [1, 1, 2, 2, 3, 3, 5, 5]
        near = np.append(edges.near, [0, 0])
        far = np.append(edges.far, [2, -1])  # two misses
        rng = np.random.default_rng(5)
        for _ in range(20):
            # magnitudes far apart make any change in the order of the adds show
            f.log_surv = (rng.normal(size=f.log_surv.shape)
                          * 10.0 ** rng.integers(-8, 8, f.log_surv.shape))
            rel = np.arange(len(f.log_surv))[:, None]
            got = f.edge_log_survival(rel, near[None, :], far[None, :])
            want = np.zeros(got.shape)
            for r in range(len(rel)):
                for q, (a, b) in enumerate(zip(near.tolist(), far.tolist())):
                    for e in range(len(edges.near)):  # edge-table order
                        if (edges.near[e], edges.far[e]) == (a, b):
                            want[r, q] += f.log_surv[r, edges.rel[e]]
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        no_hit = f.edge_log_survival(0, np.array([0, 0]), np.array([-1, 2]))
        assert no_hit.dtype == np.float64 and not no_hit.any()

    def test_memory_grows_with_relations_not_with_pairs(self):
        # an n=1000 twin with 400 relations: 7958 target pairs, so a table
        # of pairs x 800 directed relations alone is 49 MiB, ten times the
        # 800 x 800 log survival matrix.  Measured peak: 3.0 of those
        # matrices; tiled default probabilities peaked at 5.0, a per-pair
        # table at 11.1
        base, twin, links = twin_label_data(1000, 4000, 400, 0.1, 11)
        src, tgt = Kg.from_label_triples(base), Kg.from_label_triples(twin)
        pair = KgPair(src, tgt)
        assignment = oracle.assignment_array(
            {src.entity_ids[a]: tgt.entity_ids[b] for a, b in links[:500]}, src.n_entities)
        stats = estimate_relation_stats(pair, assignment)
        rows = np.arange(500, 756)
        cands = np.random.default_rng(0).integers(0, tgt.n_entities, (len(rows), 10))
        _ = src.edges, tgt.edges  # built once per KG, on first use
        tracemalloc.start()
        try:
            FactorModel(pair, stats, assignment).factor_sums(rows, cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        log_surv_bytes = (2 * 400) ** 2 * 8
        assert peak < 4 * log_surv_bytes, f"peak {peak / log_surv_bytes:.1f} x L"


def hub_kg(data, prefix: str, n_rel: int) -> Kg:
    """A star around entity 0 plus random edges, self-loops and pairs
    joined in both orientations, over up to ``n_rel`` relations."""
    n = data.draw(st.integers(2, 8))
    rel = st.integers(0, n_rel - 1)
    star = [(0, r, i) if out else (i, r, 0) for i, (r, out) in enumerate(
        data.draw(st.lists(st.tuples(rel, st.booleans()), min_size=n - 1, max_size=n - 1)), 1)]
    ent = st.integers(0, n - 1)
    extra = data.draw(st.lists(st.tuples(ent, rel, ent), max_size=2 * n))
    both = [x for h, r1, r2, t in data.draw(st.lists(st.tuples(ent, rel, rel, ent), max_size=n))
            for x in ((h, r1, t), (t, r2, h))]
    return kg_of([(f"{prefix}{h}", f"r{r}", f"{prefix}{t}") for h, r, t in star + extra + both],
                 extra=tuple(f"{prefix}{i}" for i in range(n)))


def wide_stats(pair: KgPair, rng) -> RelationStats:
    """Statistics whose survival terms span twelve orders of magnitude, so
    any change in the order of the adds shows; a term is 0 (log -inf)
    where an inverse functionality and a sub-relation probability are 1."""
    n_src, n_tgt = 2 * pair.source.n_relations, 2 * pair.target.n_relations

    def p(size):
        return np.where(rng.random(size) < 0.3, 1.0, 10.0 ** -rng.uniform(0, 12, size)).tolist()

    def subrel(n_a, n_b):
        keys = [(a, b) for a in range(n_a) for b in range(n_b) if rng.random() < 0.5]
        return dict(zip(keys, p(len(keys))))

    return oracle.stats_arrays(pair, oracle.DictStats(
        src_inv_fun=dict(enumerate(p(n_src))), tgt_inv_fun=dict(enumerate(p(n_tgt))),
        subrel_tgt_in_src=subrel(n_tgt, n_src), subrel_src_in_tgt=subrel(n_src, n_tgt),
        tgt_trials=dict(enumerate(rng.integers(0, 3, n_tgt).tolist())),
        src_trials=dict(enumerate(rng.integers(0, 3, n_src).tolist()))))


class TestSharedJoin:
    """``factor_sums`` joins the rows' own edges once and serves the
    anchors' edges to the row from that join's reversed hits and their
    other edges from the survival compiled with the assignment.  It must
    equal the three-join reference bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_factor_sums_equal_the_three_join_reference(self, data):
        n_rel = data.draw(st.integers(1, 12))  # often more relations than entities
        pair = KgPair(hub_kg(data, "a", n_rel), hub_kg(data, "b", n_rel))
        n_src, n_tgt = pair.source.n_entities, pair.target.n_entities
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # hub to hub, so the hub's edges join; unassigned neighbours too
        ys = data.draw(st.lists(st.one_of(st.none(), st.integers(0, n_tgt - 1)),
                                min_size=n_src, max_size=n_src))
        mapping = {e: y for e, y in enumerate([0] + ys[1:] if ys[0] is None else ys)
                   if y is not None}
        f = FactorModel(pair, wide_stats(pair, rng), oracle.assignment_array(mapping, n_src))
        rows = np.array(data.draw(st.permutations(range(n_src))), dtype=np.int64)
        rows = rows[:data.draw(st.integers(1, n_src))]
        cands = rng.integers(0, n_tgt, (len(rows), data.draw(st.integers(1, 4))))
        got = f.factor_sums(rows, cands)
        assert np.array_equal(got, oracle.factor_sums(f, rows, cands))
        assert np.array_equal(f.own_log_survival(rows, cands)[0],
                              oracle.factor_own_log_survival(f, rows, cands))

    def test_one_join_per_call_plus_one_at_compile(self):
        base, twin, links = twin_label_data(300, 1200, 8, 0.1, 11)
        src, tgt = Kg.from_label_triples(base), Kg.from_label_triples(twin)
        pair = KgPair(src, tgt)
        assignment = oracle.assignment_array(
            {src.entity_ids[a]: tgt.entity_ids[b] for a, b in links[:250]}, src.n_entities)
        stats = estimate_relation_stats(pair, assignment)
        rows = np.arange(200, 300)
        cands = np.random.default_rng(0).integers(0, tgt.n_entities, (len(rows), 10))
        calls = []
        find = kg_module.EdgeTable.find

        def spy(self, near, far):
            calls.append(np.size(near))
            return find(self, near, far)

        with mock.patch.object(kg_module.EdgeTable, "find", spy):
            f = FactorModel(pair, stats, assignment)
            got = f.factor_sums(rows, cands)
            assert len(calls) <= 3, calls
            del calls[:]
            want = oracle.factor_sums(f, rows, cands)
        assert len(calls) == 3  # the spy sees the reference's three joins
        assert np.array_equal(got, want)


class TestStoryScenarios:
    """The two-plot neighborhood-evidence story: a candidate whose
    neighborhood mirrors the source entity's mapped neighbors scores higher
    than one without any mapped neighbors."""

    def scenario_a(self):
        src = kg_of([("e2", "father", "e1"), ("e2", "friend", "e3")])
        tgt = kg_of([("e2'", "father'", "e1'"), ("e2'", "friend'", "e3'")])
        pair = KgPair(src, tgt)
        labelled = {
            src.entity_ids["e1"]: tgt.entity_ids["e1'"],
            src.entity_ids["e3"]: tgt.entity_ids["e3'"],
        }
        return pair, labelled, src.entity_ids["e2"], tgt.entity_ids["e2'"]

    def scenario_b(self):
        src = kg_of([("e2", "father", "e1"), ("e2", "friend", "e3")])
        tgt = kg_of([("e1'", "father'", "e3'")], extra=("e4'",))
        pair = KgPair(src, tgt)
        labelled = {
            src.entity_ids["e1"]: tgt.entity_ids["e1'"],
            src.entity_ids["e3"]: tgt.entity_ids["e3'"],
        }
        return pair, labelled, src.entity_ids["e2"], tgt.entity_ids["e4'"]

    def test_local_compatibility_prefers_supported_candidate(self):
        pair_a, labelled_a, e2_a, cand_a = self.scenario_a()
        assign_a = oracle.assignment_array(labelled_a, pair_a.source.n_entities)
        stats_a = estimate_relation_stats(pair_a, assign_a)
        g_a = local_compatibility(e2_a, cand_a, assign_a, pair_a, stats_a)

        pair_b, labelled_b, e2_b, cand_b = self.scenario_b()
        assign_b = oracle.assignment_array(labelled_b, pair_b.source.n_entities)
        stats_b = estimate_relation_stats(pair_b, assign_b)
        g_b = local_compatibility(e2_b, cand_b, assign_b, pair_b, stats_b)

        assert g_a > g_b
        assert g_b == 0.0

    def test_refined_probability_prefers_supported_candidate(self):
        # candidate rows span all three target entities of each tiny pair
        pair_a, labelled_a, e2_a, cand_a = self.scenario_a()
        cols_a = list(range(pair_a.target.n_entities))
        q_a = np.full((1, len(cols_a)), 1.0 / len(cols_a))
        assign_a = assigned(q_a, [e2_a], cols_a, labelled_a, pair_a.source.n_entities)
        stats_a = estimate_relation_stats(pair_a, assign_a)
        rows_a = refine_rows(q_a, [e2_a], cols_a, FactorModel(pair_a, stats_a, assign_a),
                             top_k=3)
        p_a = dict(zip(rows_a[0].cand_ids, rows_a[0].probs))[cand_a]

        pair_b, labelled_b, e2_b, cand_b = self.scenario_b()
        cols_b = list(range(pair_b.target.n_entities))
        q_b = np.full((1, len(cols_b)), 1.0 / len(cols_b))
        assign_b = assigned(q_b, [e2_b], cols_b, labelled_b, pair_b.source.n_entities)
        stats_b = estimate_relation_stats(pair_b, assign_b)
        rows_b = refine_rows(q_b, [e2_b], cols_b, FactorModel(pair_b, stats_b, assign_b),
                             top_k=3)
        p_b = dict(zip(rows_b[0].cand_ids, rows_b[0].probs))[cand_b]

        assert p_a > p_b
        assert p_a > 1 / 3 >= p_b


class TestIdOrderedBlocks:
    """The assignment reads a model's whole matrix over ids in any order,
    and the refinement a block whose columns may come in any id order; both
    must keep the lowest id among tied columns."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_assignment_matches_reference_on_permuted_ids(self, data):
        n_rows, n_cols = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 12))
        row_ids = data.draw(st.permutations(range(n_rows)))
        row_ids = row_ids[:data.draw(st.integers(0, n_rows))]
        col_ids = data.draw(st.permutations(range(n_cols)))
        col_ids = col_ids[:data.draw(st.integers(1, n_cols))]
        labelled = data.draw(st.dictionaries(st.integers(0, 9), st.integers(0, 9),
                                             max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # two or three levels: most rows tie at their maximum, and the
        # columns outside col_ids often score at it too
        levels = data.draw(st.integers(2, 3))
        sims = rng.integers(0, levels, size=(n_rows, n_cols)).astype(float)
        slab = data.draw(st.sampled_from([1, 2, n_rows + 1]), label="slab rows")
        with mock.patch.object(models, "SLAB_BYTES", 8 * n_cols * slab):
            best = build_assignment(sims, row_ids, col_ids)
        assert best.dtype == np.int64
        block = sims[np.ix_(row_ids, col_ids)]
        assert dict(zip(row_ids, best.tolist())) == \
            oracle.build_assignment(block, row_ids, col_ids, {})
        assert_assignment_matches_reference(block, row_ids, col_ids, labelled, 10)

    def test_refined_rows_equal_for_any_column_order(self):
        rng = np.random.default_rng(5)
        pair = random_tiny_pair(rng, n=7, t=12, r=2)
        row_ids, cols = [2, 3, 4, 5, 6], list(range(pair.target.n_entities))
        q = rng.integers(0, 3, size=(len(row_ids), len(cols))).astype(float)
        perm = rng.permutation(len(cols))
        sims = whole(q, row_ids, cols)
        assert np.array_equal(build_assignment(sims, row_ids, [cols[j] for j in perm]),
                              build_assignment(sims, row_ids, cols))
        assignment = assigned(q, row_ids, cols, {0: 0, 1: 1}, pair.source.n_entities)
        stats = estimate_relation_stats(pair, assignment)
        factors = FactorModel(pair, stats, assignment)
        refined = [refine_rows(block, row_ids, ids, factors, top_k=4)
                   for block, ids in ((q, cols), (q[:, perm], [cols[j] for j in perm]))]
        assert [(r.entity, r.cand_ids, r.probs.tobytes()) for r in refined[0]] == \
               [(r.entity, r.cand_ids, r.probs.tobytes()) for r in refined[1]]

    @pytest.mark.parametrize("row_ids, col_ids, message", [
        ([0, 2], [0], r"row ids must be in \[0, 2\)"),
        ([-1], [0], r"row ids must be in \[0, 2\)"),
        ([0], [1, 3], r"column ids must be in \[0, 3\)"),
        ([0], [-1], r"column ids must be in \[0, 3\)"),
    ], ids=["row-past-end", "row-negative", "column-past-end", "column-negative"])
    def test_id_outside_the_matrix_rejected(self, row_ids, col_ids, message):
        # a negative id would otherwise wrap to the matrix's far end
        with pytest.raises(ValueError, match=message):
            build_assignment(np.ones((2, 3)), row_ids, col_ids)

    def test_all_minus_inf_row_picks_its_lowest_requested_column(self):
        # the masked columns are -inf as well; the row must not pick one
        sims = np.array([[0.5, -np.inf, -np.inf], [0.2, 0.1, 0.3]])
        assert build_assignment(sims[:, :2], [0, 1], [1]).tolist() == [1, 1]
        assert build_assignment(sims, [0, 1], [2, 1]).tolist() == [1, 2]

    def test_mis_shaped_block_rejected(self):
        pair = random_tiny_pair(np.random.default_rng(6))
        q = np.ones((2, 3))
        assignment = oracle.assignment_array({}, pair.source.n_entities)
        stats = estimate_relation_stats(pair, assignment)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            refine_rows(q, [0, 1], [4, 5], FactorModel(pair, stats, assignment), top_k=2)


class TestIdsOutsideTheKgs:
    """Every score reads its ids through ``FactorModel.own_log_survival``,
    which rejects a row id outside the source KG and a candidate outside
    the target KG; the model and the statistics reject an assignment that
    is not one entry per source entity."""

    SCORES = {
        "refine_rows": lambda pair, stats, y, u, cands: refine_rows(
            np.ones((1, len(cands))), [u], cands, FactorModel(pair, stats, y)),
        "conditional_distribution": lambda pair, stats, y, u, cands:
            conditional_distribution(u, cands, y, pair, stats),
        "local_compatibility": lambda pair, stats, y, u, cands:
            [local_compatibility(u, c, y, pair, stats) for c in cands],
    }

    def scenario(self):
        pair = random_tiny_pair(np.random.default_rng(8))  # 6 entities a side
        assignment = oracle.assignment_array({0: 0, 1: 1}, pair.source.n_entities)
        return pair, estimate_relation_stats(pair, assignment), assignment

    @pytest.mark.parametrize("score", SCORES)
    @pytest.mark.parametrize("u, cands, message", [
        (6, [2, 3], r"row ids must be in \[0, 6\)"),
        (-1, [2, 3], r"row ids must be in \[0, 6\)"),
        (2, [3, 6], r"candidate ids must be in \[0, 6\)"),
        (2, [3, -1], r"candidate ids must be in \[0, 6\)"),
    ], ids=["row-past-end", "row-negative", "candidate-past-end", "candidate-negative"])
    def test_id_outside_the_kgs_rejected(self, score, u, cands, message):
        # -1 is the no-counterpart sentinel, never a candidate
        pair, stats, assignment = self.scenario()
        with pytest.raises(ValueError, match=message):
            self.SCORES[score](pair, stats, assignment, u, cands)

    def test_every_column_id_checked_not_only_the_kept_ones(self):
        # 99 scores below 3, so top_k=1 keeps only 3; it must still raise
        pair, stats, assignment = self.scenario()
        factors = FactorModel(pair, stats, assignment)
        for q in ([[1.0, 0.0]], [[0.0, 1.0]]):
            with pytest.raises(ValueError, match=r"candidate ids must be in \[0, 6\)"):
                refine_rows(np.array(q), [2], [3, 99], factors, top_k=1)

    @pytest.mark.parametrize("target", ["estimate_relation_stats", "FactorModel"])
    @pytest.mark.parametrize("extra", [-1, 10], ids=["one-short", "ten-long"])
    def test_assignment_of_another_length_rejected(self, target, extra):
        pair, stats, _ = self.scenario()
        y = oracle.assignment_array({0: 0, 1: 1}, 6 + extra)
        build = {"estimate_relation_stats": lambda: estimate_relation_stats(pair, y),
                 "FactorModel": lambda: FactorModel(pair, stats, y)}[target]
        with pytest.raises(ValueError, match=f"assignment has length {6 + extra}, "
                                             "but the source KG has 6 entities"):
            build()
