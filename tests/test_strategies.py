from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from kgalign import models, strategies
from kgalign.calibration import ProbRow
from kgalign.kg import MappingSet
from kgalign.strategies import (
    bi_threshold,
    mutual_highest_probability,
    mutual_nearest,
    one_to_one_matching,
    similarity_threshold,
    uni_threshold,
)


def embed(block, row_ids, col_ids) -> np.ndarray:
    """A matrix holding ``block`` at ``(row_ids, col_ids)``, its other rows
    and columns, two past the largest ids included, filled with a decoy
    above every block value: a strategy that reads outside its ids then
    changes its picks."""
    block = np.asarray(block, dtype=np.float64).reshape(len(row_ids), len(col_ids))
    row_ids, col_ids = list(row_ids), list(col_ids)
    full = np.full((max(row_ids, default=-1) + 3, max(col_ids, default=-1) + 3),
                   block.max(initial=0.0) + 1.0)
    full[np.ix_(row_ids, col_ids)] = block
    return full


def prob_rows(matrix, row_ids, col_ids):
    return [
        ProbRow(entity=u, cand_ids=tuple(col_ids), probs=np.asarray(row))
        for u, row in zip(row_ids, matrix)
    ]


class TestUniThreshold:
    def test_filters_by_threshold(self):
        rows = prob_rows([[0.9, 0.1], [0.4, 0.6]], [0, 1], [10, 11])
        got = uni_threshold(rows, alpha=0.7)
        assert got.as_set() == {(0, 10)}

    def test_high_threshold_empty(self):
        rows = prob_rows([[0.5, 0.5]], [0], [10, 11])
        assert len(uni_threshold(rows, alpha=0.999)) == 0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 2.0])
    def test_invalid_threshold_rejected(self, alpha):
        rows = prob_rows([[1.0]], [0], [10])
        with pytest.raises(ValueError):
            uni_threshold(rows, alpha=alpha)

    def test_anti_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        rows = prob_rows(rng.dirichlet(np.ones(5), size=8), range(8), range(5))
        sweep = [uni_threshold(rows, a).as_set() for a in np.linspace(0.05, 0.95, 20)]
        for smaller, larger in zip(sweep[1:], sweep):
            assert smaller <= larger


class TestBiThreshold:
    def test_flip_and_dedup(self):
        fwd = prob_rows([[0.9, 0.1]], [0], [5, 6])
        rev = prob_rows([[0.8, 0.2]], [5], [0, 1])
        got = bi_threshold(fwd, rev, alpha=0.5)
        assert got.as_set() == {(0, 5)}
        assert len(got) == 1

    def test_union_of_disjoint_sets(self):
        fwd = prob_rows([[0.9, 0.1], [0.95, 0.05], [0.85, 0.15]], [0, 1, 2], [5, 6])
        rev = prob_rows([[0.1, 0.2, 0.7], [0.05, 0.9, 0.05]], [7, 8], [0, 1, 2])
        got = bi_threshold(fwd, rev, alpha=0.5)
        assert len(got) == 5

    def test_conflicting_pairs_both_kept(self):
        # the merge is a plain union: one entity may appear with two partners
        fwd = prob_rows([[0.9, 0.1]], [0], [5, 6])
        rev = prob_rows([[0.2, 0.8]], [6], [1, 0])
        got = bi_threshold(fwd, rev, alpha=0.5)
        assert got.as_set() == {(0, 5), (0, 6)}


class TestMutualHighestProbability:
    def test_mutual_argmax_pairs(self):
        fwd = prob_rows([[0.9, 0.1], [0.4, 0.6]], [0, 1], [10, 11])
        rev = prob_rows([[0.8, 0.2], [0.3, 0.7]], [10, 11], [0, 1])
        got = mutual_highest_probability(fwd, rev)
        assert got.as_set() == {(0, 10), (1, 11)}

    def test_identity_point_masses(self):
        eye = np.eye(4)
        fwd = prob_rows(eye, range(4), range(10, 14))
        rev = prob_rows(eye, range(10, 14), range(4))
        got = mutual_highest_probability(fwd, rev)
        assert got.as_set() == {(i, 10 + i) for i in range(4)}

    def test_one_sided_argmax_excluded(self):
        fwd = prob_rows([[0.9, 0.1], [0.8, 0.2]], [0, 1], [10, 11])
        rev = prob_rows([[0.9, 0.1], [0.6, 0.4]], [10, 11], [0, 1])
        got = mutual_highest_probability(fwd, rev)
        # both 0 and 1 point at 10, but 10 points back at 0 only
        assert got.as_set() == {(0, 10)}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_injective_both_coordinates(self, data):
        n = data.draw(st.integers(2, 7))
        m = data.draw(st.integers(2, 7))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        fwd = prob_rows(rng.dirichlet(np.ones(m), size=n), range(n), range(100, 100 + m))
        rev = prob_rows(rng.dirichlet(np.ones(n), size=m), range(100, 100 + m), range(n))
        got = mutual_highest_probability(fwd, rev)
        srcs = [s for s, _ in got.pairs]
        tgts = [t for _, t in got.pairs]
        assert len(set(srcs)) == len(srcs)
        assert len(set(tgts)) == len(tgts)


class TestSimilarityThreshold:
    def test_basic(self):
        got = similarity_threshold(embed([[0.9, 0.1]], [0], [10, 11]), [0], [10, 11],
                                   theta=0.5)
        assert got.as_set() == {(0, 10)}

    def test_above_max_empty(self):
        got = similarity_threshold(embed([[0.9, 0.1]], [0], [10, 11]), [0], [10, 11],
                                   theta=0.95)
        assert len(got) == 0

    def test_theta_below_range_keeps_all_argmaxes(self):
        sims = embed([[0.9, 0.1], [0.2, 0.8]], [0, 1], [10, 11])
        got = similarity_threshold(sims, [0, 1], [10, 11], theta=-1.0)
        assert got.as_set() == {(0, 10), (1, 11)}

    def test_anti_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        sims = rng.uniform(-1, 1, size=(9, 6))
        sweep = [
            similarity_threshold(sims, range(9), range(6), t).as_set()
            for t in np.linspace(-1, 1, 20)
        ]
        for smaller, larger in zip(sweep[1:], sweep):
            assert smaller <= larger


def held(scores: dict[tuple[int, int], float]) -> MappingSet:
    """A scored pseudo set, as ``one_to_one_matching`` returns."""
    return MappingSet(tuple(scores), scores=tuple(scores.values()))


NONE_HELD = held({})


class TestOneToOne:
    def test_greedy_trace(self):
        sims = embed([[0.9, 0.8], [0.85, 0.2]], [0, 1], [10, 11])
        got = one_to_one_matching(sims, [0, 1], [10, 11], theta=0.5, held=NONE_HELD)
        assert got.as_set() == {(0, 10)}

    def test_conflict_resolved_by_similarity(self):
        got = one_to_one_matching(embed([[0.9]], [0], [10]), [0], [10], theta=0.5,
                                  held=held({(0, 12): 0.6}))
        assert (got.pairs, got.scores) == (((0, 10),), (0.9,))

    def test_lower_scored_newcomer_dropped(self):
        got = one_to_one_matching(embed([[0.7]], [0], [10]), [0], [10], theta=0.5,
                                  held=held({(0, 12): 0.8}))
        assert (got.pairs, got.scores) == (((0, 12),), (0.8,))

    def test_theta_above_all_returns_accumulated(self):
        got = one_to_one_matching(embed([[0.2]], [0], [10]), [0], [10], theta=0.5,
                                  held=held({(3, 13): 0.9}))
        assert (got.pairs, got.scores) == (((3, 13),), (0.9,))

    @pytest.mark.parametrize("held_pair", [(0, 12), (3, 10)], ids=["source", "target"])
    def test_held_pair_wins_a_tie(self, held_pair):
        # the fresh pair (0, 10) conflicts with the held pair at one end
        got = one_to_one_matching(embed([[0.7]], [0], [10]), [0], [10], theta=0.5,
                                  held=held({held_pair: 0.7}))
        assert (got.pairs, got.scores) == ((held_pair,), (0.7,))

    def test_held_pairs_win_many_ties(self):
        # each fresh pair (u, n + u) ties the held pair (u, 2n + u); on
        # enough edges of mixed scores an unstable sort reorders the ties
        n = 40
        scores = 0.6 + 0.1 * (np.arange(n) % 3)
        fresh = embed(np.diag(scores), range(n), range(n, 2 * n))
        kept = held({(u, 2 * n + u): s for u, s in enumerate(scores.tolist())})
        got = one_to_one_matching(fresh, range(n), range(n, 2 * n), theta=0.5, held=kept)
        assert_same(got, kept)

    def test_held_pairs_without_scores_rejected(self):
        unscored = MappingSet(((0, 10),))
        with pytest.raises(ValueError, match="scores"):
            one_to_one_matching(embed([[0.7]], [0], [10]), [0], [10], theta=0.5,
                                held=unscored)

    def test_staircase_settles_one_edge_per_round(self):
        # every row and every column prefers its lowest free partner, so the
        # only locally dominant edge is the first diagonal one, and greedy
        # settles one diagonal edge at a time
        n = 6
        sims = 1.0 - (np.arange(n)[:, None] + np.arange(n)) / 20
        got = one_to_one_matching(embed(sims, range(n), range(10, 10 + n)), range(n),
                                  range(10, 10 + n), theta=0.0, held=NONE_HELD)
        assert got.pairs == tuple((i, 10 + i) for i in range(n))
        assert got.scores == tuple(sims.diagonal().tolist())

    def test_staircase_finishes_with_the_sorted_loop(self):
        # the slab pass settles one row of 300, and the sorted greedy loop
        # matches the other 299 in the one block it gathers
        n = 300
        sims = 1.0 - (np.arange(n)[:, None] + np.arange(n)) / (4 * n)
        with mock.patch.object(strategies, "_sorted_finish",
                               wraps=strategies._sorted_finish) as finish:
            got = one_to_one_matching(embed(sims, range(n), range(10, 10 + n)), range(n),
                                      range(10, 10 + n), theta=0.0, held=NONE_HELD)
        assert finish.call_count == 1
        assert finish.call_args.args[0].shape == (n - 1, n - 1)
        assert_same(got, oracle.one_to_one_matching(sims, range(n), range(10, 10 + n),
                                                    0.0, NONE_HELD))
        assert got.pairs == tuple((i, 10 + i) for i in range(n))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sorted_finish_is_greedy_matching(self, data):
        # on two or three levels most scores tie, so the order comes from the
        # stable sort; on a thousand levels mostly from the first sort alone
        n_rows, n_cols = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
        levels = data.draw(st.sampled_from([2, 3, 1000]), label="levels")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        block = rng.integers(0, levels, size=(n_rows, n_cols)) / (levels - 1)
        theta = data.draw(st.sampled_from([-0.5, 0.0, 0.25, 0.5]))
        r, c = strategies._sorted_finish(block, theta)
        want = oracle.one_to_one_matching(block, range(n_rows), range(n_cols), theta,
                                          NONE_HELD)
        assert sorted(zip(r.tolist(), c.tolist())) == list(want.pairs)
        # greedy order: by descending score, then row, then column
        keys = list(zip((-block[r, c]).tolist(), r.tolist(), c.tolist()))
        assert keys == sorted(keys)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_to_one_after_accumulation(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        got = NONE_HELD
        for _ in range(3):
            sims = embed(rng.uniform(0, 1, size=(5, 5)), range(5), range(10, 15))
            got = one_to_one_matching(sims, range(5), range(10, 15), theta=0.4, held=got)
            srcs = [s for s, _ in got.pairs]
            tgts = [t for _, t in got.pairs]
            assert len(set(srcs)) == len(srcs)
            assert len(set(tgts)) == len(tgts)


class TestMutualNearest:
    def test_asymmetric_argmaxes(self):
        fwd = embed([[0.9, 0.8], [0.7, 0.6]], [0, 1], [10, 11])
        got = mutual_nearest(fwd, [0, 1], [10, 11], fwd.T, [10, 11], [0, 1])
        assert got.as_set() == {(0, 10)}

    def test_identity_matrix_selects_all(self):
        eye = embed(np.eye(3), range(3), range(10, 13))
        got = mutual_nearest(eye, range(3), range(10, 13), eye.T, range(10, 13), range(3))
        assert got.as_set() == {(i, 10 + i) for i in range(3)}

    def test_all_equal_similarities_tie_break(self):
        ones = embed(np.ones((2, 2)), [0, 1], [10, 11])
        got = mutual_nearest(ones, [0, 1], [10, 11], ones.T, [10, 11], [0, 1])
        # every argmax resolves to the lowest id; only (0, 10) is mutual
        assert got.as_set() == {(0, 10)}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_injective_both_coordinates(self, data):
        n = data.draw(st.integers(2, 7))
        m = data.draw(st.integers(2, 7))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        fwd = embed(rng.uniform(size=(n, m)), range(n), range(50, 50 + m))
        rev = embed(rng.uniform(size=(m, n)), range(50, 50 + m), range(n))
        got = mutual_nearest(fwd, range(n), range(50, 50 + m),
                             rev, range(50, 50 + m), range(n))
        srcs = [s for s, _ in got.pairs]
        tgts = [t for _, t in got.pairs]
        assert len(set(srcs)) == len(srcs)
        assert len(set(tgts)) == len(tgts)


RAW_SIMILARITY_STRATEGIES = {
    "SimThr": lambda sims, rows, cols: similarity_threshold(sims, rows, cols, 0.5),
    "OneToOne": lambda sims, rows, cols: one_to_one_matching(sims, rows, cols, 0.5,
                                                             NONE_HELD),
    "MutNearest": lambda sims, rows, cols: mutual_nearest(sims, rows, cols,
                                                          sims.T, cols, rows),
}


class TestBlockShape:
    """The ids name a block of distinct rows and columns of the matrix."""

    @pytest.mark.parametrize("bad_id", [3, 1, -1])
    @pytest.mark.parametrize("name", RAW_SIMILARITY_STRATEGIES)
    def test_mis_shaped_block_rejected(self, name, bad_id):
        # on a 2 x 2 matrix, the ids [3, 1] and [-1, 1] leave it and [1, 1]
        # repeat an id, on either axis
        bad = [bad_id, 1]
        why = "distinct" if bad_id == 1 else r"in \[0, 2\)"
        for rows, cols in ((bad, [0, 1]), ([0, 1], bad)):
            with pytest.raises(ValueError, match=why):
                RAW_SIMILARITY_STRATEGIES[name](np.ones((2, 2)), rows, cols)

    @pytest.mark.parametrize("name", RAW_SIMILARITY_STRATEGIES)
    def test_rows_without_columns_pick_nothing(self, name):
        # a matrix without columns, and one whose columns are all left out
        for sims in (np.ones((2, 0)), np.ones((2, 2))):
            assert len(RAW_SIMILARITY_STRATEGIES[name](sims, [0, 1], [])) == 0


class TestOutputOrder:
    def test_sorted_by_source_id(self):
        rows = prob_rows([[0.9, 0.1], [0.95, 0.05]], [7, 2], [10, 11])
        got = uni_threshold(rows, alpha=0.5)
        assert got.pairs == ((2, 10), (7, 10))


def drawn_ids(data, n: int, pool: int = 40) -> list[int]:
    """``n`` distinct ids in drawn, usually unsorted, order."""
    return data.draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n,
                              unique=True))


def grid_rows(rng, entities, cands) -> list[ProbRow]:
    """Coarse-grid distributions, each row over its own candidate order."""
    w = rng.integers(0, 3, size=(len(entities), len(cands))).astype(float)
    w[w.sum(axis=1) == 0] = 1.0
    return [ProbRow(entity=u, cand_ids=tuple(rng.permutation(cands).tolist()),
                    probs=row / row.sum())
            for u, row in zip(entities, w)]


def draw_slab_bytes(data, row_ids, n_cols: int) -> int:
    """A slab size giving slabs of one, two or three rows of ``n_cols``
    scores, or one slab for all of them."""
    rows = data.draw(st.sampled_from([1, 2, 3, len(row_ids) + 1]), label="slab rows")
    return 8 * n_cols * rows


def assert_same(got, want):
    assert got.pairs == want.pairs
    assert got.scores == want.scores
    assert all(type(u) is int and type(t) is int for u, t in got.pairs)
    assert all(type(s) is float for s in got.scores)


class TestAgainstOracle:
    """The shared-core strategies against the one-at-a-time references of
    ``tests/oracle.py`` on tie-heavy coarse grids with unsorted ids."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_pairs_and_scores(self, data):
        src = drawn_ids(data, data.draw(st.integers(1, 6)))
        tgt = drawn_ids(data, data.draw(st.integers(1, 6)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        alpha = data.draw(st.sampled_from([0.1, 0.25, 0.5, 0.75]))
        theta = data.draw(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 0.75]))
        fwd_rows, rev_rows = grid_rows(rng, src, tgt), grid_rows(rng, tgt, src)
        fwd = rng.integers(0, 5, size=(len(src), len(tgt))) / 4.0
        rev = rng.integers(0, 5, size=(len(tgt), len(src))) / 4.0

        assert_same(uni_threshold(fwd_rows, alpha),
                    oracle.uni_threshold(fwd_rows, alpha))
        assert_same(bi_threshold(fwd_rows, rev_rows, alpha),
                    oracle.bi_threshold(fwd_rows, rev_rows, alpha))
        assert_same(mutual_highest_probability(fwd_rows, rev_rows),
                    oracle.mutual_highest_probability(fwd_rows, rev_rows))
        # the raw-similarity strategies read the blocks inside decoy-filled
        # matrices in slabs; the reverse one is a transposed view, read in tiles
        full_fwd = embed(fwd, src, tgt)
        full_rev = np.ascontiguousarray(embed(rev, tgt, src).T).T
        with mock.patch.object(models, "SLAB_BYTES",
                               draw_slab_bytes(data, src, full_fwd.shape[1])):
            assert_same(similarity_threshold(full_fwd, src, tgt, theta),
                        oracle.similarity_threshold(fwd, src, tgt, theta))
            assert_same(mutual_nearest(full_fwd, src, tgt, full_rev, tgt, src),
                        oracle.mutual_nearest(fwd, src, tgt, rev, tgt, src))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ragged_and_empty_rows(self, data):
        # rows of different lengths, each over its own candidate subset, and
        # possibly no rows at all on either side
        src = drawn_ids(data, data.draw(st.integers(0, 6)))
        tgt = drawn_ids(data, data.draw(st.integers(1, 6)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        alpha = data.draw(st.sampled_from([0.1, 0.25, 0.5, 0.75]))

        def ragged(entities, cands):
            return [grid_rows(rng, [u], rng.choice(cands, size=rng.integers(1, len(cands) + 1),
                                                   replace=False).tolist())[0]
                    for u in entities]

        fwd_rows = ragged(src, tgt)
        rev_rows = ragged(tgt, src) if src and data.draw(st.booleans()) else []
        assert_same(uni_threshold(fwd_rows, alpha),
                    oracle.uni_threshold(fwd_rows, alpha))
        assert_same(bi_threshold(fwd_rows, rev_rows, alpha),
                    oracle.bi_threshold(fwd_rows, rev_rows, alpha))
        assert_same(mutual_highest_probability(fwd_rows, rev_rows),
                    oracle.mutual_highest_probability(fwd_rows, rev_rows))

    @staticmethod
    def check_one_to_one(data, max_ids: int, pool: int, levels: int):
        """Chained calls on three matrices, each matched once or twice in a
        row, each call holding the set the previous one returned; each
        matrix is a ``levels``-valued grid embedded in a decoy-filled matrix
        and read in drawn slabs."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        got = NONE_HELD
        for _ in range(3):
            src = drawn_ids(data, data.draw(st.integers(0, max_ids)), pool=pool)
            tgt = drawn_ids(data, data.draw(st.integers(0, max_ids)), pool=pool)
            theta = data.draw(st.sampled_from([-0.5, 0.0, 0.25, 0.5]))
            sims = rng.integers(0, levels, size=(len(src), len(tgt))) / (levels - 1)
            full = embed(sims, src, tgt)
            # a repeated call finds every fresh pair already held
            for _ in range(data.draw(st.integers(1, 2))):
                want = oracle.one_to_one_matching(sims, src, tgt, theta, got)
                with mock.patch.object(models, "SLAB_BYTES",
                                       draw_slab_bytes(data, src, full.shape[1])):
                    got = one_to_one_matching(full, src, tgt, theta, got)
                assert_same(got, want)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_to_one_matches_sorted_edge_order(self, data):
        # a small id pool lets later calls conflict with accumulated pairs
        self.check_one_to_one(data, max_ids=6, pool=8, levels=5)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_to_one_many_rounds(self, data):
        # blocks up to 30x30 on three levels: ties span rows and columns, and
        # the sorted greedy loop matches much of the block after the slab pass
        self.check_one_to_one(data, max_ids=30, pool=40, levels=3)
