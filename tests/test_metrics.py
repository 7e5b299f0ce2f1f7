from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign import models
from kgalign.kg import MappingSet
from kgalign.metrics import evaluate_rows, pseudo_quality, truth_ranks
from kgalign.models import SimMatrix


def naive_rank(row, truth_col):
    order = sorted(range(len(row)), key=lambda j: (-row[j], j))
    return order.index(truth_col) + 1


class TestRanks:
    def test_rank_one_everywhere(self):
        rows = np.array([[0.9, 0.1], [0.8, 0.2]])
        truths = np.array([0, 0])
        report = evaluate_rows(rows, truths)
        assert (report.hit1, report.mrr) == (1.0, 1.0)

    def test_mixed_ranks(self):
        rows = np.array([[0.9, 0.1], [0.8, 0.9]])
        truths = np.array([0, 0])  # ranks 1 and 2
        report = evaluate_rows(rows, truths)
        assert report.hit1 == 0.5
        assert report.hit10 == 1.0
        assert report.mrr == pytest.approx(0.75)

    def test_k_larger_than_row_width(self):
        rows = np.array([[0.1, 0.2, 0.3]])
        assert evaluate_rows(rows, np.array([0])).hit10 == 1.0

    def test_truth_last_of_m(self):
        m = 5
        row = np.arange(m, dtype=float)[None, ::-1]
        assert evaluate_rows(row, np.array([m - 1])).mrr == pytest.approx(1 / m)

    def test_tie_break_lowest_id(self):
        rows = np.array([[0.5, 0.5, 0.5]])
        assert truth_ranks(rows, np.array([0]))[0] == 1
        assert truth_ranks(rows, np.array([2]))[0] == 3

    def test_truth_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            evaluate_rows(np.array([[0.1, 0.2]]), np.array([5]))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_naive_sort(self, data):
        n = data.draw(st.integers(1, 8))
        width = data.draw(st.integers(1, 6))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        # coarse grid makes ties common
        rows = rng.integers(0, 4, size=(n, width)).astype(float)
        truths = rng.integers(0, width, size=n)
        expected = np.array([naive_rank(rows[i], truths[i]) for i in range(n)])
        assert np.array_equal(truth_ranks(rows, truths), expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ties_on_both_sides_of_the_truth(self, data):
        n, width = data.draw(st.integers(1, 8)), data.draw(st.integers(3, 40))
        levels = data.draw(st.sampled_from([3, 50]), label="levels")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows = rng.integers(0, levels, size=(n, width)).astype(float)
        truths = rng.integers(1, width - 1, size=n)
        # each truth's score also sits at a lower id, a higher id, both or
        # neither, so a row holds it once, twice or more
        sides, idx = rng.integers(0, 4, size=n), np.arange(n)
        lower, higher = rng.integers(0, truths), rng.integers(truths + 1, width)
        rows[idx, np.where(sides & 1, lower, truths)] = rows[idx, truths]
        rows[idx, np.where(sides & 2, higher, truths)] = rows[idx, truths]
        expected = np.array([naive_rank(rows[i], truths[i]) for i in range(n)])
        got = truth_ranks(rows, truths)
        assert got.dtype == np.int64 and np.array_equal(got, expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_argmax_shortcut_matches_brute_force(self, data):
        # a row whose truth is its lowest-id maximum skips the counting
        # passes; every other row is counted and written back in place
        n, width = data.draw(st.integers(1, 10)), data.draw(st.integers(2, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows = rng.integers(0, 3, size=(n, width)).astype(float)
        truths = rng.integers(0, width, size=n)
        for i in range(n):
            t, top = truths[i], rows[i].max()
            case = data.draw(st.sampled_from(
                ["sole max", "tied lower", "tied higher", "all equal", "below max"]))
            if case == "all equal":
                rows[i] = top
            elif case == "below max":
                rows[i, t] = top - 1
                rows[i, (t + 1) % width] = top
            else:
                rows[i, t] = top + 1
                if case == "tied lower" and t > 0:
                    rows[i, rng.integers(0, t)] = top + 1
                if case == "tied higher" and t < width - 1:
                    rows[i, rng.integers(t + 1, width)] = top + 1
        expected = np.array([naive_rank(rows[i], truths[i]) for i in range(n)])
        got = truth_ranks(rows, truths)
        assert got.dtype == np.int64 and np.array_equal(got, expected)
        assert evaluate_rows(rows, truths).mrr == float((1.0 / expected).mean())

    def test_empty_blocks_rank_nothing(self):
        for rows in (np.zeros((0, 0)), np.zeros((0, 3))):
            got = truth_ranks(rows, np.zeros(0, dtype=np.int64))
            assert got.dtype == np.int64 and got.shape == (0,)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_metric_ordering_invariants(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(6, 12))
        truths = rng.integers(0, 12, size=6)
        report = evaluate_rows(rows, truths)
        assert report.hit1 <= report.hit10 <= 1.0
        assert report.hit1 <= report.mrr <= 1.0
        assert np.all(truth_ranks(rows, truths) <= 12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_slabbed_evaluation_is_bitwise_the_gathered_one(self, data):
        n_rows, n_cols = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 8))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 3, size=(n_rows, n_cols)).astype(float)  # tie-heavy
        sims = SimMatrix(scores=scores)
        if data.draw(st.booleans(), label="transposed"):
            sims = SimMatrix(scores=np.ascontiguousarray(scores.T)).transposed()
        test_src = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1,
                                      max_size=n_rows, unique=True))
        truth = rng.integers(0, n_cols, size=len(test_src))
        slab = data.draw(st.integers(1, len(test_src) + 1), label="slab rows")
        with mock.patch.object(models, "SLAB_BYTES", 8 * n_cols * slab):
            got = evaluate_rows(models.row_slabs(sims.scores, test_src), truth)
        assert got == evaluate_rows(sims.scores[test_src], truth)

    def test_any_iterable_of_slabs_is_read_as_slabs(self):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 3, size=(6, 6)).astype(float)
        truths = rng.integers(0, 6, size=6)
        want = evaluate_rows(rows, truths)
        # equal-sized square slabs would rank the wrong axis if taken for one matrix
        for slabs in ([rows[:3], rows[3:]], (rows[:3], rows[3:]), [rows[:1], rows[1:]]):
            assert evaluate_rows(slabs, truths) == want

    def test_slabs_must_cover_the_truths(self):
        rows = np.zeros((3, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            evaluate_rows(iter([rows[:2]]), np.array([0, 1, 0]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(7, 5))
        truths = rng.integers(0, 5, size=7)
        perm = rng.permutation(7)
        a = evaluate_rows(rows, truths)
        b = evaluate_rows(rows[perm], truths[perm])
        assert a.mrr == pytest.approx(b.mrr)
        assert a.hit1 == pytest.approx(b.hit1)
        assert np.array_equal(np.sort(truth_ranks(rows, truths)),
                              np.sort(truth_ranks(rows[perm], truths[perm])))


class TestPseudoQuality:
    def truth(self):
        return MappingSet(tuple((i, i) for i in range(10)), kind="labelled")

    def test_perfect(self):
        p, r, empty = pseudo_quality(self.truth(), self.truth())
        assert (p, r, empty) == (1.0, 1.0, False)

    def test_half_plus_one_wrong(self):
        pseudo = MappingSet(
            tuple((i, i) for i in range(5)) + ((7, 8),), kind="pseudo"
        )
        p, r, _ = pseudo_quality(pseudo, self.truth())
        assert p == pytest.approx(5 / 6)
        assert r == pytest.approx(0.5)

    def test_empty_convention(self):
        p, r, empty = pseudo_quality(MappingSet((), kind="pseudo"), self.truth())
        assert (p, r, empty) == (1.0, 0.0, True)
