from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from kgalign import models
from kgalign.kg import KgPair, MappingSet, load_dataset, partition_mappings
from kgalign.models import (
    SRC_TO_TGT,
    TGT_TO_SRC,
    EmbeddingAligner,
    EmbeddingAlignerParams,
    ExternalSimilarityModel,
    SimMatrix,
    SyntheticOracle,
    _component_roots,
    _StepBuffers,
    margin_ranking_loss_and_grad,
)
from kgalign.simio import read_sim_matrix
from kgalign.synth import write_twin_dataset


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: unlike ``np.array_equal``, this tells
    -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def small_twins(tmp_path_factory):
    return load_dataset(write_twin_dataset(
        tmp_path_factory.mktemp("twins"), n_entities=40, n_triples=160,
        n_relations=4, perturbation=0.0, seed=2))


class TestEmbeddingAligner:
    def test_requires_nonempty_train(self, small_twins):
        pair, _ = small_twins
        model = EmbeddingAligner(seed=1)
        with pytest.raises(ValueError):
            model.fit(pair, MappingSet(()), epochs=1)

    def test_zero_epochs_rejected(self, small_twins):
        pair, links = small_twins
        model = EmbeddingAligner(seed=1)
        with pytest.raises(ValueError):
            model.fit(pair, links, epochs=0)

    def test_unfitted_similarities_rejected(self):
        with pytest.raises(RuntimeError):
            EmbeddingAligner(seed=1).similarities(SRC_TO_TGT)

    def test_loss_decreases_on_twins(self, small_twins):
        pair, links = small_twins
        part = partition_mappings(links, 0.05, seed=7)
        model = EmbeddingAligner(seed=1)
        trace = model.fit(pair, part.labelled, epochs=50)
        assert trace[-1] < trace[0]

    def test_unit_norm_after_every_epoch(self, small_twins):
        pair, links = small_twins
        model = EmbeddingAligner(seed=1)
        for _ in range(3):
            model.fit(pair, links, epochs=1)
            norms = np.linalg.norm(model._ent, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_merged_pairs_have_cosine_one(self, small_twins):
        pair, links = small_twins
        model = EmbeddingAligner(seed=1)
        model.fit(pair, links, epochs=2)
        sims = model.similarities(SRC_TO_TGT).scores
        for s, t in links.pairs[:10]:
            assert sims[s, t] == pytest.approx(1.0, abs=1e-9)

    def test_similarities_bounded_and_pure(self, small_twins):
        pair, links = small_twins
        model = EmbeddingAligner(seed=1)
        model.fit(pair, links, epochs=2)
        a = model.similarities(SRC_TO_TGT)
        b = model.similarities(SRC_TO_TGT)
        assert np.array_equal(a.scores, b.scores)
        assert a.scores.max() <= 1.0 + 1e-9
        assert a.scores.min() >= -1.0 - 1e-9
        rev = model.similarities(TGT_TO_SRC)
        assert np.array_equal(rev.scores, a.scores.T)

    def test_pseudo_pairs_accepted_in_refit(self, small_twins):
        pair, links = small_twins
        part = partition_mappings(links, 0.2, seed=7)
        model = EmbeddingAligner(seed=1)
        model.fit(pair, part.labelled, epochs=1)
        pseudo = MappingSet(part.test.pairs[:5])
        model.fit(pair, part.labelled.union(pseudo), epochs=1)

    def test_deterministic_for_fixed_seed(self, small_twins):
        pair, links = small_twins
        part = partition_mappings(links, 0.2, seed=7)
        runs = []
        for _ in range(2):
            model = EmbeddingAligner(seed=9)
            model.fit(pair, part.labelled, epochs=3)
            runs.append(model.similarities(SRC_TO_TGT).scores)
        assert np.array_equal(runs[0], runs[1])

    def test_step_bit_identical_to_pairwise_reference(self, small_twins, monkeypatch):
        pair, links = small_twins
        part = partition_mappings(links, 0.2, seed=7)
        pseudo = MappingSet(part.test.pairs[:8])

        def train():
            model = EmbeddingAligner(EmbeddingAlignerParams(batch_size=64), seed=4)
            model.fit(pair, part.labelled, epochs=2)
            model.fit(pair, part.labelled.union(pseudo), epochs=2)
            return model

        fast = train()
        monkeypatch.setattr(EmbeddingAligner, "_step", oracle.embedding_step)
        ref = train()
        assert same_bits(fast._ent, ref._ent)
        assert same_bits(fast._rel, ref._rel)
        assert same_bits(fast.loss_trace, ref.loss_trace)

    def test_similarities_are_the_fitted_cosines(self, small_twins):
        pair, links = small_twins
        model = EmbeddingAligner(EmbeddingAlignerParams(dim=4), seed=1)
        model.fit(pair, links, epochs=1)
        n_src = pair.source.n_entities
        np.testing.assert_allclose(np.linalg.norm(model._ent, axis=1), 1.0, atol=1e-12)
        assert np.array_equal(model.similarities(SRC_TO_TGT).scores,
                              model._ent[:n_src] @ model._ent[n_src:].T)


class _ReferenceAligner(EmbeddingAligner):
    """The trainer with the fresh-array pairwise step of ``tests/oracle.py``."""

    _step = oracle.embedding_step


class TestBufferedFit:
    """``fit`` runs every step in buffers allocated once per fit; the
    tables and loss traces are bit for bit those of the reference step,
    for odd ``dim`` (padded rows) and even alike."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fit_bit_identical_to_reference_step(self, data):
        pair = KgPair(oracle.random_kg(data, "a"), oracle.random_kg(data, "b"))
        n_src, n_tgt = pair.source.n_entities, pair.target.n_entities
        n_triples = len(pair.source.triples) + len(pair.target.triples)
        # past the triple count too: one batch shorter than batch_size, or
        # a last batch shorter than the others
        params = EmbeddingAlignerParams(
            dim=data.draw(st.integers(1, 6)), negatives=data.draw(st.integers(1, 4)),
            batch_size=data.draw(st.integers(1, n_triples + 3)))
        links = data.draw(st.lists(
            st.tuples(st.integers(0, n_src - 1), st.integers(0, n_tgt - 1)),
            min_size=2, max_size=6, unique=True))
        cut = data.draw(st.integers(1, len(links) - 1))
        # successive fits on training sets of different sizes
        trains = [MappingSet(tuple(links)),
                  MappingSet(tuple(links[:cut]))]
        if data.draw(st.booleans()):
            trains.reverse()
        seed = data.draw(st.integers(0, 2**32 - 1))
        epochs = data.draw(st.integers(1, 3))

        fast, ref = EmbeddingAligner(params, seed), _ReferenceAligner(params, seed)
        for model in (fast, ref):
            for train in trains:
                model.fit(pair, train, epochs)
        assert same_bits(fast._ent, ref._ent)
        assert same_bits(fast._rel, ref._rel)
        assert same_bits(fast.loss_trace, ref.loss_trace)
        assert fast._buf is None  # released when fit returns

    def test_failed_fit_releases_buffers(self, small_twins, monkeypatch):
        pair, links = small_twins
        model = EmbeddingAligner(seed=1)

        def fail(*args):
            raise RuntimeError("step failed")

        monkeypatch.setattr(model, "_step", fail)
        with pytest.raises(RuntimeError):
            model.fit(pair, links, epochs=1)
        assert model._buf is None


def union_find_roots(n_src, n_tgt, pairs):
    uf = oracle.UnionFind(n_src + n_tgt)
    for s, t in pairs:
        uf.union(s, n_src + t)
    return [uf.find(i) for i in range(n_src + n_tgt)]


class TestComponentRoots:
    """The trainer's shared-parameter roots against a union-find."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_union_find_on_non_injective_pairs(self, data):
        # few ids and many pairs: entities mapped twice, chained classes
        n_src, n_tgt = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 10))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n_src - 1),
                                             st.integers(0, n_tgt - 1)),
                                   min_size=1, max_size=25))
        s, t = np.array(pairs).T
        got = _component_roots(n_src + n_tgt, s, n_src + t)
        assert got.tolist() == union_find_roots(n_src, n_tgt, pairs)

    def test_long_chain_roots_at_its_smallest_id(self):
        # s_{i+1} - t_i - s_i zigzag, listed from the far end
        n = 60
        pairs = [(i + 1, i) for i in reversed(range(n - 1))] + [(i, i) for i in range(n)]
        s, t = np.array(pairs).T
        got = _component_roots(2 * n, s, n + t)
        assert got.tolist() == union_find_roots(n, n, pairs) == [0] * (2 * n)


FD_CASES = [
    # (pos, neg, margin); k=1: one negative per positive
    (np.array([[0, 0, 1], [1, 1, 2], [3, 0, 4]]),
     np.array([[2, 0, 1], [1, 1, 4], [0, 0, 4]]),
     1.0),
    # k=3 grouped negatives with a self-loop positive, a negative equal to
    # its positive, and active and inactive pairs mixed
    (np.array([[0, 0, 1], [1, 1, 2], [3, 0, 3]]),
     np.array([[2, 0, 1], [0, 0, 4], [0, 0, 1],
               [1, 1, 4], [3, 1, 2], [1, 1, 1],
               [0, 0, 3], [3, 0, 2], [4, 0, 3]]),
     0.5),
]


class TestMarginLossGradient:
    def test_matches_finite_differences(self):
        for pos, neg, margin in FD_CASES:
            self.check_finite_differences(pos, neg, margin)

    @staticmethod
    def check_finite_differences(pos, neg, margin):
        k = neg.shape[0] // pos.shape[0]
        rng = np.random.default_rng(0)
        ent = rng.normal(size=(5, 6))
        rel = rng.normal(size=(2, 6))
        loss, g_ent, g_rel = margin_ranking_loss_and_grad(ent, rel, pos, neg, margin)

        # keep the check meaningful: every pair strictly on one hinge side
        rep = np.repeat(pos, k, axis=0)
        d_pos = np.linalg.norm(ent[rep[:, 0]] + rel[rep[:, 1]] - ent[rep[:, 2]], axis=1)
        d_neg = np.linalg.norm(ent[neg[:, 0]] + rel[neg[:, 1]] - ent[neg[:, 2]], axis=1)
        viol = margin + d_pos - d_neg
        assert np.all(np.abs(viol) > 1e-3)
        if k > 1:
            assert (viol > 0).any() and (viol < 0).any()

        h = 1e-6
        for table, grad in ((ent, g_ent), (rel, g_rel)):
            num = np.zeros_like(table)
            for i in range(table.shape[0]):
                for j in range(table.shape[1]):
                    table[i, j] += h
                    lp, _, _ = margin_ranking_loss_and_grad(ent, rel, pos, neg, margin)
                    table[i, j] -= 2 * h
                    lm, _, _ = margin_ranking_loss_and_grad(ent, rel, pos, neg, margin)
                    table[i, j] += h
                    num[i, j] = (lp - lm) / (2 * h)
            rel_err = np.abs(grad - num) / np.maximum(
                1.0, np.maximum(np.abs(grad), np.abs(num))
            )
            assert rel_err.max() < 1e-4

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_pairwise_reference(self, data):
        n_ent = data.draw(st.integers(1, 6))
        n_rel = data.draw(st.integers(1, 3))
        dim = data.draw(st.integers(1, 5))
        b = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, 5))
        seed = data.draw(st.integers(0, 2**32 - 1))
        # a margin far below zero leaves every pair inactive
        margin = data.draw(st.sampled_from([-100.0, 0.0, 0.5, 1.0, 3.0]))
        rng = np.random.default_rng(seed)
        ent = rng.normal(size=(n_ent, dim))
        rel = rng.normal(size=(n_rel, dim))
        if data.draw(st.booleans()):
            # a reshape of a non-C-contiguous table copies; the scatter must
            # still land in the returned gradients
            ent, rel = np.asfortranarray(ent), np.asfortranarray(rel)
        # few ids, so heads, tails and self-loops (h == t) repeat often
        pos = np.stack([rng.integers(0, n_ent, b), rng.integers(0, n_rel, b),
                        rng.integers(0, n_ent, b)], axis=1)
        neg = np.repeat(pos, k, axis=0)
        corrupt_tail = rng.integers(0, 2, b * k).astype(bool)
        repl = rng.integers(0, n_ent, b * k)
        neg[corrupt_tail, 2] = repl[corrupt_tail]
        neg[~corrupt_tail, 0] = repl[~corrupt_tail]

        got = margin_ranking_loss_and_grad(ent, rel, pos, neg, margin)
        want = oracle.margin_ranking_loss_and_grad(
            ent, rel, np.repeat(pos, k, axis=0), neg, margin
        )
        assert all(map(same_bits, got, want))
        if margin == -100.0:
            assert got[0] == 0.0 and not got[1].any() and not got[2].any()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_reused_buffers_match_fresh_ones(self, data):
        # buffers sized for more rows than the call needs, holding NaN from
        # "earlier steps": only their prefixes are read, after being written
        n_ent, n_rel = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        dim, b, k = (data.draw(st.integers(1, 5)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ent, rel = rng.normal(size=(n_ent, dim)), rng.normal(size=(n_rel, dim))
        pos = np.stack([rng.integers(0, n_ent, b), rng.integers(0, n_rel, b),
                        rng.integers(0, n_ent, b)], axis=1)
        neg = np.repeat(pos, k, axis=0)
        neg[:, 0] = rng.integers(0, n_ent, b * k)
        buf = _StepBuffers(n_ent, n_rel, dim, b + data.draw(st.integers(0, 3)), k)
        # every float buffer, the pad column of odd-dim rows included
        for arr in vars(buf).values():
            if arr.dtype == np.float64:
                arr.fill(np.nan)
        got = margin_ranking_loss_and_grad(ent, rel, pos, neg, 1.0, buf)
        want = margin_ranking_loss_and_grad(ent, rel, pos, neg, 1.0)
        assert all(map(same_bits, got, want))

    @pytest.mark.parametrize("margin", [1.0, 1e7])
    @pytest.mark.parametrize("dim", [63, 64])
    def test_workload_shaped_batch_bit_identical(self, dim, margin):
        # a trainer-sized batch: zipf-skewed heads and replacements pile
        # hundreds of terms on a few rows, and rows spread over +-20 binades
        # make every cell's sum order-sensitive; margin 1e7 activates all pairs
        n_ent, n_rel, b, k = 600, 16, 256, 5
        rng = np.random.default_rng(dim)
        ent = rng.normal(size=(n_ent, dim)) * np.exp2(rng.integers(-20, 21, (n_ent, 1)))
        rel = rng.normal(size=(n_rel, dim))

        def zipf(size):
            return (rng.zipf(1.3, size) - 1) % n_ent

        pos = np.stack([zipf(b), rng.integers(0, n_rel, b),
                        rng.integers(0, n_ent, b)], axis=1)
        neg = np.repeat(pos, k, axis=0)
        corrupt_tail = rng.integers(0, 2, b * k).astype(bool)
        repl = zipf(b * k)
        neg[corrupt_tail, 2] = repl[corrupt_tail]
        neg[~corrupt_tail, 0] = repl[~corrupt_tail]
        assert np.bincount(np.concatenate([pos[:, 0], repl])).max() >= 200

        got = margin_ranking_loss_and_grad(ent, rel, pos, neg, margin)
        want = oracle.margin_ranking_loss_and_grad(
            ent, rel, np.repeat(pos, k, axis=0), neg, margin)
        assert all(map(same_bits, got, want))
        assert got[1].any()

    def test_rejects_ungrouped_negatives(self):
        ent, rel = np.zeros((3, 2)), np.zeros((1, 2))
        pos = np.array([[0, 0, 1], [1, 0, 2]])
        with pytest.raises(ValueError):
            margin_ranking_loss_and_grad(ent, rel, pos, pos[:1], 1.0)


class TestSyntheticOracle:
    def test_noise_zero_perfect_argmax(self, small_twins):
        pair, links = small_twins
        oracle = SyntheticOracle(pair, links, noise_rate=0.0, seed=3)
        sims = oracle.similarities(SRC_TO_TGT).scores
        for s, t in links.pairs:
            assert sims[s].argmax() == t

    def test_noise_one_never_correct(self, small_twins):
        pair, links = small_twins
        oracle = SyntheticOracle(pair, links, noise_rate=1.0, seed=3)
        sims = oracle.similarities(SRC_TO_TGT).scores
        for s, t in links.pairs:
            assert sims[s].argmax() != t

    def test_exact_noised_count(self, tmp_path):
        pair, links = load_dataset(write_twin_dataset(
            tmp_path, n_entities=100, n_triples=300, n_relations=4, seed=5))
        oracle = SyntheticOracle(pair, links, noise_rate=0.3, seed=8)
        sims = oracle.similarities(SRC_TO_TGT).scores
        truth = dict(links.pairs)
        correct = sum(1 for s in truth if sims[s].argmax() == truth[s])
        assert correct == 70

    def test_deterministic(self, small_twins):
        pair, links = small_twins
        a = SyntheticOracle(pair, links, noise_rate=0.4, seed=6)
        b = SyntheticOracle(pair, links, noise_rate=0.4, seed=6)
        assert np.array_equal(
            a.similarities(SRC_TO_TGT).scores, b.similarities(SRC_TO_TGT).scores
        )

    def test_fit_is_a_noop_but_validates(self, small_twins):
        pair, links = small_twins
        oracle = SyntheticOracle(pair, links, seed=1)
        before = oracle.similarities(SRC_TO_TGT).scores
        oracle.fit(pair, links, epochs=3)
        assert np.array_equal(before, oracle.similarities(SRC_TO_TGT).scores)
        with pytest.raises(ValueError):
            oracle.fit(pair, MappingSet(()), epochs=1)


class TestSimMatrix:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SimMatrix(scores=np.array([[np.nan, 0.0]]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rejects_a_nonfinite_cell_anywhere(self, data):
        n_rows, n_cols = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        scores = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
            size=(n_rows, n_cols))
        cell = data.draw(st.integers(0, n_rows - 1)), data.draw(st.integers(0, n_cols - 1))
        scores[cell] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match="finite"):
            SimMatrix(scores=scores)

    def test_topk_roundtrip_dense(self, tmp_path):
        rng = np.random.default_rng(0)
        dense = SimMatrix(scores=rng.normal(size=(6, 9)))
        path = tmp_path / "top.tsv"
        expected = oracle.write_top_k(path, dense, k=3, fill=-5.0)
        back = read_sim_matrix(path)
        assert isinstance(back, SimMatrix)
        assert np.array_equal(back.scores, expected.scores)
        kept = back.scores != -5.0
        np.testing.assert_allclose(back.scores[kept], dense.scores[kept])
        # argmax survives the truncation
        assert np.array_equal(back.scores.argmax(axis=1), dense.scores.argmax(axis=1))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix_is_finite(self, shape):
        assert SimMatrix(scores=np.zeros(shape)).scores.shape == shape

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_row_slabs_equal_gathered_rows(self, data):
        n_rows, n_cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        seed = data.draw(st.integers(0, 2**32 - 1))
        base = np.random.default_rng(seed).normal(size=(n_cols, n_rows))
        # the transposed view is read from column ranges of `base` in tiles,
        # the C-ordered one row by row
        sims = data.draw(st.sampled_from([
            SimMatrix(scores=base).transposed(),
            SimMatrix(scores=np.ascontiguousarray(base.T))]), label="layout")
        # ascending ids with rows dropped, as the unlabelled rows are, or any order
        ids = data.draw(st.lists(st.integers(0, n_rows - 1), unique=True, max_size=n_rows))
        if data.draw(st.booleans(), label="sorted"):
            ids.sort()
        slab = data.draw(st.integers(1, n_rows + 1), label="slab rows")
        with mock.patch.object(models, "SLAB_BYTES", 8 * n_cols * slab):
            slabs = list(models.row_slabs(sims.scores, ids))
        assert [len(q) for q in slabs] == [len(ids[lo:lo + slab])
                                            for lo in range(0, len(ids), slab)]
        for q in slabs:
            assert q.flags.c_contiguous and q.flags.writeable
            assert not np.shares_memory(q, sims.scores)
        got = np.concatenate(slabs) if slabs else np.zeros((0, n_cols))
        assert same_bits(got, sims.scores[ids])


    @pytest.mark.parametrize("n_cols", [1, 7, 3000, 15_000, models.SLAB_BYTES // 8,
                                        models.SLAB_BYTES // 8 + 1, 10**6])
    def test_slab_rows_fill_the_byte_budget(self, n_cols):
        rows = models.slab_rows(n_cols)
        if 8 * n_cols > models.SLAB_BYTES:
            assert rows == 1
        else:
            assert rows * 8 * n_cols <= models.SLAB_BYTES < (rows + 1) * 8 * n_cols

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_no_slab_exceeds_the_byte_budget(self, data):
        n_rows, n_cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        base = np.arange(float(n_rows * n_cols)).reshape(n_cols, n_rows)
        sims = data.draw(st.sampled_from([base.T, np.ascontiguousarray(base.T)]),
                         label="layout")
        budget = data.draw(st.integers(1, 8 * n_rows * n_cols + 8), label="slab bytes")
        with mock.patch.object(models, "SLAB_BYTES", budget):
            slabs = list(models.row_slabs(sims, np.arange(n_rows)))
        assert sum(len(q) for q in slabs) == n_rows
        for q in slabs:
            # a row wider than the budget is a slab of its own
            assert len(q) == 1 if 8 * n_cols > budget else q.nbytes <= budget


def _fitted_aligner(pair, links):
    model = EmbeddingAligner(seed=1)
    model.fit(pair, links, epochs=1)
    return model


def _external(pair, links):
    rng = np.random.default_rng(0)
    shape = (pair.source.n_entities, pair.target.n_entities)
    return ExternalSimilarityModel(forward=SimMatrix(scores=rng.uniform(size=shape)))


MODEL_BUILDERS = {
    "embedding": _fitted_aligner,
    "oracle": lambda pair, links: SyntheticOracle(pair, links, noise_rate=0.3, seed=3),
    "external": _external,
}


class TestFitArguments:
    """Every model's ``fit`` makes the same argument checks."""

    @pytest.mark.parametrize("epochs", [0, -3])
    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_nonpositive_epochs_rejected(self, small_twins, name, epochs):
        pair, links = small_twins
        model = MODEL_BUILDERS[name](pair, links)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            model.fit(pair, links, epochs=epochs)

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_empty_train_rejected(self, small_twins, name):
        pair, links = small_twins
        model = MODEL_BUILDERS[name](pair, links)
        with pytest.raises(ValueError, match="nonempty"):
            model.fit(pair, MappingSet(()), epochs=1)


class TestReadOnlySimilarities:
    """Every model hands out read-only matrices, the reverse one transposed."""

    @pytest.mark.parametrize("direction", [SRC_TO_TGT, TGT_TO_SRC])
    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_scores_read_only_and_reverse_transposed(self, small_twins, name,
                                                     direction):
        pair, links = small_twins
        model = MODEL_BUILDERS[name](pair, links)
        sims = model.similarities(direction)
        before = sims.scores.copy()
        assert sims.direction == direction
        with pytest.raises(ValueError):
            sims.scores[0, 0] = 7.0
        assert np.array_equal(model.similarities(direction).scores, before)
        assert np.array_equal(model.similarities(TGT_TO_SRC).scores,
                              model.similarities(SRC_TO_TGT).scores.T)
        # one held matrix: neither direction computes or copies its own
        assert np.shares_memory(model.similarities(TGT_TO_SRC).scores,
                                model.similarities(SRC_TO_TGT).scores)
        if name == "oracle":
            own = before if direction == SRC_TO_TGT else before.T
            assert np.array_equal(model._matrix, own)

    @pytest.mark.parametrize("direction", [SRC_TO_TGT, TGT_TO_SRC])
    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_each_direction_built_once(self, small_twins, name, direction):
        # the same object every call: its finiteness is checked once
        pair, links = small_twins
        model = MODEL_BUILDERS[name](pair, links)
        assert model.similarities(direction) is model.similarities(direction)

    def test_transposed_view_flips_direction(self):
        sims = SimMatrix(scores=np.arange(6.0).reshape(2, 3))
        rev = sims.transposed()
        assert rev.direction == TGT_TO_SRC
        assert rev.transposed().direction == SRC_TO_TGT
        assert np.array_equal(rev.scores, sims.scores.T)
        assert np.shares_memory(rev.scores, sims.scores)
        assert not rev.scores.flags.writeable

    def test_external_reverse_file_is_served(self, small_twins):
        pair, links = small_twins
        rng = np.random.default_rng(1)
        reverse = SimMatrix(
            scores=rng.uniform(size=(pair.target.n_entities, pair.source.n_entities)),
            direction=TGT_TO_SRC,
        )
        model = ExternalSimilarityModel(forward=_external(pair, links).forward,
                                        reverse=reverse)
        assert model.similarities(TGT_TO_SRC) is reverse

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_bad_direction_rejected(self, small_twins, name):
        pair, links = small_twins
        with pytest.raises(ValueError, match="bad direction"):
            MODEL_BUILDERS[name](pair, links).similarities("sideways")

    def test_caller_array_stays_writable(self):
        a = np.zeros((2, 3))
        sims = SimMatrix(scores=a)
        assert a.flags.writeable
        assert not sims.scores.flags.writeable
        a[0, 0] = 1.0
        assert sims.scores[0, 0] == 1.0  # a view, not a copy
