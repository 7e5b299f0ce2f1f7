import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign.compatibility import compatibility_sums, estimate_relation_stats
from kgalign.kg import (
    Kg,
    KgFormatError,
    KgPair,
    MappingSet,
    load_dataset,
    load_kg,
    partition_mappings,
)
from oracle import assignment_array, kg_from_label_triples, neighbors, random_kg


def two_hop(kg: Kg, u: int) -> set[int]:
    """``u`` plus everything within two undirected hops: the union of the
    factor scopes ``{e} | neighbors(e)`` that contain ``u``."""
    members = {u}
    for n in neighbors(kg, u):
        members.add(n)
        members.update(neighbors(kg, n))
    return members


def write_triples(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestLoadKg:
    def test_basic_counts(self, tmp_path):
        p = write_triples(tmp_path / "t.tsv", ["a\tr\tb", "a\tr\tc"])
        kg = load_kg(p)
        assert kg.n_entities == 3
        assert kg.n_relations == 1
        assert len(kg.triples) == 2

    def test_duplicate_lines_deduplicated(self, tmp_path):
        p = write_triples(tmp_path / "t.tsv", ["a\tr\tb", "a\tr\tb"])
        kg = load_kg(p)
        assert len(kg.triples) == 1
        assert kg.duplicates_dropped == 1

    def test_crlf_and_blank_lines(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_bytes(b"a\tr\tb\r\n\r\nb\tr\tc\n")
        kg = load_kg(p)
        assert len(kg.triples) == 2

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = write_triples(tmp_path / "t.tsv", ["a\tr\tb", "broken line"])
        with pytest.raises(KgFormatError, match=":2"):
            load_kg(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write_triples(tmp_path / "t.tsv", [])
        with pytest.raises(KgFormatError):
            load_kg(p)

    def test_dbp15k_excerpt_entity_count(self, dbp_sample_dir):
        # oracle: count distinct head/tail labels straight off the text
        labels = set()
        with open(dbp_sample_dir / "rel_triples_1", encoding="utf-8") as fh:
            for line in fh:
                h, _, t = line.rstrip("\n").split("\t")
                labels.update((h, t))
        kg = load_kg(dbp_sample_dir / "rel_triples_1")
        assert kg.n_entities == len(labels)

    @settings(max_examples=200, deadline=None)
    @given(
        triples=st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("rs"),
                                   st.sampled_from("abcd")), min_size=1, max_size=12),
        extra=st.lists(st.sampled_from("abcdxyz"), max_size=6),
    )
    def test_interning_matches_reference(self, triples, extra):
        # repeats, self-loops and extra labels that already occur or repeat
        kg = Kg.from_label_triples(triples, extra_entities=tuple(extra))
        want = kg_from_label_triples(triples, extra_entities=tuple(extra))
        assert kg == want
        assert list(kg.entity_ids.items()) == list(want.entity_ids.items())
        assert list(kg.relation_ids.items()) == list(want.relation_ids.items())

    def test_roundtrip_triples(self, tmp_path):
        lines = ["a\tr\tb", "b\tq\tc", "a\tr\tb", "c\tr\ta"]
        kg = load_kg(write_triples(tmp_path / "t.tsv", lines))
        regenerated = {
            (kg.entity_labels[h], kg.relation_labels[r], kg.entity_labels[t])
            for h, r, t in kg.triples
        }
        assert regenerated == {tuple(l.split("\t")) for l in lines}


class TestPartition:
    def make_links(self, n):
        return MappingSet(tuple((i, i) for i in range(n)))

    def test_thirty_percent_of_15000(self):
        part = partition_mappings(self.make_links(15000), 0.30, seed=1)
        assert len(part.labelled) == 4500
        assert len(part.test) == 10500

    def test_one_percent_of_15000(self):
        part = partition_mappings(self.make_links(15000), 0.01, seed=1)
        assert len(part.labelled) == 150

    def test_deterministic(self):
        links = self.make_links(200)
        a = partition_mappings(links, 0.2, seed=9)
        b = partition_mappings(links, 0.2, seed=9)
        assert a.labelled.pairs == b.labelled.pairs
        assert a.test.pairs == b.test.pairs

    @pytest.mark.parametrize("ratio", [0.01, 0.05, 0.1, 0.2, 0.3])
    def test_disjoint_and_exhaustive(self, ratio):
        links = self.make_links(500)
        part = partition_mappings(links, ratio, seed=4)
        lab, test = part.labelled.as_set(), part.test.as_set()
        assert not lab & test
        assert lab | test == links.as_set()
        assert len(part.labelled) == round(ratio * 500)

    def test_zero_labelled_rejected(self):
        with pytest.raises(ValueError, match="0 labelled"):
            partition_mappings(self.make_links(20), 0.01, seed=0)

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError, match="test"):
            partition_mappings(self.make_links(2), 0.9, seed=0)

    def test_bad_ratio_rejected(self):
        for ratio in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                partition_mappings(self.make_links(10), ratio, seed=0)


class TestNeighborhoods:
    def test_triangle_factor_subset(self):
        kg = Kg.from_label_triples([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
        a = kg.entity_ids["a"]
        assert {a} | set(neighbors(kg, a)) == {kg.entity_ids[x] for x in "abc"}

    def test_isolated_entity(self):
        kg = Kg.from_label_triples([("a", "r", "b")], extra_entities=("z",))
        z = kg.entity_ids["z"]
        assert neighbors(kg, z) == ()
        assert two_hop(kg, z) == {z}

    def test_chain_counts_both_directions(self, chain_kg):
        ids = chain_kg.entity_ids
        assert neighbors(chain_kg, ids["b"]) == tuple(sorted((ids["a"], ids["c"])))

    def test_chain_markov_blanket(self, chain_kg):
        a = chain_kg.entity_ids["a"]
        assert two_hop(chain_kg, a) == {chain_kg.entity_ids[x] for x in "abc"}

    def test_star_markov_blanket(self):
        kg = Kg.from_label_triples(
            [("u", "r", "l1"), ("u", "r", "l2"), ("l3", "r", "u")]
        )
        assert two_hop(kg, kg.entity_ids["u"]) == {
            kg.entity_ids[x] for x in ("u", "l1", "l2", "l3")
        }

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reassigning_outside_two_hops_leaves_sums_unchanged(self, data):
        pair = KgPair(random_kg(data, "a", max_entities=12), random_kg(data, "b"))
        n_src, n_tgt = pair.source.n_entities, pair.target.n_entities
        mapping = data.draw(st.dictionaries(
            st.integers(0, n_src - 1), st.integers(0, n_tgt - 1)))
        assignment = assignment_array(mapping, n_src)
        stats = estimate_relation_stats(pair, assignment)
        u = data.draw(st.integers(0, n_src - 1))
        cands = tuple(range(n_tgt))
        before = compatibility_sums(u, cands, assignment, pair, stats)
        for v in sorted(set(range(n_src)) - two_hop(pair.source, u)):
            for moved in (None, data.draw(st.integers(0, n_tgt - 1))):
                changed = dict(mapping)
                changed.pop(v, None)
                if moved is not None:
                    changed[v] = moved
                after = compatibility_sums(
                    u, cands, assignment_array(changed, n_src), pair, stats
                )
                assert np.array_equal(before, after)


class TestKgPair:
    def test_swap_is_involution(self, mirror_pair):
        swapped = mirror_pair.swapped()
        assert swapped.source is mirror_pair.target
        assert swapped.swapped() == mirror_pair

    def test_mapping_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            MappingSet(((0, 1), (0, 1)))

    def test_union_keeps_labelled_pairs(self):
        a = MappingSet(((0, 1), (2, 3)))
        b = MappingSet(((2, 3), (4, 5)))
        merged = a.union(b)
        assert merged.pairs == ((0, 1), (2, 3), (4, 5))


class TestLoadDataset:
    def test_fixture_loads(self, dbp_sample_dir):
        pair, links = load_dataset(dbp_sample_dir)
        assert pair.source.n_entities >= 40
        assert pair.target.n_entities >= 40
        assert len(links) == 40

    def test_byte_order_marks_are_not_label_text(self, dbp_sample_dir, tmp_path):
        # a UTF-8 BOM before each file must not make a phantom first entity
        d = tmp_path / "bom"
        d.mkdir()
        for name in ("rel_triples_1", "rel_triples_2", "ent_links"):
            (d / name).write_bytes(b"\xef\xbb\xbf" + (dbp_sample_dir / name).read_bytes())
        (pair, links), (want_pair, want_links) = load_dataset(d), load_dataset(dbp_sample_dir)
        assert pair == want_pair
        assert links == want_links

    def test_link_only_entities_interned(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "rel_triples_1").write_text("a\tr\tb\n", encoding="utf-8")
        (d / "rel_triples_2").write_text("x\ts\ty\n", encoding="utf-8")
        (d / "ent_links").write_text("a\tx\nq\tz\n", encoding="utf-8")
        pair, links = load_dataset(d)
        # q and z appear only in the links; they get ids but no triples
        assert pair.source.n_entities == 3
        assert pair.target.n_entities == 3
        assert len(links) == 2
