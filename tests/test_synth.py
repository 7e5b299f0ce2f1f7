from kgalign.kg import load_dataset
from kgalign.synth import twin_label_data, write_twin_dataset


class TestTwinGenerator:
    def test_sizes(self, tmp_path):
        pair, links = load_dataset(write_twin_dataset(
            tmp_path, n_entities=50, n_triples=200, n_relations=4, seed=0))
        assert pair.source.n_entities == 50
        assert pair.target.n_entities == 50
        assert len(pair.source.triples) == 200
        assert len(pair.target.triples) == 200
        assert len(links) == 50

    def test_deterministic(self):
        a = twin_label_data(n_entities=30, n_triples=90, seed=5)
        b = twin_label_data(n_entities=30, n_triples=90, seed=5)
        assert a == b

    def test_perturbation_share(self):
        base, twin, _ = twin_label_data(
            n_entities=40, n_triples=100, n_relations=3, perturbation=0.1, seed=1
        )
        base_idx = {(h[1:], r[1:], t[1:]) for h, r, t in base}
        twin_idx = {(h[1:], r[1:], t[1:]) for h, r, t in twin}
        changed = len(twin_idx - base_idx)
        assert changed == 10  # exactly round(0.1 * 100) replaced edges

    def test_zero_perturbation_is_isomorphic_copy(self):
        base, twin, _ = twin_label_data(
            n_entities=30, n_triples=80, perturbation=0.0, seed=2
        )
        assert {(h[1:], r[1:], t[1:]) for h, r, t in base} == {
            (h[1:], r[1:], t[1:]) for h, r, t in twin
        }

    def test_written_dataset_loads(self, tmp_path):
        out = write_twin_dataset(tmp_path / "ds", n_entities=25, n_triples=60,
                                 n_relations=3, seed=3, n_links=20)
        pair, links = load_dataset(out)
        assert len(links) == 20
        assert pair.source.n_entities >= 20
