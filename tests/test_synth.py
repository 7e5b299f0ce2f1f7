import hashlib

import pytest

from kgalign.kg import load_dataset
from kgalign.synth import twin_label_data, write_twin_dataset

# sha256 of rel_triples_1, rel_triples_2 and ent_links: the benchmark's
# shapes (dataset seed 11, and 14 for its tiny self-test), the tests' shared
# twin and the defaults.  A generator change that moves a byte fails here.
PINNED_TWINS = [
    ("perfbench-n300", dict(n_entities=300, n_triples=1200, n_relations=8, seed=11), (
        "322a0bd54adc8c185a1f57d3972b0ccd91b52f1ae33e94b548bad2576c063cf8",
        "dd59810f13a84e5b717cccdf111edd7a3abd41bcf609a9357aa07bcde2e94784",
        "999cee35e99f8f5a8de70d7d88ab34d77abfc461c3f8dea27cbf01ddcd07d01f",
    )),
    ("perfbench-n3000", dict(n_entities=3000, n_triples=12000, n_relations=8, seed=11), (
        "2be52fdcfb0532afd5490ffdb4a3dcc36e1858200fa967dab140863ec224f997",
        "93108f48f7342333ab9a3abfac1732868cac7c1d27e3c42196420c223e7de252",
        "68c78c9dd278124c11cecfdbeb9c8219bae4eb1f705108954500c63274a6abc7",
    )),
    ("perfbench-tiny", dict(n_entities=80, n_triples=320, n_relations=8, seed=14), (
        "9a0041bf7a2cb3c00ffdd1ba55e680d0d095bc629d453f74ffc1d99eed6a61ba",
        "8a562652b1338040ef42b71fc356888852baceea5e5313ed5e67db7ee5083025",
        "48700c2482881f7a9721fc2317cfc28f5423393adac39755bbbbf48a8f170c8f",
    )),
    ("conftest", dict(n_entities=80, n_triples=320, n_relations=5, seed=11), (
        "91a676c5ad29343f8b799db0513aed845768a2bf4d495f61f107333a36379a27",
        "cf1ad729e6d1f9d7259e6a4a062138627f275133d37ae154035dac36fcb49930",
        "48700c2482881f7a9721fc2317cfc28f5423393adac39755bbbbf48a8f170c8f",
    )),
    ("defaults", dict(seed=0), (
        "a8d2c39f3b70c97da919ab901e26b37f7afe78d6793a681d8dcf78ce27770c3a",
        "0dd98983fac56c16db4c136006d2c95f3ad96025dc6a3d02e241c8f2d93ecf1d",
        "999cee35e99f8f5a8de70d7d88ab34d77abfc461c3f8dea27cbf01ddcd07d01f",
    )),
]


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


@pytest.mark.parametrize("shape, digests", [p[1:] for p in PINNED_TWINS],
                         ids=[p[0] for p in PINNED_TWINS])
def test_written_bytes_are_pinned(tmp_path, shape, digests):
    out = write_twin_dataset(tmp_path, **shape)
    assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("rel_triples_1", "rel_triples_2", "ent_links")) == digests
