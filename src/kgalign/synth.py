"""Synthetic alignment benchmarks: structural twin KG pairs.

The generator samples a random base graph, copies it with relabelled
entities/relations, perturbs a fraction of the copy's edges (drop + fresh
random edges), and emits ground-truth links for the identity
correspondence.  Everything is deterministic under the seed (PCG64).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _draw_edges(
    rng: np.random.Generator,
    edges: set[tuple[int, int, int]],
    size: int,
    n_entities: int,
    n_relations: int,
    forbidden: frozenset | set = frozenset(),
) -> set[tuple[int, int, int]]:
    """Add random edges ``(h, r, t)`` with ``h != t``, none in ``forbidden``,
    to ``edges`` until it holds ``size`` of them."""
    while len(edges) < size:
        h = int(rng.integers(0, n_entities))
        t = int(rng.integers(0, n_entities))
        if h == t:
            continue
        r = int(rng.integers(0, n_relations))
        if (h, r, t) not in forbidden:
            edges.add((h, r, t))
    return edges


def twin_label_data(
    n_entities: int = 300,
    n_triples: int = 1200,
    n_relations: int = 8,
    perturbation: float = 0.1,
    seed: int = 0,
    ent_prefixes: tuple[str, str] = ("a", "b"),
    rel_prefixes: tuple[str, str] = ("r", "s"),
) -> tuple[list, list, list]:
    """String triples for both graphs plus ground-truth label links."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = sorted(_draw_edges(rng, set(), n_triples, n_entities, n_relations))
    # twin: same structure, relabelled; then drop and add a perturbation share
    n_perturb = round(perturbation * len(base))
    keep = rng.permutation(len(base))[: len(base) - n_perturb]
    # replacements must be genuinely new edges
    twin = sorted(_draw_edges(rng, {base[i] for i in keep.tolist()}, len(base),
                              n_entities, n_relations, forbidden=set(base)))
    base_labels, twin_labels = (
        [(f"{ent}{h}", f"{rel}{r}", f"{ent}{t}") for h, r, t in triples]
        for triples, ent, rel in zip((base, twin), ent_prefixes, rel_prefixes))
    links = [
        (f"{ent_prefixes[0]}{i}", f"{ent_prefixes[1]}{i}") for i in range(n_entities)
    ]
    return base_labels, twin_labels, links


def write_twin_dataset(
    out_dir: str | Path,
    n_entities: int = 300,
    n_triples: int = 1200,
    n_relations: int = 8,
    perturbation: float = 0.1,
    seed: int = 0,
    ent_prefixes: tuple[str, str] = ("a", "b"),
    rel_prefixes: tuple[str, str] = ("r", "s"),
    n_links: int | None = None,
) -> Path:
    """Write a benchmark-layout dataset directory; returns its path."""
    base, twin, links = twin_label_data(
        n_entities, n_triples, n_relations, perturbation, seed,
        ent_prefixes, rel_prefixes,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, triples in (("rel_triples_1", base), ("rel_triples_2", twin)):
        with open(out / name, "w", encoding="utf-8") as fh:
            for h, r, t in triples:
                fh.write(f"{h}\t{r}\t{t}\n")
    with open(out / "ent_links", "w", encoding="utf-8") as fh:
        for s, t in links[: n_links or len(links)]:
            fh.write(f"{s}\t{t}\n")
    return out
