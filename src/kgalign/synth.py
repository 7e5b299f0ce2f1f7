"""Synthetic alignment benchmarks: structural twin KG pairs.

The generator samples a random base graph, copies it with relabelled
entities/relations, perturbs a fraction of the copy's edges (drop + fresh
random edges), and emits ground-truth links for the identity
correspondence.  Everything is deterministic under the seed (PCG64).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _random_label_triples(
    rng: np.random.Generator,
    n_entities: int,
    n_triples: int,
    n_relations: int,
    ent_prefix: str,
    rel_prefix: str,
) -> list[tuple[str, str, str]]:
    triples: set[tuple[int, int, int]] = set()
    while len(triples) < n_triples:
        h = int(rng.integers(0, n_entities))
        t = int(rng.integers(0, n_entities))
        if h == t:
            continue
        r = int(rng.integers(0, n_relations))
        triples.add((h, r, t))
    return [
        (f"{ent_prefix}{h}", f"{rel_prefix}{r}", f"{ent_prefix}{t}")
        for h, r, t in sorted(triples)
    ]


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
    base = _random_label_triples(
        rng, n_entities, n_triples, n_relations, ent_prefixes[0], rel_prefixes[0]
    )
    # twin: same structure, relabelled; then drop and add a perturbation share
    twin_idx = [
        (int(h[len(ent_prefixes[0]):]), int(r[len(rel_prefixes[0]):]),
         int(t[len(ent_prefixes[0]):]))
        for h, r, t in base
    ]
    n_perturb = round(perturbation * len(twin_idx))
    keep = rng.permutation(len(twin_idx))[: len(twin_idx) - n_perturb]
    original = set(twin_idx)
    kept = {twin_idx[i] for i in keep.tolist()}
    while len(kept) < len(twin_idx):
        h = int(rng.integers(0, n_entities))
        t = int(rng.integers(0, n_entities))
        if h == t:
            continue
        r = int(rng.integers(0, n_relations))
        if (h, r, t) in original:  # replacements must be genuinely new edges
            continue
        kept.add((h, r, t))
    twin = [
        (f"{ent_prefixes[1]}{h}", f"{rel_prefixes[1]}{r}", f"{ent_prefixes[1]}{t}")
        for h, r, t in sorted(kept)
    ]
    links = [
        (f"{ent_prefixes[0]}{i}", f"{ent_prefixes[1]}{i}") for i in range(n_entities)
    ]
    return base, twin, links


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
