"""Knowledge-graph representation and dataset I/O.

Entities and relations are interned to dense integer ids at load time (by
first appearance); all downstream numerics work on ids.  A ``Kg`` is
immutable after construction, so its directed-edge table (``Kg.edges``),
sorted by endpoint pair, is built once, on first use, and never goes stale.

File formats:
  * triples: UTF-8, one ``head<TAB>relation<TAB>tail`` per line (LF or CRLF)
  * links:   UTF-8, one ``source_entity<TAB>target_entity`` per line

Partition sampling uses numpy's ``Generator`` over the PCG64 bit generator
(64-bit, seedable); the shuffle is ``Generator.permutation``.  This is the
pinned PRNG for cross-run reproducibility.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


class KgFormatError(ValueError):
    """Raised for malformed triple/link files."""


def _numbered_rows(path: str | Path, n_fields: int):
    """``(line number, fields)`` of each nonempty line of ``path``; a UTF-8
    byte-order mark is not part of the first line."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields or any(not f for f in fields):
                raise KgFormatError(
                    f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                    f"got {len(fields)}"
                )
            yield lineno, tuple(fields)


@dataclass(frozen=True)
class Kg:
    """One knowledge graph: interned labels and its unique id triples."""

    entity_labels: tuple[str, ...]
    relation_labels: tuple[str, ...]
    triples: tuple[tuple[int, int, int], ...]
    duplicates_dropped: int = 0
    entity_ids: dict[str, int] = field(repr=False, default_factory=dict)
    relation_ids: dict[str, int] = field(repr=False, default_factory=dict)

    @property
    def n_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def n_relations(self) -> int:
        return len(self.relation_labels)

    @cached_property
    def edges(self) -> EdgeTable:
        """This KG's directed-edge table, built on first use."""
        return EdgeTable(*_edge_table(self), self.n_entities)

    @staticmethod
    def from_label_triples(
        triples: list[tuple[str, str, str]],
        extra_entities: tuple[str, ...] = (),
    ) -> "Kg":
        """Build a Kg from string triples, deduplicating exact repeats.

        ``extra_entities`` appends trailing isolated entities (labels already
        interned keep their ids); used for link entities that never appear in
        any triple.
        """
        ent_ids: dict[str, int] = {}
        rel_ids: dict[str, int] = {}
        ent, rel = ent_ids.setdefault, rel_ids.setdefault
        id_triples = [(ent(h, len(ent_ids)), rel(r, len(rel_ids)), ent(t, len(ent_ids)))
                      for h, r, t in triples]
        unique = tuple(dict.fromkeys(id_triples))
        if not unique:
            raise KgFormatError("no triples")
        for label in extra_entities:
            ent(label, len(ent_ids))
        return Kg(
            entity_labels=tuple(ent_ids),
            relation_labels=tuple(rel_ids),
            triples=unique,
            duplicates_dropped=len(id_triples) - len(unique),
            entity_ids=ent_ids,
            relation_ids=rel_ids,
        )


def _edge_table(kg: Kg) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(near, rel, far, ptr)``: every triple in both orientations, ``r``
    read head to tail and ``r + n_relations`` tail to head, sorted stably by
    endpoint pair ``near * n + far``.  ``ptr[e]:ptr[e + 1]`` holds ``e``'s
    edges by far end; one pair's edges run outgoing, then incoming, each in
    triple order.  Factor sums add in this order."""
    flat = np.fromiter(itertools.chain.from_iterable(kg.triples), np.int64,
                       3 * len(kg.triples))
    h, r, t = flat.reshape(-1, 3).T
    near, far = np.concatenate([h, t]), np.concatenate([t, h])
    order = np.argsort(near * kg.n_entities + far, kind="stable")
    ptr = np.concatenate([[0], np.cumsum(np.bincount(near, minlength=kg.n_entities))])
    return near[order], np.concatenate([r, r + kg.n_relations])[order], far[order], ptr


class EdgeTable:
    """One KG's directed-edge table (see ``_edge_table``).  Sorted by
    endpoint pair, it is its own join on pairs: ``bounds[i]:bounds[i + 1]``
    are the edges of the pair ``keys[i]``.

    ``sig[e]`` is a membership filter on ``e``'s neighbours: bit ``f & 63``
    is set for each far end ``f`` of ``e``'s edges.  A pair whose bit is
    clear has no edge, so ``find`` searches only the pairs that pass."""

    def __init__(self, near, rel, far, ptr, n: int):
        self.near, self.rel, self.far, self.ptr, self.n = near, rel, far, ptr, n
        keys = near * n + far
        starts = _run_starts(keys)
        self.keys, self.bounds = keys[starts], np.append(starts, len(keys))
        self.sig = np.zeros(n, np.int64)
        np.bitwise_or.at(self.sig, near, 1 << (far & 63))

    def find(self, near, far) -> tuple[np.ndarray, np.ndarray]:
        """``(pair index, hit)`` per queried pair; ``hit`` is False where
        ``far`` is -1 or no edge joins the pair.  The pair index is defined
        only where ``hit`` is True."""
        keys = near * self.n + far
        bit = self.sig[near]
        bit >>= far & 63
        maybe = np.flatnonzero((far >= 0) & (bit & 1).astype(bool))
        wanted = keys.ravel()[maybe]
        found = np.minimum(np.searchsorted(self.keys, wanted), len(self.keys) - 1)
        pos, hit = np.zeros(keys.shape, np.intp), np.zeros(keys.shape, bool)
        pos.ravel()[maybe] = found
        hit.ravel()[maybe] = self.keys[found] == wanted
        return pos, hit

    def matches(self, near, far) -> tuple[np.ndarray, np.ndarray]:
        """``(query index, edge id)`` per edge joining each queried pair."""
        pos, hit = self.find(near, far)
        q = np.flatnonzero(hit)
        owner, idx = _ranges(self.bounds, pos[q])
        return q[owner], idx


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal sorted ``keys``.
    (``np.unique`` would do, but its first call imports ``numpy.ma``.)"""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(first)


def _ranges(ptr: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(position in ids, index)`` for every index of ``ptr[i]:ptr[i + 1]``
    for each ``i`` in ``ids``."""
    lo, counts = ptr[ids], ptr[ids + 1] - ptr[ids]
    owner = np.repeat(np.arange(len(ids)), counts)
    return owner, np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def _read_triples(path: str | Path) -> list[tuple[str, str, str]]:
    """The label triples of a triple file; ``KgFormatError`` names the file
    when it has none."""
    rows = [fields for _, fields in _numbered_rows(path, 3)]
    if not rows:
        raise KgFormatError(f"{path}: empty triple file")
    return rows  # type: ignore[return-value]


def load_kg(triples_path: str | Path) -> Kg:
    """Load a triple file into a Kg; ids assigned by first appearance.

    Raises ``KgFormatError`` for malformed lines (with line number) or an
    empty file.  Exact duplicate triples are dropped; the count is kept in
    ``Kg.duplicates_dropped``.
    """
    return Kg.from_label_triples(_read_triples(triples_path))


@dataclass(frozen=True)
class KgPair:
    """Source and target graphs of one alignment task."""

    source: Kg
    target: Kg

    def swapped(self) -> "KgPair":
        """Role swap; shares the underlying Kg objects (involution)."""
        return KgPair(source=self.target, target=self.source)


@dataclass(frozen=True)
class MappingSet:
    """Entity pairs between the two KGs, labelled or pseudo.

    ``scores`` optionally carries a per-pair confidence (used by pseudo
    generation for provenance dumps and the one-to-one baseline's held pairs).
    """

    pairs: tuple[tuple[int, int], ...]
    scores: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("duplicate pairs in MappingSet")
        if self.scores is not None and len(self.scores) != len(self.pairs):
            raise ValueError("scores length mismatch")

    def __len__(self) -> int:
        return len(self.pairs)

    def as_set(self) -> set[tuple[int, int]]:
        return set(self.pairs)

    def flipped(self) -> "MappingSet":
        return MappingSet(tuple((t, s) for s, t in self.pairs), self.scores)

    def union(self, other: "MappingSet") -> "MappingSet":
        """This set's pairs, then ``other``'s new ones; no scores."""
        return MappingSet(tuple(dict.fromkeys(self.pairs + other.pairs)))


@dataclass(frozen=True)
class Partition:
    """Random split of ground-truth links into labelled and test sets."""

    labelled: MappingSet
    test: MappingSet
    ratio: float
    seed: int


def partition_mappings(links: MappingSet, ratio: float, seed: int) -> Partition:
    """Shuffle links with PCG64(seed) and take a prefix as labelled data.

    ``|labelled| = round(ratio * |links|)``.  Raises ``ValueError`` for a
    negative seed and when the rounded split would leave either side empty.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0,1), got {ratio}")
    if len(links) < 2:
        raise ValueError("need at least 2 links to partition")
    n_labelled = round(ratio * len(links))
    if n_labelled == 0:
        raise ValueError(f"ratio {ratio} yields 0 labelled pairs")
    if n_labelled == len(links):
        raise ValueError(f"ratio {ratio} yields an empty test set")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(links))
    shuffled = [links.pairs[i] for i in order]
    return Partition(
        labelled=MappingSet(tuple(shuffled[:n_labelled])),
        test=MappingSet(tuple(shuffled[n_labelled:])),
        ratio=ratio,
        seed=seed,
    )


def load_links_file(path: str | Path) -> list[tuple[str, str]]:
    """The ``(source, target)`` label rows of a links file.  Exact repeats
    are kept (callers drop them); a source or target linked to a second,
    different partner raises ``KgFormatError`` naming the line."""
    rows: list[tuple[str, str]] = []
    of_source: dict[str, str] = {}
    of_target: dict[str, str] = {}
    for lineno, (s, t) in _numbered_rows(path, 2):
        for role, label, partner, linked in (("source", s, t, of_source),
                                             ("target", t, s, of_target)):
            first = linked.setdefault(label, partner)
            if first != partner:
                raise KgFormatError(
                    f"{path}:{lineno}: {role} {label!r} is already linked to {first!r}")
        rows.append((s, t))
    if not rows:
        raise KgFormatError(f"{path}: empty links file")
    return rows


def load_dataset(dataset_dir: str | Path) -> tuple[KgPair, MappingSet]:
    """Load a benchmark-layout directory: rel_triples_1/2 + ent_links.

    Link entities that never appear in a triple are interned as isolated
    entities so they can still be ranked by similarity.
    """
    d = Path(dataset_dir)
    for name in ("rel_triples_1", "rel_triples_2", "ent_links"):
        if not (d / name).exists():
            raise KgFormatError(f"missing {name} in {d}")
    t1, t2 = (_read_triples(d / name) for name in ("rel_triples_1", "rel_triples_2"))
    raw_links = load_links_file(d / "ent_links")
    kg1 = Kg.from_label_triples(t1, tuple(s for s, _ in raw_links))
    kg2 = Kg.from_label_triples(t2, tuple(t for _, t in raw_links))
    links = MappingSet(tuple(dict.fromkeys(
        (kg1.entity_ids[s], kg2.entity_ids[t]) for s, t in raw_links)))
    return KgPair(source=kg1, target=kg2), links


def write_links(path: str | Path, mappings: MappingSet) -> None:
    """Write a MappingSet's pairs, as given, in the two-column links format."""
    with open(path, "w", encoding="utf-8") as fh:
        for s, t in mappings.pairs:
            fh.write(f"{s}\t{t}\n")


def write_pseudo_tsv(
    path: str | Path,
    pair: KgPair,
    mappings: MappingSet,
    iteration: int,
    strategy: str,
) -> None:
    """Links format plus provenance columns: iteration, strategy, score."""
    scores = mappings.scores or (float("nan"),) * len(mappings)
    with open(path, "w", encoding="utf-8") as fh:
        for (s, t), score in zip(mappings.pairs, scores):
            fh.write(
                f"{pair.source.entity_labels[s]}\t{pair.target.entity_labels[t]}"
                f"\t{iteration}\t{strategy}\t{score:.6g}\n"
            )


def write_partition(out_dir: str | Path, part: Partition) -> None:
    """Write labelled.tsv, test.tsv and a small key-value manifest."""
    out = Path(out_dir)
    os.makedirs(out, exist_ok=True)
    write_links(out / "labelled.tsv", part.labelled)
    write_links(out / "test.tsv", part.test)
    with open(out / "partition_manifest.txt", "w", encoding="utf-8") as fh:
        fh.write(f"ratio = {part.ratio}\n")
        fh.write(f"seed = {part.seed}\n")
        fh.write(f"n_labelled = {len(part.labelled)}\n")
        fh.write(f"n_test = {len(part.test)}\n")
