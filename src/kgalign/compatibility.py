"""Relation-statistics estimation and dependency-aware refinement.

The refinement treats current per-entity candidate distributions as a mean
field over a factor model whose factors score, for every source entity, how
strongly its candidate mapping is implied by its neighbors' mappings.  Each
factor multiplies, over pairs of orientation-matched triples around the
entity and its candidate, survival terms built from two PARIS statistics:

* inverse functionality of a (directed) relation — how identifying the
  far endpoint is for the near one, ``|distinct far endpoints| / |distinct
  (head, tail) pairs|``;
* sub-relation probability — how often one KG's relation is mirrored by a
  relation of the other KG between counterpart endpoints, estimated with
  add-one smoothing as ``(support + 1) / (trials + 2)``.

Incoming triples take part as inverse relations: directed relation id
``r + n_relations`` denotes relation ``r`` read tail-to-head, with its own
inverse functionality and sub-relation entries.

All functions here are pure over immutable snapshots (graphs, statistics,
a frozen assignment).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .calibration import ProbRow, _softmax, argmax_lowest_id
from .kg import Kg, KgPair


@dataclass
class Assignment:
    """Frozen counterpart choices for source entities.

    Labelled entries are ground truth and are never touched inside an
    iteration; the rest are current predictions.
    """

    mapping: dict[int, int]
    labelled: set[int] = field(default_factory=set)

    def __post_init__(self):
        missing = self.labelled - set(self.mapping)
        if missing:
            raise ValueError(f"labelled entities without assignment: {sorted(missing)[:5]}")


def relation_inverse_functionality(kg: Kg) -> dict[int, float]:
    """Inverse functionality for every directed relation of ``kg``.

    For the base orientation this is distinct tails over distinct pairs;
    for the inverse orientation, distinct heads over distinct pairs.
    Duplicate triples never occur after load, but the counts are taken over
    sets so pre-dedup inputs would give identical values.
    """
    pairs: dict[int, set[tuple[int, int]]] = defaultdict(set)
    heads: dict[int, set[int]] = defaultdict(set)
    tails: dict[int, set[int]] = defaultdict(set)
    for h, r, t in kg.triples:
        pairs[r].add((h, t))
        heads[r].add(h)
        tails[r].add(t)
    inv_fun: dict[int, float] = {}
    for r, pr in pairs.items():
        inv_fun[r] = len(tails[r]) / len(pr)
        inv_fun[r + kg.n_relations] = len(heads[r]) / len(pr)
    return inv_fun


@dataclass
class RelationStats:
    """PARIS statistics for one orientation of a KG pair.

    ``subrel_*`` maps are sparse over co-observed directed relation pairs;
    the accessors apply add-one smoothing, so a pair that was never trialed
    reads as the pure prior 1/2 and a trialed pair without support reads as
    ``1 / (trials + 2)``.
    """

    src_inv_fun: dict[int, float]
    tgt_inv_fun: dict[int, float]
    # Pr(target relation is a sub-relation of source relation)
    subrel_tgt_in_src: dict[tuple[int, int], float] = field(default_factory=dict)
    # Pr(source relation is a sub-relation of target relation)
    subrel_src_in_tgt: dict[tuple[int, int], float] = field(default_factory=dict)
    tgt_trials: dict[int, int] = field(default_factory=dict)
    src_trials: dict[int, int] = field(default_factory=dict)

    def prob_tgt_in_src(self, r_tgt: int, r_src: int) -> float:
        got = self.subrel_tgt_in_src.get((r_tgt, r_src))
        if got is not None:
            return got
        return 1.0 / (self.tgt_trials.get(r_tgt, 0) + 2)

    def prob_src_in_tgt(self, r_src: int, r_tgt: int) -> float:
        got = self.subrel_src_in_tgt.get((r_src, r_tgt))
        if got is not None:
            return got
        return 1.0 / (self.src_trials.get(r_src, 0) + 2)


def estimate_relation_stats(kg_pair: KgPair, assignment: Assignment) -> RelationStats:
    """Estimate inverse functionalities and sub-relation probabilities.

    Sub-relation trials for a source relation count its directed triples
    whose endpoints both carry assignments; support counts those mirrored by
    an orientation-matched triple between the assigned counterparts.  The
    target-side statistics use the inverted assignment (a set-valued inverse:
    predictions need not be injective).
    """
    fwd = assignment.mapping
    rev: dict[int, set[int]] = defaultdict(set)
    for e, t in fwd.items():
        rev[t].add(e)

    src, tgt = kg_pair.source, kg_pair.target

    src_trials: dict[int, int] = defaultdict(int)
    src_support: dict[tuple[int, int], int] = defaultdict(int)
    for h in fwd:
        for t, rhos in src.adjacency[h].items():
            if t not in fwd:
                continue
            mirrored = tgt.adjacency[fwd[h]].get(fwd[t], ())
            for rho in rhos:
                src_trials[rho] += 1
                for rho_t in mirrored:
                    src_support[(rho, rho_t)] += 1

    tgt_trials: dict[int, int] = defaultdict(int)
    tgt_support: dict[tuple[int, int], int] = defaultdict(int)
    for h in rev:
        for t, rhos in tgt.adjacency[h].items():
            if t not in rev:
                continue
            mirrored_src: set[int] = set()
            for a, b in itertools.product(rev[h], rev[t]):
                mirrored_src.update(src.adjacency[a].get(b, ()))
            for rho in rhos:
                tgt_trials[rho] += 1
                for rho_s in mirrored_src:
                    tgt_support[(rho, rho_s)] += 1

    return RelationStats(
        src_inv_fun=relation_inverse_functionality(src),
        tgt_inv_fun=relation_inverse_functionality(tgt),
        subrel_tgt_in_src={
            (rt, rs): (n + 1) / (tgt_trials[rt] + 2)
            for (rt, rs), n in tgt_support.items()
        },
        subrel_src_in_tgt={
            (rs, rt): (n + 1) / (src_trials[rs] + 2)
            for (rs, rt), n in src_support.items()
        },
        tgt_trials=dict(tgt_trials),
        src_trials=dict(src_trials),
    )


def local_compatibility(
    e: int,
    candidate: int,
    assignment: Assignment,
    kg_pair: KgPair,
    stats: RelationStats,
) -> float:
    """Support score in [0, 1) for mapping ``e`` to ``candidate``.

    One minus the product, over orientation-matched triple pairs around
    ``e`` and ``candidate`` whose far endpoints are mapped to each other, of
    the two survival terms (one per sub-relation orientation).  Neighbors
    without an assignment contribute nothing; with no matched pair at all
    the score is 0.
    """
    return _local_compatibility(
        e, candidate, assignment.mapping.get, kg_pair, stats
    )


def _local_compatibility(e, candidate, assigned, kg_pair, stats) -> float:
    cand_adj = kg_pair.target.adjacency[candidate]
    survivor = 1.0
    for n, rhos_s in kg_pair.source.adjacency[e].items():
        y_n = candidate if n == e else assigned(n)
        if y_n is None:
            continue
        rhos_t = cand_adj.get(y_n, ())
        for rho_s in rhos_s:
            for rho_t in rhos_t:
                survivor *= 1.0 - stats.prob_tgt_in_src(rho_t, rho_s) * stats.src_inv_fun[rho_s]
                survivor *= 1.0 - stats.prob_src_in_tgt(rho_s, rho_t) * stats.tgt_inv_fun[rho_t]
    return 1.0 - survivor


def compatibility_sums(
    u: int,
    candidates,
    assignment: Assignment,
    kg_pair: KgPair,
    stats: RelationStats,
) -> np.ndarray:
    """For each candidate ``c``: the sum of factor scores over all factors
    containing ``u``, evaluated with ``u`` mapped to ``c`` and everything
    else frozen.  The factors containing ``u`` are anchored at ``u`` and at
    its one-hop neighbors; the others cancel in the conditional and are
    never evaluated."""
    anchors = (u,) + tuple(n for n in kg_pair.source.neighbors(u) if n != u)
    sums = np.zeros(len(candidates))
    for i, c in enumerate(candidates):
        def assigned(n, _c=c):
            return _c if n == u else assignment.mapping.get(n)

        total = 0.0
        for e in anchors:
            y_e = c if e == u else assignment.mapping.get(e)
            if y_e is None:
                continue
            total += _local_compatibility(e, y_e, assigned, kg_pair, stats)
        sums[i] = total
    return sums


def conditional_distribution(
    u: int,
    candidates,
    assignment: Assignment,
    kg_pair: KgPair,
    stats: RelationStats,
) -> ProbRow:
    """Conditional of ``u``'s counterpart given its Markov blanket.

    Softmax over the candidate set of the per-candidate factor-score sums.
    """
    sums = compatibility_sums(u, candidates, assignment, kg_pair, stats)
    return _softmax_row(u, candidates, sums)


def _softmax_row(u: int, candidates, sums: np.ndarray) -> ProbRow:
    if len(candidates) == 0:
        raise ValueError("candidates must be nonempty")
    return ProbRow(entity=u, cand_ids=tuple(candidates), probs=_softmax(sums))


def build_assignment(
    q_matrix: np.ndarray,
    row_ids,
    col_ids,
    labelled: dict[int, int],
) -> Assignment:
    """Labelled truths plus the per-row argmax of the current distributions
    (the single-sample approximation of the expectation)."""
    col_ids = list(col_ids)
    mapping = dict(labelled)
    for i, u in enumerate(row_ids):
        if u in labelled:
            continue
        mapping[u] = argmax_lowest_id(col_ids, q_matrix[i])
    return Assignment(mapping=mapping, labelled=set(labelled))


def refine_rows(
    q_matrix: np.ndarray,
    row_ids,
    col_ids,
    kg_pair: KgPair,
    stats: RelationStats,
    assignment: Assignment,
    top_k: int = 10,
    debug_sink: list | None = None,
) -> list[ProbRow]:
    """One block update of all unlabelled rows against a frozen assignment.

    Every row independently keeps its ``top_k`` candidates by current
    probability and receives the Markov-blanket conditional over them.  The
    caller's ``assignment`` (see ``build_assignment``) stays fixed for the
    whole block, so the result does not depend on the iteration order over
    rows.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    q_matrix = np.asarray(q_matrix, dtype=np.float64)
    col_arr = np.asarray(list(col_ids))

    out: list[ProbRow] = []
    k = min(top_k, q_matrix.shape[1])
    for i, u in enumerate(row_ids):
        row = q_matrix[i]
        # top-k by probability, ties to the lower candidate id
        order = np.lexsort((col_arr, -row))[:k]
        cands = tuple(int(col_arr[j]) for j in order)
        sums = compatibility_sums(u, cands, assignment, kg_pair, stats)
        refined = _softmax_row(u, cands, sums)
        out.append(refined)
        if debug_sink is not None:
            for c, s, p in zip(cands, sums, refined.probs):
                debug_sink.append((u, c, float(s), float(p)))
    return out

