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
a frozen assignment).  Factor scores come from ``_FactorModel``, the model
compiled to arrays on every call; ``tests/oracle.py`` keeps the readable
triple-scanning version they are checked against.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .calibration import ProbRow, _softmax, argmax_lowest_id
from .kg import Kg, KgPair

# rows per refinement block: bounds the (rows x columns) top-k temporaries
_ROW_BLOCK = 256


@dataclass
class Assignment:
    """Frozen counterpart choices for source entities: labelled truths,
    which an iteration never touches, plus the current predictions."""

    mapping: dict[int, int]


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
    """Support score in [0, 1] for mapping ``e`` to ``candidate``.

    One minus the product, over orientation-matched triple pairs around
    ``e`` and ``candidate`` whose far endpoints are mapped to each other, of
    the two survival terms (one per sub-relation orientation).  Neighbors
    without an assignment contribute nothing; with no matched pair at all
    the score is 0.
    """
    f = _FactorModel(kg_pair, stats, assignment)
    log_surv = f.own_log_survival(np.array([e]), np.array([[candidate]]))
    return float(1.0 - np.exp(log_surv[0, 0]))


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
    cands = np.asarray(candidates, dtype=np.int64).reshape(1, -1)
    f = _FactorModel(kg_pair, stats, assignment)
    return f.factor_sums(np.array([u]), cands)[0]


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
    if len(candidates) == 0:
        raise ValueError("candidates must be nonempty")
    sums = compatibility_sums(u, candidates, assignment, kg_pair, stats)
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
    return Assignment(mapping=mapping)


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
    col_arr = np.asarray(list(col_ids), dtype=np.int64)
    row_ids = list(row_ids)
    rows = np.asarray(row_ids, dtype=np.int64)
    k = min(top_k, q_matrix.shape[1])
    if k == 0 and row_ids:
        raise ValueError("candidates must be nonempty")

    model = _FactorModel(kg_pair, stats, assignment)
    by_id = np.argsort(col_arr, kind="stable")
    blocks = []
    for lo in range(0, len(rows), _ROW_BLOCK):
        block = rows[lo:lo + _ROW_BLOCK]
        # np.take keeps the block C-ordered; q[:, by_id] would not be
        q_block = np.take(q_matrix[lo:lo + len(block)], by_id, axis=1)
        cands = _top_candidates(q_block, col_arr[by_id], k)
        sums = model.factor_sums(block, cands)
        blocks.append((row_ids[lo:lo + _ROW_BLOCK], cands.tolist(), sums, _softmax(sums)))

    out: list[ProbRow] = []
    for block_ids, cands, sums, probs in blocks:
        for u, c, s, p in zip(block_ids, cands, sums, probs):
            out.append(ProbRow(entity=u, cand_ids=tuple(c), probs=p))
            if debug_sink is not None:
                debug_sink.extend(
                    (u, ci, float(si), float(pi)) for ci, si, pi in zip(c, s, p))
    return out


def _top_candidates(q: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``q``, whose columns hold the ascending ``ids``, the ids of
    its ``k`` most probable columns, by descending probability with ties to
    the lower id."""
    kth = np.partition(q, q.shape[1] - k, axis=1)[:, -k]
    rr, cc = np.nonzero(q >= kth[:, None])
    vals = q[rr, cc]
    tied = vals == kth[rr]
    # every value above the k-th is kept; the ties at it fill the rest,
    # lowest ids first.  They can be most of a row where the softmax
    # underflows to 0, so they are ranked in place, not sorted
    ti = np.flatnonzero(tied)
    rank = np.arange(len(ti)) - np.searchsorted(rr[ti], np.arange(len(q)))[rr[ti]]
    keep = ~tied
    keep[ti] = rank < (k - np.bincount(rr[~tied], minlength=len(q)))[rr[ti]]
    rr, cc, vals = rr[keep], cc[keep], vals[keep]
    order = np.lexsort((cc, -vals, rr))
    return ids[cc[order]].reshape(len(q), k)


def _directed_edges(kg: Kg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(near, relation, far)`` for every triple in both orientations:
    ``r`` read head to tail, ``r + n_relations`` tail to head."""
    flat = np.fromiter(itertools.chain.from_iterable(kg.triples), np.int64,
                       3 * len(kg.triples))
    h, r, t = flat.reshape(-1, 3).T
    return (np.concatenate([h, t]), np.concatenate([r, r + kg.n_relations]),
            np.concatenate([t, h]))


def _log_survival_table(stats: RelationStats, n_src: int, n_tgt: int) -> np.ndarray:
    """``L[rho_s, rho_t]``: the log of both survival terms of one matched
    pair of directed relations, ``-inf`` where a term is 0."""
    src_if = np.array([stats.src_inv_fun[r] for r in range(n_src)])
    tgt_if = np.array([stats.tgt_inv_fun[r] for r in range(n_tgt)])
    # the smoothing fallbacks of prob_tgt_in_src / prob_src_in_tgt
    tgt_trials = np.array([stats.tgt_trials.get(r, 0) for r in range(n_tgt)])
    src_trials = np.array([stats.src_trials.get(r, 0) for r in range(n_src)])
    p_ts = np.tile(1.0 / (tgt_trials + 2), (n_src, 1))
    p_st = np.tile((1.0 / (src_trials + 2))[:, None], (1, n_tgt))
    for (rt, rs), p in stats.subrel_tgt_in_src.items():
        if rs < n_src and rt < n_tgt:
            p_ts[rs, rt] = p
    for (rs, rt), p in stats.subrel_src_in_tgt.items():
        if rs < n_src and rt < n_tgt:
            p_st[rs, rt] = p
    with np.errstate(divide="ignore"):
        return np.log(1.0 - p_ts * src_if[:, None]) + np.log(1.0 - p_st * tgt_if)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal sorted ``keys``.
    (``np.unique`` would do, but its first call imports ``numpy.ma``.)"""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(first)


def _row_sums(owner: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of ``vals`` into ``n`` rows by ``owner``, adding each
    output row's contributions in input order."""
    k = vals.shape[1]
    idx = (owner[:, None] * k + np.arange(k)).ravel()
    return np.bincount(idx, vals.ravel(), minlength=n * k).reshape(n, k)


class _FactorModel:
    """The factor model of one assignment compiled to arrays.

    The source KG's directed edges are grouped by near endpoint
    (``ptr``, ``rel``, ``far``), and ``y[e]`` is the counterpart assigned to
    source entity ``e`` or -1.  ``table[i, rho_s]`` sums the log survival of
    source relation ``rho_s`` against every directed target relation joining
    the target pair ``pair_keys[i] = y * n_tgt + y2`` (sorted).  A factor's
    log survival is a sum of ``table`` entries over its source edges, so
    ``1 - exp(sum)`` is its score.
    """

    def __init__(self, kg_pair: KgPair, stats: RelationStats, assignment: Assignment):
        src, tgt = kg_pair.source, kg_pair.target
        near, rel, far = _directed_edges(src)
        order = np.argsort(near, kind="stable")
        self.rel, self.far = rel[order], far[order]
        self.ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(near, minlength=src.n_entities))])
        self.y = np.full(src.n_entities, -1, dtype=np.int64)
        mapping = assignment.mapping
        self.y[np.fromiter(mapping.keys(), np.int64, len(mapping))] = np.fromiter(
            mapping.values(), np.int64, len(mapping))

        log_surv = _log_survival_table(stats, 2 * src.n_relations, 2 * tgt.n_relations)
        t_near, t_rel, t_far = _directed_edges(tgt)
        self.n_tgt = tgt.n_entities
        keys = t_near * self.n_tgt + t_far
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = _run_starts(keys)
        self.pair_keys = keys[starts]
        self.table = np.add.reduceat(log_surv.T[t_rel[order]], starts, axis=0)

    def edges_of(self, ents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(position in ents, edge id)`` for every edge near each entity."""
        lo = self.ptr[ents]
        counts = self.ptr[ents + 1] - lo
        owner = np.repeat(np.arange(len(ents)), counts)
        edge = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        return owner, edge

    def edge_log_survival(self, rel, y_near, y_far) -> np.ndarray:
        """Log survival of source edges with relation ``rel`` whose
        endpoints map to ``y_near`` and ``y_far`` (0 where ``y_far`` is -1
        or no target relation joins the pair); broadcasts."""
        rel, y_near, y_far = np.broadcast_arrays(rel, y_near, y_far)
        keys = y_near * self.n_tgt + y_far
        pos = np.minimum(np.searchsorted(self.pair_keys, keys), len(self.pair_keys) - 1)
        hit = (y_far >= 0) & (self.pair_keys[pos] == keys)
        out = np.zeros(keys.shape)
        out[hit] = self.table[pos[hit], rel[hit]]
        return out

    def own_log_survival(self, rows: np.ndarray, cands: np.ndarray) -> np.ndarray:
        """``(len(rows), k)``: log survival of the factor anchored at each
        row's entity ``u`` with ``u`` mapped to each of its candidates."""
        owner, edge = self.edges_of(rows)
        far = self.far[edge]
        c = cands[owner]
        y_far = np.where((far == rows[owner])[:, None], c, self.y[far][:, None])
        vals = self.edge_log_survival(self.rel[edge][:, None], c, y_far)
        return _row_sums(owner, vals, len(rows))

    def factor_sums(self, rows: np.ndarray, cands: np.ndarray) -> np.ndarray:
        """``(len(rows), k)``: per row entity ``u`` and candidate ``c``, the
        scores of the factors anchored at ``u`` and at its assigned
        neighbours, summed with ``u`` mapped to ``c``."""
        n_rows, n_src = len(rows), len(self.y)
        own = 1.0 - np.exp(self.own_log_survival(rows, cands))

        owner, edge = self.edges_of(rows)
        far = self.far[edge]
        nbr = far != rows[owner]
        pairs = np.sort(owner[nbr] * n_src + far[nbr])
        a_row, a_ent = np.divmod(pairs[_run_starts(pairs)], n_src)
        assigned = self.y[a_ent] >= 0
        a_row, a_ent = a_row[assigned], a_ent[assigned]
        a_y = self.y[a_ent]

        owner, edge = self.edges_of(a_ent)
        far = self.far[edge]
        to_u = far == rows[a_row[owner]]
        # an anchor's edges to entities other than u do not depend on the
        # candidate.  They are summed directly: the anchor's total minus its
        # edges to u would be -inf - -inf = nan where a survival term is 0
        o, e = owner[~to_u], edge[~to_u]
        rest = np.bincount(
            o, self.edge_log_survival(self.rel[e], a_y[o], self.y[self.far[e]]),
            minlength=len(a_ent))
        o, e = owner[to_u], edge[to_u]
        term = _row_sums(o, self.edge_log_survival(
            self.rel[e][:, None], a_y[o][:, None], cands[a_row[o]]), len(a_ent))
        anchored = 1.0 - np.exp(rest[:, None] + term)

        # each row adds its own factor first, then its neighbours' by id
        return _row_sums(np.concatenate([np.arange(n_rows), a_row]),
                         np.concatenate([own, anchored]), n_rows)
