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
a frozen assignment).  The assignment is one ``int64`` array over the
source entities: ``assignment[e]`` is the counterpart of ``e``, or -1 where
``e`` has none.  They read each KG's directed edges from its ``Kg.edges``
table, sorted by endpoint pair and so its own join on pairs: the
statistics count over the target table's join, and ``FactorModel``, one
assignment's factor model compiled to arrays, reads each factor's relation
evidence through it from one dense matrix over pairs of directed relations.
``tests/oracle.py`` keeps the readable triple-scanning versions they are
checked against.

``refine_slabs`` refines one direction of a run: one ``build_assignment``
pass over the model's whole matrix, one ``FactorModel`` of that
assignment, and one ``refine_rows`` call per row slab.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .calibration import ProbRow, _ids_in, _sim_best, _softmax
from .kg import Kg, KgPair, _ranges, _run_starts


def _inverse_functionality(kg: Kg, rel: np.ndarray, far: np.ndarray) -> dict[int, float]:
    # every relation has edges in both orientations, so the counts align
    rel_far = _key_counts(rel * kg.n_entities + far)[0]
    return dict(enumerate((np.bincount(rel_far // kg.n_entities) / np.bincount(rel)).tolist()))


@dataclass
class RelationStats:
    """PARIS statistics for one orientation of a KG pair.

    ``subrel_*`` maps are sparse over co-observed directed relation pairs
    and already add-one smoothed; the refinement reads a missing pair as
    ``1 / (trials + 2)`` of its first relation, so a pair that was never
    trialed is the pure prior 1/2.
    """

    src_inv_fun: dict[int, float]
    tgt_inv_fun: dict[int, float]
    # Pr(target relation is a sub-relation of source relation)
    subrel_tgt_in_src: dict[tuple[int, int], float] = field(default_factory=dict)
    # Pr(source relation is a sub-relation of target relation)
    subrel_src_in_tgt: dict[tuple[int, int], float] = field(default_factory=dict)
    tgt_trials: dict[int, int] = field(default_factory=dict)
    src_trials: dict[int, int] = field(default_factory=dict)


def estimate_relation_stats(kg_pair: KgPair, assignment: np.ndarray) -> RelationStats:
    """Estimate inverse functionalities and sub-relation probabilities.

    Sub-relation trials for a source relation count its directed triples
    whose endpoints both carry assignments; support counts those mirrored by
    an orientation-matched triple between the assigned counterparts.  The
    target-side statistics use the inverted assignment (a set-valued inverse:
    predictions need not be injective).
    """
    src, tgt = kg_pair.source, kg_pair.target
    n_src, n_tgt = 2 * src.n_relations, 2 * tgt.n_relations
    s_near, s_rel, s_far = src.edges.near, src.edges.rel, src.edges.far
    t_near, t_rel, t_far = tgt.edges.near, tgt.edges.rel, tgt.edges.far
    y = _checked_assignment(kg_pair, assignment)
    trial = np.flatnonzero((y[s_near] >= 0) & (y[s_far] >= 0))
    # every (source edge, target edge) pair joining counterpart endpoints
    i, j = tgt.edges.matches(y[s_near[trial]], y[s_far[trial]])
    rho_s = s_rel[trial[i]]
    image = np.zeros(tgt.n_entities, dtype=bool)
    image[y[y >= 0]] = True
    src_trials = np.bincount(s_rel[trial], minlength=n_src)
    tgt_trials = np.bincount(t_rel[image[t_near] & image[t_far]], minlength=n_tgt)
    src_pairs, src_support = _key_counts(rho_s * n_tgt + t_rel[j])
    # a target edge supports each source relation mirrored onto it once
    edge, rho = np.divmod(_key_counts(j * n_src + rho_s)[0], n_src)
    tgt_pairs, tgt_support = _key_counts(t_rel[edge] * n_src + rho)

    def subrel(pairs, support, n_other, trials):
        a, b = np.divmod(pairs, n_other)
        return dict(zip(zip(a.tolist(), b.tolist()),
                        ((support + 1) / (trials[a] + 2)).tolist()))

    def nonzero(trials):
        return {r: n for r, n in enumerate(trials.tolist()) if n}

    return RelationStats(
        src_inv_fun=_inverse_functionality(src, s_rel, s_far),
        tgt_inv_fun=_inverse_functionality(tgt, t_rel, t_far),
        subrel_tgt_in_src=subrel(tgt_pairs, tgt_support, n_src, tgt_trials),
        subrel_src_in_tgt=subrel(src_pairs, src_support, n_tgt, src_trials),
        tgt_trials=nonzero(tgt_trials),
        src_trials=nonzero(src_trials),
    )


def _checked_assignment(kg_pair: KgPair, assignment: np.ndarray) -> np.ndarray:
    """``assignment``, checked to hold one entry per source entity."""
    n = kg_pair.source.n_entities
    if len(assignment) != n:
        raise ValueError(f"assignment has length {len(assignment)}, but the source KG "
                         f"has {n} entities")
    return assignment


def local_compatibility(
    e: int,
    candidate: int,
    assignment: np.ndarray,
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
    f = FactorModel(kg_pair, stats, assignment)
    log_surv = f.own_log_survival(np.array([e]), np.array([[candidate]]))[0]
    return float(1.0 - np.exp(log_surv[0, 0]))


def conditional_distribution(
    u: int,
    candidates,
    assignment: np.ndarray,
    kg_pair: KgPair,
    stats: RelationStats,
) -> ProbRow:
    """Conditional of ``u``'s counterpart given its Markov blanket.

    Softmax over the candidate set of the per-candidate factor-score sums
    (``FactorModel.factor_sums``); the factors without ``u`` cancel.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be nonempty")
    cands = np.asarray(candidates, dtype=np.int64).reshape(1, -1)
    sums = FactorModel(kg_pair, stats, assignment).factor_sums(np.array([u]), cands)[0]
    return ProbRow(entity=u, cand_ids=tuple(candidates), probs=_softmax(sums))


def build_assignment(sims: np.ndarray, row_ids, col_ids) -> np.ndarray:
    """Each ``row_ids`` row's argmax over the ``col_ids`` columns of a
    model's whole matrix ``sims``, as a column id, lowest id on ties (the
    single-sample approximation of the expectation); any scores in the order
    of the current distributions will do.  The ids index ``sims``; an id
    outside it raises ``ValueError``.  One pass over ``sims`` in row slabs
    (``calibration._sim_best``).  The caller writes the argmaxes of its
    unlabelled rows into the assignment array, ``y[row_ids] = ...``."""
    return _sim_best(sims, row_ids, col_ids)[1]


def refine_slabs(
    oriented: KgPair, sims: models.SimMatrix, labelled: np.ndarray,
    row_ids, col_ids, top_k: int,
) -> list[ProbRow]:
    """The refined ``row_ids`` rows over the candidates ``col_ids``, read
    from ``sims`` one row slab at a time.

    ``labelled[e]`` is source entity ``e``'s labelled counterpart or -1, and
    the ``row_ids`` are unlabelled.  One ``build_assignment`` pass over the
    whole matrix writes the rows' argmaxes into a copy of ``labelled``, the
    frozen assignment, and one ``FactorModel`` is compiled from it; a
    second pass refines against that model, one ``refine_rows`` call per
    slab.  Both are row-independent, so they equal one pass over the
    ``(row_ids, col_ids)`` block, which is never built.  Each slab spans all
    columns, those outside ``col_ids`` at -inf, so ``top_k`` is capped by
    the number of ``col_ids``.
    """
    top_k = min(top_k, len(col_ids))
    if len(row_ids) and not top_k:
        raise ValueError("candidates must be nonempty")
    y = labelled.copy()
    y[row_ids] = build_assignment(sims.scores, row_ids, col_ids)
    y.flags.writeable = False
    factors = FactorModel(oriented, estimate_relation_stats(oriented, y), y)
    all_cols = np.arange(sims.scores.shape[1])
    rows: list[ProbRow] = []
    for ids, q in models.masked_slabs(sims.scores, row_ids, col_ids):
        rows += refine_rows(q, ids, all_cols, factors, top_k=top_k)
    return rows


def refine_rows(q_matrix: np.ndarray, row_ids, col_ids, factors: FactorModel,
                top_k: int = 10) -> list[ProbRow]:
    """One block update of the given rows against the frozen assignment
    that ``factors`` was compiled from.

    Every row independently keeps its ``top_k`` candidates by descending
    ``q_matrix`` score, lowest id on ties, and receives the Markov-blanket
    conditional over them, which reads no score.  ``q_matrix`` must be
    ``len(row_ids) × len(col_ids)``; it is read in place when the column
    ids ascend, else copied in id order, and the temporaries scale with the
    block, so a caller bounds them by handing in one row slab per call.  The
    assignment, with the rows' ``build_assignment`` argmaxes written in,
    stays fixed, so the result does not depend on how the rows are split,
    and a caller that refines it in many calls compiles one ``FactorModel``.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    row_ids = np.asarray(row_ids, dtype=np.int64)
    q_matrix = _sim_block(q_matrix, row_ids, col_ids)
    if not len(row_ids):
        return []
    k = min(top_k, q_matrix.shape[1])
    if k == 0:
        raise ValueError("candidates must be nonempty")
    cands = _top_candidates(*_by_id(q_matrix, col_ids, axis=1), k)
    probs = _softmax(factors.factor_sums(row_ids, cands))
    return ProbRow.block(row_ids.tolist(), cands, probs)


def _sim_block(sims, row_ids, col_ids) -> np.ndarray:
    """``sims`` as float64, checked to hold one row per row id and one
    column per column id."""
    sims = np.asarray(sims, dtype=np.float64)
    if sims.shape != (len(row_ids), len(col_ids)):
        raise ValueError(f"similarity block has shape {sims.shape}, but the ids "
                         f"give shape {(len(row_ids), len(col_ids))}")
    return sims


def _by_id(sims: np.ndarray, ids, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """``sims`` and ``ids`` reordered along ``axis`` so the ids ascend; no
    copy when they already do, else a C-ordered copy."""
    ids = np.asarray(ids, dtype=np.int64)
    if np.all(ids[1:] > ids[:-1]):
        return sims, ids
    order = np.argsort(ids, kind="stable")
    return sims.take(order, axis=axis), ids[order]


def _top_candidates(q: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``q``, whose columns hold the ascending ``ids``, the ids of
    its ``k`` highest-scoring columns, by descending score with ties to the
    lower id."""
    kth = np.partition(q, q.shape[1] - k, axis=1)[:, -k]
    # the 1-d flatnonzero is several times faster than a 2-d np.nonzero
    rr, cc = np.divmod(np.flatnonzero(q >= kth[:, None]), q.shape[1])
    vals = q[rr, cc]
    tied = vals == kth[rr]
    # every value above the k-th is kept; the ties at it fill the rest,
    # lowest ids first.  A tie can span a whole row (a constant similarity
    # row), so the ties are ranked in place, not sorted
    ti = np.flatnonzero(tied)
    rank = np.arange(len(ti)) - np.searchsorted(rr[ti], np.arange(len(q)))[rr[ti]]
    keep = ~tied
    keep[ti] = rank < (k - np.bincount(rr[~tied], minlength=len(q)))[rr[ti]]
    rr, cc, vals = rr[keep], cc[keep], vals[keep]
    order = np.lexsort((cc, -vals, rr))
    return ids[cc[order]].reshape(len(q), k)


def _log_survival_table(stats: RelationStats, n_src: int, n_tgt: int) -> np.ndarray:
    """``L[rho_s, rho_t]``: the log of both survival terms of one matched
    pair of directed relations, ``-inf`` where a term is 0.  Each term is a
    broadcast of per-relation defaults, written over at co-observed pairs."""
    src_if = np.array([stats.src_inv_fun[r] for r in range(n_src)])
    tgt_if = np.array([stats.tgt_inv_fun[r] for r in range(n_tgt)])
    # a pair missing from subrel_* has no support: (0 + 1) / (trials + 2)
    p_ts = 1.0 / (np.array([stats.tgt_trials.get(r, 0) for r in range(n_tgt)]) + 2)
    p_st = 1.0 / (np.array([stats.src_trials.get(r, 0) for r in range(n_src)]) + 2)
    rt_ts, rs_ts, ts = _subrel_arrays(stats.subrel_tgt_in_src, n_tgt, n_src)
    rs_st, rt_st, st = _subrel_arrays(stats.subrel_src_in_tgt, n_src, n_tgt)
    with np.errstate(divide="ignore"):
        table = np.log(1.0 - p_ts * src_if[:, None])
        table[rs_ts, rt_ts] = np.log(1.0 - ts * src_if[rs_ts])
        other = np.log(1.0 - p_st[:, None] * tgt_if)
        other[rs_st, rt_st] = np.log(1.0 - st * tgt_if[rt_st])
    return table + other


def _subrel_arrays(subrel: dict, n_a: int, n_b: int) -> tuple[np.ndarray, ...]:
    """``(a, b, p)`` arrays of the pairs of ``subrel`` inside ``n_a × n_b``."""
    a, b = np.array(list(subrel), dtype=np.int64).reshape(-1, 2).T
    keep = (a < n_a) & (b < n_b)
    return a[keep], b[keep], np.fromiter(subrel.values(), float, len(subrel))[keep]


def _key_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, ascending, and how often each occurs."""
    keys = np.sort(keys)
    starts = _run_starts(keys)
    return keys[starts], np.diff(np.append(starts, len(keys)))


def _row_sums(owner: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of ``vals`` into ``n`` rows by ``owner``, adding each
    output row's contributions in input order."""
    k = vals.shape[1]
    idx = (owner[:, None] * k + np.arange(k)).ravel()
    return np.bincount(idx, vals.ravel(), minlength=n * k).reshape(n, k)


class FactorModel:
    """The factor model of one assignment compiled to arrays.

    ``ptr``, ``rel`` and ``far`` are the source KG's edge table, ``tgt``
    the target KG's, and ``y[e]`` is the counterpart assigned to source
    entity ``e`` or -1; an assignment whose length is not the source KG's
    entity count raises ``ValueError``.  ``log_surv[rho_s, rho_t]`` is the
    log survival of one matched pair of directed relations.  A factor's log
    survival is the sum of ``log_surv`` entries over its source edges and
    the target edges joining their mapped endpoints, so ``1 - exp(sum)`` is
    its score.  ``edge_surv[i]`` is that sum for source edge ``i`` under the
    assignment, compiled in one join, so an anchor's other edges read it
    with no join.
    """

    def __init__(self, kg_pair: KgPair, stats: RelationStats, assignment: np.ndarray):
        src, tgt = kg_pair.source, kg_pair.target
        self.rel, self.far, self.ptr = src.edges.rel, src.edges.far, src.edges.ptr
        self.y = _checked_assignment(kg_pair, assignment)
        self.log_surv = _log_survival_table(stats, 2 * src.n_relations, 2 * tgt.n_relations)
        self.tgt = tgt.edges
        self.edge_surv = self.edge_log_survival(self.rel, self.y[src.edges.near], self.y[self.far])

    def edge_log_survival(self, rel, y_near, y_far) -> np.ndarray:
        """Log survival of source edges with relation ``rel`` whose
        endpoints map to ``y_near`` and ``y_far`` (0 where ``y_far`` is -1
        or no target relation joins the pair); broadcasts.  Each sums its
        target edges' terms left to right in edge-table order."""
        rel, y_near, y_far = np.broadcast_arrays(rel, y_near, y_far)
        pos, hit = self.tgt.find(y_near, y_far)
        out = np.zeros(hit.shape)
        out[hit] = self._run_sums(rel[hit], pos[hit])
        return out

    def _run_sums(self, rel, pos) -> np.ndarray:
        """Per target pair ``pos[i]`` of ``tgt``, the ``log_surv`` terms of
        source relation ``rel[i]`` and its target edges, summed left to right
        in edge-table order."""
        owner, idx = _ranges(self.tgt.bounds, pos)
        terms = self.log_surv[rel[owner], self.tgt.rel[idx]]
        # an empty bincount is integer, whatever its weights
        return np.bincount(owner, terms, minlength=len(pos)).astype(float, copy=False)

    def _owner_sums(self, owner, rel, pos, hit, n: int) -> np.ndarray:
        """``(n, k)``: ``_row_sums(owner, vals, n)`` of the log survivals
        ``vals`` that ``tgt.find``'s ``(pos, hit)`` give source edges with
        relations ``rel``, one row per edge, reading only the hits.  Leaving
        out a miss's 0 changes no bit, since no sum is ever -0.0."""
        k = hit.shape[1]
        edge, col = np.divmod(np.flatnonzero(hit), k)
        sums = self._run_sums(rel[edge], pos[edge, col])
        out = np.bincount(owner[edge] * k + col, sums, minlength=n * k)
        return out.reshape(n, k).astype(float, copy=False)

    def own_log_survival(self, rows: np.ndarray, cands: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(len(rows), k)``: log survival of the factor anchored at each
        row's entity ``u`` with ``u`` mapped to each of its candidates; then
        the join it reads: the rows' edges ``(owner, far)`` and, per edge and
        candidate ``c``, ``tgt.find``'s ``(pos, hit)`` for the target pair
        ``(c, y[far])`` (``(c, c)`` on a self-loop).  Ids outside the KGs raise."""
        rows = _ids_in(rows, len(self.y), "row")
        cands = _ids_in(cands, self.tgt.n, "candidate")
        owner, edge = _ranges(self.ptr, rows)
        far = self.far[edge]
        c = cands[owner]
        y_far = np.where((far == rows[owner])[:, None], c, self.y[far][:, None])
        pos, hit = self.tgt.find(c, y_far)
        own = self._owner_sums(owner, self.rel[edge], pos, hit, len(rows))
        return own, owner, far, pos, hit

    def factor_sums(self, rows: np.ndarray, cands: np.ndarray) -> np.ndarray:
        """``(len(rows), k)``: per row entity ``u`` and candidate ``c``, the
        scores of the factors anchored at ``u`` and at its assigned
        neighbours, summed with ``u`` mapped to ``c``.  The rows' own join
        also serves each anchor ``a``'s edges to ``u``: they join ``(y[a],
        c)``, the reverse of the row's ``(c, y[a])``, searched at its hits."""
        n_rows, n_src = len(rows), len(self.y)
        own, owner, far, pos, hit = self.own_log_survival(rows, cands)
        own = 1.0 - np.exp(own)

        nbr = np.flatnonzero(far != rows[owner])
        keys = owner[nbr] * n_src + far[nbr]  # ascending: edges run by far end
        first = nbr[_run_starts(keys)]  # each (row, neighbour)'s first edge
        first = first[self.y[far[first]] >= 0]
        a_row, a_ent = owner[first], far[first]
        # each triple is stored both ways: (y[a], c) joins where (c, y[a]) does
        a_pos, a_hit = pos[first], hit[first]
        hit_row, hit_col = np.divmod(np.flatnonzero(a_hit), a_hit.shape[1])
        a_pos[a_hit] = self.tgt.find(self.y[a_ent[hit_row]], cands[a_row[hit_row], hit_col])[0]

        owner, edge = _ranges(self.ptr, a_ent)
        to_u = self.far[edge] == rows[a_row[owner]]
        # an anchor's edges to entities other than u do not depend on the
        # candidate.  They are summed directly: the anchor's total minus its
        # edges to u would be -inf - -inf = nan where a survival term is 0
        rest = np.bincount(owner[~to_u], self.edge_surv[edge[~to_u]], minlength=len(a_ent))
        o, e = owner[to_u], edge[to_u]
        term = self._owner_sums(o, self.rel[e], a_pos[o], a_hit[o], len(a_ent))
        anchored = 1.0 - np.exp(rest[:, None] + term)

        # each row adds its own factor first, then its neighbours' by id
        return _row_sums(np.concatenate([np.arange(n_rows), a_row]),
                         np.concatenate([own, anchored]), n_rows)
