"""Pseudo-mapping generation strategies.

Three probability strategies consume dependency-aware candidate
distributions (``UniThr``, ``BiThr``, ``MutHighestProb``) and three baseline
strategies consume raw similarities (``SimThr``, ``OneToOne``,
``MutNearest``).  Rows handed to any strategy are expected to cover only
unlabelled entities on both coordinates; outputs are sorted by source id.
Argmax ties break to the lowest candidate id throughout.

Each strategy reduces its rows to arrays of (entity, best candidate, best
score) and picks pairs through a shared threshold core or a shared
mutual-best core.  Refined rows are reduced over their concatenated
candidates with segmented maxima, so rows of any lengths share one path.
A raw-similarity strategy takes a model's whole matrix and the distinct
``row_ids`` and ``col_ids`` to match over, which index it, as
``compatibility.build_assignment`` does.  It reads the rows in ascending id
order in ``models.masked_slabs``, cache-sized row slabs with the columns
outside ``col_ids`` at -inf, so an ``argmax``'s first index is the lowest id
and the ``(row_ids, col_ids)`` block is never gathered; ``SimThr`` and
``MutNearest`` take their argmaxes in ``calibration._sim_best``, the pass
the assignment takes.
``OneToOne`` keeps no state between calls: it takes the previous call's
scored result as held pairs and returns the next, from one greedy walk
over the held pairs and the fresh matching.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import models
from .calibration import ProbRow, _ids_in, _sim_best
from .kg import MappingSet

PROBABILITY_STRATEGIES = ("UniThr", "BiThr", "MutHighestProb")
SIMILARITY_STRATEGIES = ("SimThr", "OneToOne", "MutNearest")
ALL_STRATEGIES = PROBABILITY_STRATEGIES + SIMILARITY_STRATEGIES
# the config field holding each strategy's threshold; the others take none
THRESHOLD_FIELD = {"UniThr": "alpha", "BiThr": "alpha", "SimThr": "theta", "OneToOne": "theta"}


def _sorted_mapping(pairs_scores: dict[tuple[int, int], float]) -> MappingSet:
    items = sorted(pairs_scores.items())
    return MappingSet(tuple(p for p, _ in items), tuple(s for _, s in items))


def _row_best(rows: list[ProbRow]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entities, argmax candidates (lowest id on ties) and top probabilities
    of refined rows, reduced over their concatenated candidates."""
    entities = np.fromiter((row.entity for row in rows), np.int64, len(rows))
    if not rows:
        return entities, entities, np.zeros(0)
    sizes = np.fromiter((len(row.cand_ids) for row in rows), np.int64, len(rows))
    starts = np.cumsum(sizes) - sizes  # every row holds at least one candidate
    probs = np.concatenate([row.probs for row in rows])
    ids = np.fromiter(itertools.chain.from_iterable(row.cand_ids for row in rows),
                      np.int64, len(probs))
    top = np.maximum.reduceat(probs, starts)
    tied = probs == np.repeat(top, sizes)
    best = np.minimum.reduceat(np.where(tied, ids, np.iinfo(np.int64).max), starts)
    return entities, best, top


def _picked(entities, best, scores, keep) -> MappingSet:
    """The pairs ``(entities[i], best[i])`` with score ``scores[i]`` where
    ``keep[i]``."""
    return _sorted_mapping(dict(zip(zip(entities[keep].tolist(), best[keep].tolist()),
                                    scores[keep].tolist())))


def _threshold_pick(entities, best, scores, threshold: float) -> MappingSet:
    """Each entity's best pair whose score exceeds ``threshold``."""
    return _picked(entities, best, scores, scores > threshold)


def _mutual_pick(entities, best, scores, rev_entities, rev_best) -> MappingSet:
    """Each entity's best pair whose candidate's reverse best points back,
    read through an id map of the reverse picks (ids are nonnegative)."""
    back = np.full(max(best.max(initial=-1), rev_entities.max(initial=-1)) + 1, -1)
    back[rev_entities] = rev_best
    return _picked(entities, best, scores, back[best] == entities)


def uni_threshold(rows: list[ProbRow], alpha: float) -> MappingSet:
    """Keep each row's argmax pair when its probability clears ``alpha``."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"probability threshold must be in (0,1), got {alpha}")
    return _threshold_pick(*_row_best(rows), alpha)


def bi_threshold(
    rows_forward: list[ProbRow], rows_reverse: list[ProbRow], alpha: float
) -> MappingSet:
    """Union of both directions' threshold picks, reverse pairs flipped."""
    fwd = uni_threshold(rows_forward, alpha)
    rev = uni_threshold(rows_reverse, alpha).flipped()
    picked: dict[tuple[int, int], float] = {}
    for ms in (fwd, rev):
        for pair, score in zip(ms.pairs, ms.scores or ()):
            picked[pair] = max(score, picked.get(pair, score))
    return _sorted_mapping(picked)


def mutual_highest_probability(
    rows_forward: list[ProbRow], rows_reverse: list[ProbRow]
) -> MappingSet:
    """Pairs whose two rows point at each other as argmax; no threshold."""
    rev_entities, rev_best, _ = _row_best(rows_reverse)
    return _mutual_pick(*_row_best(rows_forward), rev_entities, rev_best)


def _checked_ids(ids, n: int, axis: str) -> np.ndarray:
    """``ids`` ascending, checked to be distinct and in ``[0, n)``."""
    ids = np.sort(_ids_in(ids, n, axis))
    if np.any(ids[1:] == ids[:-1]):
        raise ValueError(f"{axis} ids must be distinct")
    return ids


def _checked(sims, row_ids, col_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sims`` as float64 and its ascending row and column ids; no rows
    when there is no column to pick."""
    sims = np.asarray(sims, dtype=np.float64)
    rows = _checked_ids(row_ids, sims.shape[0], "row")
    cols = _checked_ids(col_ids, sims.shape[1], "column")
    return sims, rows if len(cols) else rows[:0], cols


def similarity_threshold(
    sims: np.ndarray, row_ids, col_ids, theta: float
) -> MappingSet:
    """Baseline: keep each row's argmax pair when its similarity > theta."""
    return _threshold_pick(*_sim_best(*_checked(sims, row_ids, col_ids)), theta)


def _dominant_edges(sims, src, tgt, theta: float):
    """``(i, j, rows, cols)``: positions in ``src`` and ``tgt`` of the
    block's locally dominant edges above ``theta``, each first at both its
    row and its column, and of the rows and columns left unmatched with an
    edge above ``theta``; the rows are read in slabs."""
    row_max, row_best = np.empty(len(src)), np.empty(len(src), dtype=np.int64)
    col_max = np.full(sims.shape[1], -np.inf)
    col_first = np.zeros(sims.shape[1], dtype=np.int64)
    lo = 0
    for _, q in models.masked_slabs(sims, src, tgt):
        best = row_best[lo:lo + len(q)] = q.argmax(axis=1)
        row_max[lo:lo + len(q)] = q[np.arange(len(q)), best]
        # a later slab's rows are higher, so only a strictly larger max moves
        # a column's first row; only those columns are searched for it, and
        # ``max(axis=0)`` reads the slab in place where ``argmax`` copies it
        top = q.max(axis=0)
        new = np.flatnonzero(top > col_max)
        col_first[new] = lo + (q[:, new] == top[new]).argmax(axis=0)
        col_max[new] = top[new]
        lo += len(q)
    i = np.flatnonzero((row_max > theta) & (col_first[row_best] == np.arange(len(src))))
    j = np.searchsorted(tgt, row_best[i])
    keep_rows, keep_cols = row_max > theta, col_max[tgt] > theta
    keep_rows[i] = keep_cols[j] = False
    return i, j, np.flatnonzero(keep_rows), np.flatnonzero(keep_cols)


def _greedy(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Positions of the edges ``(r[k], c[k])``, walked in order, that greedy
    matching keeps: each edge whose two ends are still free."""
    free_r = [True] * (int(r.max(initial=-1)) + 1)
    free_c = [True] * (int(c.max(initial=-1)) + 1)
    kept = []
    for k, a, b in zip(range(len(r)), r.tolist(), c.tolist()):
        if free_r[a] and free_c[b]:
            free_r[a] = free_c[b] = False
            kept.append(k)
    return np.array(kept, dtype=np.int64)


def _sorted_finish(block: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of ``block`` that greedy matching pairs, walking its
    edges above ``theta`` by descending score, then row, then column."""
    flat = np.flatnonzero(block > theta)  # row-major: by row, then column
    score = -block.ravel()[flat]
    order = np.argsort(score)
    # any sort gives the one order when no two scores are equal; the stable
    # sort, which keeps ties in row-major order, runs only when some are
    ranked = score[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(score, kind="stable")
    r, c = np.divmod(flat[order], block.shape[1])
    kept = _greedy(r, c)
    return r[kept], c[kept]


def one_to_one_matching(
    sims: np.ndarray, row_ids, col_ids, theta: float, held: MappingSet
) -> MappingSet:
    """Baseline: greedy one-to-one matching over the ``held`` pairs, the
    previous call's result with its scores, and a fresh matching.

    Greedy matching keeps each edge above ``theta`` whose ends are both
    free, walking by descending similarity, then source id, then target id.
    It keeps every locally dominant edge, first at both its row and its
    column, so a slab pass over ``sims`` settles those; the sorted greedy
    loop then matches the block of rows and columns left with an edge above
    ``theta``, the only part gathered.  The held pairs and the fresh
    matching are each one-to-one, so a held pair conflicts only with fresh
    pairs: one more greedy walk over both, by descending score with held
    pairs first among equal scores, lets a higher-similarity fresh pair
    displace the held pairs it conflicts with.
    """
    if held.scores is None:
        raise ValueError("held pairs need their scores")
    sims, src, tgt = _checked(sims, row_ids, col_ids)
    i, j, rows, cols = _dominant_edges(sims, src, tgt, theta)
    r, c = _sorted_finish(sims[np.ix_(src[rows], tgt[cols])], theta)
    held_u, held_t = np.array(held.pairs, dtype=np.int64).reshape(-1, 2).T
    u = np.concatenate([held_u, src[i], src[rows[r]]])
    t = np.concatenate([held_t, tgt[j], tgt[cols[c]]])
    score = np.concatenate([held.scores, sims[u[len(held):], t[len(held):]]])
    order = np.argsort(-score, kind="stable")  # held pairs come first
    kept = order[_greedy(u[order], t[order])]
    # in position order the held pairs come sorted, so ``_picked`` sorts fast
    return _picked(u, t, score, np.sort(kept))


def mutual_nearest(
    sims_forward: np.ndarray,
    fwd_row_ids,
    fwd_col_ids,
    sims_reverse: np.ndarray,
    rev_row_ids,
    rev_col_ids,
) -> MappingSet:
    """Baseline: pairs that are mutually nearest under raw similarity."""
    rev_entities, rev_best, _ = _sim_best(*_checked(sims_reverse, rev_row_ids, rev_col_ids))
    return _mutual_pick(*_sim_best(*_checked(sims_forward, fwd_row_ids, fwd_col_ids)),
                        rev_entities, rev_best)
