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
A raw-similarity block must be ``len(row_ids) × len(col_ids)`` and is read
in ascending id order (``calibration._sim_best``, which the refinement's
assignment uses too), so an ``argmax``'s first index is the lowest id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .calibration import ProbRow, _by_id, _sim_best, _sim_block
from .kg import MappingSet

PROBABILITY_STRATEGIES = ("UniThr", "BiThr", "MutHighestProb")
SIMILARITY_STRATEGIES = ("SimThr", "OneToOne", "MutNearest")
ALL_STRATEGIES = PROBABILITY_STRATEGIES + SIMILARITY_STRATEGIES
# the config field holding each strategy's threshold; the others take none
THRESHOLD_FIELD = {"UniThr": "alpha", "BiThr": "alpha", "SimThr": "theta", "OneToOne": "theta"}


def _sorted_mapping(pairs_scores: dict[tuple[int, int], float]) -> MappingSet:
    items = sorted(pairs_scores.items())
    return MappingSet(
        pairs=tuple(p for p, _ in items),
        kind="pseudo",
        scores=tuple(s for _, s in items),
    )


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


def similarity_threshold(
    sims: np.ndarray, row_ids, col_ids, theta: float
) -> MappingSet:
    """Baseline: keep each row's argmax pair when its similarity > theta."""
    return _threshold_pick(*_sim_best(sims, row_ids, col_ids), theta)


@dataclass
class OneToOneState:
    """Cross-iteration accumulator for the one-to-one baseline.

    Holds the retained pairs with the similarity that admitted them so
    later, higher-similarity conflicts can displace them.
    """

    scores: dict[tuple[int, int], float] = field(default_factory=dict)

    def as_mapping_set(self) -> MappingSet:
        return _sorted_mapping(self.scores)


def one_to_one_matching(
    sims: np.ndarray, row_ids, col_ids, theta: float, state: OneToOneState
) -> MappingSet:
    """Baseline: greedy one-to-one matching merged into the accumulator.

    Greedy matching keeps each edge above ``theta`` whose ends are both
    free, walking by descending similarity, then source id, then target id.
    It is found in rounds: each keeps every edge that is first at both its
    row and its column (a locally dominant edge, which greedy keeps too),
    then drops the matched rows and columns and any left without an edge
    above ``theta``.  The matching is merged into the accumulated store in
    greedy order, resolving conflicts in favor of the higher-similarity
    pair (existing pairs win ties).
    """
    sims, src = _by_id(_sim_block(sims, row_ids, col_ids), row_ids, axis=0)
    sims, tgt = _by_id(sims, col_ids, axis=1)
    match = np.full(len(src), -1)  # column matched to each row of ``sims``
    rows, cols = np.arange(len(src)), np.arange(len(tgt))  # ``block`` in ``sims``
    block = sims
    while block.size:
        at = np.arange(len(rows))
        row_best = block.argmax(axis=1)
        row_max = block[at, row_best]
        col_max = block.max(axis=0)
        # each column's first row at its max; argmax(axis=0) would first copy
        # the block transposed, at twice the cost
        col_best = (block == col_max).argmax(axis=0)
        i = np.flatnonzero((row_max > theta) & (col_best[row_best] == at))
        j = row_best[i]
        match[rows[i]] = cols[j]
        keep_rows, keep_cols = row_max > theta, col_max > theta
        keep_rows[i] = keep_cols[j] = False
        rows, cols = rows[keep_rows], cols[keep_cols]
        block = block[np.ix_(keep_rows, keep_cols)]
    r = np.flatnonzero(match >= 0)
    c = match[r]
    score = sims[r, c]
    # sources ascend with ``r`` and are distinct: a stable sort by descending
    # similarity is the greedy order
    order = np.argsort(-score, kind="stable")
    fresh = zip(score[order].tolist(), src[r[order]].tolist(), tgt[c[order]].tolist())

    by_src = {u: (u, t) for (u, t) in state.scores}
    by_tgt = {t: (u, t) for (u, t) in state.scores}
    for score, u, t in fresh:  # already in descending-score order
        conflicts = {p for p in (by_src.get(u), by_tgt.get(t)) if p is not None}
        if any(state.scores[p] >= score for p in conflicts):
            continue
        for p in conflicts:
            del state.scores[p]
            by_src.pop(p[0], None)
            by_tgt.pop(p[1], None)
        state.scores[(u, t)] = score
        by_src[u] = (u, t)
        by_tgt[t] = (u, t)
    return state.as_mapping_set()


def mutual_nearest(
    sims_forward: np.ndarray,
    fwd_row_ids,
    fwd_col_ids,
    sims_reverse: np.ndarray,
    rev_row_ids,
    rev_col_ids,
) -> MappingSet:
    """Baseline: pairs that are mutually nearest under raw similarity."""
    rev_entities, rev_best, _ = _sim_best(sims_reverse, rev_row_ids, rev_col_ids)
    return _mutual_pick(*_sim_best(sims_forward, fwd_row_ids, fwd_col_ids),
                        rev_entities, rev_best)
