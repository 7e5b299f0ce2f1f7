"""Pseudo-mapping generation strategies.

Three probability strategies consume dependency-aware candidate
distributions (``UniThr``, ``BiThr``, ``MutHighestProb``) and three baseline
strategies consume raw similarities (``SimThr``, ``OneToOne``,
``MutNearest``).  Rows handed to any strategy are expected to cover only
unlabelled entities on both coordinates; outputs are sorted by source id.
Argmax ties break to the lowest candidate id throughout.

Each strategy reduces its rows to (entity, best candidate, best score) and
picks pairs through a shared threshold core or a shared mutual-best core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import ProbRow, argmax_lowest_id
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


def _row_best(rows: list[ProbRow]) -> tuple[list[int], list[int], list[float]]:
    """Entities, argmax candidates and top probabilities of refined rows."""
    return ([row.entity for row in rows], [row.argmax_candidate() for row in rows],
            [row.top_prob() for row in rows])


def _sim_best(sims, col_ids) -> tuple[list[int], list[float]]:
    """Argmax column ids (lowest id on ties) and maxima of similarity rows."""
    sims = np.asarray(sims, dtype=np.float64)
    col_ids = list(col_ids)
    best = [argmax_lowest_id(col_ids, row) for row in sims]
    return best, [float(row.max()) for row in sims]


def _threshold_pick(entities, best, scores, threshold: float) -> MappingSet:
    """Each entity's best pair whose score exceeds ``threshold``."""
    return _sorted_mapping({(u, b): s for u, b, s in zip(entities, best, scores)
                            if s > threshold})


def _mutual_pick(entities, best, scores, rev_entities, rev_best) -> MappingSet:
    """Each entity's best pair whose candidate's reverse best points back."""
    back = dict(zip(rev_entities, rev_best))
    return _sorted_mapping({(u, b): s for u, b, s in zip(entities, best, scores)
                            if back.get(b) == u})


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
    return _threshold_pick(row_ids, *_sim_best(sims, col_ids), theta)


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

    Candidate edges are every pair above ``theta``; a greedy pass in
    descending similarity yields a one-to-one set for this iteration, which
    is then merged into the accumulated store, resolving conflicts in favor
    of the higher-similarity pair (existing pairs win ties).
    """
    sims = np.asarray(sims, dtype=np.float64)
    ri, ci = np.nonzero(sims > theta)
    score = sims[ri, ci]
    src = np.asarray(list(row_ids), dtype=np.int64)[ri]
    tgt = np.asarray(list(col_ids), dtype=np.int64)[ci]
    # descending score, then ascending source and target id
    order = np.lexsort((tgt, src, -score))
    edges = zip(score[order].tolist(), src[order].tolist(), tgt[order].tolist())
    used_src: set[int] = set()
    used_tgt: set[int] = set()
    fresh: list[tuple[float, int, int]] = []
    for score, u, t in edges:
        if u in used_src or t in used_tgt:
            continue
        used_src.add(u)
        used_tgt.add(t)
        fresh.append((score, u, t))

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
    rev_best, _ = _sim_best(sims_reverse, rev_col_ids)
    return _mutual_pick(fwd_row_ids, *_sim_best(sims_forward, fwd_col_ids),
                        rev_row_ids, rev_best)
