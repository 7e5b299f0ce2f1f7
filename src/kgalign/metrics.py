"""Ranking metrics and pseudo-mapping quality.

Ranks break ties by the lowest candidate id, consistent with everything
else in the package.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import MappingSet


@dataclass(frozen=True)
class EvalReport:
    hit1: float
    hit10: float
    mrr: float
    n: int

    def __post_init__(self):
        if not (0.0 <= self.hit1 <= self.hit10 <= 1.0):
            raise ValueError("need 0 <= hit1 <= hit10 <= 1")
        if not (self.hit1 <= self.mrr <= 1.0):
            raise ValueError("need hit1 <= mrr <= 1")


def truth_ranks(rows: np.ndarray, truth_cols: np.ndarray) -> np.ndarray:
    """1-based rank of each row's ground-truth column.

    An entity with a higher score, or an equal score and a lower id, ranks
    ahead of the truth.
    """
    rows = np.asarray(rows, dtype=np.float64)
    truth_cols = np.asarray(truth_cols, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] != truth_cols.shape[0]:
        raise ValueError("rows/truths shape mismatch")
    if np.any(truth_cols < 0) or np.any(truth_cols >= rows.shape[1]):
        raise ValueError("truth column out of range")
    ranks = np.ones(len(rows), dtype=np.int64)
    # the lowest-id maximum ranks first: only the other rows are counted
    rest = np.flatnonzero(rows.argmax(axis=1) != truth_cols) if rows.size else ranks[:0]
    rows, truth_cols = rows[rest], truth_cols[rest]
    truth_scores = rows[np.arange(rows.shape[0]), truth_cols][:, None]
    ahead = _row_counts(rows > truth_scores)
    # only a row whose truth score occurs more than once has a lower-id tie
    tied = rows == truth_scores
    multi = np.flatnonzero(_row_counts(tied) > 1)
    lower = np.arange(rows.shape[1]) < truth_cols[multi, None]
    ahead[multi] += _row_counts(tied[multi] & lower)
    ranks[rest] += ahead
    return ranks


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The ``True`` cells in each row of a 2-d bool array, summed as bytes."""
    return mask.view(np.uint8).sum(axis=1, dtype=np.uint32)


def evaluate_rows(rows, truth_cols: np.ndarray) -> EvalReport:
    """Hit@1, hit@10 and MRR of the truths' ranks.  ``rows`` is a 2-d score
    array, or any iterable of its consecutive row slabs (such as
    ``models.row_slabs``), so no copy of all the rows is needed."""
    truth_cols = np.asarray(truth_cols, dtype=np.int64)
    ranks, lo = [np.zeros(0, dtype=np.int64)], 0
    for slab in [rows] if isinstance(rows, np.ndarray) else rows:
        ranks.append(truth_ranks(slab, truth_cols[lo:lo + len(slab)]))
        lo += len(slab)
    if lo != len(truth_cols):
        raise ValueError("rows/truths shape mismatch")
    ranks = np.concatenate(ranks)
    return EvalReport(
        hit1=float((ranks <= 1).mean()),
        hit10=float((ranks <= 10).mean()),
        mrr=float((1.0 / ranks).mean()),
        n=int(ranks.shape[0]),
    )


def pseudo_quality(
    pseudo: MappingSet, truth: MappingSet
) -> tuple[float, float, bool]:
    """Precision and recall of a pseudo set against ground truth.

    Returns ``(precision, recall, empty)``; an empty pseudo set reports
    precision 1.0 with the ``empty`` flag raised so threshold sweeps never
    divide by zero.
    """
    truth_set = truth.as_set()
    if len(pseudo) == 0:
        return 1.0, 0.0, True
    correct = len(pseudo.as_set() & truth_set)
    return correct / len(pseudo), correct / len(truth_set), False
