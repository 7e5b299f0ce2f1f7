"""Softmax calibration of similarity scores into probabilities.

A similarity row is transformed linearly (``scale * sim + offset``) and
pushed through a temperature softmax.  The softmax cancels the offset and
sees scale and temperature only through their ratio β = scale /
temperature, so the fit has one parameter: β minimises the cross-entropy
of the labelled rows, found by Newton's method on log β, and is ``inf``
when every truth is a maximum of its row.

The refinement's assignment and the raw-similarity strategies take their
lowest-id argmaxes in ``_sim_best``, one pass over a model's whole matrix in
``models.masked_slabs`` row slabs.  ``refine_rows`` reads a block it is
handed through the ``_sim_block`` check and the ``_by_id`` column order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models

MAX_PASSES = 100  # Newton passes of one fit
STEP_TOL = 1e-10  # a fit stops once its step in log β is this small


class CalibrationError(RuntimeError):
    """Raised when a calibration fit has a non-finite loss or reverses order."""


@dataclass(frozen=True)
class CalibrationParams:
    """Parameters of the similarity-to-probability model.

    The softmax sees only β = ``scale / temperature``, which
    ``fit_calibration`` fits; ``cross_entropy_and_grad`` differentiates
    with respect to ``log temperature``, which keeps it positive.
    """

    offset: float = 0.0       # additive term of the linear transform
    scale: float = 1.0        # multiplicative term of the linear transform
    temperature: float = 1.0  # softmax temperature, > 0

    def __post_init__(self):
        if not (self.temperature > 0.0):
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        for v in (self.offset, self.scale, self.temperature):
            if not np.isfinite(v):
                raise ValueError("non-finite calibration parameter")


@dataclass(frozen=True)
class ProbRow:
    """A candidate distribution for one source entity.

    Probabilities are finite and nonnegative, sum to 1 within 1e-9, and
    candidate ids are unique.
    """

    entity: int
    cand_ids: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        _check_rows([self.entity], np.array(self.cand_ids, dtype=np.int64)[None], p[None])

    @classmethod
    def block(cls, entities, cand_ids: np.ndarray, probs: np.ndarray) -> list[ProbRow]:
        """Rows from 2-d blocks of candidate ids and probabilities, checked at once."""
        p = np.asarray(probs, dtype=np.float64)
        _check_rows(entities, cand_ids, p)
        rows = []
        for u, c, pr in zip(entities, cand_ids.tolist(), p):
            # one at a time, as __init__ sets them: on Python 3.11 rows all
            # made first would each hold a dict.  No __post_init__
            rows.append(row := object.__new__(cls))
            object.__setattr__(row, "entity", u)
            object.__setattr__(row, "cand_ids", tuple(c))
            object.__setattr__(row, "probs", pr)
        return rows

    def argmax_candidate(self) -> int:
        """Highest-probability candidate; ties break to the lowest id."""
        return argmax_lowest_id(self.cand_ids, self.probs)


def _check_rows(entities, cand_ids: np.ndarray, p: np.ndarray) -> None:
    """``ProbRow``'s checks over 2-d blocks: the first bad row's error is raised."""
    if cand_ids.shape != p.shape or len(entities) != len(p):
        raise ValueError("cand_ids / probs length mismatch")
    dup = (np.diff(np.sort(cand_ids, axis=1), axis=1) == 0).any(axis=1)
    # NaN fails ``>= 0``, inf the sum (inf - inf is NaN); ``initial`` passes empty rows
    with np.errstate(invalid="ignore"):
        ok = (p.min(axis=1, initial=0.0) >= 0) & (np.abs(p.sum(axis=1) - 1.0) <= 1e-9)
    bad = np.flatnonzero(dup | ~ok)
    if len(bad):
        raise ValueError("duplicate candidate ids" if dup[bad[0]] else
                         "probabilities must be finite, nonnegative and sum to 1")


def argmax_lowest_id(cand_ids, values) -> int:
    """Candidate id with the maximal value, lowest id on ties."""
    values = np.asarray(values)
    return min(cand_ids[i] for i in np.flatnonzero(values == values.max()))


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


def _ids_in(ids, n: int, axis: str) -> np.ndarray:
    """``ids`` as int64, checked to index an axis of length ``n``."""
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) and not (0 <= ids.min() and ids.max() < n):
        raise ValueError(f"{axis} ids must be in [0, {n})")
    return ids


def _sim_best(sims, row_ids, col_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row ids, argmax column ids, maxima)`` of the ``row_ids`` rows of a
    model's whole matrix ``sims`` over its ``col_ids`` columns, lowest
    column id on ties; rows in ``row_ids`` order, none when there is no
    column to pick.  One pass of ``models.masked_slabs``, whose slabs hold
    every column in id order, so a row's first maximum is its lowest id."""
    sims = np.asarray(sims, dtype=np.float64)
    rows = _ids_in(row_ids, sims.shape[0], "row")
    cols = _ids_in(col_ids, sims.shape[1], "column")
    rows = rows if len(cols) else rows[:0]
    best, top = np.empty(len(rows), dtype=np.int64), np.empty(len(rows))
    lo = 0
    for _, q in models.masked_slabs(sims, rows, cols):
        best[lo:lo + len(q)] = b = q.argmax(axis=1)
        top[lo:lo + len(q)] = q[np.arange(len(q)), b]
        lo += len(q)
    return rows, best, top


def _softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def calibrate_matrix(sims: np.ndarray, params: CalibrationParams) -> np.ndarray:
    """Row-wise calibrated probabilities for a dense similarity matrix."""
    sims = np.asarray(sims, dtype=np.float64)
    return _softmax((params.scale * sims + params.offset) / params.temperature)


def calibrate_row(
    sim_row: np.ndarray,
    params: CalibrationParams,
    entity: int = 0,
    cand_ids: tuple[int, ...] | None = None,
) -> ProbRow:
    """Calibrate one similarity row into a ProbRow.

    Candidate ids default to the row positions.  Order preserving for
    positive ``scale / temperature``.
    """
    sim_row = np.asarray(sim_row, dtype=np.float64)
    if sim_row.ndim != 1 or sim_row.shape[0] == 0:
        raise ValueError("sim_row must be a nonempty vector")
    if not np.all(np.isfinite(sim_row)):
        raise ValueError("sim_row must be finite")
    probs = calibrate_matrix(sim_row[None, :], params)[0]
    ids = tuple(range(sim_row.shape[0])) if cand_ids is None else tuple(cand_ids)
    return ProbRow(entity=entity, cand_ids=ids, probs=probs)


def cross_entropy_and_grad(
    sims: np.ndarray,
    truth_cols: np.ndarray,
    params: CalibrationParams,
) -> tuple[float, np.ndarray]:
    """Total cross-entropy over labelled rows and its gradient.

    Gradient is with respect to ``(offset, scale, log temperature)``.
    """
    sims = np.ascontiguousarray(sims, dtype=np.float64)
    truth_cols = np.asarray(truth_cols, dtype=np.int64)
    tau = params.temperature
    rows = np.arange(sims.shape[0])
    z = (params.scale * sims + params.offset) / tau
    p = z - z.max(axis=-1, keepdims=True)
    truth_logit = p[rows, truth_cols]
    np.exp(p, out=p)
    s = p.sum(axis=-1, keepdims=True)
    loss = float(-(truth_logit - np.log(s[:, 0])).sum())

    p /= s
    p[rows, truth_cols] -= 1.0  # dL/dz
    g_offset = float(p.sum() / tau)
    g_scale = float((p * sims).sum() / tau)
    g_logtau = float(-(p * z).sum())
    return loss, np.array([g_offset, g_scale, g_logtau])


def fit_calibration(sims: np.ndarray, truth_cols: np.ndarray) -> tuple[float, list[float]]:
    """Fit the inverse temperature β of a row softmax to labelled rows.

    ``sims`` holds one similarity row per labelled source entity and
    ``truth_cols`` the column of its ground-truth counterpart.  Returns β,
    which minimises the summed cross-entropy L(β) of the softmax of
    ``β * sims`` at the truths, and the trace of losses evaluated.

    L is convex, with slope Σ(E_p[row] - truth score).  If every truth is a
    maximum of its row, the slope is never positive: β is ``inf`` and the
    trace holds the limit loss, Σ log(entries tied at the row max).
    Otherwise a slope ≥ 0 at β = 0 (truths no higher than their row means)
    raises ``CalibrationError``.  Otherwise β is found by Newton's method on
    log β from β = 1, with steps clamped to ±1, a step of ±1 toward the
    minimum where the loss is concave in log β, and at most ``MAX_PASSES``
    passes.  A non-finite loss raises.

    Besides ``sims`` the fit holds a few per-row vectors and two buffers of
    ``models.slab_rows`` rows, into which each pass writes a slab's gaps to
    its row maxima and their exponentials.
    """
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim != 2:
        raise ValueError(f"labelled similarities must be 2-d, got shape {sims.shape}")
    if sims.shape[0] == 0:
        raise ValueError("need at least one labelled row")
    n_rows, n_cols = sims.shape
    truth_cols = np.asarray(truth_cols, dtype=np.int64)
    if truth_cols.shape != (n_rows,):
        raise ValueError("rows/truths shape mismatch")
    if np.any(truth_cols < 0) or np.any(truth_cols >= n_cols):
        raise ValueError("truth column out of range")
    truth_sims = sims[np.arange(n_rows), truth_cols]
    row_max = sims.max(axis=1)
    d_truth = truth_sims - row_max  # <= 0, and 0 at a truth on its row max
    if not d_truth.any():
        return np.inf, [float(np.log((sims == row_max[:, None]).sum(axis=1)).sum())]
    with np.errstate(over="ignore", invalid="ignore"):
        slope = float((sims.mean(axis=1) - truth_sims).sum())
        if not np.isfinite(slope):  # a row sum overflowed: average the gaps instead
            slope = float(((sims - row_max[:, None]).mean(axis=1) - d_truth).sum())
    if slope >= 0:
        raise CalibrationError("reverses the similarity order: the loss slope at "
                               f"beta = 0 is {slope!r}, not < 0")

    truth_sum = float(d_truth.sum())
    step_rows = models.slab_rows(n_cols)
    d = np.empty((min(step_rows, n_rows), n_cols))  # a slab of sims - row max
    e = np.empty_like(d)                            # and of exp(β d)
    s0, mean, square = np.empty(n_rows), np.empty(n_rows), np.empty(n_rows)
    log_beta = 0.0
    trace: list[float] = []
    # a pass that overflows raises from the finiteness check below, so
    # numpy's warnings would only precede that error
    with np.errstate(over="ignore", invalid="ignore"):
        for n_pass in range(1, MAX_PASSES + 1):
            beta = float(np.exp(log_beta))
            for lo in range(0, n_rows, step_rows):
                hi = min(lo + step_rows, n_rows)
                ds, es = d[:hi - lo], e[:hi - lo]
                np.subtract(sims[lo:hi], row_max[lo:hi, None], out=ds)
                np.multiply(ds, beta, out=es)
                np.exp(es, out=es)
                s0[lo:hi] = es.sum(axis=1)
                # Σ e·d and Σ e·d² per row, each in one pass without a temporary
                mean[lo:hi] = np.einsum("ij,ij->i", es, ds)
                square[lo:hi] = np.einsum("ij,ij,ij->i", es, ds, ds)
            mean /= s0  # E_p[d] and E_p[d²] per row
            square /= s0
            loss = float(np.log(s0).sum() - beta * truth_sum)
            # slope and curvature of the loss in log β
            grad = beta * float((mean - d_truth).sum())
            if not (np.isfinite(loss) and np.isfinite(grad)):
                raise CalibrationError(f"non-finite loss or slope at pass {n_pass}")
            trace.append(loss)
            curv = beta * beta * float(np.maximum(square - mean * mean, 0.0).sum()) + grad
            step = -grad / curv if curv > 0 else -np.sign(grad)
            step = min(max(step, -1.0), 1.0)
            if not abs(step) > STEP_TOL:
                break
            log_beta += step
    return beta, trace
