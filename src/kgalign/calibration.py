"""Learned softmax calibration of similarity scores into probabilities.

A similarity row is first transformed linearly (``scale * sim + offset``)
and then pushed through a temperature softmax.  The three parameters are
fit by full-batch gradient descent on the cross-entropy of the labelled
rows.  Temperature is kept positive by optimizing its log.

The refinement and the strategies share its lowest-id argmax over a checked
``len(row_ids) × len(col_ids)`` similarity block read in ascending id order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CalibrationError(RuntimeError):
    """Raised when a calibration fit has a non-finite loss or reverses order."""


@dataclass(frozen=True)
class CalibrationParams:
    """Parameters of the similarity-to-probability model.

    ``temperature`` is stored directly but optimized as ``log temperature``
    so it stays positive without projection.
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
        if len(self.cand_ids) != p.shape[0]:
            raise ValueError("cand_ids / probs length mismatch")
        if len(set(self.cand_ids)) != len(self.cand_ids):
            raise ValueError("duplicate candidate ids")
        # a NaN minimum fails ``>= 0`` (every NaN comparison is False), and an
        # infinity fails the sum; ``initial`` lets an empty row reach the sum
        if not (p.min(initial=0.0) >= 0 and abs(float(p.sum()) - 1.0) <= 1e-9):
            raise ValueError("probabilities must be finite, nonnegative and sum to 1")

    def argmax_candidate(self) -> int:
        """Highest-probability candidate; ties break to the lowest id."""
        return argmax_lowest_id(self.cand_ids, self.probs)


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


def _sim_best(sims, row_ids, col_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row ids, argmax column ids, maxima)`` of a similarity block's rows,
    lowest column id on ties; no rows when there is no column to pick."""
    sims, cols = _by_id(_sim_block(sims, row_ids, col_ids), col_ids, axis=1)
    rows = np.asarray(row_ids, dtype=np.int64)
    if not sims.size:
        rows = rows[:0]
        return rows, rows, np.zeros(0)
    best = sims.argmax(axis=1)
    return rows, cols[best], sims[np.arange(len(sims)), best]


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
    return _cross_entropy_into(
        sims, np.asarray(truth_cols, dtype=np.int64), params,
        np.empty_like(sims), np.empty_like(sims),
    )


def _cross_entropy_into(sims, truth_cols, params, z, p) -> tuple[float, np.ndarray]:
    """``cross_entropy_and_grad`` computed in the caller's buffers ``z``
    and ``p``, each shaped like ``sims``; allocates no array of that shape."""
    tau = params.temperature
    rows = np.arange(sims.shape[0])
    np.multiply(params.scale, sims, out=z)
    z += params.offset
    z /= tau
    np.subtract(z, z.max(axis=-1, keepdims=True), out=p)
    truth_logit = p[rows, truth_cols]
    np.exp(p, out=p)
    s = p.sum(axis=-1, keepdims=True)
    loss = float(-(truth_logit - np.log(s[:, 0])).sum())

    p /= s
    p[rows, truth_cols] -= 1.0  # dL/dz
    g_offset = float(p.sum() / tau)
    g_logtau = float(-np.multiply(p, z, out=z).sum())
    g_scale = float(np.multiply(p, sims, out=z).sum() / tau)
    return loss, np.array([g_offset, g_scale, g_logtau])


def fit_calibration(
    sims: np.ndarray,
    truth_cols: np.ndarray,
    init: CalibrationParams | None = None,
    lr: float = 0.05,
    epochs: int = 200,
) -> tuple[CalibrationParams, list[float]]:
    """Fit calibration parameters by full-batch gradient descent.

    ``sims`` holds one similarity row per labelled source entity and
    ``truth_cols`` the column of its ground-truth counterpart.  Returns the
    best-loss iterate (never worse than ``init``) together with the loss
    trace of ``epochs + 1`` losses.  Raises ``CalibrationError`` if the loss
    leaves the finite range, reporting the offending epoch.

    An epoch is a pure function of the parameters, so once a step leaves
    them bitwise unchanged (the gradient underflows against them, or is
    exactly 0) every later epoch would repeat this one: the loop stops and
    pads the trace with the current loss.
    """
    sims = np.ascontiguousarray(sims, dtype=np.float64)
    if sims.ndim != 2 or sims.shape[0] == 0:
        raise ValueError("need at least one labelled row")
    truth_cols = np.asarray(truth_cols, dtype=np.int64)
    # the epochs reuse two buffers: freeing and reallocating row-sized
    # temporaries every epoch costs a page fault per page
    z, p = np.empty_like(sims), np.empty_like(sims)
    params = init or CalibrationParams()
    theta = np.array([params.offset, params.scale, np.log(params.temperature)])

    trace: list[float] = []
    best_theta = theta.copy()
    best_loss = np.inf
    for epoch in range(epochs + 1):
        tau = float(np.exp(theta[2]))
        if not (np.all(np.isfinite(theta)) and np.isfinite(tau) and tau > 0.0):
            raise CalibrationError(
                f"non-finite loss at epoch {epoch} (temperature left float range)"
            )
        cur = CalibrationParams(
            offset=float(theta[0]), scale=float(theta[1]),
            temperature=float(np.exp(theta[2])),
        )
        loss, grad = _cross_entropy_into(sims, truth_cols, cur, z, p)
        if not np.isfinite(loss):
            raise CalibrationError(f"non-finite loss at epoch {epoch}")
        trace.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_theta = theta.copy()
        if epoch == epochs:
            break
        nxt = theta - lr * grad
        # bytes, not values: -0.0 == 0.0, and the sign of an offset is output
        if nxt.tobytes() == theta.tobytes():
            trace.extend([loss] * (epochs - epoch))
            break
        theta = nxt

    if epochs == 0:
        return params, trace
    return (
        CalibrationParams(
            offset=float(best_theta[0]), scale=float(best_theta[1]),
            temperature=float(np.exp(best_theta[2])),
        ),
        trace,
    )
