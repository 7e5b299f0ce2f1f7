"""Pluggable alignment models producing similarity matrices.

Three implementations share one small interface (``fit`` +
``similarities``); each wraps one source-row matrix in a ``SimMatrix`` once,
which checks it, and hands out that read-only view and, for the reverse
direction, its transposed view, never a copy:

* ``EmbeddingAligner`` — a trainable translation-style embedding model with
  margin ranking loss and hard parameter sharing: entities joined by a
  training mapping collapse to one vector, that of their smallest id.
  Each SGD step scores every positive once against its k grouped negatives,
  scatters the gradients into flat dense tables through ``complex128``
  views, one index per column pair, which adds every cell's terms exactly
  as a row-wise 2-d ``np.add.at`` does, and renormalizes every entity row.
  Rows of odd ``dim`` are padded by one column for the view.  The step's
  arrays are allocated once per ``fit`` and written in place.  Each
  ``fit`` ends by computing the one cosine product both directions read.
* ``SyntheticOracle`` — a deterministic test double whose similarity rows
  are correct for a configurable fraction of entities; it isolates the
  self-training machinery from model quality.
* ``ExternalSimilarityModel`` — serves matrices imported from the on-disk
  exchange format (see ``simio``) in place of an internal model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Protocol

import numpy as np

from .kg import KgPair, MappingSet

SRC_TO_TGT = "src_to_tgt"
TGT_TO_SRC = "tgt_to_src"

# bytes per slab of a similarity pass: a slab fits in a core's L2 cache, so
# the passes over it after its copy read no main memory
SLAB_BYTES = 1 << 20
# product rows per tile of a transposed slab's copy: a tile of a slab's
# columns is then small enough to transpose in cache, whatever the slab size
TILE_ROWS = 256


def slab_rows(n_cols: int) -> int:
    """Rows of ``n_cols`` float64 scores in one slab: at least one, and no
    more than fit in ``SLAB_BYTES``."""
    return max(1, SLAB_BYTES // (8 * max(n_cols, 1)))


def row_slabs(scores: np.ndarray, row_ids) -> Iterator[np.ndarray]:
    """``scores[row_ids]`` in consecutive slabs of ``slab_rows`` rows, each
    a fresh C-ordered copy, so a pass holds one slab at a time.

    A row of a transposed view is a column of the C-ordered matrix under
    it.  A slab of such rows is copied from the column range its ids span,
    in tiles of ``TILE_ROWS`` rows of that matrix, instead of by one strided
    gather over the whole matrix.
    """
    ids = np.asarray(row_ids, dtype=np.int64)
    under = scores.T
    step = slab_rows(scores.shape[1])
    for lo in range(0, len(ids), step):
        slab = ids[lo:lo + step]
        if not under.flags.c_contiguous:
            yield scores[slab]
            continue
        first = slab.min()
        span, local = slice(first, slab.max() + 1), slab - first
        out = np.empty((len(slab), len(under)))
        for t in range(0, len(under), TILE_ROWS):
            out[:, t:t + TILE_ROWS] = under[t:t + TILE_ROWS, span][:, local].T
        yield out


def masked_slabs(scores: np.ndarray, row_ids, col_ids):
    """``(ids, slab)`` for the ``row_ids`` of ``scores`` in the slabs of
    ``row_slabs``, with the columns outside ``col_ids`` at -inf."""
    rows = np.asarray(row_ids, dtype=np.int64)
    masked = np.ones(scores.shape[1], dtype=bool)
    masked[col_ids] = False
    masked = np.flatnonzero(masked)
    lo = 0
    for q in row_slabs(scores, rows):
        q[:, masked] = -np.inf
        yield rows[lo:lo + len(q)], q
        lo += len(q)


@dataclass(frozen=True)
class SimMatrix:
    """Dense similarity scores, one row per source-role entity (read-only)."""

    scores: np.ndarray
    direction: str = SRC_TO_TGT

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64).view()
        s.flags.writeable = False  # on the view: the caller's array keeps its flags
        object.__setattr__(self, "scores", s)
        if s.ndim != 2:
            raise ValueError("scores must be a 2-d matrix")
        # NaN propagates through both extremes, which each row slab gives
        # from cache; no n x n mask is built
        step = slab_rows(s.shape[1])
        for lo in range(0, len(s), step):
            q = s[lo:lo + step]
            if not (np.isfinite(q.max(initial=0.0)) and np.isfinite(q.min(initial=0.0))):
                raise ValueError("similarities must be finite")
        if self.direction not in (SRC_TO_TGT, TGT_TO_SRC):
            raise ValueError(f"bad direction: {self.direction!r}")

    def transposed(self) -> SimMatrix:
        """The other direction's matrix over the same scores: a transposed
        view, with no second finiteness check."""
        out = object.__new__(SimMatrix)
        object.__setattr__(out, "scores", self.scores.T)
        object.__setattr__(out, "direction",
                           TGT_TO_SRC if self.direction == SRC_TO_TGT else SRC_TO_TGT)
        return out


class AlignmentModel(Protocol):
    """What the self-training loop needs from a model."""

    def fit(self, kg_pair: KgPair, train: MappingSet, epochs: int) -> list[float]:
        """Update parameters on the given training mappings; returns the
        per-epoch loss trace."""

    def similarities(self, direction: str) -> SimMatrix:
        """Read-only similarity matrix for the requested direction."""


def _both_directions(forward: SimMatrix,
                     reverse: SimMatrix | None = None) -> dict[str, SimMatrix]:
    """A model's two matrices, built once: ``forward`` and ``reverse``, or
    ``forward``'s transposed view where there is no ``reverse``."""
    return {SRC_TO_TGT: forward,
            TGT_TO_SRC: forward.transposed() if reverse is None else reverse}


def _select(sims: dict[str, SimMatrix], direction: str) -> SimMatrix:
    if direction not in sims:
        raise ValueError(f"bad direction: {direction!r}")
    return sims[direction]


def _check_fit_args(train: MappingSet, epochs: int) -> None:
    """The argument checks of every model's ``fit``."""
    if len(train) == 0:
        raise ValueError("training mappings must be nonempty")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")


def _component_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest id in each of ``n`` nodes' component under the edges
    ``(a[i], b[i])``: spread each edge's smaller root to both endpoints,
    then jump pointers, until nothing changes."""
    root = np.arange(n)
    while True:
        prev = root.copy()
        m = np.minimum(root[a], root[b])
        np.minimum.at(root, a, m)
        np.minimum.at(root, b, m)
        root = root[root]
        if np.array_equal(root, prev):
            return root


class _StepBuffers:
    """The arrays an SGD step writes, sized for tables of ``n_ent`` and
    ``n_rel`` rows of ``dim`` and for up to ``batch`` positives with ``k``
    negatives each.  A step uses prefix slices, so one set serves every
    step of a fit, and freed temporaries are not faulted back in.

    The difference rows and the flat gradient tables are ``w = dim +
    dim % 2`` wide, so they can be viewed as ``complex128`` column pairs.
    For odd ``dim`` the last column is padding: it never enters a norm,
    the loss or a returned gradient."""

    def __init__(self, n_ent: int, n_rel: int, dim: int, batch: int, k: int):
        m = batch * k
        w = dim + dim % 2
        self.d_pos = np.empty((batch, w))
        self.d_neg = np.empty((m, w))
        self.sq = np.empty((max(m, n_ent), dim))  # squares of d_pos, d_neg or ent
        self.norm_pos = np.empty(batch)
        self.norm_neg = np.empty(m)
        self.flat = np.empty((m, w // 2), dtype=np.int64)  # column-pair indices
        self.pairs = np.arange(w // 2)
        # flat gradients: reshaping a non-contiguous table would copy
        self.g_ent = np.empty(n_ent * w)
        self.g_rel = np.empty(n_rel * w)
        self.row_norm = np.empty(n_ent)


def _row_norms(x: np.ndarray, buf: _StepBuffers, out: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)``, computed as it does, into ``out``."""
    sq = np.multiply(x, x, out=buf.sq[: len(x)])
    np.add.reduce(sq, axis=1, out=out)
    return np.sqrt(out, out=out)


def margin_ranking_loss_and_grad(
    ent: np.ndarray,
    rel: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    margin: float,
    buf: _StepBuffers | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Total hinge loss over (positive, corrupted) triple pairs.

    ``pos`` is a (b, 3) and ``neg`` a (b*k, 3) index array (head, relation,
    tail) into ``ent`` / ``rel``; negatives are grouped k per positive, so
    ``neg[i*k : (i+1)*k]`` pair with ``pos[i]``.  The loss per pair is
    ``max(0, margin + |h + r - t| - |h' + r' - t'|)`` with Euclidean norms.
    Returns the summed loss and dense gradients for both tables.

    Each positive is scored once.  The loss sums over the (b*k,) pair
    vector.  Every difference row is then divided by its norm once, in
    place, and the active pairs gather the unit rows, a positive's once
    per active pair; division is deterministic, so they equal the unit
    vectors of the pairwise layout.  Each gradient stream is scattered, in
    pair order, through ``complex128`` views of the unit rows and of a
    flat gradient table, one index per column pair.  A complex add or
    subtract is the IEEE float64 add or subtract of each component, so
    every cell takes the same terms in the same order as a row-wise 2-d
    scatter of the pairwise layout, and the result is bitwise that
    layout's, signs of zero included.  Rows are padded to an even width
    for the view (see ``_StepBuffers``); the gradients returned are
    ``[:, :dim]`` views of the padded tables.  The work arrays and the
    returned gradients live in ``buf``, which the trainer allocates once
    per fit; without it the call allocates its own.
    """
    k, rest = divmod(neg.shape[0], pos.shape[0])
    if rest or k < 1:
        raise ValueError("neg must hold k >= 1 rows per positive")
    b, m, dim = pos.shape[0], neg.shape[0], ent.shape[1]
    if buf is None:
        buf = _StepBuffers(ent.shape[0], rel.shape[0], dim, b, k)
    w = buf.d_pos.shape[1]
    d_pos, d_neg = buf.d_pos[:b], buf.d_neg[:m]
    norm_pos, norm_neg = buf.norm_pos[:b], buf.norm_neg[:m]
    # one gathered (rows, dim) temporary alive at a time: a freed pair of
    # them is enough for malloc to return the heap top to the system, and
    # the next step to fault it back in
    for d, norm, idx in ((d_pos, norm_pos, pos), (d_neg, norm_neg, neg)):
        d[:, dim:] = 0.0  # scattered into the gradients' pad: keep it finite
        d = d[:, :dim]
        d[...] = ent[idx[:, 0]]
        d += rel[idx[:, 1]]
        d -= ent[idx[:, 2]]
        _row_norms(d, buf, norm)
    viol = np.repeat(margin + norm_pos, k) - norm_neg
    active = viol > 0
    loss = float(np.where(active, viol, 0.0).sum())

    g_ent, g_rel = buf.g_ent[: ent.shape[0] * w], buf.g_rel[: rel.shape[0] * w]
    g_ent.fill(0.0)
    g_rel.fill(0.0)
    if active.any():
        pairs = np.flatnonzero(active)
        flat = buf.flat[: len(pairs)]
        c_ent, c_rel = g_ent.view(np.complex128), g_rel.view(np.complex128)
        for d, norm in ((d_pos, norm_pos), (d_neg, norm_neg)):
            d /= np.maximum(norm, 1e-12)[:, None]
        # the positive's streams first, then the negative's, in pair order
        for d, rows, idx, streams in (
            (d_pos, pairs // k, pos,
             ((np.add, c_ent, 0), (np.subtract, c_ent, 2), (np.add, c_rel, 1))),
            (d_neg, pairs, neg,
             ((np.subtract, c_ent, 0), (np.add, c_ent, 2), (np.subtract, c_rel, 1))),
        ):
            u = d[rows]
            tri = idx[rows]
            for ufunc, table, col in streams:
                np.add((tri[:, col] * (w // 2))[:, None], buf.pairs, out=flat)
                ufunc.at(table, flat.ravel(), u.view(np.complex128).ravel())
            del u
    return (loss, g_ent.reshape(ent.shape[0], w)[:, :dim],
            g_rel.reshape(rel.shape[0], w)[:, :dim])


@dataclass
class EmbeddingAlignerParams:
    dim: int = 64
    margin: float = 1.0
    negatives: int = 5
    lr: float = 0.01
    batch_size: int = 256


class EmbeddingAligner:
    """Translation-embedding aligner with parameter sharing.

    Entities of both graphs live in one table (target ids shifted by the
    source entity count); each training mapping merges its two entities into
    one equivalence class whose root (smallest id) vector is the only one
    trained.  The classes are recomputed from the training set on every
    ``fit`` so pseudo mappings regenerated between iterations never leave
    stale merges behind.  Entity vectors are renormalized to unit length
    after every update; the exposed similarity is their cosine, computed
    once at the end of each ``fit``.
    """

    def __init__(self, params: EmbeddingAlignerParams | None = None, seed: int = 0):
        self.params = params or EmbeddingAlignerParams()
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._ent: np.ndarray | None = None
        self._rel: np.ndarray | None = None
        self._n_src = 0
        self._n_rel_src = 0
        # both directions' cosines of the last fit
        self._sims: dict[str, SimMatrix] | None = None
        self._buf: _StepBuffers | None = None  # only while fitting
        self.loss_trace: list[float] = []

    def _init_tables(self, pair: KgPair) -> None:
        p = self.params
        n = pair.source.n_entities + pair.target.n_entities
        self._n_src = pair.source.n_entities
        self._n_rel_src = max(pair.source.n_relations, 1)
        ent = self._rng.normal(size=(n, p.dim))
        ent /= np.linalg.norm(ent, axis=1, keepdims=True)
        # relation tables are per KG, target relations offset past source ones
        rel = self._rng.normal(
            size=(self._n_rel_src + max(pair.target.n_relations, 1), p.dim)
        )
        rel /= np.linalg.norm(rel, axis=1, keepdims=True)
        self._ent, self._rel = ent, rel

    def fit(self, kg_pair: KgPair, train: MappingSet, epochs: int) -> list[float]:
        _check_fit_args(train, epochs)
        if self._ent is None:
            self._init_tables(kg_pair)
        assert self._ent is not None

        n_src = kg_pair.source.n_entities
        pairs = np.array(train.pairs, dtype=np.int64)
        root = _component_roots(self._ent.shape[0], pairs[:, 0], n_src + pairs[:, 1])
        # every member row follows its root vector from the start of the fit
        self._ent = self._ent[root]

        triples = [(h, r, t, 0) for h, r, t in kg_pair.source.triples]
        triples += [
            (n_src + h, r, n_src + t, 1) for h, r, t in kg_pair.target.triples
        ]
        trip = np.array(triples, dtype=np.int64)
        trip[:, 0] = root[trip[:, 0]]
        trip[:, 2] = root[trip[:, 2]]

        p = self.params
        trace = []
        # released on return: a model between fits holds no step buffers
        self._buf = _StepBuffers(self._ent.shape[0], self._rel.shape[0], p.dim,
                                 min(p.batch_size, trip.shape[0]), p.negatives)
        try:
            # an overflowing step raises from its own finiteness check, so
            # numpy's warnings would only precede that error
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(epochs):
                    order = self._rng.permutation(trip.shape[0])
                    epoch_loss = 0.0
                    n_pairs = 0
                    for start in range(0, trip.shape[0], p.batch_size):
                        batch = trip[order[start : start + p.batch_size]]
                        epoch_loss += self._step(batch, kg_pair, root)
                        n_pairs += batch.shape[0] * p.negatives
                    trace.append(epoch_loss / max(n_pairs, 1))
        finally:
            self._buf = None
        # flatten: every entity row holds its effective (root) vector so the
        # classes can be recomputed freely on the next fit
        self._ent = self._ent[root]
        # rows are unit vectors, so this is the cosine
        self._sims = _both_directions(
            SimMatrix(self._ent[: self._n_src] @ self._ent[self._n_src :].T))
        self.loss_trace.extend(trace)
        return trace

    def _step(self, batch: np.ndarray, pair: KgPair, root: np.ndarray) -> float:
        p = self.params
        n_src = pair.source.n_entities
        k = p.negatives
        m = batch.shape[0] * k
        corrupt_tail = self._rng.integers(0, 2, size=m).astype(bool)
        repl = np.where(
            np.repeat(batch[:, 3] == 0, k),
            self._rng.integers(0, n_src, size=m),
            n_src + self._rng.integers(0, pair.target.n_entities, size=m),
        )
        repl = root[repl]
        pos = batch[:, :3].copy()
        pos[:, 1] += self._n_rel_src * batch[:, 3]
        neg = np.repeat(pos, k, axis=0)
        neg[corrupt_tail, 2] = repl[corrupt_tail]
        neg[~corrupt_tail, 0] = repl[~corrupt_tail]

        buf = self._buf
        loss, g_ent, g_rel = margin_ranking_loss_and_grad(
            self._ent, self._rel, pos, neg, p.margin, buf
        )
        for table, grad in ((self._ent, g_ent), (self._rel, g_rel)):
            grad *= p.lr
            table -= grad
        # all rows: renormalizing only touched ones would change the others' bits
        norms = _row_norms(self._ent, buf, buf.row_norm)
        if not (np.isfinite(loss) and np.isfinite(norms.max())):
            raise ValueError(f"training overflowed: lower lr ({p.lr}) or margin ({p.margin})")
        self._ent /= np.maximum(norms, 1e-12, out=norms)[:, None]
        return loss

    def similarities(self, direction: str = SRC_TO_TGT) -> SimMatrix:
        if self._sims is None:
            raise RuntimeError("model must be fitted before querying similarities")
        return _select(self._sims, direction)


class SyntheticOracle:
    """Deterministic similarity oracle built from ground-truth mappings.

    For a ``1 - noise_rate`` fraction of truth-covered source entities the
    row maximum sits on the true counterpart (score in [0.8, 1.0]); for the
    remaining (exactly ``round(noise_rate * n)``) rows it sits on a random
    wrong candidate.  Every other cell is drawn from [0, 0.5].  ``fit`` is a
    no-op: the oracle's scores never react to training.
    """

    def __init__(
        self,
        kg_pair: KgPair,
        truth: MappingSet,
        noise_rate: float = 0.0,
        seed: int = 0,
    ):
        if not (0.0 <= noise_rate <= 1.0):
            raise ValueError("noise_rate must be in [0, 1]")
        rng = np.random.Generator(np.random.PCG64(seed))
        n_src = kg_pair.source.n_entities
        n_tgt = kg_pair.target.n_entities
        m = rng.uniform(0.0, 0.5, size=(n_src, n_tgt))
        truth_rows = sorted({s for s, _ in truth.pairs})
        truth_map = dict(truth.pairs)
        n_noised = round(noise_rate * len(truth_rows))
        noised = set(
            np.array(truth_rows)[rng.permutation(len(truth_rows))[:n_noised]].tolist()
        )
        for u in truth_rows:
            t = truth_map[u]
            if u in noised:
                wrong = int(rng.integers(0, n_tgt - 1))
                if wrong >= t:
                    wrong += 1
                m[u, wrong] = rng.uniform(0.8, 1.0)
            else:
                m[u, t] = rng.uniform(0.8, 1.0)
        self._matrix = m

    def fit(self, kg_pair: KgPair, train: MappingSet, epochs: int) -> list[float]:
        _check_fit_args(train, epochs)
        return [0.0] * epochs

    @cached_property
    def _sims(self) -> dict[str, SimMatrix]:
        # on first use, so a run's set-up does not pay for the check
        return _both_directions(SimMatrix(self._matrix))

    def similarities(self, direction: str = SRC_TO_TGT) -> SimMatrix:
        return _select(self._sims, direction)


@dataclass(frozen=True)
class ExternalSimilarityModel:
    """Serves imported similarity matrices instead of training a model;
    without a ``reverse`` matrix the reverse direction reads ``forward``
    transposed."""

    forward: SimMatrix
    reverse: SimMatrix | None = None

    def __post_init__(self):
        object.__setattr__(self, "_sims", _both_directions(self.forward, self.reverse))

    def fit(self, kg_pair: KgPair, train: MappingSet, epochs: int) -> list[float]:
        _check_fit_args(train, epochs)
        return [0.0] * epochs

    def similarities(self, direction: str = SRC_TO_TGT) -> SimMatrix:
        return _select(self._sims, direction)
