"""On-disk exchange format for similarity matrices.

Lets externally trained models plug into the self-training loop: a small
header describes direction and dimensions (entity ids reference the loaded
KGs' interning order), followed by one row per source-role entity.

Dense layout::

    #sim-format v1
    #direction src_to_tgt
    #rows 3
    #cols 4
    #layout dense
    0.1<TAB>0.9<TAB>0.0<TAB>0.2
    ...

Top-K sparse layout replaces ``#layout dense`` with ``#layout topk`` plus a
``#fill <score>`` line for the implicit tail, and each row holds
``target_id:score`` pairs sorted by descending score.  It is an input
only: the reader returns the dense matrix it stands for, every cell outside
a row's candidates at ``#fill``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .models import SRC_TO_TGT, TGT_TO_SRC, SimMatrix

FORMAT_TAG = "#sim-format v1"
_HEADER_TYPES = {"rows": int, "cols": int, "fill": float}
_FINITE = "similarities must be finite"


class SimFormatError(ValueError):
    """Raised for malformed or inconsistent similarity files."""


def write_sim_matrix(path: str | Path, matrix: SimMatrix) -> None:
    """Write ``matrix`` in the dense layout; every float round-trips."""
    n_rows, n_cols = matrix.scores.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FORMAT_TAG}\n#direction {matrix.direction}\n"
                 f"#rows {n_rows}\n#cols {n_cols}\n#layout dense\n")
        for row in matrix.scores:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")


def _parse_header(lines: list[str], path) -> tuple[dict, int]:
    if not lines or lines[0].strip() != FORMAT_TAG:
        raise SimFormatError(f"{path}: missing '{FORMAT_TAG}' header")
    header: dict = {}
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].partition(" ")
        key, value = key.strip(), value.strip()
        try:
            if key == "direction" and value not in (SRC_TO_TGT, TGT_TO_SRC):
                raise ValueError
            header[key] = _HEADER_TYPES.get(key, str)(value)
        except ValueError:
            raise SimFormatError(f"{path}:{i + 1}: bad #{key} {value!r}") from None
        if key == "fill" and not np.isfinite(header[key]):
            raise SimFormatError(f"{path}:{i + 1}: bad #fill {value!r}: {_FINITE}")
        i += 1
    for required in ("direction", "rows", "cols", "layout"):
        if required not in header:
            raise SimFormatError(f"{path}: header missing #{required}")
    return header, i


def _check_rows(bad: np.ndarray, what: str, body: list[tuple[int, str]], path) -> None:
    """Raise for the first body row that ``bad`` flags, naming its line."""
    if bad.any():
        i = int(np.argmax(bad))
        raise SimFormatError(f"{path}:{body[i][0]}: row {i}: {what}")


def _read_topk(body: list[tuple[int, str]], header: dict, path) -> np.ndarray:
    """The dense scores a top-K body stands for: ``#fill`` everywhere but at
    each row's candidates.  The parsed ``(rows, k)`` id and score blocks
    are checked as one block; an error names the first bad row's line."""
    if "fill" not in header:
        raise SimFormatError(f"{path}: topk layout requires #fill")
    ids, scores = [], []
    for lineno, ln in body:
        try:
            toks = [tok.split(":") for tok in ln.split("\t")]
            ids.append([int(ident) for ident, _ in toks])
            scores.append([float(val) for _, val in toks])
        except ValueError as exc:
            raise SimFormatError(
                f"{path}:{lineno}: expected id:score pairs ({exc})") from None
        if len(toks) != len(ids[0]):
            raise SimFormatError(f"{path}:{lineno}: row has {len(toks)} candidates, "
                                 f"the first row {len(ids[0])}")
    n_rows, n_cols = len(body), header["cols"]
    shape = (n_rows, len(ids[0]) if ids else 0)
    try:
        ids = np.array(ids, dtype=np.int64).reshape(shape)
    except OverflowError:  # an id past int64 is out of range: clamp it to one that is
        ids = np.array([[min(max(i, -1), n_cols) for i in r] for r in ids]).reshape(shape)
    scores = np.array(scores).reshape(shape)
    _check_rows(~np.isfinite(scores).all(axis=1), _FINITE, body, path)
    _check_rows((np.diff(scores, axis=1) > 0).any(axis=1),
                "candidates must be sorted by descending score", body, path)
    ordered = np.sort(ids, axis=1)
    _check_rows(((ordered < 0) | (ordered >= n_cols)).any(axis=1)
                | (np.diff(ordered, axis=1) == 0).any(axis=1),
                f"candidate ids must be distinct and in [0, {n_cols})", body, path)
    dense = np.full((n_rows, n_cols), header["fill"])
    dense[np.arange(n_rows)[:, None], ids] = scores
    return dense


def read_sim_matrix(path: str | Path) -> SimMatrix:
    """The similarity matrix a file holds; a top-K file is read into the
    dense matrix it stands for."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header, body_start = _parse_header(lines, path)
    n_rows, n_cols = header["rows"], header["cols"]
    body = [(n, ln) for n, ln in enumerate(lines, 1) if n > body_start and ln.strip()]
    if len(body) != n_rows:
        raise SimFormatError(f"{path}: expected {n_rows} rows, found {len(body)}")

    if header["layout"] == "dense":
        scores = np.empty((n_rows, n_cols))
        for i, (lineno, ln) in enumerate(body):
            vals = ln.split("\t")
            if len(vals) != n_cols:
                raise SimFormatError(f"{path}:{lineno}: row {i} has {len(vals)} columns")
            try:
                scores[i] = [float(v) for v in vals]
            except ValueError as exc:
                raise SimFormatError(f"{path}:{lineno}: {exc}") from None
        _check_rows(~np.isfinite(scores).all(axis=1), _FINITE, body, path)
    elif header["layout"] == "topk":
        scores = _read_topk(body, header, path)
    else:
        raise SimFormatError(f"{path}: unknown layout {header['layout']!r}")
    return SimMatrix(scores=scores, direction=header["direction"])


def validate_against(matrix: SimMatrix, n_src: int, n_tgt: int) -> None:
    """Check matrix dimensions against a loaded KG pair."""
    rows, cols = matrix.scores.shape
    want = (n_src, n_tgt) if matrix.direction == "src_to_tgt" else (n_tgt, n_src)
    if (rows, cols) != want:
        raise SimFormatError(
            f"matrix is {rows}x{cols} but the loaded KGs require {want[0]}x{want[1]} "
            f"for direction {matrix.direction}"
        )


def read_dense_sim(path: str | Path, direction: str, n_src: int, n_tgt: int) -> SimMatrix:
    """Read a similarity file that must hold ``direction`` and check it
    against the loaded KG sizes."""
    matrix = read_sim_matrix(path)
    if matrix.direction != direction:
        raise SimFormatError(
            f"{path}: direction is {matrix.direction}, expected {direction}"
        )
    validate_against(matrix, n_src, n_tgt)
    return matrix
