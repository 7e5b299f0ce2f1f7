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
``target_id:score`` pairs sorted by descending score.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .models import SRC_TO_TGT, TGT_TO_SRC, SimMatrix, TopKSimMatrix

FORMAT_TAG = "#sim-format v1"
_HEADER_TYPES = {"rows": int, "cols": int, "fill": float}


class SimFormatError(ValueError):
    """Raised for malformed or inconsistent similarity files."""


def write_sim_matrix(path: str | Path, matrix: SimMatrix | TopKSimMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_TAG + "\n")
        fh.write(f"#direction {matrix.direction}\n")
        if isinstance(matrix, SimMatrix):
            n_rows, n_cols = matrix.scores.shape
            fh.write(f"#rows {n_rows}\n#cols {n_cols}\n#layout dense\n")
            for row in matrix.scores:
                fh.write("\t".join(repr(float(v)) for v in row) + "\n")
        else:
            n_rows = matrix.cand_ids.shape[0]
            fh.write(f"#rows {n_rows}\n#cols {matrix.n_cols}\n#layout topk\n")
            fh.write(f"#fill {matrix.fill!r}\n")
            for ids, scores in zip(matrix.cand_ids, matrix.scores):
                fh.write(
                    "\t".join(f"{int(i)}:{float(v)!r}" for i, v in zip(ids, scores))
                    + "\n"
                )


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
            if key == "fill" and not np.isfinite(header[key]):
                raise ValueError
        except ValueError:
            raise SimFormatError(f"{path}:{i + 1}: bad #{key} {value!r}") from None
        i += 1
    for required in ("direction", "rows", "cols", "layout"):
        if required not in header:
            raise SimFormatError(f"{path}: header missing #{required}")
    return header, i


def _require_finite(scores, path, lineno: int) -> None:
    if not np.all(np.isfinite(scores)):
        raise SimFormatError(f"{path}:{lineno}: similarities must be finite")


def read_sim_matrix(path: str | Path) -> SimMatrix | TopKSimMatrix:
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
            _require_finite(scores[i], path, lineno)
        return SimMatrix(scores=scores, direction=header["direction"])

    if header["layout"] == "topk":
        if "fill" not in header:
            raise SimFormatError(f"{path}: topk layout requires #fill")
        rows_ids, rows_scores = [], []
        for lineno, ln in body:
            toks = [tok.split(":") for tok in ln.split("\t")]
            try:
                rows_ids.append([int(ident) for ident, _ in toks])
                rows_scores.append([float(val) for _, val in toks])
            except ValueError as exc:
                raise SimFormatError(
                    f"{path}:{lineno}: expected id:score pairs ({exc})") from None
            _require_finite(rows_scores[-1], path, lineno)
        widths = {len(r) for r in rows_ids}
        if len(widths) != 1:
            raise SimFormatError(f"{path}: inconsistent top-k row widths {widths}")
        try:
            return TopKSimMatrix(
                cand_ids=np.array(rows_ids, dtype=np.int64),
                scores=np.array(rows_scores),
                fill=header["fill"],
                n_cols=n_cols,
                direction=header["direction"],
            )
        except ValueError as exc:
            raise SimFormatError(f"{path}: {exc}") from None

    raise SimFormatError(f"{path}: unknown layout {header['layout']!r}")


def validate_against(matrix: SimMatrix | TopKSimMatrix, n_src: int, n_tgt: int) -> None:
    """Check matrix dimensions against a loaded KG pair."""
    if isinstance(matrix, SimMatrix):
        rows, cols = matrix.scores.shape
    else:
        rows, cols = matrix.cand_ids.shape[0], matrix.n_cols
    want = (n_src, n_tgt) if matrix.direction == "src_to_tgt" else (n_tgt, n_src)
    if (rows, cols) != want:
        raise SimFormatError(
            f"matrix is {rows}x{cols} but the loaded KGs require {want[0]}x{want[1]} "
            f"for direction {matrix.direction}"
        )


def read_dense_sim(path: str | Path, direction: str, n_src: int, n_tgt: int) -> SimMatrix:
    """Read a similarity file that must hold ``direction``, check it against
    the loaded KG sizes and return it dense."""
    matrix = read_sim_matrix(path)
    if matrix.direction != direction:
        raise SimFormatError(
            f"{path}: direction is {matrix.direction}, expected {direction}"
        )
    validate_against(matrix, n_src, n_tgt)
    return matrix.to_dense() if isinstance(matrix, TopKSimMatrix) else matrix
