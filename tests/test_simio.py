import numpy as np
import pytest

from kgalign.models import SimMatrix, TopKSimMatrix
from kgalign.simio import (
    SimFormatError,
    read_sim_matrix,
    validate_against,
    write_sim_matrix,
)
from oracle import top_k_of


def test_dense_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = SimMatrix(scores=rng.normal(size=(4, 6)), direction="tgt_to_src")
    p = tmp_path / "m.tsv"
    write_sim_matrix(p, m)
    back = read_sim_matrix(p)
    assert back.direction == "tgt_to_src"
    assert np.array_equal(back.scores, m.scores)  # repr round-trips floats


def test_topk_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    top = top_k_of(SimMatrix(scores=rng.normal(size=(5, 9))), k=3, fill=-2.0)
    p = tmp_path / "m.tsv"
    write_sim_matrix(p, top)
    back = read_sim_matrix(p)
    assert isinstance(back, TopKSimMatrix)
    assert np.array_equal(back.cand_ids, top.cand_ids)
    assert np.array_equal(back.scores, top.scores)
    assert back.fill == top.fill
    assert back.n_cols == 9


def test_missing_header_rejected(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("1.0\t2.0\n", encoding="utf-8")
    with pytest.raises(SimFormatError, match="header"):
        read_sim_matrix(p)


def test_row_count_mismatch_rejected(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text(
        "#sim-format v1\n#direction src_to_tgt\n#rows 2\n#cols 2\n#layout dense\n"
        "0.0\t1.0\n",
        encoding="utf-8",
    )
    with pytest.raises(SimFormatError, match="rows"):
        read_sim_matrix(p)


def test_column_mismatch_rejected(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text(
        "#sim-format v1\n#direction src_to_tgt\n#rows 1\n#cols 3\n#layout dense\n"
        "0.0\t1.0\n",
        encoding="utf-8",
    )
    with pytest.raises(SimFormatError, match="columns"):
        read_sim_matrix(p)


def test_validate_against_dimensions():
    m = SimMatrix(scores=np.zeros((3, 4)))
    validate_against(m, 3, 4)
    with pytest.raises(SimFormatError):
        validate_against(m, 4, 3)
    rev = SimMatrix(scores=np.zeros((4, 3)), direction="tgt_to_src")
    validate_against(rev, 3, 4)


@pytest.mark.parametrize("row", ["2:0.9\t-1:0.5", "2:0.9\t2:0.5", "2:0.9\t3:0.5"])
def test_topk_rejects_bad_candidate_ids(tmp_path, row):
    # negative, duplicate and out-of-range ids; #cols is 3
    p = tmp_path / "m.tsv"
    p.write_text(
        "#sim-format v1\n#direction src_to_tgt\n#rows 2\n#cols 3\n#layout topk\n"
        f"#fill 0.0\n0:0.9\t1:0.5\n{row}\n",
        encoding="utf-8",
    )
    with pytest.raises(SimFormatError, match="row 1"):
        read_sim_matrix(p)


HEADER = "#sim-format v1\n#direction {direction}\n#rows {rows}\n#cols 2\n#layout {layout}\n"


@pytest.mark.parametrize("text, line", [
    # top-K token without ":score"
    (HEADER.format(direction="src_to_tgt", rows=1, layout="topk")
     + "#fill 0.0\n0:0.9\t1\n", 7),
    # non-numeric dense value
    (HEADER.format(direction="src_to_tgt", rows=2, layout="dense")
     + "0.1\t0.2\nabc\t0.3\n", 7),
    # non-integer #rows
    (HEADER.format(direction="src_to_tgt", rows="two", layout="dense")
     + "0.1\t0.2\n0.3\t0.4\n", 3),
    # non-numeric #fill
    (HEADER.format(direction="src_to_tgt", rows=1, layout="topk")
     + "#fill low\n0:0.9\t1:0.5\n", 6),
    # a direction the format does not know
    (HEADER.format(direction="sideways", rows=1, layout="dense")
     + "0.1\t0.2\n", 2),
    # non-finite dense value
    (HEADER.format(direction="src_to_tgt", rows=2, layout="dense")
     + "0.1\t0.2\nnan\t0.3\n", 7),
    # non-finite top-K score
    (HEADER.format(direction="src_to_tgt", rows=1, layout="topk")
     + "#fill 0.0\n0:inf\t1:0.5\n", 7),
    # non-finite #fill
    (HEADER.format(direction="src_to_tgt", rows=1, layout="topk")
     + "#fill nan\n0:0.9\t1:0.5\n", 6),
], ids=["topk-missing-score", "dense-non-numeric", "rows-not-int", "fill-not-float",
        "unknown-direction", "dense-nan", "topk-inf", "fill-nan"])
def test_malformed_file_names_file_and_line(tmp_path, text, line):
    p = tmp_path / "m.tsv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(SimFormatError, match=f"m.tsv:{line}: "):
        read_sim_matrix(p)


@pytest.mark.parametrize("scores, fill", [
    ([[0.9, np.nan]], 0.0), ([[np.inf, 0.5]], 0.0), ([[0.9, 0.5]], np.nan),
], ids=["nan-score", "inf-score", "nan-fill"])
def test_topk_matrix_rejects_nonfinite(scores, fill):
    with pytest.raises(ValueError, match="finite"):
        TopKSimMatrix(cand_ids=np.array([[0, 1]]), scores=np.array(scores),
                      fill=fill, n_cols=2)
