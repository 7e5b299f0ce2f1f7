"""Reference implementations the tests compare the package against.

Everything here reads a graph straight off ``kg.triples`` into dicts and
sets and never touches the package's directed-edge arrays, so it checks them
as well as the code that reads them.  It is slow by design and only usable
on tiny instances, such as those ``random_kg`` draws.  The add-one
fallback of the sub-relation probabilities is stated here too, in
``prob_tgt_in_src`` and ``prob_src_in_tgt``, and ``write_top_k`` writes a
matrix's top-K file and returns the dense matrix that file stands for.

``kg_from_label_triples`` is the interning as it was written before it
became a ``setdefault`` per label and one ``dict.fromkeys`` over the id
triples: two interning closures, a set of seen triples and a counter of
the repeats.  The package must build an equal ``Kg``.
``write_partition_by_ids`` is ``kgalign partition`` as it interned the link
labels to ids before it split the label pairs themselves; the command must
write the same bytes.

The trainer's parameter-sharing roots are checked against ``UnionFind``,
a path-halving union-find that roots every class at its smallest id.

The trainer references are the pairwise formulation of the embedding
model's SGD step: every positive repeated once per negative and the
gradients scattered row by row into 2-d tables.  The package's step must
reproduce them bit for bit.

The calibration references compute every step into a fresh temporary;
the package's in-place versions must match them bit for bit.  The fit of
β is checked against a golden-section search over log β, and against
``fit_calibration``, the fit as it was computed over whole labelled blocks
before it wrote its gaps and exponentials one slab at a time: β, the loss
trace and any error must be the same.

``factor_sums`` and ``factor_own_log_survival`` are the compiled factor
model's sums with a separate join for each group of edges, as the package
computed them before its factor sums shared one join; the package must
match them bit for bit.

``refine_one_block`` is the refinement as one block over the gathered
``(row_ids, col_ids)`` similarities, with the reference assignment; the
package reads row slabs and must return the same assignment and rows.

The references take an assignment as a dict from source entity to
counterpart; the package takes one ``int64`` array with -1 where an entity
has none.  ``assignment_array`` and ``assignment_mapping`` convert between
the two.

The strategy references pick pairs one strategy at a time, by dict lookups
and rescans, and order the one-to-one edges with Python's ``sorted``.  The
package's strategies must return the same pairs and scores.

``reference_iteration`` composes the assignment, statistics, refinement
and strategy references above into one self-training iteration over
gathered dense blocks, with the evaluation's ranks counted cell by cell; a
run must give the same pseudo pairs, their scores within 1e-12, and the
same hit@1, hit@10 and MRR.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np
from hypothesis import strategies as st

from kgalign import calibration, compatibility
from kgalign.calibration import CalibrationError, argmax_lowest_id
from kgalign.compatibility import RelationStats
from kgalign.kg import Kg, MappingSet, _ranges, _run_starts, partition_mappings
from kgalign.models import SimMatrix

JOINT_ENUMERATION_CAP = 10**5


def random_kg(data, prefix: str, max_entities: int = 7) -> Kg:
    """Draw a small KG with self-loops, parallel edges and isolated entities."""
    n = data.draw(st.integers(1, max_entities))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.integers(0, n - 1)),
        min_size=1, max_size=3 * n,
    ))
    return Kg.from_label_triples(
        [(f"{prefix}{h}", f"r{r}", f"{prefix}{t}") for h, r, t in edges],
        extra_entities=tuple(f"{prefix}{i}" for i in range(n)),
    )


def kg_from_label_triples(triples, extra_entities=()) -> Kg:
    """``Kg.from_label_triples`` by explicit loops."""
    ent_ids: dict[str, int] = {}
    rel_ids: dict[str, int] = {}

    def ent(label: str) -> int:
        if label not in ent_ids:
            ent_ids[label] = len(ent_ids)
        return ent_ids[label]

    def rel(label: str) -> int:
        if label not in rel_ids:
            rel_ids[label] = len(rel_ids)
        return rel_ids[label]

    seen: set[tuple[int, int, int]] = set()
    id_triples: list[tuple[int, int, int]] = []
    dropped = 0
    for h, r, t in triples:
        trip = (ent(h), rel(r), ent(t))
        if trip in seen:
            dropped += 1
            continue
        seen.add(trip)
        id_triples.append(trip)
    for label in extra_entities:
        ent(label)
    return Kg(
        entity_labels=tuple(sorted(ent_ids, key=ent_ids.get)),
        relation_labels=tuple(sorted(rel_ids, key=rel_ids.get)),
        triples=tuple(id_triples),
        duplicates_dropped=dropped,
        entity_ids=ent_ids,
        relation_ids=rel_ids,
    )


def write_partition_by_ids(rows, ratio: float, seed: int, out) -> None:
    """``kgalign partition`` as it was written when it interned the link
    labels itself: ids per side by first appearance, the id pairs
    deduplicated and partitioned, and each pair written back through the
    label lists, then the manifest."""
    labels_s = list(dict.fromkeys(s for s, _ in rows))
    labels_t = list(dict.fromkeys(t for _, t in rows))
    ids_s = {s: i for i, s in enumerate(labels_s)}
    ids_t = {t: i for i, t in enumerate(labels_t)}
    links = MappingSet(tuple(dict.fromkeys((ids_s[s], ids_t[t]) for s, t in rows)))
    part = partition_mappings(links, ratio, seed)
    out.mkdir(parents=True, exist_ok=True)
    for name, mappings in (("labelled.tsv", part.labelled), ("test.tsv", part.test)):
        with open(out / name, "w", encoding="utf-8") as fh:
            for s, t in mappings.pairs:
                fh.write(f"{labels_s[s]}\t{labels_t[t]}\n")
    (out / "partition_manifest.txt").write_text(
        f"ratio = {part.ratio}\nseed = {part.seed}\n"
        f"n_labelled = {len(part.labelled)}\nn_test = {len(part.test)}\n", encoding="utf-8")


def directed_adjacency(kg, e: int) -> list[tuple[int, int]]:
    """(directed relation, neighbor) pairs around ``e``: outgoing triples in
    triple order, then incoming ones as inverse ids ``r + n_relations``."""
    n_rel = kg.n_relations
    out = [(r, t) for h, r, t in kg.triples if h == e]
    inc = [(r + n_rel, h) for h, r, t in kg.triples if t == e]
    return out + inc


def neighbors(kg, e: int) -> tuple[int, ...]:
    """Unique out- and in-neighbors of ``e`` (itself on a self-loop), sorted."""
    return tuple(sorted({n for _, n in directed_adjacency(kg, e)}))


def prob_tgt_in_src(stats: RelationStats, r_tgt: int, r_src: int) -> float:
    """Add-one smoothed Pr(r_tgt is a sub-relation of r_src): a pair without
    support reads ``1 / (trials + 2)``, the prior 1/2 when never trialed."""
    return stats.subrel_tgt_in_src.get(
        (r_tgt, r_src), 1.0 / (stats.tgt_trials.get(r_tgt, 0) + 2))


def prob_src_in_tgt(stats: RelationStats, r_src: int, r_tgt: int) -> float:
    """The same for Pr(r_src is a sub-relation of r_tgt)."""
    return stats.subrel_src_in_tgt.get(
        (r_src, r_tgt), 1.0 / (stats.src_trials.get(r_src, 0) + 2))


def local_compatibility(e, candidate, assigned, kg_pair, stats) -> float:
    """Factor score of ``e`` mapped to ``candidate``; ``assigned(n)`` gives
    the counterpart of source entity ``n`` or None."""
    cand_adj: dict[int, list[int]] = defaultdict(list)
    for rho_t, n_t in directed_adjacency(kg_pair.target, candidate):
        cand_adj[n_t].append(rho_t)

    survivor = 1.0
    for rho_s, n in directed_adjacency(kg_pair.source, e):
        y_n = candidate if n == e else assigned(n)
        if y_n is None:
            continue
        for rho_t in cand_adj.get(y_n, ()):
            survivor *= 1.0 - prob_tgt_in_src(stats, rho_t, rho_s) * stats.src_inv_fun[rho_s]
            survivor *= 1.0 - prob_src_in_tgt(stats, rho_s, rho_t) * stats.tgt_inv_fun[rho_t]
    return 1.0 - survivor


def assignment_array(mapping: dict[int, int], n: int) -> np.ndarray:
    """The package's assignment over ``n`` source entities: ``mapping[e]``
    at ``e``, -1 where ``e`` has no counterpart."""
    y = np.full(n, -1, dtype=np.int64)
    for e, c in mapping.items():
        y[e] = c
    return y


def assignment_mapping(y) -> dict[int, int]:
    """The dict of the package's assignment array ``y``."""
    return {e: c for e, c in enumerate(np.asarray(y).tolist()) if c >= 0}


def compatibility_sums(u, candidates, assigned: dict[int, int], kg_pair, stats) -> np.ndarray:
    """Per candidate, the factor scores summed over ``u`` and its one-hop
    neighbors with ``u`` mapped to the candidate."""
    neighbors = {n for _, n in directed_adjacency(kg_pair.source, u)} - {u}
    anchors = [u] + sorted(neighbors)
    sums = np.zeros(len(candidates))
    for i, c in enumerate(candidates):
        mapping = dict(assigned)
        mapping[u] = c
        sums[i] = sum(
            local_compatibility(e, mapping[e], mapping.get, kg_pair, stats)
            for e in anchors if e in mapping
        )
    return sums


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def build_assignment(q, row_ids, col_ids, labelled) -> dict[int, int]:
    """Labelled truths plus each unlabelled row's most probable column, ties
    to the lower id."""
    q = np.asarray(q, dtype=np.float64)
    mapping = dict(labelled)
    for i, u in enumerate(row_ids):
        if u not in labelled:
            best = min(range(len(col_ids)), key=lambda j: (-q[i, j], col_ids[j]))
            mapping[u] = col_ids[best]
    return mapping


def refine_rows(q, row_ids, col_ids, kg_pair, stats, assigned: dict[int, int], top_k):
    """``(candidates, sums)`` per row: the ``top_k`` columns by probability
    (ties to the lower id) and their reference sums against ``assigned``."""
    q = np.asarray(q, dtype=np.float64)
    out = []
    for i, u in enumerate(row_ids):
        order = sorted(range(len(col_ids)), key=lambda j: (-q[i, j], col_ids[j]))
        cands = tuple(col_ids[j] for j in order[:top_k])
        out.append((cands, compatibility_sums(u, cands, assigned, kg_pair, stats)))
    return out


def factor_own_log_survival(f, rows, cands) -> np.ndarray:
    """``FactorModel.own_log_survival`` as it was written before the
    factor sums shared its join: a join of its own."""
    owner, edge = _ranges(f.ptr, rows)
    far = f.far[edge]
    c = cands[owner]
    y_far = np.where((far == rows[owner])[:, None], c, f.y[far][:, None])
    vals = f.edge_log_survival(f.rel[edge][:, None], c, y_far)
    return compatibility._row_sums(owner, vals, len(rows))


def factor_sums(f, rows, cands) -> np.ndarray:
    """``FactorModel.factor_sums`` with three joins per call: the rows'
    own edges, each anchor's edges to other entities, and each anchor's
    edges to the row.  The package must match it bit for bit."""
    n_rows, n_src = len(rows), len(f.y)
    own = 1.0 - np.exp(factor_own_log_survival(f, rows, cands))

    owner, edge = _ranges(f.ptr, rows)
    far = f.far[edge]
    nbr = far != rows[owner]
    keys = owner[nbr] * n_src + far[nbr]
    a_row, a_ent = np.divmod(keys[_run_starts(keys)], n_src)
    assigned = f.y[a_ent] >= 0
    a_row, a_ent = a_row[assigned], a_ent[assigned]
    a_y = f.y[a_ent]

    owner, edge = _ranges(f.ptr, a_ent)
    far = f.far[edge]
    to_u = far == rows[a_row[owner]]
    o, e = owner[~to_u], edge[~to_u]
    rest = np.bincount(
        o, f.edge_log_survival(f.rel[e], a_y[o], f.y[f.far[e]]), minlength=len(a_ent))
    o, e = owner[to_u], edge[to_u]
    term = compatibility._row_sums(o, f.edge_log_survival(
        f.rel[e][:, None], a_y[o][:, None], cands[a_row[o]]), len(a_ent))
    anchored = 1.0 - np.exp(rest[:, None] + term)
    return compatibility._row_sums(np.concatenate([np.arange(n_rows), a_row]),
                                   np.concatenate([own, anchored]), n_rows)


def refine_one_block(oriented, sims: SimMatrix, labelled, row_ids, col_ids,
                     top_k) -> tuple[dict[int, int], list]:
    """The assignment, as a dict, and the refined rows from one gathered
    block, as the run computed them before it read slabs: the assignment by
    the reference ``build_assignment``, the rows by the package's
    ``refine_rows``.  ``labelled`` is a dict; the ``row_ids`` are
    unlabelled."""
    if len(row_ids) and not len(col_ids):
        raise ValueError("candidates must be nonempty")
    block = sims.scores[np.ix_(row_ids, col_ids)]
    mapping = build_assignment(block, row_ids, col_ids, labelled)
    assignment = assignment_array(mapping, oriented.source.n_entities)
    stats = compatibility.estimate_relation_stats(oriented, assignment)
    factors = compatibility.FactorModel(oriented, stats, assignment)
    return mapping, compatibility.refine_rows(block, row_ids, col_ids, factors, top_k=top_k)


def relation_inverse_functionality(kg) -> dict[int, float]:
    """Distinct tails (base orientation) or heads (inverse orientation) over
    distinct head-tail pairs, per relation."""
    pairs: dict[int, set[tuple[int, int]]] = defaultdict(set)
    heads: dict[int, set[int]] = defaultdict(set)
    tails: dict[int, set[int]] = defaultdict(set)
    for h, r, t in kg.triples:
        pairs[r].add((h, t))
        heads[r].add(h)
        tails[r].add(t)
    inv_fun: dict[int, float] = {}
    for r, pr in pairs.items():
        inv_fun[r] = len(tails[r]) / len(pr)
        inv_fun[r + kg.n_relations] = len(heads[r]) / len(pr)
    return inv_fun


def estimate_relation_stats(kg_pair, assigned: dict[int, int]) -> RelationStats:
    """PARIS statistics counted over every directed triple of each side."""
    fwd = dict(assigned)
    rev: dict[int, set[int]] = defaultdict(set)
    for e, t in fwd.items():
        rev[t].add(e)

    def pair_relations(kg):
        idx: dict[tuple[int, int], list[int]] = defaultdict(list)
        for h, r, t in kg.triples:
            idx[(h, t)].append(r)
            idx[(t, h)].append(r + kg.n_relations)
        return idx

    def directed_triples(kg):
        for h, r, t in kg.triples:
            yield h, r, t
            yield t, r + kg.n_relations, h

    src_rels = pair_relations(kg_pair.source)
    tgt_rels = pair_relations(kg_pair.target)
    src_trials: dict[int, int] = defaultdict(int)
    src_support: dict[tuple[int, int], int] = defaultdict(int)
    for h, rho, t in directed_triples(kg_pair.source):
        if h in fwd and t in fwd:
            src_trials[rho] += 1
            for rho_t in tgt_rels.get((fwd[h], fwd[t]), ()):
                src_support[(rho, rho_t)] += 1
    tgt_trials: dict[int, int] = defaultdict(int)
    tgt_support: dict[tuple[int, int], int] = defaultdict(int)
    for h, rho, t in directed_triples(kg_pair.target):
        if h in rev and t in rev:
            tgt_trials[rho] += 1
            mirrored = set()
            for a, b in itertools.product(rev[h], rev[t]):
                mirrored.update(src_rels.get((a, b), ()))
            for rho_s in mirrored:
                tgt_support[(rho, rho_s)] += 1
    return RelationStats(
        src_inv_fun=relation_inverse_functionality(kg_pair.source),
        tgt_inv_fun=relation_inverse_functionality(kg_pair.target),
        subrel_tgt_in_src={(rt, rs): (n + 1) / (tgt_trials[rt] + 2)
                           for (rt, rs), n in tgt_support.items()},
        subrel_src_in_tgt={(rs, rt): (n + 1) / (src_trials[rs] + 2)
                           for (rs, rt), n in src_support.items()},
        tgt_trials=dict(tgt_trials),
        src_trials=dict(src_trials),
    )


def enumerate_joint(
    kg_pair,
    stats: RelationStats,
    labelled: dict[int, int],
    grids: dict[int, tuple[int, ...]],
) -> dict[tuple[tuple[int, int], ...], float]:
    """Exact normalized joint over small candidate grids.

    Enumerates every combination of the unlabelled grids with labelled
    entities clamped, scoring each full assignment by the sum of all factor
    scores.  The state space is capped.
    """
    size = 1
    for g in grids.values():
        size *= len(g)
        if size > JOINT_ENUMERATION_CAP:
            raise ValueError(f"state space exceeds cap {JOINT_ENUMERATION_CAP}")
    unlabelled = sorted(grids)
    combos = list(itertools.product(*(grids[u] for u in unlabelled)))
    weights = np.empty(len(combos))
    for idx, combo in enumerate(combos):
        mapping = dict(labelled)
        mapping.update(zip(unlabelled, combo))
        total = 0.0
        for e in range(kg_pair.source.n_entities):
            y_e = mapping.get(e)
            if y_e is None:
                continue
            total += local_compatibility(e, y_e, mapping.get, kg_pair, stats)
        weights[idx] = total
    weights = np.exp(weights - weights.max())
    weights /= weights.sum()
    return {
        tuple(zip(unlabelled, combo)): float(w) for combo, w in zip(combos, weights)
    }


def conditional_from_joint(
    joint: dict[tuple[tuple[int, int], ...], float],
    u: int,
    fixed: dict[int, int],
) -> dict[int, float]:
    """Read p(counterpart of u | everything else fixed) off a joint table.

    ``fixed`` entries outside the enumerated grid (e.g. labelled entities)
    were clamped during enumeration and are ignored here.
    """
    probs: dict[int, float] = {}
    for combo, w in joint.items():
        d = dict(combo)
        if any(d[v] != c for v, c in fixed.items() if v != u and v in d):
            continue
        probs[d[u]] = probs.get(d[u], 0.0) + w
    total = sum(probs.values())
    return {c: w / total for c, w in probs.items()}


def write_top_k(path, matrix: SimMatrix, k: int, fill: float | None = None) -> SimMatrix:
    """Write the k best-scoring candidates of each row of ``matrix`` (ties to
    lower ids) in the top-K layout, with ``fill`` (default: the matrix
    minimum) for the tail, and return the dense matrix the file stands for."""
    s = matrix.scores
    fill = float(s.min() if fill is None else fill)
    ids = np.argsort(-s, axis=1, kind="stable")[:, :k]
    top = np.take_along_axis(s, ids, axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#sim-format v1\n#direction {matrix.direction}\n#rows {s.shape[0]}\n"
                 f"#cols {s.shape[1]}\n#layout topk\n#fill {fill!r}\n")
        for row_ids, row in zip(ids, top):
            fh.write("\t".join(f"{int(i)}:{float(v)!r}" for i, v in zip(row_ids, row))
                     + "\n")
    dense = np.full(s.shape, fill)
    np.put_along_axis(dense, ids, top, axis=1)
    return SimMatrix(scores=dense, direction=matrix.direction)


def calibrate_matrix(sims, params) -> np.ndarray:
    """Row-wise calibrated probabilities, one temporary per step."""
    sims = np.asarray(sims, dtype=np.float64)
    z = (params.scale * sims + params.offset) / params.temperature
    return softmax(z)


def cross_entropy_and_grad(sims, truth_cols, params) -> tuple[float, np.ndarray]:
    """Calibration cross-entropy and its gradient in ``(offset, scale, log
    temperature)``, with the softmax and its exponentials computed twice."""
    sims = np.asarray(sims, dtype=np.float64)
    truth_cols = np.asarray(truth_cols, dtype=np.int64)
    tau = params.temperature
    z = (params.scale * sims + params.offset) / tau
    p = softmax(z)
    rows = np.arange(sims.shape[0])
    logp = z - z.max(axis=-1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    loss = float(-logp[rows, truth_cols].sum())

    d = p.copy()
    d[rows, truth_cols] -= 1.0  # dL/dz
    g_offset = float(d.sum() / tau)
    g_scale = float((d * sims).sum() / tau)
    g_logtau = float(-(d * z).sum())
    return loss, np.array([g_offset, g_scale, g_logtau])


def fit_calibration(sims, truth_cols) -> tuple[float, list[float]]:
    """The Newton fit of β with ``sims - row max`` and ``exp(β d)`` each
    held as one block the size of ``sims``."""
    sims = np.asarray(sims, dtype=np.float64)
    rows = np.arange(sims.shape[0])
    truth_cols = np.asarray(truth_cols, dtype=np.int64)
    d = sims - sims.max(axis=1, keepdims=True)
    d_truth = d[rows, truth_cols]
    if not d_truth.any():
        return np.inf, [float(np.log((d == 0).sum(axis=1)).sum())]
    slope = float((sims.mean(axis=1) - sims[rows, truth_cols]).sum())
    if slope >= 0:
        raise CalibrationError("reverses the similarity order: the loss slope at "
                               f"beta = 0 is {slope!r}, not < 0")
    truth_sum = float(d_truth.sum())
    e = np.empty_like(d)
    log_beta = 0.0
    trace: list[float] = []
    for n_pass in range(1, calibration.MAX_PASSES + 1):
        beta = float(np.exp(log_beta))
        np.multiply(d, beta, out=e)
        np.exp(e, out=e)
        s0 = e.sum(axis=1)
        mean = np.einsum("ij,ij->i", e, d) / s0
        square = np.einsum("ij,ij,ij->i", e, d, d) / s0
        loss = float(np.log(s0).sum() - beta * truth_sum)
        grad = beta * float((mean - d_truth).sum())
        if not (np.isfinite(loss) and np.isfinite(grad)):
            raise CalibrationError(f"non-finite loss or slope at pass {n_pass}")
        trace.append(loss)
        curv = beta * beta * float(np.maximum(square - mean * mean, 0.0).sum()) + grad
        step = -grad / curv if curv > 0 else -np.sign(grad)
        step = min(max(step, -1.0), 1.0)
        if not abs(step) > calibration.STEP_TOL:
            break
        log_beta += step
    return beta, trace


def calibration_loss(sims, truth_cols, beta: float) -> float:
    """Summed cross-entropy of the row softmax of ``beta * sims`` at the
    truths, with the log-softmax computed in one piece."""
    z = beta * np.asarray(sims, dtype=np.float64)
    logp = z - z.max(axis=-1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    return float(-logp[np.arange(len(z)), truth_cols].sum())


def golden_section_beta(sims, truth_cols, lo=-40.0, hi=40.0, passes=80) -> float:
    """The β that minimises ``calibration_loss``, by golden-section search
    over log β in ``[lo, hi]``; the loss is unimodal in log β."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    loss = lambda u: calibration_loss(sims, truth_cols, float(np.exp(u)))
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = loss(c), loss(d)
    for _ in range(passes):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = loss(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = loss(d)
    return float(np.exp((a + b) / 2))


def margin_ranking_loss_and_grad(ent, rel, pos, neg, margin):
    """Hinge loss and dense gradients over row-aligned (n, 3) ``pos``/``neg``
    pairs, scattered with 2-d ``np.add.at``."""
    d_pos = ent[pos[:, 0]] + rel[pos[:, 1]] - ent[pos[:, 2]]
    d_neg = ent[neg[:, 0]] + rel[neg[:, 1]] - ent[neg[:, 2]]
    norm_pos = np.sqrt((d_pos * d_pos).sum(axis=1))
    norm_neg = np.sqrt((d_neg * d_neg).sum(axis=1))
    viol = margin + norm_pos - norm_neg
    active = viol > 0
    loss = float(np.where(active, viol, 0.0).sum())

    g_ent = np.zeros_like(ent)
    g_rel = np.zeros_like(rel)
    if active.any():
        u_pos = d_pos[active] / np.maximum(norm_pos[active], 1e-12)[:, None]
        u_neg = d_neg[active] / np.maximum(norm_neg[active], 1e-12)[:, None]
        p, q = pos[active], neg[active]
        np.add.at(g_ent, p[:, 0], u_pos)
        np.add.at(g_ent, p[:, 2], -u_pos)
        np.add.at(g_rel, p[:, 1], u_pos)
        np.add.at(g_ent, q[:, 0], -u_neg)
        np.add.at(g_ent, q[:, 2], u_neg)
        np.add.at(g_rel, q[:, 1], -u_neg)
    return loss, g_ent, g_rel


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # smaller id wins the root for determinism
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb


def embedding_step(model, batch, pair, root) -> float:
    """``EmbeddingAligner._step`` on the repeated-positive layout: same RNG
    draws, same update and renormalization."""
    p = model.params
    n_src = pair.source.n_entities
    k = p.negatives
    rep = np.repeat(batch, k, axis=0)
    m = rep.shape[0]
    corrupt_tail = model._rng.integers(0, 2, size=m).astype(bool)
    src_side = rep[:, 3] == 0
    repl = np.where(
        src_side,
        model._rng.integers(0, n_src, size=m),
        n_src + model._rng.integers(0, pair.target.n_entities, size=m),
    )
    repl = root[repl]
    neg = rep[:, :3].copy()
    neg[corrupt_tail, 2] = repl[corrupt_tail]
    neg[~corrupt_tail, 0] = repl[~corrupt_tail]

    pos = rep[:, :3].copy()
    pos[:, 1] = np.where(src_side, pos[:, 1], pos[:, 1] + model._n_rel_src)
    neg[:, 1] = pos[:, 1]

    loss, g_ent, g_rel = margin_ranking_loss_and_grad(
        model._ent, model._rel, pos, neg, p.margin
    )
    model._ent -= p.lr * g_ent
    model._rel -= p.lr * g_rel
    norms = np.linalg.norm(model._ent, axis=1, keepdims=True)
    model._ent /= np.maximum(norms, 1e-12)
    return loss


def _pseudo(picked: dict[tuple[int, int], float]) -> MappingSet:
    items = sorted(picked.items())
    return MappingSet(pairs=tuple(p for p, _ in items),
                      scores=tuple(s for _, s in items))


def uni_threshold(rows, alpha: float) -> MappingSet:
    """Each row's argmax pair whose probability clears ``alpha``, the
    probability looked up by candidate position."""
    picked: dict[tuple[int, int], float] = {}
    for row in rows:
        best = row.argmax_candidate()
        p = float(row.probs[row.cand_ids.index(best)])
        if p > alpha:
            picked[(row.entity, best)] = p
    return _pseudo(picked)


def bi_threshold(rows_forward, rows_reverse, alpha: float) -> MappingSet:
    """Every forward row's argmax pair and every reverse row's flipped one
    whose probability clears ``alpha``; a pair picked from both sides keeps
    the larger probability."""
    picked: dict[tuple[int, int], float] = {}
    for rows, flip in ((rows_forward, False), (rows_reverse, True)):
        for row in rows:
            best = row.argmax_candidate()
            p = float(row.probs[row.cand_ids.index(best)])
            if p > alpha:
                pair = (best, row.entity) if flip else (row.entity, best)
                picked[pair] = max(p, picked.get(pair, p))
    return _pseudo(picked)


def mutual_highest_probability(rows_forward, rows_reverse) -> MappingSet:
    """Pairs whose forward and reverse rows point at each other as argmax."""
    fwd_best = {row.entity: row.argmax_candidate() for row in rows_forward}
    rev_best = {row.entity: row.argmax_candidate() for row in rows_reverse}
    fwd_prob = {row.entity: float(max(row.probs)) for row in rows_forward}
    picked: dict[tuple[int, int], float] = {}
    for u, u_prime in fwd_best.items():
        if rev_best.get(u_prime) == u:
            picked[(u, u_prime)] = fwd_prob[u]
    return _pseudo(picked)


def similarity_threshold(sims, row_ids, col_ids, theta: float) -> MappingSet:
    """Each row's argmax pair whose similarity exceeds ``theta``, the
    similarity looked up by rescanning the column ids."""
    sims = np.asarray(sims, dtype=np.float64)
    col_ids = list(col_ids)
    picked: dict[tuple[int, int], float] = {}
    for i, u in enumerate(row_ids):
        best = argmax_lowest_id(col_ids, sims[i])
        s = float(sims[i][col_ids.index(best)])
        if s > theta:
            picked[(u, best)] = s
    return _pseudo(picked)


def mutual_nearest(sims_forward, fwd_row_ids, fwd_col_ids,
                   sims_reverse, rev_row_ids, rev_col_ids) -> MappingSet:
    """Pairs that are mutually nearest under raw similarity."""
    sims_forward = np.asarray(sims_forward, dtype=np.float64)
    sims_reverse = np.asarray(sims_reverse, dtype=np.float64)
    fwd_col_ids = list(fwd_col_ids)
    rev_col_ids = list(rev_col_ids)
    fwd_best = {u: argmax_lowest_id(fwd_col_ids, sims_forward[i])
                for i, u in enumerate(fwd_row_ids)}
    fwd_score = {u: float(sims_forward[i].max()) for i, u in enumerate(fwd_row_ids)}
    rev_best = {t: argmax_lowest_id(rev_col_ids, sims_reverse[i])
                for i, t in enumerate(rev_row_ids)}
    picked: dict[tuple[int, int], float] = {}
    for u, t in fwd_best.items():
        if rev_best.get(t) == u:
            picked[(u, t)] = fwd_score[u]
    return _pseudo(picked)


def one_to_one_matching(sims, row_ids, col_ids, theta: float,
                        held: MappingSet) -> MappingSet:
    """Greedy one-to-one matching over Python-sorted ``(score, u, t)``
    edges, merged pair by pair into the scored ``held`` set: a fresh pair
    displaces the held pairs it conflicts with when it scores higher than
    all of them."""
    sims = np.asarray(sims, dtype=np.float64)
    row_ids = list(row_ids)
    col_ids = list(col_ids)
    ri, ci = np.nonzero(sims > theta)
    edges = sorted(
        ((float(sims[i, j]), row_ids[i], col_ids[j]) for i, j in zip(ri, ci)),
        key=lambda e: (-e[0], e[1], e[2]),
    )
    used_src: set[int] = set()
    used_tgt: set[int] = set()
    fresh: list[tuple[float, int, int]] = []
    for score, u, t in edges:
        if u in used_src or t in used_tgt:
            continue
        used_src.add(u)
        used_tgt.add(t)
        fresh.append((score, u, t))

    scores = dict(zip(held.pairs, held.scores))
    by_src = {u: (u, t) for (u, t) in scores}
    by_tgt = {t: (u, t) for (u, t) in scores}
    for score, u, t in fresh:
        conflicts = {p for p in (by_src.get(u), by_tgt.get(t)) if p is not None}
        if any(scores[p] >= score for p in conflicts):
            continue
        for p in conflicts:
            del scores[p]
            by_src.pop(p[0], None)
            by_tgt.pop(p[1], None)
        scores[(u, t)] = score
        by_src[u] = (u, t)
        by_tgt[t] = (u, t)
    return _pseudo(scores)


def reference_iteration(pair, sims_fwd, sims_rev, labelled: MappingSet, test: MappingSet,
                        held: MappingSet, config) -> dict:
    """One self-training iteration over fixed similarities, composed of the
    references above over gathered dense blocks.

    ``sims_fwd`` is the ``(n_src, n_tgt)`` and ``sims_rev`` the
    ``(n_tgt, n_src)`` score array, ``held`` the previous pseudo set and
    ``config`` a ``RunConfig``.  The probability strategies fit β on each
    direction's labelled rows, then refine its unlabelled rows over the
    unlabelled columns against the argmax assignment.  Returns the
    ``pseudo`` set with its scores, the ``betas`` fitted (forward first)
    and ``hit1``, ``hit10`` and ``mrr`` of the test truths' ranks in their
    forward rows, each tie ranked ahead when its id is lower.
    """
    fwd = dict(labelled.pairs)
    rev = {t: s for s, t in labelled.pairs}
    src = [u for u in range(pair.source.n_entities) if u not in fwd]
    tgt = [t for t in range(pair.target.n_entities) if t not in rev]
    strategy, alpha, theta = config.strategy, config.alpha, config.theta
    betas: list[float] = []
    if strategy in ("UniThr", "BiThr", "MutHighestProb"):
        refined = []
        for oriented, sims, lab, row_ids, col_ids in (
                (pair, sims_fwd, fwd, src, tgt), (pair.swapped(), sims_rev, rev, tgt, src)):
            lab_rows = sorted(lab)
            betas.append(fit_calibration(sims[lab_rows], [lab[e] for e in lab_rows])[0])
            block = sims[np.ix_(row_ids, col_ids)]
            assignment = build_assignment(block, row_ids, col_ids, lab)
            stats = estimate_relation_stats(oriented, assignment)
            refined.append([
                calibration.ProbRow(u, cands, softmax(sums)) for u, (cands, sums) in zip(
                    row_ids, refine_rows(block, row_ids, col_ids, oriented, stats,
                                         assignment, config.top_k))])
        fwd_rows, rev_rows = refined
        if strategy == "UniThr" and config.uni_source == "kg1":
            pseudo = uni_threshold(fwd_rows, alpha)
        elif strategy == "UniThr":
            pseudo = uni_threshold(rev_rows, alpha).flipped()
        elif strategy == "BiThr":
            pseudo = bi_threshold(fwd_rows, rev_rows, alpha)
        else:
            pseudo = mutual_highest_probability(fwd_rows, rev_rows)
    else:
        block_fwd = sims_fwd[np.ix_(src, tgt)]
        if strategy == "SimThr":
            pseudo = similarity_threshold(block_fwd, src, tgt, theta)
        elif strategy == "OneToOne":
            pseudo = one_to_one_matching(block_fwd, src, tgt, theta, held)
        else:
            pseudo = mutual_nearest(block_fwd, src, tgt, sims_rev[np.ix_(tgt, src)], tgt, src)
    ranks = np.array([1 + sum(v > sims_fwd[u, t] for v in sims_fwd[u])
                      + sum(v == sims_fwd[u, t] for v in sims_fwd[u, :t])
                      for u, t in test.pairs])
    return dict(pseudo=pseudo, betas=betas, hit1=float((ranks <= 1).mean()),
                hit10=float((ranks <= 10).mean()), mrr=float((1.0 / ranks).mean()))
