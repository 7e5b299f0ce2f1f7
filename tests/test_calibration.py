from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from kgalign import calibration, models
from kgalign.calibration import (
    CalibrationError,
    CalibrationParams,
    ProbRow,
    calibrate_matrix,
    calibrate_row,
    cross_entropy_and_grad,
    fit_calibration,
)

finite_floats = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)


def gradcheck_rel_error(sims, truth, params, h=1e-6):
    """Max relative error of the analytic gradient vs central differences.

    Relative error uses a unit floor so near-zero components (the offset
    gradient is analytically zero) compare on an absolute scale.
    """
    _, grad = cross_entropy_and_grad(sims, truth, params)
    theta = np.array([params.offset, params.scale, np.log(params.temperature)])
    num = np.zeros(3)
    for i in range(3):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        lp, _ = cross_entropy_and_grad(
            sims, truth, CalibrationParams(tp[0], tp[1], float(np.exp(tp[2])))
        )
        lm, _ = cross_entropy_and_grad(
            sims, truth, CalibrationParams(tm[0], tm[1], float(np.exp(tm[2])))
        )
        num[i] = (lp - lm) / (2 * h)
    return float(
        (np.abs(grad - num) / np.maximum(1.0, np.maximum(np.abs(grad), np.abs(num)))).max()
    )


def draw_instance(data):
    """Labelled similarity rows, their truth columns and a parameter point."""
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    # grid values make tied and repeated rows common
    value = st.one_of(finite_floats, st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
    sims = np.array(data.draw(st.lists(value, min_size=m * n, max_size=m * n)))
    truth = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    params = CalibrationParams(
        offset=data.draw(finite_floats), scale=data.draw(finite_floats),
        temperature=float(np.exp(data.draw(st.floats(-2.0, 2.0)))),
    )
    return sims.reshape(m, n), truth, params


class TestTransform:
    def test_hand_softmax(self):
        row = calibrate_row(np.array([2.0, 1.0, 0.0]), CalibrationParams())
        np.testing.assert_allclose(row.probs, [0.66524, 0.24473, 0.09003], atol=1e-5)

    def test_equal_sims_uniform(self):
        row = calibrate_row(np.full(4, 0.37), CalibrationParams())
        np.testing.assert_allclose(row.probs, 0.25, atol=1e-12)

    def test_offset_shift_invariance(self):
        sims = np.array([0.3, -0.2, 0.9])
        a = calibrate_row(sims, CalibrationParams(offset=0.0))
        b = calibrate_row(sims, CalibrationParams(offset=17.5))
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)

    def test_order_preserving(self):
        sims = np.array([0.1, 0.9, 0.5])
        row = calibrate_row(sims, CalibrationParams(scale=2.0, temperature=0.5))
        assert np.argsort(row.probs).tolist() == np.argsort(sims).tolist()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            calibrate_row(np.array([1.0, np.inf]), CalibrationParams())

    def test_extreme_scores_stay_normalized(self):
        row = calibrate_row(np.array([1e4, -1e4, 0.0]), CalibrationParams())
        assert abs(row.probs.sum() - 1.0) < 1e-9

    @settings(max_examples=80, deadline=None)
    @given(
        sims=st.lists(finite_floats, min_size=1, max_size=12),
        offset=finite_floats,
        scale=finite_floats,
        log_tau=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_rows_are_distributions(self, sims, offset, scale, log_tau):
        params = CalibrationParams(offset, scale, float(np.exp(log_tau)))
        row = calibrate_row(np.array(sims), params)
        assert np.all(row.probs >= 0)
        assert abs(row.probs.sum() - 1.0) <= 1e-9

    def test_argmax_matches_similarity_argmax_for_positive_scale(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sims = rng.normal(size=8)
            row = calibrate_row(sims, CalibrationParams(scale=1.7, temperature=0.8))
            assert row.argmax_candidate() == int(np.argmax(sims))


class TestProbRow:
    def test_validates_sum(self):
        with pytest.raises(ValueError):
            ProbRow(entity=0, cand_ids=(0, 1), probs=np.array([0.6, 0.6]))

    @pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.nan, 1.0],
                                       [np.inf, 0.0], [np.inf, -np.inf]])
    def test_rejects_nonfinite(self, probs):
        # NaN fails every comparison, so it must not slip past the checks
        with pytest.raises(ValueError, match="finite"):
            ProbRow(entity=0, cand_ids=(1, 2), probs=np.array(probs))

    def test_validates_unique_ids(self):
        with pytest.raises(ValueError):
            ProbRow(entity=0, cand_ids=(1, 1), probs=np.array([0.5, 0.5]))

    def test_argmax_tie_breaks_to_lowest_id(self):
        row = ProbRow(entity=0, cand_ids=(7, 3, 9), probs=np.array([0.4, 0.4, 0.2]))
        assert row.argmax_candidate() == 3


class TestProbRowBlock:
    """``ProbRow.block`` checks a whole block at once: it raises the
    message the per-row constructor raises for the first bad row, and
    otherwise builds the rows the constructor builds."""

    @staticmethod
    def per_row(entities, cand_ids, probs):
        return [ProbRow(entity=u, cand_ids=tuple(c), probs=p)
                for u, c, p in zip(entities, cand_ids.tolist(), probs)]

    @staticmethod
    def message(build, *args):
        with pytest.raises(ValueError) as err:
            build(*args)
        return str(err.value)

    @pytest.mark.parametrize("bad", ["duplicate", "negative", "nan", "inf", "sum"])
    def test_bad_row_raises_the_row_message(self, bad):
        cand_ids = np.array([[3, 1, 2], [4, 5, 6], [7, 8, 9]])
        probs = np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])
        if bad == "duplicate":
            cand_ids[1, 2] = 4
        elif bad == "sum":
            probs[1, 0] += 2e-9
        else:
            probs[1, 0] = {"negative": -0.1, "nan": np.nan, "inf": np.inf}[bad]
        want = self.message(self.per_row, [0, 1, 2], cand_ids, probs)
        assert self.message(ProbRow.block, [0, 1, 2], cand_ids, probs) == want

    def test_mismatched_shapes_raise_the_row_message(self):
        cand_ids, probs = np.array([[1, 2, 3]]), np.array([[0.5, 0.5]])
        want = self.message(self.per_row, [0], cand_ids, probs)
        assert self.message(ProbRow.block, [0], cand_ids, probs) == want
        with pytest.raises(ValueError, match="length mismatch"):
            ProbRow.block([0, 1], cand_ids, np.full((1, 3), 1 / 3))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_block_equals_per_row_construction(self, data):
        n, k = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cand_ids = rng.integers(0, 2 * k + 1, size=(n, k))  # duplicates happen
        probs = rng.dirichlet(np.ones(k), size=n) if k else np.zeros((n, 0))
        for i in range(n):  # rows spoiled like the single-case test's
            bad = data.draw(st.sampled_from([None, None, -0.1, np.nan, np.inf, 2e-9]))
            if bad is not None and k:
                probs[i, 0] = probs[i, 0] + bad if bad == 2e-9 else bad
        entities = rng.permutation(n).tolist()
        try:
            want = self.per_row(entities, cand_ids, probs)
        except ValueError as err:
            assert self.message(ProbRow.block, entities, cand_ids, probs) == str(err)
            return
        got = ProbRow.block(entities, cand_ids, probs)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is ProbRow
            assert (g.entity, g.cand_ids) == (w.entity, w.cand_ids)
            assert g.probs.dtype == w.probs.dtype and g.probs.tobytes() == w.probs.tobytes()
            assert g.argmax_candidate() == w.argmax_candidate()


class TestFit:
    def idealized(self, n=20, c=10, seed=0):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, c, size=n)
        sims = np.zeros((n, c))
        sims[np.arange(n), truth] = 1.0
        return sims, truth

    def leaning(self, seed=3):
        # truths lean high, but not every truth leads its row
        rng = np.random.default_rng(seed)
        sims = rng.normal(size=(15, 6))
        truth = rng.integers(0, 6, size=15)
        sims[np.arange(15), truth] += 1.0
        return sims, truth

    def test_idealized_reaches_low_loss(self):
        sims, truth = self.idealized()
        beta, trace = fit_calibration(sims, truth)
        # every truth strictly leads its row: the loss falls toward 0 as β grows
        assert beta == np.inf and trace == [0.0]
        losses = [oracle.calibration_loss(sims, truth, b) for b in (1.0, 10.0, 100.0)]
        assert losses[0] > losses[1] > losses[2] and losses[2] < 0.01

    def test_single_entity_two_candidates(self):
        assert fit_calibration(np.array([[1.0, 0.0]]), np.array([0])) == (np.inf, [0.0])
        with pytest.raises(CalibrationError, match="reverses the similarity order"):
            fit_calibration(np.array([[1.0, 0.0]]), np.array([1]))

    def test_closed_form_optimum(self):
        # three of four identical rows pick the higher score: σ(β) = 3/4
        sims, truth = np.tile([1.0, 0.0], (4, 1)), np.array([0, 0, 0, 1])
        beta, _ = fit_calibration(sims, truth)
        assert abs(beta - np.log(3.0)) <= 1e-12

    def test_pass_cap_returns_last_evaluated_beta(self, monkeypatch):
        sims, truth = self.leaning()
        converged, _ = fit_calibration(sims, truth)
        monkeypatch.setattr(calibration, "MAX_PASSES", 2)
        beta, trace = fit_calibration(sims, truth)
        assert len(trace) == 2 and beta != converged
        assert trace[-1] == pytest.approx(oracle.calibration_loss(sims, truth, beta),
                                          rel=1e-12)

    def test_final_loss_never_worse_than_initial(self):
        sims, truth = self.leaning()
        beta, trace = fit_calibration(sims, truth)
        assert np.isfinite(beta)
        final = oracle.calibration_loss(sims, truth, beta)
        assert final <= trace[0] + 1e-12  # the trace starts at β = 1

    def test_bit_reproducible(self):
        sims, truth = self.leaning(seed=4)
        a, trace_a = fit_calibration(sims, truth)
        b, trace_b = fit_calibration(sims, truth)
        assert a == b and np.isfinite(a)
        assert trace_a == trace_b

    def test_constant_rows_give_inf(self):
        # every entry ties the row max, so the limit is Σ log(row width)
        beta, trace = fit_calibration(np.full((3, 4), 0.37), np.array([0, 2, 3]))
        assert beta == np.inf
        assert trace == [pytest.approx(3 * np.log(4.0), rel=1e-15)]

    def test_zero_slope_at_zero_raises(self):
        # truths at the max and at the min of two equal rows: slope exactly 0
        with pytest.raises(CalibrationError, match="reverses the similarity order"):
            fit_calibration(np.tile([1.0, 0.0], (2, 1)), np.array([0, 1]))

    def test_nonfinite_loss_reports_pass(self, recwarn):
        # the first row spans more than the float range: sims - max is -inf
        sims = np.array([[1e308, -1e308], [0.0, 1.0]])
        with pytest.raises(CalibrationError, match="non-finite loss or slope at pass 1"):
            fit_calibration(sims, np.array([0, 0]))
        assert not recwarn.list  # the error, and no numpy warning before it

    def test_overflowing_row_mean_keeps_a_finite_slope(self, recwarn):
        # the first row's sum overflows; its gaps to the row max do not
        beta, _ = fit_calibration(np.array([[1e308, 1e308, 0.0], [0.0, 1.0, 0.5]]),
                                  np.array([0, 2]))
        assert np.isfinite(beta) and beta > 0
        assert not recwarn.list

    @pytest.mark.parametrize("truth, message", [
        ([-2, 0], "truth column out of range"),  # would index column 1 from the end
        ([3, 0], "truth column out of range"),
        ([1], "rows/truths shape mismatch"),     # would broadcast over both rows
        ([1, 0, 0], "rows/truths shape mismatch"),
    ])
    def test_bad_truths_raise(self, truth, message):
        with pytest.raises(ValueError, match=message):
            fit_calibration(np.array([[0.0, 1.0, 0.5], [1.0, 0.5, 0.0]]), np.array(truth))

    def test_one_dimensional_sims_name_their_shape(self):
        with pytest.raises(ValueError, match=r"must be 2-d, got shape \(3,\)"):
            fit_calibration(np.array([0.0, 1.0, 0.5]), np.array([1]))

    def test_gradcheck_random_instances(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(30):
            sims = rng.uniform(-1, 1, size=(4, 5))
            truth = rng.integers(0, 5, size=4)
            params = CalibrationParams(
                offset=float(rng.uniform(-1, 1)),
                scale=float(rng.uniform(0.2, 2.0)),
                temperature=float(rng.uniform(0.3, 3.0)),
            )
            worst = max(worst, gradcheck_rel_error(sims, truth, params))
        assert worst < 1e-4


def slope_at_zero(sims, truth) -> float:
    """The loss slope at β = 0: Σ(row mean - truth score)."""
    return float(sum(row.mean() - row[t] for row, t in zip(sims, truth)))


def ties_at_max(sims, truth):
    """Whether every truth is a maximum of its row, and the log of each
    row's count of entries tied at its max."""
    at_max = all(row[t] == row.max() for row, t in zip(sims, truth))
    return at_max, [np.log(np.count_nonzero(row == row.max())) for row in sims]


class TestAgainstOracle:
    """The in-place calibration against the reference that computes each
    step into a fresh temporary, and the fit of β against a brute-force
    minimiser."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_loss_grad_fit_and_matrix_equal_reference(self, data):
        sims, truth, params = draw_instance(data)
        before = sims.copy()

        loss, grad = cross_entropy_and_grad(sims, truth, params)
        ref_loss, ref_grad = oracle.cross_entropy_and_grad(sims, truth, params)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        q = calibrate_matrix(sims, params)
        assert q.tobytes() == oracle.calibrate_matrix(sims, params).tobytes()
        try:
            fit_calibration(sims, truth)
        except CalibrationError:
            pass
        assert np.array_equal(sims, before)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fit_matches_golden_section_minimum(self, data):
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 8))
        # eighths keep a truth below its row max by at least 1/8, so the
        # optimum is finite and the loss curves enough around it to place β
        eighths = st.integers(-40, 40).map(lambda k: k / 8)
        sims = np.array(data.draw(st.lists(eighths, min_size=m * n,
                                           max_size=m * n))).reshape(m, n)
        truth = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
        assume(not ties_at_max(sims, truth)[0] and slope_at_zero(sims, truth) < -1e-6)
        best = oracle.golden_section_beta(sims, truth)
        assume(np.exp(-35.0) < best < np.exp(35.0))  # an interior optimum
        beta, trace = fit_calibration(sims, truth)
        loss = oracle.calibration_loss(sims, truth, beta)
        assert loss == pytest.approx(oracle.calibration_loss(sims, truth, best), rel=1e-12)
        assert beta == pytest.approx(best, rel=1e-6, abs=1e-6)
        assert trace[-1] == pytest.approx(loss, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_truths_at_row_max_give_inf_and_tie_limit(self, data):
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
        # a coarse grid makes ties at the max common
        sims = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                                           min_size=m * n, max_size=m * n))).reshape(m, n)
        truth = np.array([data.draw(st.sampled_from(np.flatnonzero(row == row.max()).tolist()))
                          for row in sims])
        at_max, logs = ties_at_max(sims, truth)
        assert at_max
        beta, trace = fit_calibration(sims, truth)
        assert beta == np.inf
        assert trace == [pytest.approx(sum(logs), rel=1e-12, abs=0.0)]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_slope_not_negative_at_zero_raises(self, data):
        sims, truth, _ = draw_instance(data)
        assume(not ties_at_max(sims, truth)[0] and slope_at_zero(sims, truth) > 1e-9)
        with pytest.raises(CalibrationError, match="reverses the similarity order"):
            fit_calibration(sims, truth)


def fit_outcome(fit, sims, truth):
    """``(repr(β), reprs of the trace)`` of a fit, or its error's type and
    message."""
    try:
        with np.errstate(all="ignore"):  # inf - inf on rows holding -inf
            beta, trace = fit(sims, truth)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return repr(beta), [repr(loss) for loss in trace]


def draw_fit_case(data, max_rows=12, max_cols=40):
    """Labelled rows of one of the fit's cases, their truths and the case:
    tied rows, truths leaning high, truths on their row maxima (β = inf),
    truths on their row minima (order reversed), rows holding -inf, or a
    row whose gaps overflow."""
    m, n = data.draw(st.integers(1, max_rows)), data.draw(st.integers(1, max_cols))
    case = data.draw(st.sampled_from(
        ["ties", "leaning", "separable", "reversing", "neg_inf", "overflow"]), label="case")
    # a coarse grid makes ties at the max and repeated rows common
    grid = st.sampled_from([-1.0, 0.0, 0.5, 1.0])
    value = grid if case in ("ties", "separable") else st.one_of(grid, finite_floats)
    sims = np.array(data.draw(st.lists(value, min_size=m * n, max_size=m * n))).reshape(m, n)
    if case == "neg_inf":
        sims[sims < 0.5] = -np.inf
    if case == "separable":
        truth = [data.draw(st.sampled_from(np.flatnonzero(row == row.max()).tolist()))
                 for row in sims]
    elif case == "reversing":
        truth = [int(row.argmin()) for row in sims]
    else:
        truth = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    if case == "leaning":
        # truths lean high but rarely all lead their rows: a finite β
        sims[np.arange(m), truth] += 2.0
    if case == "overflow" and n > 1:
        # the row spans more than the float range: its gaps reach -inf
        sims[0, :2], truth[0] = [1e308, -1e308], 0
    return sims, np.array(truth), case


class TestSlabbedFitAgainstBlockFit:
    """The fit, writing its gaps and exponentials one slab at a time,
    against the reference that holds each as one labelled block."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_outcome_equals_block_fit(self, data):
        sims, truth, case = draw_fit_case(data)
        m, n = sims.shape
        # one slab, two, three, or one row each
        slab = data.draw(st.sampled_from([m, -(-m // 2), -(-m // 3), 1]), label="slab rows")
        want = fit_outcome(oracle.fit_calibration, sims, truth)
        with mock.patch.object(models, "SLAB_BYTES", 8 * n * slab):
            got = fit_outcome(fit_calibration, sims, truth)
        assert got == want
        if case == "separable":
            assert want[0] == "inf"

    @pytest.mark.parametrize("slab", [150, 75, 43, 1])
    def test_benchmark_sized_fit_equals_block_fit(self, slab):
        # 150 labelled rows of 3000 columns, as at ratio 0.05 on n=3000;
        # 43 rows fill a 1 MiB slab.  Rows this wide sum pairwise in blocks
        rng = np.random.default_rng(5)
        sims = rng.uniform(-1.0, 1.0, size=(150, 3000))
        truth = rng.integers(0, 3000, size=150)
        sims[np.arange(150), truth] += 0.8
        want = fit_outcome(oracle.fit_calibration, sims, truth)
        assert want[0] != "inf" and len(want[1]) > 1
        with mock.patch.object(models, "SLAB_BYTES", 8 * 3000 * slab):
            assert fit_outcome(fit_calibration, sims, truth) == want
