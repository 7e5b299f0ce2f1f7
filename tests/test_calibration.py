from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from kgalign import calibration
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


def fit_bits(fit, *args, **kwargs):
    """A fit's parameters and loss trace as bytes (so ``-0.0 != 0.0`` and
    the trace length counts), or its error message."""
    try:
        params, trace = fit(*args, **kwargs)
    except CalibrationError as err:
        return str(err)
    return (np.array([params.offset, params.scale, params.temperature]).tobytes(),
            np.array(trace).tobytes())


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


def spy_evaluations():
    """Patch the per-epoch loss with a spy that counts its calls."""
    return mock.patch.object(calibration, "_cross_entropy_into",
                             wraps=calibration._cross_entropy_into)


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


class TestFit:
    def idealized(self, n=20, c=10, seed=0):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, c, size=n)
        sims = np.zeros((n, c))
        sims[np.arange(n), truth] = 1.0
        return sims, truth

    def test_idealized_reaches_low_loss(self):
        sims, truth = self.idealized()
        params, trace = fit_calibration(sims, truth, lr=0.05, epochs=200)
        assert trace[-1] < 0.01
        assert all(trace[i] > trace[i + 1] for i in range(10))
        probs = calibrate_matrix(sims, params)
        assert (probs.argmax(axis=1) == truth).all()

    def test_zero_epochs_returns_init(self):
        sims, truth = self.idealized()
        init = CalibrationParams(offset=0.2, scale=1.3, temperature=0.9)
        params, trace = fit_calibration(sims, truth, init=init, epochs=0)
        assert params == init
        assert len(trace) == 1

    def test_single_entity_two_candidates(self):
        sims = np.array([[1.0, 0.0]])
        truth = np.array([0])
        params, trace = fit_calibration(sims, truth, lr=0.05, epochs=100)
        assert trace[-1] < trace[0]
        assert params.scale / params.temperature > 1.0 / 1.0  # sharpened

    def test_final_loss_never_worse_than_initial(self):
        rng = np.random.default_rng(3)
        sims = rng.normal(size=(15, 6))
        truth = rng.integers(0, 6, size=15)
        _, trace = fit_calibration(sims, truth, lr=0.5, epochs=50)
        p, _ = fit_calibration(sims, truth, lr=0.5, epochs=50)
        final, _ = cross_entropy_and_grad(sims, truth, p)
        assert final <= trace[0] + 1e-12

    def test_bit_reproducible(self):
        sims, truth = self.idealized(seed=4)
        a, trace_a = fit_calibration(sims, truth)
        b, trace_b = fit_calibration(sims, truth)
        assert a == b
        assert trace_a == trace_b

    def test_nonfinite_loss_reports_epoch(self):
        sims = np.array([[1.0, 0.0]])
        truth = np.array([0])
        # a huge learning rate blows temperature up/down into overflow
        with pytest.raises(CalibrationError, match="epoch"):
            fit_calibration(sims, truth, lr=1e6, epochs=50)

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

    def test_saturating_overshoot_stops_at_fixed_point(self):
        # the loss sums 20 wrong-leaning rows, so the first step throws log
        # temperature to ~72: the softmax is uniform and its ~1e-29
        # gradient no longer moves the parameters
        sims, truth = np.tile([1.0, 0.0], (20, 1)), np.ones(20, dtype=np.int64)
        with spy_evaluations() as spy:
            params, trace = fit_calibration(sims, truth, lr=5.0, epochs=50)
        assert spy.call_count == 2
        assert params.temperature > 1e30
        assert len(trace) == 51 and trace[2:] == [trace[1]] * 49
        assert (fit_bits(fit_calibration, sims, truth, lr=5.0, epochs=50)
                == fit_bits(oracle.fit_calibration_every_epoch, sims, truth,
                            lr=5.0, epochs=50))

    def test_exactly_zero_gradient_stops_after_one_evaluation(self):
        # a margin of 800 underflows every wrong candidate's exp to 0: the
        # softmax is exactly one-hot on the truth and the gradient exactly 0
        sims, truth = np.array([[800.0, 0.0, 0.0], [0.0, 800.0, 0.0]]), np.array([0, 1])
        with spy_evaluations() as spy:
            params, trace = fit_calibration(sims, truth, epochs=50)
        assert spy.call_count == 1
        assert params == CalibrationParams()
        assert len(trace) == 51 and set(trace) == {0.0}
        assert (fit_bits(fit_calibration, sims, truth, epochs=50)
                == fit_bits(oracle.fit_calibration_every_epoch, sims, truth, epochs=50))


class TestAgainstOracle:
    """The in-place calibration against the reference that computes each
    step into a fresh temporary: results must be bitwise equal."""

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

        epochs = data.draw(st.integers(0, 30))
        fitted = fit_bits(fit_calibration, sims, truth, init=params, epochs=epochs)
        with mock.patch.object(calibration, "_cross_entropy_into",
                               lambda s, t, p, z, buf: oracle.cross_entropy_and_grad(s, t, p)):
            reference = fit_bits(fit_calibration, sims, truth, init=params, epochs=epochs)
        assert fitted == reference  # params and loss trace, or the same error
        assert np.array_equal(sims, before)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fit_equals_every_epoch_loop(self, data):
        # large steps make fixed points and CalibrationErrors common
        sims, truth, params = draw_instance(data)
        lr = data.draw(st.sampled_from([0.05, 0.5, 5.0]))
        epochs = data.draw(st.integers(0, 30))
        assert (fit_bits(fit_calibration, sims, truth, init=params, lr=lr, epochs=epochs)
                == fit_bits(oracle.fit_calibration_every_epoch, sims, truth,
                            init=params, lr=lr, epochs=epochs))
