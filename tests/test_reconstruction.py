import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bendsim import reconstruction
from bendsim.errors import InvalidInputError
from bendsim.kinematics import joint_positions
from bendsim.reconstruction import (
    SensorFrame,
    _natural_spline,
    fit_reference_chain,
    frame_to_joint_angles,
    max_deviation,
    segment_frame,
    select_order,
    spline_through,
    wrap_angle,
)
from bendsim.synthetic import chain_frame, straight_frame

from helpers import exact_spline_distances, random_chain

# Frozen oracle: max radial deviation of the natural spline through 6
# equally spaced nodes on a 0.1 m-radius semicircle, from a dense
# 200001-point parameter scan (stable to ~1e-12 across grid choices).
SEMICIRCLE_SPLINE_DEVIATION = 0.001975315001362263


def semicircle_nodes(radius=0.1, count=6):
    th = np.linspace(0.0, math.pi, count)
    # CCW from the origin heading +Y, center at (-radius, 0).
    return np.column_stack([radius * np.cos(th) - radius,
                            radius * np.sin(th)])


def curled_frames(rng, count=6, spacing=0.0008, length=0.17):
    """Noisy dense frames bent by 1.2 pi up to 1.95 pi in total.

    Curvature grows toward the tip by a seeded factor, so the frames curl
    into spirals whose tips come back near their bases; 0.2 mm noise.
    """
    s = np.arange(0.0, length, spacing)
    frames = []
    for bend in np.linspace(1.2, 1.95, count) * math.pi:
        weight = 1.0 + rng.uniform(0.0, 2.0) * s / length
        heading = bend * np.cumsum(weight) / weight.sum()
        pts = np.zeros((len(s), 2))
        pts[1:] = np.cumsum(spacing * np.column_stack(
            [-np.sin(heading[:-1]), np.cos(heading[:-1])]), axis=0)
        pts[1:] += rng.normal(0.0, 2e-4, pts[1:].shape)
        frames.append(SensorFrame(0.0, pts))
    return frames


def arc_frame(radius, span, count, ccw=True, time=0.0):
    t = np.linspace(0.0, span, count)
    sign = 1.0 if ccw else -1.0
    return SensorFrame(
        time,
        np.column_stack([sign * (radius * np.cos(t) - radius),
                         radius * np.sin(t)]),
    )


class TestSegmentFrame:
    def test_five_collinear_points(self):
        pts = np.column_stack([np.zeros(5), np.arange(5) * 0.001])
        nodes = segment_frame(SensorFrame(0.0, pts), 2)
        np.testing.assert_array_equal(nodes, pts[[0, 2, 4]])

    def test_212_points_at_sensor_spacing(self):
        pts = np.column_stack([np.zeros(212), np.arange(212) * 0.0008])
        frame = SensorFrame(0.0, pts)
        nodes = segment_frame(frame, 5)
        np.testing.assert_array_equal(nodes, pts[[0, 42, 84, 127, 169, 211]])

    def test_maximal_order_keeps_every_point(self):
        pts = np.column_stack([np.zeros(7), np.arange(7) * 0.01])
        nodes = segment_frame(SensorFrame(0.0, pts), 6)
        np.testing.assert_array_equal(nodes, pts)

    def test_too_many_nodes_rejected(self):
        pts = np.column_stack([np.zeros(5), np.arange(5) * 0.01])
        with pytest.raises(InvalidInputError):
            segment_frame(SensorFrame(0.0, pts), 5)

    def test_small_frames_rejected(self):
        pts = np.column_stack([np.zeros(3), np.arange(3) * 0.01])
        with pytest.raises(InvalidInputError):
            segment_frame(SensorFrame(0.0, pts), 2)

    def test_nodes_strictly_ordered_on_uneven_spacing(self, rng):
        for _ in range(20):
            gaps = rng.uniform(0.0001, 0.01, 30)
            y = np.concatenate([[0.0], np.cumsum(gaps)])
            frame = SensorFrame(0.0, np.column_stack([np.zeros(31), y]))
            for n in (2, 5, 12, 30):
                nodes = segment_frame(frame, n)
                assert np.all(np.diff(nodes[:, 1]) > 0.0)
                assert np.array_equal(nodes[0], frame.points[0])
                assert np.array_equal(nodes[-1], frame.points[-1])


class TestFitReferenceChain:
    def test_straight_reference(self):
        frame = straight_frame(length=0.17)
        chain = fit_reference_chain(frame, 5)
        np.testing.assert_allclose(chain.offsets, 0.0, atol=1e-12)
        assert chain.total_length == pytest.approx(0.17, abs=1e-12)

    def test_circular_arc_equal_offsets(self):
        # 101 samples at equal arc spacing: chord fractions land exactly
        # on sample indices, so nodes subtend equal arcs.
        span = 0.5 * math.pi
        frame = arc_frame(0.1, span, 101)
        chain = fit_reference_chain(frame, 5)
        np.testing.assert_allclose(chain.offsets[1:], span / 5, atol=1e-9)
        assert chain.offsets[0] == pytest.approx(span / 10, abs=1e-9)

    def test_reference_nodes_reproduced_at_rest(self, rng):
        for _ in range(5):
            gen = random_chain(rng, 4)
            q = rng.uniform(-0.4, 0.4, 4)
            frame = SensorFrame(0.0, joint_positions(gen, q))
            chain = fit_reference_chain(frame, 4)
            np.testing.assert_allclose(
                joint_positions(chain, np.zeros(4)), frame.points, atol=1e-9
            )

    def test_zero_masses(self):
        chain = fit_reference_chain(straight_frame(), 3)
        assert np.all(chain.masses == 0.0)


class TestFrameToJointAngles:
    def test_reference_frame_gives_zero(self):
        frame = arc_frame(0.1, 0.4 * math.pi, 81)
        chain = fit_reference_chain(frame, 5)
        q = frame_to_joint_angles(frame, chain)
        assert np.abs(q).max() < 1e-9

    def test_wrap_convention(self):
        assert wrap_angle(math.radians(190)) == pytest.approx(
            math.radians(-170), abs=1e-12
        )
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    @settings(max_examples=20)
    @given(st.data())
    def test_recovers_generating_angles(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ref_chain = random_chain(rng, 5)
        q_star = rng.uniform(-0.6, 0.6, 5)
        # Frame whose points are exactly the chain's joints: nodes hit
        # them exactly, so recovery is limited only by arithmetic.
        frame = SensorFrame(0.0, joint_positions(ref_chain, q_star))
        q = frame_to_joint_angles(frame, ref_chain)
        np.testing.assert_allclose(q, q_star, atol=1e-6)

    def test_recovers_from_dense_sampling(self, bench_geometry):
        from bendsim.dynamics import build_chain

        chain = build_chain(bench_geometry, 5)
        q_star = np.array([0.3, 0.25, 0.2, 0.28, 0.22])
        frame = chain_frame(chain, q_star)
        q = frame_to_joint_angles(frame, chain)
        # Dense resampling moves nodes by up to half the 0.8 mm spacing.
        np.testing.assert_allclose(q, q_star, atol=0.05)


class TestSplineThrough:
    def test_collinear_nodes_reproduce_the_line(self):
        nodes = np.column_stack([np.zeros(4), np.array([0.0, 0.04, 0.1,
                                                        0.17])])
        curve = spline_through(nodes)
        s = np.linspace(curve.s_min, curve.s_max, 500)
        pts = curve.evaluate(s)
        np.testing.assert_allclose(pts[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(pts[:, 1], s, atol=1e-12)

    def test_interpolates_knots(self):
        nodes = semicircle_nodes()
        curve = spline_through(nodes)
        np.testing.assert_allclose(curve.evaluate(curve.knots), nodes,
                                   atol=1e-12)

    def test_c2_continuity_at_interior_knots(self):
        curve = spline_through(semicircle_nodes())
        # Evaluate the two adjacent interval polynomials at the shared
        # knot: value, slope and second derivative must agree.
        for j in range(1, len(curve.knots) - 1):
            h = curve.knots[j] - curve.knots[j - 1]
            for coeffs in (curve.coeffs_x, curve.coeffs_y):
                a3, a2, a1, a0 = coeffs[:, j - 1]
                b3, b2, b1, b0 = coeffs[:, j]
                left = (
                    ((a3 * h + a2) * h + a1) * h + a0,
                    (3 * a3 * h + 2 * a2) * h + a1,
                    6 * a3 * h + 2 * a2,
                )
                right = (b0, b1, 2 * b2)
                np.testing.assert_allclose(left, right, atol=1e-9)
        # Natural end conditions: vanishing second derivative.
        np.testing.assert_allclose(
            curve.derivative(curve.s_min, 2), 0.0, atol=1e-9
        )
        np.testing.assert_allclose(
            curve.derivative(curve.s_max, 2), 0.0, atol=1e-9
        )

    def test_semicircle_deviation_frozen_oracle(self):
        curve = spline_through(semicircle_nodes())
        s = np.linspace(curve.s_min, curve.s_max, 200001)
        pts = curve.evaluate(s)
        dev = np.abs(np.hypot(pts[:, 0] + 0.1, pts[:, 1]) - 0.1).max()
        assert dev == pytest.approx(SEMICIRCLE_SPLINE_DEVIATION, abs=1e-9)

    def test_matches_scipy_natural_spline(self, rng):
        from scipy.interpolate import CubicSpline

        for m in range(3, 11):
            nodes = np.cumsum(rng.normal(0.0, 0.02, (4, m, 2)), axis=1)
            knots, coeffs = _natural_spline(nodes)
            for f in range(4):
                curve = spline_through(nodes[f])
                np.testing.assert_array_equal(curve.knots, knots[f])
                for k, own in ((0, curve.coeffs_x), (1, curve.coeffs_y)):
                    ref = CubicSpline(knots[f], nodes[f, :, k],
                                      bc_type="natural").c
                    np.testing.assert_allclose(own, ref, rtol=1e-10,
                                               atol=1e-12 * np.abs(ref).max())
                    np.testing.assert_array_equal(coeffs[f, :, :, k].T, own)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidInputError):
            spline_through(np.array([[0.0, 0.0], [0.0, 0.1]]))

    def test_coincident_nodes_rejected(self):
        with pytest.raises(InvalidInputError):
            spline_through(np.array([[0.0, 0.0], [0.0, 0.1], [0.0, 0.1],
                                     [0.0, 0.2]]))


class TestMaxDeviation:
    def test_points_on_curve_give_zero(self):
        curve = spline_through(semicircle_nodes())
        s = np.linspace(curve.s_min, curve.s_max, 40)
        frame = SensorFrame(0.0, curve.evaluate(s))
        mx, mean = max_deviation(curve, frame)
        assert mx < 1e-9 and mean < 1e-9

    def test_straight_frame_vs_own_spline(self):
        frame = straight_frame(length=0.17, spacing=0.01)
        nodes = segment_frame(frame, 2)
        mx, mean = max_deviation(spline_through(nodes), frame)
        assert mx < 1e-9 and mean < 1e-9

    def test_matches_brute_force_scan(self):
        # Semicircle frame at the sensor spacing vs its 5-segment spline.
        arc_count = int(round(math.pi * 0.1 / 0.0008)) + 1
        frame = arc_frame(0.1, math.pi, arc_count)
        curve = spline_through(segment_frame(frame, 5))
        mx, mean = max_deviation(curve, frame)
        grid = np.linspace(curve.s_min, curve.s_max,
                           int((curve.s_max - curve.s_min) / 1e-5) + 2)
        samples = curve.evaluate(grid)
        d = np.sqrt(
            ((frame.points[:, None, :] - samples[None, :, :]) ** 2).sum(-1)
        ).min(axis=1)
        assert mx == pytest.approx(d.max(), abs=1e-6)
        assert mean == pytest.approx(d.mean(), abs=1e-6)

    def test_exact_on_curled_frames(self, rng):
        # Spirals whose tips curl back toward their bases, n = 2..8: both
        # max_deviation and select_order's per-frame maxima must equal
        # the quintic-root distances to rounding.
        frames = curled_frames(rng)
        report = select_order(frames, range(2, 9), 1e-3)
        for n in range(2, 9):
            for f, frame in enumerate(frames):
                curve = spline_through(segment_frame(frame, n))
                coeffs = np.stack([curve.coeffs_x.T, curve.coeffs_y.T], -1)
                exact = exact_spline_distances(curve.knots, coeffs,
                                               frame.points)
                mx, mean = max_deviation(curve, frame)
                assert mx == pytest.approx(exact.max(), abs=1e-12)
                assert mean == pytest.approx(exact.mean(), abs=1e-12)
                assert report.candidate(n).per_frame_max[f] == pytest.approx(
                    exact.max(), abs=1e-12)

    def test_max_at_least_mean(self, rng):
        for _ in range(10):
            chain = random_chain(rng, 5)
            frame = chain_frame(chain, rng.uniform(-0.3, 0.3, 5),
                                spacing=0.002)
            mx, mean = max_deviation(
                spline_through(segment_frame(frame, 3)), frame
            )
            assert mx >= mean >= 0.0


class TestSelectOrder:
    def test_straight_frames_choose_minimum(self):
        frames = [straight_frame(time=t) for t in (0.0, 0.5, 1.0)]
        report = select_order(frames, range(2, 6), 0.001)
        assert report.chosen_n == 2
        assert report.threshold_met
        for c in report.candidates:
            assert c.max_error >= c.mean_error >= 0.0
            assert c.max_error < 1e-9

    def test_monotone_improvement_on_nested_node_sets(self):
        # 33 uniform arc samples: n in {2,4,8,16,32} gives nested nodes.
        frame = arc_frame(0.1, 0.6 * math.pi, 33)
        errors = []
        for n in (2, 4, 8, 16, 32):
            mx, _ = max_deviation(spline_through(segment_frame(frame, n)),
                                  frame)
            errors.append(mx)
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("threshold", [0.0, -1e-3, math.nan, math.inf])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(InvalidInputError, match="threshold"):
            select_order([straight_frame(time=0.0)], [2, 3], threshold)

    def test_threshold_not_met_flag(self):
        frame = arc_frame(0.1, math.pi, 200)
        report = select_order([frame], [2, 3], 1e-9)
        assert not report.threshold_met
        assert report.chosen_n == 3  # argmin of max error

    def test_frames_of_unequal_length(self, monkeypatch):
        # One batch, then one frame per kernel call: both equal the
        # per-frame max_deviation.
        frames = [arc_frame(0.1, 0.6 * math.pi, count)
                  for count in (90, 140, 120)]
        for scan_elements in (None, 1):
            if scan_elements is not None:
                monkeypatch.setattr(reconstruction, "_SCAN_ELEMENTS",
                                    scan_elements)
            report = select_order(frames, [3, 5], 1.0)
            for n in (3, 5):
                for f, frame in enumerate(frames):
                    curve = spline_through(segment_frame(frame, n))
                    mx, _ = max_deviation(curve, frame)
                    assert report.candidate(n).per_frame_max[f] == mx

    def test_orders_below_two_rejected(self):
        frames = [straight_frame()]
        for orders in ([1, 2, 3], [0]):
            with pytest.raises(InvalidInputError, match=">= 2"):
                select_order(frames, orders, 0.003)

    def test_empty_frames_rejected(self):
        with pytest.raises(InvalidInputError):
            select_order([], [2, 3], 0.003)

    def test_report_candidate_lookup(self):
        frames = [straight_frame()]
        report = select_order(frames, [2, 4], 0.01)
        assert report.candidate(4).n == 4
        with pytest.raises(KeyError):
            report.candidate(3)


class TestSensorFrame:
    def test_invariants(self):
        with pytest.raises(InvalidInputError):
            SensorFrame(-1.0, np.zeros((5, 2)))
        with pytest.raises(InvalidInputError):
            SensorFrame(0.0, np.array([[0.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            SensorFrame(0.0, np.array([[0.0, 0.0]]))

    def test_chord_lengths(self):
        frame = straight_frame(length=0.1688, spacing=0.0008)
        assert len(frame) == 212
        assert frame.chord_lengths[-1] == pytest.approx(0.1688, abs=1e-12)
