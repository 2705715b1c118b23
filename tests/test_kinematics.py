import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bendsim.errors import InvalidInputError
from bendsim.kinematics import (
    JointState,
    LinkChain,
    LinkParams,
    PlanarPose,
    absolute_angles,
    body_velocities,
    forward_kinematics,
    joint_positions,
)

from helpers import (
    circumcenter,
    com_jacobians,
    com_positions,
    product_form_poses,
    random_chain,
)

angles = st.floats(-math.pi, math.pi, allow_nan=False)
coords = st.floats(-1.0, 1.0, allow_nan=False)


def poses():
    return st.builds(
        lambda a, x, y: PlanarPose(angle=a, position=np.array([x, y])),
        angles, coords, coords,
    )


def equal_angle_chain(n, length):
    return LinkChain(tuple(LinkParams(length=length) for _ in range(n)))


class TestPose:
    def test_identity_composition(self):
        p = PlanarPose(angle=0.3, position=np.array([0.1, -0.2]))
        q = p.compose(PlanarPose.identity())
        assert q.angle == pytest.approx(p.angle, abs=1e-15)
        np.testing.assert_allclose(q.position, p.position, atol=1e-15)

    @given(poses(), poses(), poses())
    def test_composition_associative(self, a, b, c):
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert abs(left.angle - right.angle) < 1e-12
        np.testing.assert_allclose(left.position, right.position, atol=1e-12)

    @given(poses())
    def test_inverse_roundtrip(self, p):
        r = p.compose(p.inverse())
        assert abs(r.angle) < 1e-12
        np.testing.assert_allclose(r.position, 0.0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            PlanarPose(angle=math.nan, position=np.zeros(2))
        with pytest.raises(InvalidInputError):
            PlanarPose(angle=0.0, position=np.array([math.inf, 0.0]))


class TestForwardKinematics:
    def test_straight_five_link_tip(self):
        chain = equal_angle_chain(5, 0.034)
        tip = forward_kinematics(chain, np.zeros(5))[-1]
        np.testing.assert_allclose(tip.position, [0.0, 0.170], atol=1e-15)

    def test_single_link_quarter_turn(self):
        chain = equal_angle_chain(1, 0.17)
        tip = forward_kinematics(chain, np.array([math.pi / 2]))[-1]
        np.testing.assert_allclose(tip.position, [-0.17, 0.0], atol=1e-15)

    def test_joint_positions_prepends_base(self):
        chain = equal_angle_chain(5, 0.034)
        pts = joint_positions(chain, np.zeros(5))
        np.testing.assert_allclose(
            pts, np.column_stack([np.zeros(6), 0.034 * np.arange(6)]),
            atol=1e-15,
        )

    def test_joint_positions_of_a_stack_equal_single_calls(self, rng):
        chain = random_chain(rng, 6)
        q = rng.uniform(-1.0, 1.0, (3, 4, 6))
        pts = joint_positions(chain, q)
        assert pts.shape == (3, 4, 7, 2)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(pts[idx], joint_positions(chain, q[idx]))
        with pytest.raises(InvalidInputError):
            joint_positions(chain, np.zeros((4, 5)))

    @given(st.integers(1, 8), st.data())
    def test_recursive_matches_product_form(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chain = random_chain(rng, n)
        q = rng.uniform(-math.pi, math.pi, n)
        poses = forward_kinematics(chain, q)
        oracle = product_form_poses(chain, q)
        for pose, (angle, position) in zip(poses, oracle):
            # The oracle's angle is wrapped; compare as rotations.
            d = pose.angle - angle
            assert abs(math.remainder(d, 2 * math.pi)) < 1e-12
            np.testing.assert_allclose(pose.position, position, atol=1e-12)

    @given(st.integers(2, 8),
           st.floats(0.05, 2.0, allow_nan=False))
    def test_constant_curvature_joints_on_circle(self, n, theta):
        length = 0.17 / n
        chain = equal_angle_chain(n, length)
        pts = joint_positions(chain, np.full(n, theta))
        radius = length / (2.0 * math.sin(theta / 2.0))
        center = circumcenter(pts[0], pts[1], pts[2])
        dist = np.hypot(*(pts - center).T)
        np.testing.assert_allclose(dist, radius, atol=1e-9)

    def test_size_mismatch_rejected(self):
        chain = equal_angle_chain(3, 0.05)
        with pytest.raises(InvalidInputError):
            forward_kinematics(chain, np.zeros(4))


class TestVelocities:
    @settings(max_examples=25)
    @given(st.integers(1, 8), st.data())
    def test_body_velocities_match_finite_differences(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chain = random_chain(rng, n)
        q = rng.uniform(-1.0, 1.0, n)
        qdot = rng.uniform(-2.0, 2.0, n)
        vel = body_velocities(chain, JointState(q=q, qdot=qdot))
        dt = 1e-6
        plus = joint_positions(chain, q + dt * qdot)[1:]
        minus = joint_positions(chain, q - dt * qdot)[1:]
        fd_tip = (plus - minus) / (2.0 * dt)
        phi = absolute_angles(chain, q)
        for i, bv in enumerate(vel):
            assert bv.omega == pytest.approx(np.sum(qdot[: i + 1]), abs=1e-12)
            c, s = math.cos(phi[i]), math.sin(phi[i])
            task_v = np.array([c * bv.v[0] - s * bv.v[1],
                               s * bv.v[0] + c * bv.v[1]])
            np.testing.assert_allclose(task_v, fd_tip[i], atol=1e-6)

    def test_single_link_tangential_speed(self):
        chain = equal_angle_chain(1, 0.17)
        (bv,) = body_velocities(chain, JointState(q=np.zeros(1),
                                                  qdot=np.ones(1)))
        assert bv.omega == pytest.approx(1.0)
        np.testing.assert_allclose(bv.v, [-0.17, 0.0], atol=1e-15)

    def test_zero_motion_exactly_zero(self, rng):
        chain = random_chain(rng, 6)
        q = rng.uniform(-1.0, 1.0, 6)
        for bv in body_velocities(chain, JointState(q=q, qdot=np.zeros(6))):
            assert bv.omega == 0.0
            assert np.all(bv.v == 0.0)

    @settings(max_examples=25)
    @given(st.integers(1, 8), st.data())
    def test_com_jacobians_match_finite_differences(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chain = random_chain(rng, n)
        q = rng.uniform(-1.0, 1.0, n)
        jacs = com_jacobians(chain, q)
        dt = 1e-7
        for j in range(n):
            dq = np.zeros(n)
            dq[j] = dt
            fd = (com_positions(chain, q + dq) - com_positions(chain, q - dq))
            fd /= 2.0 * dt
            for i, (jv, jw) in enumerate(jacs):
                np.testing.assert_allclose(jv[:, j], fd[i], atol=1e-6)
                assert jw[0, j] == (1.0 if j <= i else 0.0)


class TestValidation:
    def test_link_params_invariants(self):
        with pytest.raises(InvalidInputError):
            LinkParams(length=0.0)
        with pytest.raises(InvalidInputError):
            LinkParams(length=0.1, mass=-1.0)
        with pytest.raises(InvalidInputError):
            LinkParams(length=0.1, com_distance=0.2)

    def test_joint_state_invariants(self):
        with pytest.raises(InvalidInputError):
            JointState(q=np.array([0.0, math.nan]))
        with pytest.raises(InvalidInputError):
            JointState(q=np.zeros(2), qdot=np.zeros(3))

    def test_empty_chain_rejected(self):
        with pytest.raises(InvalidInputError):
            LinkChain(())

    def test_joint_state_defaults_to_rest(self):
        state = JointState(q=np.array([0.1, 0.2]))
        assert np.all(state.qdot == 0.0)
