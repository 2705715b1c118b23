import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bendsim.dynamics import (
    ActuatorGeometry,
    DynamicsParams,
    build_chain,
    coriolis_matrix,
    eom_accel,
    mass_matrix,
    pressure_torque,
    total_energy,
    _accel,
    _accel_jacobian,
    _ChainDynamics,
)
from bendsim.errors import InvalidInputError
from bendsim.kinematics import JointState, body_velocities

from helpers import jacobian_mass_matrix, random_chain


def fd_mass_dot(chain, q, qdot, dt=1e-6):
    """Central finite difference of M along the motion direction."""
    plus = jacobian_mass_matrix(chain, q + dt * qdot)
    minus = jacobian_mass_matrix(chain, q - dt * qdot)
    return (plus - minus) / (2.0 * dt)


def fd_christoffel(chain, q, qdot, dt=1e-6):
    """Coriolis matrix from central differences of M (independent oracle)."""
    n = len(chain)
    dM = np.empty((n, n, n))
    for k in range(n):
        dq = np.zeros(n)
        dq[k] = dt
        dM[k] = (jacobian_mass_matrix(chain, q + dq)
                 - jacobian_mass_matrix(chain, q - dq))
        dM[k] /= 2.0 * dt
    C = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            gamma = 0.5 * (dM[:, i, j] + dM[j, i, :] - dM[i, :, j])
            C[i, j] = gamma @ qdot
    return C


class TestPressureTorque:
    def test_reference_pressures(self, bench_geometry):
        for p in (119e3, 240e3):
            expected = (2.0 / 3.0) * p * 0.010**3
            assert pressure_torque(bench_geometry, p) == pytest.approx(
                expected, rel=1e-9
            )
        assert pressure_torque(bench_geometry, 119e3) == pytest.approx(
            0.0793333, rel=1e-5
        )
        assert pressure_torque(bench_geometry, 240e3) == pytest.approx(
            0.16, rel=1e-9
        )

    def test_zero_pressure(self, bench_geometry):
        assert pressure_torque(bench_geometry, 0.0) == 0.0

    def test_non_finite_rejected(self, bench_geometry):
        with pytest.raises(InvalidInputError):
            pressure_torque(bench_geometry, math.inf)


class TestGeometry:
    def test_invariants(self):
        with pytest.raises(InvalidInputError):
            ActuatorGeometry(r1=0.010, r2=0.014, wall=0.004,
                             total_length=0.17, total_mass=0.069)
        with pytest.raises(InvalidInputError):
            ActuatorGeometry(r1=0.014, r2=0.010, wall=0.004,
                             total_length=0.17, total_mass=0.0)

    def test_build_chain_equal_links(self, bench_geometry):
        chain = build_chain(bench_geometry, 5)
        np.testing.assert_allclose(chain.lengths, 0.034, atol=1e-15)
        np.testing.assert_allclose(chain.masses.sum(), 0.069, atol=1e-15)
        np.testing.assert_allclose(chain.com_distances, 0.017, atol=1e-15)

    def test_build_chain_mass_proportional_to_length(self, bench_geometry):
        from bendsim.reconstruction import SensorFrame

        # A dogleg reference gives unequal node gaps.
        pts = np.array([[0.0, 0.0], [0.0, 0.05], [0.0, 0.1], [0.03, 0.14],
                        [0.06, 0.18]])
        chain = build_chain(bench_geometry, 2, reference=SensorFrame(0.0, pts))
        assert chain.masses == pytest.approx(
            0.069 * chain.lengths / chain.lengths.sum()
        )


class TestMassMatrix:
    def test_single_link_uniform_rod(self, bench_geometry):
        chain = build_chain(bench_geometry, 1)
        M = mass_matrix(chain, np.zeros(1))
        expected = 0.069 * 0.17**2 / 3.0
        assert abs(M[0, 0] - expected) < 1e-12

    @settings(max_examples=50)
    @given(st.integers(1, 8), st.data())
    def test_symmetric_positive_definite(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chain = random_chain(rng, n)
        q = rng.uniform(-math.pi, math.pi, n)
        M = mass_matrix(chain, q)
        assert np.abs(M - M.T).max() < 1e-12
        assert np.all(np.linalg.eigvalsh(M) > 0.0)

    @settings(max_examples=25)
    @given(st.integers(1, 8), st.data())
    def test_fast_route_matches_jacobian_route(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chain = random_chain(rng, n)
        q = rng.uniform(-math.pi, math.pi, n)
        np.testing.assert_allclose(mass_matrix(chain, q),
                                   jacobian_mass_matrix(chain, q), atol=1e-14)


class TestCoriolis:
    @settings(max_examples=25)
    @given(st.integers(1, 6), st.data())
    def test_matches_christoffel_finite_differences(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chain = random_chain(rng, n)
        q = rng.uniform(-1.5, 1.5, n)
        qdot = rng.uniform(-3.0, 3.0, n)
        C = coriolis_matrix(chain, q, qdot)
        np.testing.assert_allclose(C, fd_christoffel(chain, q, qdot),
                                   atol=1e-6)

    @settings(max_examples=50)
    @given(st.integers(1, 8), st.data())
    def test_mdot_minus_two_c_skew(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chain = random_chain(rng, n)
        q = rng.uniform(-1.5, 1.5, n)
        qdot = rng.uniform(-3.0, 3.0, n)
        S = fd_mass_dot(chain, q, qdot) - 2.0 * coriolis_matrix(chain, q, qdot)
        assert np.abs(S + S.T).max() < 1e-8

    def test_single_link_coriolis_zero(self, bench_geometry):
        chain = build_chain(bench_geometry, 1)
        C = coriolis_matrix(chain, np.array([0.7]), np.array([2.0]))
        assert C[0, 0] == 0.0


class TestEquationOfMotion:
    def test_matrix_shapes_and_structure(self, bench_chain):
        q, qdot = np.full(5, 0.1), np.full(5, 0.2)
        assert mass_matrix(bench_chain, q).shape == (5, 5)
        assert coriolis_matrix(bench_chain, q, qdot).shape == (5, 5)
        with pytest.raises(InvalidInputError):
            mass_matrix(bench_chain, np.zeros(4))
        with pytest.raises(InvalidInputError):
            coriolis_matrix(bench_chain, q, np.zeros(4))

    def test_static_equilibrium_zero_acceleration(
        self, bench_chain, bench_params, bench_geometry
    ):
        tau = pressure_torque(bench_geometry, 119e3)
        q_eq = np.full(5, tau / bench_params.k_b)
        acc = eom_accel(bench_chain, bench_params, bench_geometry,
                        JointState(q=q_eq, qdot=np.zeros(5)), 119e3)
        np.testing.assert_allclose(acc, 0.0, atol=1e-12)

    def test_accel_solves_the_stated_equation(
        self, bench_chain, bench_params, bench_geometry
    ):
        state = JointState(q=np.full(5, 0.05), qdot=np.full(5, -0.4))
        acc = eom_accel(bench_chain, bench_params, bench_geometry, state,
                        119e3)
        M = jacobian_mass_matrix(bench_chain, state.q)
        C = coriolis_matrix(bench_chain, state.q, state.qdot)
        D = np.diag(bench_params.damping)
        K = bench_params.k_b * np.eye(5)
        tau = pressure_torque(bench_geometry, 119e3) * np.ones(5)
        rhs = tau - (C + D) @ state.qdot - K @ state.q
        np.testing.assert_allclose(acc, np.linalg.solve(M, rhs),
                                   rtol=1e-9, atol=1e-12)

    def test_mismatched_damping_rejected(self, bench_chain, bench_geometry):
        params = DynamicsParams.uniform(1.6067, 0.008, 4)
        with pytest.raises(InvalidInputError):
            eom_accel(bench_chain, params, bench_geometry,
                      JointState(q=np.zeros(5), qdot=np.zeros(5)), 0.0)


class TestAccelJacobian:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_central_differences(self, n):
        rng = np.random.default_rng(1000 + n)
        chain = random_chain(rng, n)
        dyn = _ChainDynamics(chain)
        damping = rng.uniform(0.0, 0.05, n)
        k_b, tau = rng.uniform(0.5, 3.0), rng.uniform(-0.2, 0.2)
        q, qdot = rng.uniform(-0.5, 0.5, n), rng.uniform(-3.0, 3.0, n)
        d_q, d_qdot = _accel_jacobian(dyn, damping, k_b, tau, q, qdot)
        h = 1e-5

        def accel(dq, dv):
            return _accel(dyn, damping, k_b, tau, q + dq, qdot + dv)

        fd_q = np.column_stack([(accel(h * e, 0.0) - accel(-h * e, 0.0))
                                / (2.0 * h) for e in np.eye(n)])
        fd_qdot = np.column_stack([(accel(0.0, h * e) - accel(0.0, -h * e))
                                   / (2.0 * h) for e in np.eye(n)])
        for exact, fd in ((d_q, fd_q), (d_qdot, fd_qdot)):
            assert np.abs(exact - fd).max() <= 1e-8 * np.abs(fd).max()


class TestStackedAccel:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    def test_stack_equals_single_calls_row_for_row(self, n):
        rng = np.random.default_rng(2000 + n)
        chain = random_chain(rng, n)
        dyn = _ChainDynamics(chain)
        damping = rng.uniform(0.0, 0.05, n)
        k_b, tau = rng.uniform(0.5, 3.0), rng.uniform(-0.2, 0.2)
        q, qdot = rng.uniform(-0.5, 0.5, (7, n)), rng.uniform(-3.0, 3.0, (7, n))
        stacked = _accel(dyn, damping, k_b, tau, q, qdot)
        assert stacked.shape == (7, n)
        for i in range(7):
            assert np.array_equal(
                stacked[i], _accel(dyn, damping, k_b, tau, q[i], qdot[i]))
        nested = _accel(dyn, damping, k_b, tau, q.reshape(7, 1, n),
                        qdot.reshape(7, 1, n))
        assert np.array_equal(nested[:, 0], stacked)

    def test_non_finite_state_gives_a_non_finite_row(self):
        # The integrator reads any non-finite value in a stage stack as
        # divergence.
        chain = random_chain(np.random.default_rng(7), 4)
        dyn = _ChainDynamics(chain)
        q = np.zeros((3, 4))
        q[1, 2] = np.inf
        with np.errstate(invalid="ignore"):
            acc = _accel(dyn, np.full(4, 0.01), 1.0, 0.1, q, np.zeros((3, 4)))
        assert not np.isfinite(acc[1]).all()


class TestEnergy:
    @settings(max_examples=25)
    @given(st.integers(1, 8), st.data())
    def test_kinetic_energy_matches_body_velocities(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chain = random_chain(rng, n)
        params = DynamicsParams.uniform(1.3, 0.0, n)
        q = rng.uniform(-1.0, 1.0, n)
        qdot = rng.uniform(-2.0, 2.0, n)
        state = JointState(q=q, qdot=qdot)
        # Independent route: sum per-link translational + rotational energy
        # from body velocities. The tip velocity is shifted back to the COM.
        kinetic = 0.0
        for link, bv in zip(chain.links, body_velocities(chain, state)):
            v_com = np.array([bv.v[0] + bv.omega * (link.length
                                                    - link.com_distance),
                              bv.v[1]])
            kinetic += 0.5 * link.mass * float(v_com @ v_com)
            kinetic += 0.5 * link.inertia_com * bv.omega**2
        elastic = 0.5 * params.k_b * float(q @ q)
        assert total_energy(chain, params, state) == pytest.approx(
            kinetic + elastic, rel=1e-9, abs=1e-12
        )

    def test_rest_energy_zero(self, bench_chain, bench_params):
        state = JointState(q=np.zeros(5), qdot=np.zeros(5))
        assert total_energy(bench_chain, bench_params, state) == 0.0
