import math

import numpy as np
import pytest
import scipy.linalg

from bendsim.dynamics import DynamicsParams, build_chain, mass_matrix, total_energy
from bendsim.errors import (
    DivergenceError,
    InsufficientDataError,
    InvalidInputError,
)
from bendsim.integrator import (
    PressureTrace,
    SimConfig,
    Trajectory,
    dominant_frequency,
    positions_at,
    pressure_at,
    simulate,
)
from bendsim.kinematics import JointState, joint_positions

ZERO_TRACE = PressureTrace(((0.0, 0.0),))


def lowest_mode_state(chain, k_b, amplitude=0.1):
    """Initial shape along the softest vibration mode (smooth in space)."""
    n = len(chain)
    M0 = mass_matrix(chain, np.zeros(n))
    _, vecs = scipy.linalg.eigh(k_b * np.eye(n), M0)
    q = vecs[:, 0] / np.abs(vecs[:, 0]).max() * amplitude
    return JointState(q=q, qdot=np.zeros(n))


class TestPressureAt:
    def test_rectangular_pulse(self):
        trace = PressureTrace(((0.0, 0.0), (0.12, 119e3), (2.88, 0.0)))
        assert pressure_at(trace, 1.0) == 119e3
        assert pressure_at(trace, 0.05) == 0.0
        assert pressure_at(trace, 3.5) == 0.0

    def test_before_first_sample_is_zero(self):
        trace = PressureTrace(((1.0, 50e3),))
        assert pressure_at(trace, 0.5) == 0.0
        assert pressure_at(trace, 1.0) == 50e3
        assert pressure_at(trace, 2.0) == 50e3

    def test_non_increasing_times_rejected(self):
        with pytest.raises(InvalidInputError):
            PressureTrace(((0.0, 0.0), (0.0, 1.0)))
        with pytest.raises(InvalidInputError):
            PressureTrace(((1.0, 0.0), (0.5, 1.0)))

    def test_rectangular_constructor(self):
        trace = PressureTrace.rectangular(0.12, 2.76, 119e3)
        assert trace.samples == ((0.0, 0.0), (0.12, 119e3), (2.88, 0.0))

    def test_arrays_built_once_and_read_only(self):
        trace = PressureTrace(((0.0, 0.0), (0.12, 119e3), (2.88, 0.0)))
        assert trace.times is trace.times
        assert trace.pressures is trace.pressures
        np.testing.assert_array_equal(trace.times, [0.0, 0.12, 2.88])
        np.testing.assert_array_equal(trace.pressures, [0.0, 119e3, 0.0])
        assert not trace.times.flags.writeable
        assert not trace.pressures.flags.writeable


class TestStep:
    def test_divergence_names_time(self, bench_geometry):
        # Unforced blow-up from a deflected start: fixed 1 ms RK4 steps
        # are unstable for this stiffness, so a step must fail by itself.
        chain = build_chain(bench_geometry, 1)
        params = DynamicsParams.uniform(1e12, 0.0, 1)
        init = JointState(q=np.array([0.1]), qdot=np.zeros(1))
        config = SimConfig(t_end=1.0, max_step=1e-3, output_rate=100)
        with pytest.raises(DivergenceError) as err:
            simulate(chain, params, bench_geometry, ZERO_TRACE, config,
                     initial_state=init)
        assert "diverged" in str(err.value)
        assert err.value.time is not None
        assert 0.0 < err.value.time <= 1.0


class TestSimulate:
    def test_zero_pressure_stays_at_rest(self, bench_chain, bench_params,
                                         bench_geometry):
        config = SimConfig(t_end=1.0, output_rate=100)
        traj = simulate(bench_chain, bench_params, bench_geometry, ZERO_TRACE,
                        config)
        assert np.all(traj.q == 0.0) and np.all(traj.qdot == 0.0)
        assert len(traj.times) == 101

    def test_constant_pressure_reaches_static_equilibrium(
        self, bench_chain, bench_params, bench_geometry
    ):
        from bendsim.dynamics import pressure_torque

        trace = PressureTrace(((0.0, 119e3),))
        config = SimConfig(t_end=3.0, output_rate=200)
        traj = simulate(bench_chain, bench_params, bench_geometry, trace,
                        config)
        q_eq = pressure_torque(bench_geometry, 119e3) / bench_params.k_b
        np.testing.assert_allclose(traj.q[-1], q_eq, atol=1e-4)

    def test_energy_conservation_undamped(self, bench_chain, bench_geometry):
        params = DynamicsParams.uniform(1.6067, 0.0, 5)
        init = lowest_mode_state(bench_chain, params.k_b)
        config = SimConfig(t_end=1.0, max_step=1e-4, output_rate=1000)
        traj = simulate(bench_chain, params, bench_geometry, ZERO_TRACE,
                        config, initial_state=init)
        e = np.array([total_energy(bench_chain, params, traj.state(k))
                      for k in range(len(traj.times))])
        assert np.abs(e - e[0]).max() / e[0] < 1e-6

    def test_damped_energy_non_increasing(self, bench_chain, bench_params,
                                          bench_geometry):
        init = lowest_mode_state(bench_chain, bench_params.k_b)
        config = SimConfig(t_end=0.5, output_rate=500)
        traj = simulate(bench_chain, bench_params, bench_geometry, ZERO_TRACE,
                        config, initial_state=init)
        e = np.array([total_energy(bench_chain, bench_params, traj.state(k))
                      for k in range(len(traj.times))])
        assert np.all(np.diff(e) <= 0.0)

    def test_halving_step_changes_outputs_below_tolerance(
        self, bench_chain, bench_geometry
    ):
        # Damping makes the system stiff, so the damped case is checked too.
        for damping in (0.0, 0.008):
            params = DynamicsParams.uniform(1.6067, damping, 5)
            init = lowest_mode_state(bench_chain, params.k_b)
            runs = {}
            for h in (1e-4, 5e-5):
                config = SimConfig(t_end=0.5, max_step=h, output_rate=1000)
                runs[h] = simulate(bench_chain, params, bench_geometry,
                                   ZERO_TRACE, config, initial_state=init)
            scale = np.abs(runs[1e-4].q).max()
            assert np.abs(runs[1e-4].q - runs[5e-5].q).max() / scale < 1e-6

    def test_fourth_order_convergence_on_harmonic_case(self, bench_geometry):
        # A 1-link chain has constant M and zero C, so the undamped
        # unforced system is exactly q'' = -(k/M) q with a cosine
        # solution; global error should drop ~16x per step halving.
        chain = build_chain(bench_geometry, 1)
        k_b = 1.6067
        params = DynamicsParams.uniform(k_b, 0.0, 1)
        M = mass_matrix(chain, np.zeros(1))[0, 0]
        omega = math.sqrt(k_b / M)
        T, q0 = 0.2, 0.1
        init = JointState(q=np.array([q0]), qdot=np.zeros(1))

        def endpoint_error(h):
            config = SimConfig(t_end=T, max_step=h, output_rate=1.0 / T)
            traj = simulate(chain, params, bench_geometry, ZERO_TRACE, config,
                            initial_state=init)
            assert traj.times[-1] == T
            return abs(traj.q[-1, 0] - q0 * math.cos(omega * T))

        ratio = endpoint_error(1e-3) / endpoint_error(5e-4)
        assert 16.0 * 0.8 < ratio < 16.0 * 1.2

    def test_positions_match_forward_kinematics(self, bench_chain,
                                                bench_params, bench_geometry):
        trace = PressureTrace.rectangular(0.0, 0.2, 119e3)
        config = SimConfig(t_end=0.3, output_rate=100)
        traj = simulate(bench_chain, bench_params, bench_geometry, trace,
                        config)
        for k in range(0, len(traj.times), 7):
            np.testing.assert_allclose(
                traj.positions[k], joint_positions(bench_chain, traj.q[k]),
                atol=1e-12,
            )

    def test_deterministic_bit_identical(self, bench_chain, bench_params,
                                         bench_geometry, bench_pulse):
        config = SimConfig(t_end=0.3, output_rate=250)
        a = simulate(bench_chain, bench_params, bench_geometry, bench_pulse,
                     config)
        b = simulate(bench_chain, bench_params, bench_geometry, bench_pulse,
                     config)
        assert np.array_equal(a.q, b.q) and np.array_equal(a.qdot, b.qdot)
        assert np.array_equal(a.positions, b.positions)

    def test_divergence_reports_failure_time(self, bench_geometry):
        chain = build_chain(bench_geometry, 1)
        params = DynamicsParams.uniform(1e12, 0.0, 1)
        trace = PressureTrace(((0.0, 500e3),))
        config = SimConfig(t_end=1.0, max_step=1e-3, output_rate=100)
        with pytest.raises(DivergenceError) as err:
            simulate(chain, params, bench_geometry, trace, config)
        assert "diverged" in str(err.value)
        assert math.isfinite(err.value.time)
        assert 0.0 <= err.value.time <= 1.0

    def test_output_grid_spacing(self, bench_chain, bench_params,
                                 bench_geometry):
        config = SimConfig(t_start=0.25, t_end=0.75, output_rate=40)
        traj = simulate(bench_chain, bench_params, bench_geometry, ZERO_TRACE,
                        config)
        np.testing.assert_allclose(traj.times,
                                   0.25 + np.arange(21) / 40.0, atol=1e-12)

    def test_positions_at_interpolates(self, bench_chain, bench_params,
                                       bench_geometry, bench_pulse):
        config = SimConfig(t_end=0.5, output_rate=100)
        traj = simulate(bench_chain, bench_params, bench_geometry,
                        bench_pulse, config)
        mid = positions_at(traj, 0.105)
        np.testing.assert_allclose(
            mid, 0.5 * (traj.positions[10] + traj.positions[11]), atol=1e-12
        )
        with pytest.raises(InvalidInputError):
            positions_at(traj, 0.6)


class TestDominantFrequency:
    def test_synthetic_decaying_sine(self):
        t = np.arange(0, 3.0, 1e-3)
        q = (np.exp(-t) * np.sin(2 * math.pi * 5.0 * t))[:, None]
        traj = Trajectory(times=t, q=q, qdot=np.zeros_like(q),
                          positions=np.zeros((len(t), 2, 2)))
        freq = dominant_frequency(traj, 0, (0.0, 3.0))
        assert freq == pytest.approx(5.0, abs=0.05)

    def test_constant_signal_is_insufficient(self):
        t = np.arange(0, 1.0, 1e-3)
        q = np.full((len(t), 1), 0.25)
        traj = Trajectory(times=t, q=q, qdot=np.zeros_like(q),
                          positions=np.zeros((len(t), 2, 2)))
        with pytest.raises(InsufficientDataError):
            dominant_frequency(traj, 0, (0.0, 1.0))

    def test_single_link_matches_analytic_damped_frequency(
        self, bench_geometry
    ):
        chain = build_chain(bench_geometry, 1)
        k_b, d = 1.6067, 0.008
        params = DynamicsParams.uniform(k_b, d, 1)
        M = mass_matrix(chain, np.zeros(1))[0, 0]
        expected = math.sqrt(k_b / M - (d / (2 * M)) ** 2) / (2 * math.pi)
        init = JointState(q=np.array([0.15]), qdot=np.zeros(1))
        config = SimConfig(t_end=1.0, output_rate=1000)
        traj = simulate(chain, params, bench_geometry, ZERO_TRACE, config,
                        initial_state=init)
        freq = dominant_frequency(traj, 0, (0.0, 1.0))
        assert freq == pytest.approx(expected, rel=0.02)


class TestConfigValidation:
    def test_sim_config_invariants(self):
        with pytest.raises(InvalidInputError):
            SimConfig(t_start=1.0, t_end=0.5)
        with pytest.raises(InvalidInputError):
            SimConfig(max_step=0.0)
        with pytest.raises(InvalidInputError):
            SimConfig(output_rate=0.0)

    def test_trajectory_requires_consistent_shapes(self):
        t = np.array([0.0, 0.1])
        with pytest.raises(InvalidInputError):
            Trajectory(times=t, q=np.zeros((2, 3)), qdot=np.zeros((2, 2)),
                       positions=np.zeros((2, 4, 2)))
