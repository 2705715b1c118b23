import math
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

import bendsim.integrator as integrator
from bendsim.dynamics import (
    DynamicsParams,
    _accel,
    _accel_jacobian,
    _ChainDynamics,
    build_chain,
    eom_accel,
    mass_matrix,
    pressure_torque,
    total_energy,
)
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
# A finite but absurd pressure edge at 0.5 s: the state overflows there.
OVERFLOW_TRACE = PressureTrace(((0.0, 0.0), (0.5, 1e300)))


def lowest_mode_state(chain, k_b, amplitude=0.1):
    """Initial shape along the softest vibration mode (smooth in space)."""
    n = len(chain)
    M0 = mass_matrix(chain, np.zeros(n))
    _, vecs = scipy.linalg.eigh(k_b * np.eye(n), M0)
    q = vecs[:, 0] / np.abs(vecs[:, 0]).max() * amplitude
    return JointState(q=q, qdot=np.zeros(n))


def logged_trace(seed=3, seconds=0.6):
    """A 10 kHz, 12-bit logged pulse with ripple: ~90 pressure segments."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(round(seconds * 1e4))) / 1e4
    level = 119e3 * np.clip((t - 0.05) / 2e-3, 0.0, 1.0)
    ripple = 200.0 * np.sin(2 * np.pi * rng.uniform(5.0, 30.0, (3, 1)) * t
                            + rng.uniform(0.0, 2 * np.pi, (3, 1))).sum(0)
    step = 1e6 / 4096
    p = np.round(np.where(level > 0, level + ripple, 0.0) / step) * step
    return PressureTrace(tuple(zip(t, p)))


def scipy_radau_per_segment(chain, params, geometry, trace, config,
                            initial_state=None):
    """q on the output grid from scipy's Radau, one solve per run of equal
    pressure samples, at the module tolerances: the oracle the in-house
    stepper ports."""
    n = len(chain)
    dyn = _ChainDynamics(chain)
    damping = np.asarray(params.damping)
    times = config.t_start + np.arange(
        int(math.floor((config.t_end - config.t_start) * config.output_rate
                       + 1e-9)) + 1) / config.output_rate
    t_stop = max(config.t_end, times[-1])
    inside = (trace.times > config.t_start) & (trace.times < t_stop)
    edges = np.concatenate(([config.t_start], trace.times[inside]))
    values = np.concatenate(([pressure_at(trace, config.t_start)],
                             trace.pressures[inside]))
    keep = np.concatenate(([True], values[1:] != values[:-1]))
    edges, values = edges[keep], values[keep]
    ends = np.append(edges[1:], t_stop)

    def rhs(t, y, tau):
        return np.concatenate(
            (y[n:], _accel(dyn, damping, params.k_b, tau, y[:n], y[n:])))

    def jac(t, y, tau):
        d_q, d_qdot = _accel_jacobian(dyn, damping, params.k_b, tau, y[:n],
                                      y[n:])
        return np.block([[np.zeros((n, n)), np.eye(n)], [d_q, d_qdot]])

    if initial_state is None:
        initial_state = JointState(q=np.zeros(n), qdot=np.zeros(n))
    y = np.concatenate((initial_state.q, initial_state.qdot))
    atol = np.repeat([integrator._ATOL_Q, integrator._ATOL_QDOT], n)
    states = np.empty((len(times), 2 * n))
    for t0, t1, p in zip(edges, ends, values):
        sol = solve_ivp(rhs, (t0, t1), y, method="Radau",
                        rtol=integrator._RTOL, atol=atol, jac=jac,
                        dense_output=True,
                        args=(pressure_torque(geometry, p),))
        assert sol.success
        at = (times >= t0) & (times <= t1)
        if at.any():
            states[at] = sol.sol(times[at]).T
        y = sol.y[:, -1]
    return states[:, :n]


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
        chain = build_chain(bench_geometry, 1)
        params = DynamicsParams.uniform(1.6067, 0.0, 1)
        config = SimConfig(t_end=1.0, output_rate=100)
        with pytest.raises(DivergenceError) as err:
            simulate(chain, params, bench_geometry, OVERFLOW_TRACE, config)
        assert "diverged" in str(err.value)
        assert err.value.time is not None
        assert 0.5 <= err.value.time <= 0.501


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
        trace = PressureTrace(((0.0, 119e3),))
        config = SimConfig(t_end=3.0, output_rate=200)
        traj = simulate(bench_chain, bench_params, bench_geometry, trace,
                        config)
        q_eq = pressure_torque(bench_geometry, 119e3) / bench_params.k_b
        np.testing.assert_allclose(traj.q[-1], q_eq, atol=1e-4)

    def test_energy_conservation_undamped(self, bench_chain, bench_geometry):
        params = DynamicsParams.uniform(1.6067, 0.0, 5)
        init = lowest_mode_state(bench_chain, params.k_b)
        config = SimConfig(t_end=1.0, output_rate=1000)
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

    def test_matches_independent_tight_solve(self, bench_chain,
                                             bench_geometry):
        # The reference integrates eom_accel with an explicit method
        # (no Jacobian, no shared solver setup) at a far tighter
        # tolerance. Damping makes the system stiff, so the damped case
        # is checked too.
        for damping in (0.0, 0.008):
            params = DynamicsParams.uniform(1.6067, damping, 5)
            init = lowest_mode_state(bench_chain, params.k_b)
            config = SimConfig(t_end=0.5, output_rate=1000)
            traj = simulate(bench_chain, params, bench_geometry, ZERO_TRACE,
                            config, initial_state=init)

            def rhs(t, y):
                state = JointState(q=y[:5], qdot=y[5:])
                return np.concatenate((y[5:], eom_accel(
                    bench_chain, params, bench_geometry, state, 0.0)))

            ref = solve_ivp(rhs, (0.0, 0.5),
                            np.concatenate((init.q, init.qdot)),
                            method="DOP853", rtol=1e-11, atol=1e-13,
                            t_eval=traj.times)
            assert ref.success
            scale = np.abs(ref.y[:5]).max()
            assert np.abs(traj.q - ref.y[:5].T).max() / scale < 1e-6

    def test_matches_analytic_harmonic_solution(self, bench_geometry):
        # A 1-link chain has constant M and zero C, so the undamped
        # unforced system is exactly q'' = -(k/M) q with the solution
        # q0 cos(omega t).
        chain = build_chain(bench_geometry, 1)
        k_b = 1.6067
        params = DynamicsParams.uniform(k_b, 0.0, 1)
        M = mass_matrix(chain, np.zeros(1))[0, 0]
        omega = math.sqrt(k_b / M)
        q0 = 0.1
        init = JointState(q=np.array([q0]), qdot=np.zeros(1))
        config = SimConfig(t_end=1.0, output_rate=1000)
        traj = simulate(chain, params, bench_geometry, ZERO_TRACE, config,
                        initial_state=init)
        exact = q0 * np.cos(omega * traj.times)
        assert np.abs(traj.q[:, 0] - exact).max() < 1e-7

    @pytest.mark.parametrize("n", [8, 12])
    def test_long_chain_settles_at_benchmark_parameters(self, n,
                                                        bench_geometry):
        chain = build_chain(bench_geometry, n)
        params = DynamicsParams.uniform(1.6067, 0.008, n)
        trace = PressureTrace(((0.0, 119e3),))
        config = SimConfig(t_end=3.0, output_rate=200)
        traj = simulate(chain, params, bench_geometry, trace, config)
        q_eq = pressure_torque(bench_geometry, 119e3) / params.k_b
        np.testing.assert_allclose(traj.q[-1], q_eq, atol=1e-4)

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

    def test_divergence_reports_failure_time(self, bench_chain, bench_params,
                                             bench_geometry):
        config = SimConfig(t_end=1.0, output_rate=100)
        with pytest.raises(DivergenceError) as err:
            simulate(bench_chain, bench_params, bench_geometry,
                     OVERFLOW_TRACE, config)
        assert "diverged" in str(err.value)
        assert math.isfinite(err.value.time)
        assert 0.5 <= err.value.time <= 0.501

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


class TestRadauStepper:
    @pytest.mark.parametrize("case", ["pulse", "logged", "moving_start"])
    def test_matches_scipy_radau_per_segment(self, case, bench_chain,
                                             bench_params, bench_geometry,
                                             bench_pulse):
        init = None
        if case == "pulse":
            trace, config = bench_pulse, SimConfig(t_end=3.0, output_rate=1000)
        elif case == "logged":
            trace, config = logged_trace(), SimConfig(t_end=0.6,
                                                      output_rate=1000)
            assert len(integrator._zoh_segments(trace, 0.0, 0.6)[0]) >= 50
        else:
            trace, config = bench_pulse, SimConfig(t_end=1.0, output_rate=500)
            mode = lowest_mode_state(bench_chain, bench_params.k_b)
            init = JointState(q=mode.q, qdot=np.linspace(-2.0, 2.0, 5))
        traj = simulate(bench_chain, bench_params, bench_geometry, trace,
                        config, initial_state=init)
        q_ref = scipy_radau_per_segment(bench_chain, bench_params,
                                        bench_geometry, trace, config,
                                        initial_state=init)
        assert np.abs(traj.q - q_ref).max() <= 1e-7

    def test_output_on_a_pressure_edge_is_the_edge_state(
        self, bench_chain, bench_params, bench_geometry
    ):
        # The window ending at the falling edge steps exactly as the
        # longer one up to it, so its last sample is the state there.
        trace = PressureTrace(((0.0, 0.0), (0.05, 119e3), (0.2, 0.0)))
        longer = simulate(bench_chain, bench_params, bench_geometry, trace,
                          SimConfig(t_end=0.3, output_rate=1000))
        upto = simulate(bench_chain, bench_params, bench_geometry, trace,
                        SimConfig(t_end=0.2, output_rate=1000))
        (k,) = np.flatnonzero(longer.times == 0.2)
        assert np.any(upto.q[-1] != 0.0)
        assert np.array_equal(longer.q[k], upto.q[-1])
        assert np.array_equal(longer.qdot[k], upto.qdot[-1])

    def test_work_cap_stops_a_runaway_solve(self, bench_geometry):
        # A 6 MHz mode, deflected: resolving it needs ~1e8 steps per
        # simulated second. Without a cap this window runs for days.
        chain = build_chain(bench_geometry, 1)
        params = DynamicsParams.uniform(1e12, 0.0, 1)
        init = JointState(q=np.array([0.1]), qdot=np.zeros(1))
        start = time.perf_counter()
        with pytest.raises(DivergenceError) as err:
            simulate(chain, params, bench_geometry, ZERO_TRACE,
                     SimConfig(t_end=1.0, output_rate=100), initial_state=init)
        elapsed = time.perf_counter() - start
        cap = integrator._MAX_STEPS_PER_S + integrator._MAX_STEPS_PER_SEGMENT
        assert f"work cap of {cap} step attempts" in str(err.value)
        assert 0.0 < err.value.time < 1e-3
        # About 7 s on a 2-core VM.
        assert elapsed < 60.0


class TestDominantFrequency:
    def test_synthetic_decaying_sine(self):
        t = np.arange(0, 3.0, 1e-3)
        q = (np.exp(-t) * np.sin(2 * math.pi * 5.0 * t))[:, None]
        traj = Trajectory(times=t, q=q, qdot=np.zeros_like(q),
                          positions=np.zeros((len(t), 2, 2)))
        freq = dominant_frequency(traj, 0, (0.0, 3.0))
        assert freq == pytest.approx(5.0, abs=0.05)

    def test_sample_at_zero_defers_to_next_interval(self):
        # Zero-mean samples -1, 0, 3 then -1, 3: the first upward crossing
        # interpolates from -1 to 3 (t = 0.5), skipping the zero at t = 1,
        # and the second falls at t = 3.25.
        t = np.arange(6.0)
        q = np.array([-1.0, 0.0, 3.0, -1.0, 3.0, -4.0])[:, None]
        traj = Trajectory(times=t, q=q, qdot=np.zeros_like(q),
                          positions=np.zeros((len(t), 2, 2)))
        assert dominant_frequency(traj, 0, (0.0, 5.0)) == 1 / 2.75

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
            SimConfig(output_rate=0.0)

    @pytest.mark.parametrize("field", ["t_start", "t_end", "output_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_sim_config_rejects_non_finite(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            SimConfig(**{field: value})

    def test_sim_config_caps_the_output_grid(self):
        SimConfig(t_end=9.0, output_rate=1e6)
        for t_end, rate in ((10.0, 1e6), (1.0, 1e300), (1e300, 1e3)):
            with pytest.raises(InvalidInputError) as err:
                SimConfig(t_end=t_end, output_rate=rate)
            assert "t_end" in str(err.value)
            assert "output_rate" in str(err.value)

    def test_trajectory_requires_consistent_shapes(self):
        t = np.array([0.0, 0.1])
        with pytest.raises(InvalidInputError):
            Trajectory(times=t, q=np.zeros((2, 3)), qdot=np.zeros((2, 2)),
                       positions=np.zeros((2, 4, 2)))
