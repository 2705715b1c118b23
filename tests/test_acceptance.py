"""End-to-end acceptance checks for the full toolkit.

Each test covers one headline guarantee, asserts the stated tolerance
and runtime budget, and prints a one-line summary. Run with -s to see
the summaries:

    pytest tests/test_acceptance.py -s
"""

import io
import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from bendsim.dynamics import (
    DynamicsParams,
    build_chain,
    coriolis_matrix,
    mass_matrix,
    pressure_torque,
    total_energy,
)
from bendsim.errors import ConfigError, ParseError
from bendsim.identification import identify
from bendsim.integrator import (
    PressureTrace,
    SimConfig,
    Trajectory,
    dominant_frequency,
    simulate,
)
from bendsim.io import (
    ModelConfig,
    parse_config,
    parse_frames,
    parse_pressure,
    read_trajectory,
    write_config,
    write_trajectory,
)
from bendsim.kinematics import (
    JointState,
    LinkChain,
    LinkParams,
    absolute_angles,
    body_velocities,
    forward_kinematics,
    joint_positions,
)
from bendsim.reconstruction import select_order
from bendsim.synthetic import (
    dense_frames_from_trajectory,
    node_frames_from_trajectory,
)

from helpers import circumcenter, product_form_poses, random_chain

ZERO_TRACE = PressureTrace(((0.0, 0.0),))


def equal_link_chain(n, length):
    links = tuple(
        LinkParams(length=length, offset=0.0, mass=0.01,
                   com_distance=length / 2.0,
                   inertia_com=0.01 * length**2 / 12.0)
        for _ in range(n)
    )
    return LinkChain(links=links)


def lowest_mode_state(chain, k_b, amplitude=0.1):
    n = len(chain)
    M0 = mass_matrix(chain, np.zeros(n))
    _, vecs = scipy.linalg.eigh(k_b * np.eye(n), M0)
    q = vecs[:, 0] / np.abs(vecs[:, 0]).max() * amplitude
    return JointState(q=q, qdot=np.zeros(n))


def test_criterion_1_torque_constants(bench_geometry):
    start = time.perf_counter()
    low = pressure_torque(bench_geometry, 119e3)
    high = pressure_torque(bench_geometry, 240e3)
    assert low == pytest.approx((2.0 / 3.0) * 119e3 * 0.010**3, rel=1e-9)
    assert high == pytest.approx((2.0 / 3.0) * 240e3 * 0.010**3, rel=1e-9)
    assert low == pytest.approx(0.0793333, rel=1e-5)
    assert high == pytest.approx(0.1600000, rel=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: torque constants {low:.7f} / {high:.7f} "
          f"N*m match (2/3)*p*r2^3 within 1e-9 ({elapsed:.3f} s)")


def test_criterion_2_kinematics_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260813)
    for _ in range(1000):
        chain = random_chain(rng)
        n = len(chain)
        q = rng.uniform(-0.6, 0.6, n)

        poses = forward_kinematics(chain, q)
        for pose, (angle, position) in zip(poses, product_form_poses(chain,
                                                                     q)):
            assert np.abs(np.asarray(pose.position) - position).max() <= 1e-12
            assert abs(math.remainder(pose.angle - angle,
                                      2.0 * math.pi)) <= 1e-12

        m = int(rng.integers(3, 9))
        arc = equal_link_chain(m, float(rng.uniform(0.02, 0.06)))
        bend = float(rng.uniform(0.05, 0.4) * rng.choice([-1.0, 1.0]))
        pts = joint_positions(arc, np.full(m, bend))
        center = circumcenter(pts[0], pts[1], pts[2])
        radius = np.hypot(*(pts[0] - center))
        radial = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        assert np.abs(radial - radius).max() <= 1e-9

        qdot = rng.uniform(-3.0, 3.0, n)
        dt = 1e-6
        plus = joint_positions(chain, q + dt * qdot)[1:]
        minus = joint_positions(chain, q - dt * qdot)[1:]
        fd = (plus - minus) / (2.0 * dt)
        phi = absolute_angles(chain, q)
        for i, bv in enumerate(body_velocities(chain,
                                               JointState(q=q, qdot=qdot))):
            c, s = math.cos(phi[i]), math.sin(phi[i])
            task = np.array([c * bv.v[0] - s * bv.v[1],
                             s * bv.v[0] + c * bv.v[1]])
            assert np.abs(task - fd[i]).max() <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 2: 1000 random chains (n <= 8): product-form "
          f"FK <= 1e-12, circle closure <= 1e-9, finite-difference "
          f"velocities <= 1e-6 ({elapsed:.2f} s)")


def test_criterion_3_dynamics_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(20260813)
    for _ in range(1000):
        chain = random_chain(rng)
        n = len(chain)
        q = rng.uniform(-0.8, 0.8, n)
        qdot = rng.uniform(-4.0, 4.0, n)
        M = mass_matrix(chain, q)
        assert np.abs(M - M.T).max() <= 1e-12
        np.linalg.cholesky(M)
        h = 1e-6
        Mdot = (mass_matrix(chain, q + qdot * h)
                - mass_matrix(chain, q - qdot * h)) / (2.0 * h)
        S = Mdot - 2.0 * coriolis_matrix(chain, q, qdot)
        assert np.abs(S + S.T).max() <= 1e-8

    rod = equal_link_chain(1, 0.17)
    expected = 0.01 * 0.17**2 / 3.0
    assert abs(mass_matrix(rod, np.zeros(1))[0, 0] - expected) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 3: 1000 random configs: M symmetric <= 1e-12 "
          f"and positive definite, (Mdot - 2C) skew <= 1e-8, 1-link M = "
          f"m*l^2/3 ({elapsed:.2f} s)")


def test_criterion_4_conservation_and_passivity(bench_chain, bench_params,
                                                bench_geometry):
    start = time.perf_counter()
    undamped = DynamicsParams.uniform(bench_params.k_b, 0.0, 5)
    init = lowest_mode_state(bench_chain, undamped.k_b)
    config = SimConfig(t_end=1.0, output_rate=1000)
    traj = simulate(bench_chain, undamped, bench_geometry, ZERO_TRACE,
                    config, initial_state=init)
    energy = np.array([total_energy(bench_chain, undamped, traj.state(k))
                       for k in range(len(traj.times))])
    drift = np.abs(energy - energy[0]).max() / energy[0]
    assert drift < 1e-6

    damped_traj = simulate(bench_chain, bench_params, bench_geometry,
                           ZERO_TRACE, config, initial_state=init)
    damped = np.array(
        [total_energy(bench_chain, bench_params, damped_traj.state(k))
         for k in range(len(damped_traj.times))])
    assert np.all(np.diff(damped) <= 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 4: undamped energy drift {drift:.2e} < 1e-6 "
          f"over 1 s at the Radau tolerances; damped energy non-increasing "
          f"at all {len(damped)} samples ({elapsed:.2f} s)")


def test_criterion_5_static_equilibrium(bench_chain, bench_params,
                                        bench_geometry):
    start = time.perf_counter()
    trace = PressureTrace(((0.0, 119e3),))
    config = SimConfig(t_end=3.0, output_rate=200)
    traj = simulate(bench_chain, bench_params, bench_geometry, trace, config)
    q_eq = pressure_torque(bench_geometry, 119e3) / bench_params.k_b
    worst = np.abs(traj.q[-1] - q_eq).max()
    assert worst < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 5: constant 119 kPa settles to q = tau/k_b = "
          f"{q_eq:.5f} rad on all joints within {worst:.2e} < 1e-4 "
          f"({elapsed:.2f} s)")


def test_criterion_6_order_selection(bench_chain, bench_params,
                                     bench_geometry):
    start = time.perf_counter()
    trace = PressureTrace.rectangular(0.12, 2.76, 240e3)
    config = SimConfig(t_end=3.0, output_rate=200)
    traj = simulate(bench_chain, bench_params, bench_geometry, trace, config)
    frames = dense_frames_from_trajectory(traj, np.linspace(0.2, 2.8, 8))
    report = select_order(frames, range(2, 7), 0.003)
    assert report.threshold_met
    assert report.chosen_n <= 5
    five = report.candidate(5)
    assert max(five.per_frame_max) < 0.003
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 6: 0.8 mm synthetic sweep chooses n = "
          f"{report.chosen_n} <= 5; worst frame error at n = 5 is "
          f"{max(five.per_frame_max):.2e} m < 0.003 ({elapsed:.2f} s)")


def test_criterion_7_step_response(bench_chain, bench_params, bench_geometry,
                                   bench_pulse):
    start = time.perf_counter()
    config = SimConfig(t_end=2.9, output_rate=1000)
    traj = simulate(bench_chain, bench_params, bench_geometry, bench_pulse,
                    config)

    freq = dominant_frequency(traj, 0, (0.12, 1.12))
    assert 3.0 <= freq <= 8.0

    # Under-damped decay: tip distance from the hold equilibrium must
    # peak repeatedly with strictly shrinking height.
    q_eq = pressure_torque(bench_geometry, 119e3) / bench_params.k_b
    tip_eq = joint_positions(bench_chain, np.full(5, q_eq))[-1]
    hold = (traj.times >= 0.12) & (traj.times <= 2.88)
    tip = traj.positions[hold, -1, :]
    dist = np.hypot(tip[:, 0] - tip_eq[0], tip[:, 1] - tip_eq[1])
    peaks = np.flatnonzero((dist[1:-1] > dist[:-2])
                           & (dist[1:-1] > dist[2:])) + 1
    heights = dist[peaks]
    assert len(heights) >= 4
    assert np.all(np.diff(heights) < 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 7: 119 kPa pulse rings at {freq:.2f} Hz in "
          f"[3, 8]; {len(heights)} oscillation peaks, all decaying "
          f"({elapsed:.2f} s)")


def test_criterion_8_identification_recovery(bench_chain, bench_params,
                                             bench_geometry, bench_pulse):
    start = time.perf_counter()
    config = SimConfig(t_end=1.5, output_rate=200)
    truth_traj = simulate(bench_chain, bench_params, bench_geometry,
                          bench_pulse, config)
    frames = node_frames_from_trajectory(truth_traj,
                                         np.linspace(0.1, 1.45, 15))
    init = DynamicsParams.uniform(bench_params.k_b * 1.5,
                                  bench_params.damping[0] * 0.5, 5)
    bounds = [(0.1, 20.0), (1e-4, 0.5)]
    result = identify(bench_chain, bench_geometry, frames, bench_pulse,
                      init, bounds, budget=200)

    k_err = abs(result.params.k_b - bench_params.k_b) / bench_params.k_b
    d_err = (abs(result.params.damping[0] - bench_params.damping[0])
             / bench_params.damping[0])
    assert k_err < 0.05
    assert d_err < 0.05
    history = np.array(result.best_history)
    assert np.all(np.diff(history) <= 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\n[PASS] criterion 8: 50%-off start recovers k_b within "
          f"{k_err:.1e} and damping within {d_err:.1e} (< 5%) in "
          f"{result.n_evaluations} evaluations, monotone best-so-far "
          f"({elapsed:.1f} s)")


def test_criterion_9_io_round_trips(bench_geometry, bench_params):
    start = time.perf_counter()
    config = ModelConfig(geometry=bench_geometry, n_links=5,
                         params=bench_params, reference_path="ref.csv")
    buf = io.StringIO()
    write_config(config, buf)
    assert parse_config(io.StringIO(buf.getvalue())) == config

    rng = np.random.default_rng(20260813)
    times = np.cumsum(rng.uniform(1e-3, 1e-2, 50))
    traj = Trajectory(times=times,
                      q=rng.uniform(-1.0, 1.0, (50, 5)),
                      qdot=rng.uniform(-10.0, 10.0, (50, 5)),
                      positions=rng.uniform(-0.2, 0.2, (50, 6, 2)))
    buf = io.StringIO()
    write_trajectory(traj, buf)
    back = read_trajectory(io.StringIO(buf.getvalue()))
    for mine, theirs in ((traj.times, back.times), (traj.q, back.q),
                         (traj.qdot, back.qdot),
                         (traj.positions, back.positions)):
        gap = np.abs(mine - theirs) / np.maximum(np.abs(mine), 1.0)
        assert gap.max() < 1e-9

    malformed = [
        (parse_frames, "t,i,x,y\n0,0,0,0\n"),
        (parse_frames, "time_s,point_index,x_m,y_m\n0,0,0,0\n0,2,0,0.05\n"),
        (parse_frames,
         "time_s,point_index,x_m,y_m,z_m\n0,0,0,0,0\n0,1,0,0.05,0.01\n"),
        (parse_pressure, "time_s,pressure_pa\n0,0\n0,1\n"),
        (parse_pressure, "time_s,pressure_pa\n"),
        (read_trajectory, "a,b,c\n1,2,3\n"),
    ]
    for parser, text in malformed:
        with pytest.raises(ParseError) as err:
            parser(io.StringIO(text))
        assert err.value.line is not None

    base = {
        "geometry": {"r1_m": 0.014, "r2_m": 0.010, "wall_m": 0.004,
                     "total_length_m": 0.17, "total_mass_kg": 0.069},
        "n_links": 5,
        "params": {"k_b": 1.6067, "damping": [0.008] * 5},
    }
    broken = json.loads(json.dumps(base))
    del broken["geometry"]["r1_m"]
    with pytest.raises(ConfigError) as err:
        parse_config(io.StringIO(json.dumps(broken)))
    assert err.value.key == "geometry.r1_m"

    broken = json.loads(json.dumps(base))
    broken["geometry"]["r2_m"] = 0.02
    with pytest.raises(ConfigError) as err:
        parse_config(io.StringIO(json.dumps(broken)))
    assert err.value.key == "r2_m"

    with pytest.raises(ParseError) as err:
        parse_config(io.StringIO('{\n  "geometry": {\n'))
    assert err.value.line is not None

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 9: config and trajectory round trips within "
          f"1e-9; 9 malformed fixtures rejected with line/key locators "
          f"({elapsed:.2f} s)")
