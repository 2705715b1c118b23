"""Time integration of the chain dynamics.

Fixed-step explicit RK4 on the first-order state (q, qdot). The driver
aligns step boundaries with pressure-sample and output times, so the
zero-order-held input is constant within every internal step and the
scheme keeps its full order across input discontinuities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    ActuatorGeometry,
    DynamicsParams,
    _accel,
    _ChainDynamics,
    _require_matching,
    pressure_torque,
)
from .errors import DivergenceError, InsufficientDataError, InvalidInputError
from .kinematics import JointState, LinkChain, joint_positions

__all__ = [
    "SimConfig",
    "PressureTrace",
    "Trajectory",
    "pressure_at",
    "simulate",
    "positions_at",
    "dominant_frequency",
]


@dataclass(frozen=True)
class SimConfig:
    """Integration window, step size and output rate.

    max_step is the largest internal RK4 step (s); the default 1e-4 s
    holds every output sample to better than 1e-6 relative under step
    halving for the actuator-scale systems this package targets. Outputs
    are recorded at output_rate (Hz).
    """

    t_start: float = 0.0
    t_end: float = 1.0
    max_step: float = 1e-4
    output_rate: float = 1000.0

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise InvalidInputError(
                f"need t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )
        if self.max_step <= 0:
            raise InvalidInputError(f"max_step must be > 0, got {self.max_step}")
        if self.output_rate <= 0:
            raise InvalidInputError(
                f"output_rate must be > 0, got {self.output_rate}"
            )


@dataclass(frozen=True)
class PressureTrace:
    """Sampled pressure input: ordered (time s, pressure Pa) pairs.

    The read-only arrays `times` and `pressures` are built once from
    `samples`, so lookups do not copy the trace.
    """

    samples: tuple[tuple[float, float], ...]
    times: np.ndarray = field(init=False, repr=False, compare=False)
    pressures: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = tuple((float(t), float(p)) for t, p in self.samples)
        if len(samples) == 0:
            raise InvalidInputError("pressure trace needs at least one sample")
        times, pressures = np.array(samples).T.copy()
        if np.any(np.diff(times) <= 0):
            raise InvalidInputError("pressure sample times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(pressures))):
            raise InvalidInputError("pressure samples must be finite")
        times.flags.writeable = False
        pressures.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "pressures", pressures)

    @staticmethod
    def rectangular(
        start: float, duration: float, pressure: float
    ) -> "PressureTrace":
        """Pulse of the given height between start and start + duration."""
        samples = [(start, pressure), (start + duration, 0.0)]
        if start > 0:
            samples.insert(0, (0.0, 0.0))
        return PressureTrace(tuple(samples))


def pressure_at(trace: PressureTrace, t: float) -> float:
    """Zero-order-hold pressure at time t; zero before the first sample."""
    idx = int(np.searchsorted(trace.times, t, side="right")) - 1
    if idx < 0:
        return 0.0
    return float(trace.pressures[idx])


@dataclass(frozen=True)
class Trajectory:
    """Simulation output sampled on a strictly increasing time grid.

    Attributes:
        times: (T,) sample times (s).
        q: (T, n) joint angles (rad).
        qdot: (T, n) joint rates (rad/s).
        positions: (T, n+1, 2) base point plus every joint/tip (m),
            consistent with the forward kinematics of each state.
    """

    times: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        q = np.asarray(self.q, dtype=float)
        qdot = np.asarray(self.qdot, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        T = len(times)
        if q.shape[0] != T or qdot.shape != q.shape or positions.shape[0] != T:
            raise InvalidInputError("trajectory arrays must share the time dimension")
        if positions.shape[1:] != (q.shape[1] + 1, 2):
            raise InvalidInputError("positions must be (T, n+1, 2)")
        if T > 1 and np.any(np.diff(times) <= 0):
            raise InvalidInputError("trajectory times must be strictly increasing")
        for arr in (times, q, qdot, positions):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qdot", qdot)
        object.__setattr__(self, "positions", positions)

    @property
    def n_joints(self) -> int:
        return self.q.shape[1]

    def state(self, k: int) -> JointState:
        return JointState(q=self.q[k], qdot=self.qdot[k])


def _rk4_step(dyn, damping, k_b, tau, q, qdot, h):
    """One RK4 step at constant torque; returns (q, qdot) after h."""
    k1q = qdot
    k1v = _accel(dyn, damping, k_b, tau, q, qdot)
    q2, v2 = q + 0.5 * h * k1q, qdot + 0.5 * h * k1v
    k2q = v2
    k2v = _accel(dyn, damping, k_b, tau, q2, v2)
    q3, v3 = q + 0.5 * h * k2q, qdot + 0.5 * h * k2v
    k3q = v3
    k3v = _accel(dyn, damping, k_b, tau, q3, v3)
    q4, v4 = q + h * k3q, qdot + h * k3v
    k4q = v4
    k4v = _accel(dyn, damping, k_b, tau, q4, v4)
    q_next = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
    v_next = qdot + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return q_next, v_next


def _output_times(config: SimConfig) -> np.ndarray:
    span = config.t_end - config.t_start
    count = int(math.floor(span * config.output_rate + 1e-9)) + 1
    times = config.t_start + np.arange(count) / config.output_rate
    return times


def simulate(
    chain: LinkChain,
    params: DynamicsParams,
    geometry: ActuatorGeometry,
    trace: PressureTrace,
    config: SimConfig,
    initial_state: JointState | None = None,
) -> Trajectory:
    """Integrate the equation of motion over the configured window.

    Starts from rest at the reference shape (q = qdot = 0) unless an
    initial state is given. Internal RK4 steps never exceed
    config.max_step and always land on pressure-sample and output
    times, so results are deterministic for fixed inputs.
    """
    _require_matching(chain, params)
    n = len(chain)
    if initial_state is None:
        initial_state = JointState(q=np.zeros(n), qdot=np.zeros(n))
    if len(initial_state) != n:
        raise InvalidInputError(
            f"initial state has {len(initial_state)} joints, chain has {n}"
        )

    out_times = _output_times(config)
    breaks = np.unique(
        np.concatenate(
            [
                out_times,
                [config.t_start, config.t_end],
                trace.times[
                    (trace.times > config.t_start) & (trace.times < config.t_end)
                ],
            ]
        )
    )

    dyn = _ChainDynamics(chain)
    damping = np.asarray(params.damping)
    k_b = params.k_b
    q = initial_state.q.copy()
    qdot = initial_state.qdot.copy()

    qs = np.empty((len(out_times), n))
    qds = np.empty((len(out_times), n))
    out_idx = 0
    # Output times sit on the break grid; emit as each break is reached.
    emit = np.isin(breaks, out_times)

    with np.errstate(over="ignore", invalid="ignore"):
        for seg in range(len(breaks)):
            t0 = breaks[seg]
            if seg > 0:
                t_prev = breaks[seg - 1]
                h_total = t0 - t_prev
                substeps = max(1, int(math.ceil(h_total / config.max_step - 1e-12)))
                h = h_total / substeps
                tau = pressure_torque(geometry, pressure_at(trace, t_prev))
                for _ in range(substeps):
                    q, qdot = _rk4_step(dyn, damping, k_b, tau, q, qdot, h)
                if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qdot))):
                    raise DivergenceError(float(t0))
            if emit[seg]:
                qs[out_idx] = q
                qds[out_idx] = qdot
                out_idx += 1

    positions = np.empty((len(out_times), n + 1, 2))
    for k in range(len(out_times)):
        positions[k] = joint_positions(chain, qs[k])
    return Trajectory(times=out_times, q=qs, qdot=qds, positions=positions)


def positions_at(trajectory: Trajectory, t: float) -> np.ndarray:
    """Joint positions at time t, linearly interpolated between samples."""
    times = trajectory.times
    if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise InvalidInputError(
            f"t={t} outside the trajectory span [{times[0]}, {times[-1]}]"
        )
    idx = int(np.searchsorted(times, t, side="right")) - 1
    idx = min(max(idx, 0), len(times) - 2)
    w = (t - times[idx]) / (times[idx + 1] - times[idx])
    return (1.0 - w) * trajectory.positions[idx] + w * trajectory.positions[idx + 1]


def dominant_frequency(
    trajectory: Trajectory,
    joint: int,
    window: tuple[float, float],
) -> float:
    """Oscillation frequency (Hz) of one joint angle inside a time window.

    Subtracts the windowed mean as the steady-state estimate and counts
    upward zero crossings of the residual; the frequency is the
    reciprocal of their mean spacing. Raises InsufficientDataError when
    the window holds fewer than two such crossings.
    """
    t0, t1 = window
    mask = (trajectory.times >= t0) & (trajectory.times <= t1)
    if mask.sum() < 3:
        raise InsufficientDataError("window contains too few samples")
    t = trajectory.times[mask]
    x = trajectory.q[mask, joint]
    x = x - x.mean()
    if np.max(np.abs(x)) == 0.0:
        raise InsufficientDataError("signal is constant over the window")
    sign = np.sign(x)
    # Upward crossings: strictly negative to strictly positive, linearly
    # interpolated; samples exactly at zero defer to the next interval.
    crossings = []
    prev_idx = None
    for i in range(len(x)):
        if sign[i] == 0:
            continue
        if prev_idx is not None and sign[prev_idx] < 0 and sign[i] > 0:
            ta, xa = t[prev_idx], x[prev_idx]
            tb, xb = t[i], x[i]
            crossings.append(ta + (tb - ta) * (-xa) / (xb - xa))
        prev_idx = i
    if len(crossings) < 2:
        raise InsufficientDataError(
            f"found {len(crossings)} upward zero crossings, need at least 2"
        )
    spacing = np.diff(np.asarray(crossings)).mean()
    return float(1.0 / spacing)
