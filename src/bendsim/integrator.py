"""Time integration of the chain dynamics.

Radau IIA (order 5, L-stable, error-controlled; Hairer & Wanner,
Solving ODEs II, IV.8) on the first-order state (q, qdot) with the
analytic heading-form Jacobian. The zero-order-held pressure splits the
window into segments of constant torque, one per run of equal pressure
samples; each is integrated separately, so every pressure change is a
hard breakpoint, and the output grid is read from the solver's dense
output. Damping makes the chain stiff: the stable step of an explicit
method falls roughly as n^-4 with the link count n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    ActuatorGeometry,
    DynamicsParams,
    _accel,
    _accel_jacobian,
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

# Radau tolerances: relative, and absolute on q (rad) and qdot (rad/s).
# The loose rate tolerance spends few steps on the fast, overdamped mode
# after each pressure jump; the benchmark pulse's tip position still
# agrees with a tight reference solve to about 1e-9 m.
_RTOL = 1e-7
_ATOL_Q = 1e-9
_ATOL_QDOT = 1e-4


@dataclass(frozen=True)
class SimConfig:
    """Integration window and output rate.

    The chain is integrated over [t_start, t_end] to the module's Radau
    tolerances and sampled at output_rate (Hz).
    """

    t_start: float = 0.0
    t_end: float = 1.0
    output_rate: float = 1000.0

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise InvalidInputError(
                f"need t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )
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


def _output_times(config: SimConfig) -> np.ndarray:
    span = config.t_end - config.t_start
    count = int(math.floor(span * config.output_rate + 1e-9)) + 1
    times = config.t_start + np.arange(count) / config.output_rate
    return times


def _zoh_segments(trace: PressureTrace, t_start: float, t_stop: float):
    """(edges, pressures): segment starts and their constant pressures.

    Segment i runs from edges[i] to edges[i + 1] (the last to t_stop).
    Consecutive equal pressure samples share one segment.
    """
    inside = (trace.times > t_start) & (trace.times < t_stop)
    edges = np.concatenate(([t_start], trace.times[inside]))
    values = np.concatenate(([pressure_at(trace, t_start)],
                             trace.pressures[inside]))
    change = np.concatenate(([True], values[1:] != values[:-1]))
    return edges[change], values[change]


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
    initial state is given. Each constant-pressure segment is one Radau
    solve; outputs come from its dense output. Results are
    deterministic for fixed inputs. Raises DivergenceError with the
    time at which the state or its Jacobian stopped being finite, or
    the solver gave up.
    """
    # Imported here so that importing the package does not load it.
    from scipy.integrate import solve_ivp

    _require_matching(chain, params)
    n = len(chain)
    if initial_state is None:
        initial_state = JointState(q=np.zeros(n), qdot=np.zeros(n))
    if len(initial_state) != n:
        raise InvalidInputError(
            f"initial state has {len(initial_state)} joints, chain has {n}"
        )

    out_times = _output_times(config)
    # The last output time may round to just past t_end.
    t_stop = max(config.t_end, float(out_times[-1]))
    edges, pressures = _zoh_segments(trace, config.t_start, t_stop)
    ends = np.append(edges[1:], t_stop)

    dyn = _ChainDynamics(chain)
    damping = np.asarray(params.damping)
    k_b = params.k_b
    atol = np.repeat([_ATOL_Q, _ATOL_QDOT], n)
    jac_full = np.zeros((2 * n, 2 * n))
    jac_full[:n, n:] = np.eye(n)

    def rhs(t, y, tau):
        qddot = _accel(dyn, damping, k_b, tau, y[:n], y[n:])
        if not np.all(np.isfinite(qddot)):
            raise DivergenceError(float(t))
        return np.concatenate((y[n:], qddot))

    def jac(t, y, tau):
        d_q, d_qdot = _accel_jacobian(dyn, damping, k_b, tau, y[:n], y[n:])
        if not (np.all(np.isfinite(d_q)) and np.all(np.isfinite(d_qdot))):
            raise DivergenceError(float(t))
        jac_full[n:, :n] = d_q
        jac_full[n:, n:] = d_qdot
        return jac_full.copy()

    states = np.empty((len(out_times), 2 * n))
    y = np.concatenate((initial_state.q, initial_state.qdot))
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1, p in zip(edges, ends, pressures):
            tau = pressure_torque(geometry, p)
            sol = solve_ivp(rhs, (t0, t1), y, method="Radau", rtol=_RTOL,
                            atol=atol, jac=jac, dense_output=True,
                            args=(tau,))
            if not sol.success:
                raise DivergenceError(float(sol.t[-1]))
            # An output on an edge is overwritten by the next segment,
            # whose dense output there is exactly its start state.
            inside = (out_times >= t0) & (out_times <= t1)
            if inside.any():
                states[inside] = sol.sol(out_times[inside]).T
            y = sol.y[:, -1]

    qs = states[:, :n]
    qds = states[:, n:]
    positions = joint_positions(chain, qs)
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
