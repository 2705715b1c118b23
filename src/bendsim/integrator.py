"""Time integration of the chain dynamics.

Radau IIA (order 5, L-stable, error-controlled; Hairer & Wanner,
Solving ODEs II, IV.8) on the first-order state (q, qdot) with the
analytic heading-form Jacobian. The stepper is a numpy port of
scipy.integrate.Radau: the same constants, Newton iteration, error
estimate and step-size controller. Each Newton iteration evaluates the
three collocation stages in one stacked rhs call, and the two Newton
matrices are inverted once per refactorization and applied by matrix
products.

The zero-order-held pressure splits the window into segments of
constant torque, one per run of equal pressure samples. One loop steps
through all of them: every pressure change is a hard breakpoint, where
the stepper takes the new torque and a fresh Jacobian, drops the
predictor and keeps its step size. Each accepted step keeps its cubic
collocation polynomial, and the output grid is read from them in one
pass at the end. Damping makes the chain stiff: the stable step of an
explicit method falls roughly as n^-4 with the link count n.
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

# Work cap: a simulation raises DivergenceError once its step attempts
# (accepted plus rejected) exceed this many per simulated second plus
# this many per constant-pressure segment. The tests and benchmark
# workloads need at most about 4 000 per second and 12 per segment; an
# undamped 5-link chain at 25 times the benchmark stiffness needs 42 000
# per second. A chain with a resolved MHz mode, which needs ~1e8 per
# second, reaches the cap within seconds instead of running for days.
_MAX_STEPS_PER_S = 50_000
_MAX_STEPS_PER_SEGMENT = 100

# Largest output grid a SimConfig may ask for (about 1.8 GB of
# trajectory at five links).
_MAX_OUTPUT_SAMPLES = 10**7


@dataclass(frozen=True)
class SimConfig:
    """Integration window and output rate.

    The chain is integrated over [t_start, t_end] to the module's Radau
    tolerances and sampled at output_rate (Hz). All three must be
    finite, and the grid may hold at most 10^7 samples.
    """

    t_start: float = 0.0
    t_end: float = 1.0
    output_rate: float = 1000.0

    def __post_init__(self):
        for name in ("t_start", "t_end", "output_rate"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
        if not self.t_end > self.t_start:
            raise InvalidInputError(
                f"need t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )
        if self.output_rate <= 0:
            raise InvalidInputError(
                f"output_rate must be > 0, got {self.output_rate}"
            )
        if not (self.t_end - self.t_start) * self.output_rate < _MAX_OUTPUT_SAMPLES:
            raise InvalidInputError(
                f"t_end={self.t_end} and output_rate={self.output_rate} give "
                f"more than {_MAX_OUTPUT_SAMPLES} output samples"
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


# Radau IIA constants, as in scipy.integrate.Radau: collocation nodes C,
# error-estimate weights E, the eigenvalues MU of the inverse Butcher
# matrix with its eigenvector transforms T and TI, and the interpolation
# matrix P of the cubic collocation polynomial.
_S6 = 6**0.5
_C = np.array([(4 - _S6) / 10, (4 + _S6) / 10, 1])
_E = np.array([-13 - 7 * _S6, -13 + 7 * _S6, -1]) / 3
_MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
               - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
_T = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1, 1, 0]])
_TI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
_TI_REAL = _TI[0]
_TI_COMPLEX = _TI[1] + 1j * _TI[2]
_P = np.array([
    [13 / 3 + 7 * _S6 / 3, -23 / 3 - 22 * _S6 / 3, 10 / 3 + 5 * _S6],
    [13 / 3 - 7 * _S6 / 3, -23 / 3 + 22 * _S6 / 3, 10 / 3 - 5 * _S6],
    [1 / 3, -8 / 3, 10 / 3]])
_NEWTON_MAXITER = 6
_NEWTON_TOL = max(10 * np.finfo(float).eps / _RTOL, min(0.03, _RTOL**0.5))
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


def _rms(x: np.ndarray) -> float:
    x = x.ravel()
    return math.sqrt(x @ x / x.size)


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old) -> float:
    """Step-size factor of the predictive (Gustafsson) controller."""
    if error_norm_old is None or h_abs_old is None or error_norm == 0:
        multiplier = 1.0
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    with np.errstate(divide="ignore"):
        return min(1.0, multiplier) * np.float64(error_norm) ** -0.25


def _initial_step(rhs, t, y, f, t_bound, tau, atol) -> float:
    """First step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4)."""
    interval = t_bound - t
    scale = atol + np.abs(y) * _RTOL
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(t, y + h0 * f, tau)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.25
    return min(100 * h0, h1, interval)


def _solve_collocation(rhs, t, y, h, Z0, scale, inv_real, inv_complex, tau):
    """Simplified Newton iteration for the stage increments Z (3, m).

    Works in the eigenbasis W = TI Z of the Butcher matrix, where the
    system splits into one real and one complex m x m system whose
    inverses are given. Returns (converged, iterations, Z, rate).
    """
    m_real = _MU_REAL / h
    m_complex = _MU_COMPLEX / h
    W = _TI @ Z0
    Z = Z0
    dW = np.empty_like(W)
    dW_norm_old = None
    rate = None
    converged = False
    for k in range(_NEWTON_MAXITER):
        # The three stage states in one stacked rhs call.
        F = rhs(t, y + Z, tau)
        f_real = F.T @ _TI_REAL - m_real * W[0]
        f_complex = F.T @ _TI_COMPLEX - m_complex * (W[1] + 1j * W[2])
        dW[0] = inv_real @ f_real
        dW_complex = inv_complex @ f_complex
        dW[1] = dW_complex.real
        dW[2] = dW_complex.imag
        dW_norm = _rms(dW / scale)
        if dW_norm_old is not None:
            rate = dW_norm / dW_norm_old
        if rate is not None and (
                rate >= 1
                or rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dW_norm
                > _NEWTON_TOL):
            break
        W += dW
        Z = _T @ W
        if dW_norm == 0 or (rate is not None
                            and rate / (1 - rate) * dW_norm < _NEWTON_TOL):
            converged = True
            break
        dW_norm_old = dW_norm
    return converged, k + 1, Z, rate


def _radau(rhs, jac, t, y, ends, taus, atol, max_attempts):
    """Radau IIA from (t, y) through consecutive constant-torque segments.

    Segment i ends at ends[i] and has torque taus[i]; the next segment
    starts there, and no step crosses a segment end. Returns the
    accepted steps as arrays (t, h, y, Q): start times, sizes, start
    states and the (m, 3) coefficients of each step's collocation
    polynomial y(t + x h) = y + Q (x, x^2, x^3). The final state is
    appended as a step of size 1 with Q = 0, so that an output time on
    any step boundary reads that state exactly. Raises DivergenceError
    once step attempts exceed max_attempts, or when the step size falls
    below ten ulps of t.
    """
    m = len(y)
    eye = np.eye(m)
    ts, hs, ys, Qs = [], [], [], []
    attempts = 0
    for seg, (t_bound, tau) in enumerate(zip(ends, taus)):
        # A pressure edge: new torque and Jacobian, no predictor, no
        # error history; the step size carries over.
        f = rhs(t, y, tau)
        J = jac(t, y, tau)
        if seg == 0:
            h_abs = _initial_step(rhs, t, y, f, t_bound, tau, atol)
        h_abs_old = error_norm_old = None
        Q = None
        inv_real = inv_complex = None
        current_jac = True
        while t < t_bound:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_step, h_prev, err_prev = h_abs, h_abs_old, error_norm_old
            if h_step < min_step:
                h_step, h_prev, err_prev = min_step, None, None
            rejected = False
            while True:
                attempts += 1
                if attempts > max_attempts:
                    raise DivergenceError(
                        t, f"work cap of {max_attempts} step attempts reached")
                if h_step < min_step:
                    raise DivergenceError(t, "step size underflow")
                t_new = min(t + h_step, t_bound)
                h = t_new - t
                h_step = h
                if Q is None:
                    Z0 = np.zeros((3, m))
                else:
                    x = (t + h * _C - t_old) / h_old
                    Z0 = (Q @ np.stack((x, x * x, x * x * x))).T + y_old - y
                scale = atol + np.abs(y) * _RTOL
                converged = False
                while not converged:
                    if inv_real is None:
                        inv_real = np.linalg.inv(_MU_REAL / h * eye - J)
                        inv_complex = np.linalg.inv(_MU_COMPLEX / h * eye - J)
                    converged, n_iter, Z, rate = _solve_collocation(
                        rhs, t, y, h, Z0, scale, inv_real, inv_complex, tau)
                    if not converged:
                        if current_jac:
                            break
                        J = jac(t, y, tau)
                        current_jac = True
                        inv_real = inv_complex = None
                if not converged:
                    h_step *= 0.5
                    inv_real = inv_complex = None
                    continue
                y_new = y + Z[-1]
                ZE = Z.T @ _E / h
                error = inv_real @ (f + ZE)
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
                error_norm = _rms(error / scale)
                safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (
                    2 * _NEWTON_MAXITER + n_iter)
                if rejected and error_norm > 1:
                    error = inv_real @ (rhs(t, y + error, tau) + ZE)
                    error_norm = _rms(error / scale)
                if error_norm > 1:
                    factor = _predict_factor(h_step, h_prev, error_norm,
                                             err_prev)
                    h_step *= max(_MIN_FACTOR, safety * factor)
                    inv_real = inv_complex = None
                    rejected = True
                else:
                    break
            recompute_jac = n_iter > 2 and rate > 1e-3
            factor = _predict_factor(h_step, h_prev, error_norm, err_prev)
            factor = min(_MAX_FACTOR, safety * factor)
            if not recompute_jac and factor < 1.2:
                factor = 1.0
            else:
                inv_real = inv_complex = None
            Q = Z.T @ _P
            ts.append(t)
            hs.append(h)
            ys.append(y)
            Qs.append(Q)
            t_old, h_old, y_old = t, h, y
            t, y = t_new, y_new
            h_abs_old, error_norm_old = h_abs, error_norm
            h_abs = h_step * factor
            if t < t_bound:
                f = rhs(t, y, tau)
                if recompute_jac:
                    J = jac(t, y, tau)
                    current_jac = True
                else:
                    current_jac = False
    ts.append(t)
    hs.append(1.0)
    ys.append(y)
    Qs.append(np.zeros((m, 3)))
    return np.array(ts), np.array(hs), np.array(ys), np.array(Qs)


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
    initial state is given. One Radau IIA loop steps through every
    constant-pressure segment; outputs come from the accepted steps'
    collocation polynomials. Results are deterministic for fixed
    inputs. Raises DivergenceError with the start of the step in which
    the state, its rhs or its Jacobian stopped being finite, or the
    step size underflowed, or the step attempts exceeded the work cap
    (_MAX_STEPS_PER_S per simulated second plus _MAX_STEPS_PER_SEGMENT
    per segment).
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
    # The last output time may round to just past t_end.
    t_stop = max(config.t_end, float(out_times[-1]))
    edges, pressures = _zoh_segments(trace, config.t_start, t_stop)
    ends = np.append(edges[1:], t_stop).tolist()
    taus = [pressure_torque(geometry, p) for p in pressures]
    max_attempts = math.ceil(_MAX_STEPS_PER_S * (t_stop - config.t_start)
                             + _MAX_STEPS_PER_SEGMENT * len(edges))

    dyn = _ChainDynamics(chain)
    damping = np.asarray(params.damping)
    k_b = params.k_b
    atol = np.repeat([_ATOL_Q, _ATOL_QDOT], n)
    jac_top = np.hstack((np.zeros((n, n)), np.eye(n)))

    def rhs(t, y, tau):
        # y is one state (2n,) or a stack (..., 2n) of them. The equation
        # is autonomous: t only labels a divergence, as the start of the
        # step being tried.
        qddot = _accel(dyn, damping, k_b, tau, y[..., :n], y[..., n:])
        if not np.isfinite(qddot).all():
            raise DivergenceError(float(t))
        return np.concatenate((y[..., n:], qddot), axis=-1)

    def jac(t, y, tau):
        d_q, d_qdot = _accel_jacobian(dyn, damping, k_b, tau, y[:n], y[n:])
        J = np.vstack((jac_top, np.hstack((d_q, d_qdot))))
        if not np.isfinite(J).all():
            raise DivergenceError(float(t))
        return J

    t0 = float(config.t_start)
    y0 = np.concatenate((initial_state.q, initial_state.qdot))
    with np.errstate(over="ignore", invalid="ignore"):
        t_rec, h_rec, y_rec, Q_rec = _radau(rhs, jac, t0, y0, ends, taus,
                                            atol, max_attempts)

    # One pass over the output grid: the step that starts at or before
    # each output time, evaluated at its fraction x of that step.
    k = np.searchsorted(t_rec, out_times, side="right") - 1
    x = (out_times - t_rec[k]) / h_rec[k]
    powers = np.stack((x, x * x, x * x * x), axis=-1)
    states = y_rec[k] + (Q_rec[k] @ powers[..., None])[..., 0]

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
