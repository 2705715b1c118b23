"""Reference solutions owned by the benchmark.

Nothing here imports bendsim: the dynamics, kinematics, node placement
and distance computations are written again from their definitions, so
that a change to the package cannot move the yardstick it is judged by.

- `ChainModel.accel` is the equation of motion of the uniform n-link
  chain derived in absolute link headings phi = L (q + offsets):
  L^T [H(phi) L qddot + (P o sin(phi_j - phi_k)) phidot^2] = tau - D qdot - k_b q,
  with H = P o cos(phi_j - phi_k) + diag(I_com).
- `reference_solve` integrates it with scipy's Radau at tight tolerances,
  restarting at every zero-order-hold pressure edge.
- `oracle_max_deviation` measures the distance from frame points to a
  natural cubic spline by brute force against a much finer curve sample.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from actuator import DAMPING, GEOMETRY, K_B  # noqa: F401  (used as ref.K_B etc.)

# Radau tolerances of the reference solve; the absolute tolerance is
# 1e-10 rad on q and 1e-7 rad/s on qdot. The looser rate tolerance cuts
# the steps spent on the fast mode after each pressure jump by 4x. The
# tip position then agrees with an rtol 1e-10, atol 1e-12 solve to
# 1.2e-10 m, twenty-five times below the error of the seed integrator.
REF_RTOL = 1e-8
REF_ATOL_Q = 1e-10
REF_ATOL_QDOT = 1e-7

# Parameter step of the oracle's curve sample (m of chord length); the
# chord sag of that polyline is below 1e-11 m at actuator curvatures.
ORACLE_STEP = 2e-6


class ChainModel:
    """Uniform n-link chain of the benchmark actuator (straight at rest)."""

    def __init__(self, n: int, k_b: float, damping, geometry=GEOMETRY):
        self.n = n
        self.k_b = float(k_b)
        self.damping = np.broadcast_to(np.asarray(damping, float), (n,)).copy()
        length = geometry["total_length_m"] / n
        mass = geometry["total_mass_kg"] / n
        self.lengths = np.full(n, length)
        self.offsets = np.zeros(n)
        self.r2 = geometry["r2_m"]
        # Lever of heading k in the centre of mass of link i.
        lever = np.tril(np.full((n, n), length), -1) + np.eye(n) * length / 2
        self.P = lever.T @ (mass * lever)
        self.inertia = np.full(n, mass * length**2 / 12.0)
        self.L = np.tril(np.ones((n, n)))

    def torque(self, pressure: float) -> float:
        """Joint torque of bladder pressure p: (2/3) p r2^3."""
        return (2.0 / 3.0) * pressure * self.r2**3

    def accel(self, q, qdot, tau: float) -> np.ndarray:
        phi = self.L @ (q + self.offsets)
        phidot = self.L @ qdot
        gap = phi[:, None] - phi[None, :]
        H = self.P * np.cos(gap) + np.diag(self.inertia)
        mass = self.L.T @ H @ self.L
        force = (tau - self.damping * qdot - self.k_b * q
                 - self.L.T @ ((self.P * np.sin(gap)) @ (phidot * phidot)))
        return np.linalg.solve(mass, force)

    def rhs(self, t, y, tau):
        n = self.n
        return np.concatenate([y[n:], self.accel(y[:n], y[n:], tau)])

    def joint_positions(self, q) -> np.ndarray:
        """(..., n+1, 2) base point and joints for angles q of shape (..., n)."""
        phi = np.cumsum(np.asarray(q) + self.offsets, axis=-1)
        steps = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
        tips = np.cumsum(self.lengths[:, None] * steps, axis=-2)
        base = np.zeros(tips.shape[:-2] + (1, 2))
        return np.concatenate([base, tips], axis=-2)


def zoh_segments(times, pressures, t_end: float):
    """[(t0, t1, p)] pieces of constant pressure covering [0, t_end].

    The pressure is zero before the first sample and holds each sample
    until the next one; consecutive equal samples form one piece.
    """
    edges, values = [0.0], [0.0]
    for t, p in zip(times, pressures):
        if t >= t_end:
            break
        if t <= 0.0:
            values[0] = float(p)
        elif p != values[-1]:
            edges.append(float(t))
            values.append(float(p))
    edges.append(float(t_end))
    return [(edges[i], edges[i + 1], values[i]) for i in range(len(values))]


def reference_solve(model: ChainModel, times, pressures, t_end: float,
                    t_out) -> tuple[np.ndarray, np.ndarray]:
    """(q, qdot) at the times t_out from rest, Radau between pressure edges."""
    t_out = np.asarray(t_out, float)
    n = model.n
    out = np.empty((len(t_out), 2 * n))
    y = np.zeros(2 * n)
    atol = np.repeat([REF_ATOL_Q, REF_ATOL_QDOT], n)
    for t0, t1, p in zoh_segments(times, pressures, t_end):
        sol = solve_ivp(model.rhs, (t0, t1), y, method="Radau",
                        rtol=REF_RTOL, atol=atol,
                        args=(model.torque(p),), dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference solve failed on [{t0}, {t1}]: "
                               f"{sol.message}")
        inside = (t_out >= t0) & (t_out <= t1)
        if inside.any():
            out[inside] = sol.sol(t_out[inside]).T
        y = sol.y[:, -1]
    return out[:, :n], out[:, n:]


def segment_nodes(points: np.ndarray, n: int) -> np.ndarray:
    """n+1 frame points nearest to equal chord-length fractions.

    Node i is the first point whose cumulative chord length is closest
    to i/n of the total, searched only where the remaining nodes still
    fit; the end points are always nodes.
    """
    chord = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(points, axis=0).T))])
    K = len(points)
    idx = [0]
    for i in range(1, n):
        lo, hi = idx[-1] + 1, K - 1 - (n - i)
        window = np.abs(chord[lo:hi + 1] - chord[-1] * i / n)
        idx.append(lo + int(np.argmin(window)))
    idx.append(K - 1)
    return points[idx]


def oracle_max_deviation(points: np.ndarray, n: int) -> float:
    """Largest distance from the points to the natural spline through n+1 nodes.

    The spline (chord-length parameter, natural ends) is sampled every
    ORACLE_STEP; each point's distance is the exact distance to the two
    polyline pieces next to its nearest sample.
    """
    nodes = segment_nodes(points, n)
    s = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(nodes, axis=0).T))])
    fine_s = np.linspace(0.0, s[-1], int(np.ceil(s[-1] / ORACLE_STEP)) + 1)
    curve = np.column_stack([
        CubicSpline(s, nodes[:, k], bc_type="natural")(fine_s) for k in (0, 1)
    ])
    _, nearest = cKDTree(curve).query(points)
    best = np.full(len(points), np.inf)
    for a_off, b_off in ((-1, 0), (0, 1)):
        a = curve[np.clip(nearest + a_off, 0, len(curve) - 1)]
        b = curve[np.clip(nearest + b_off, 0, len(curve) - 1)]
        ab = b - a
        denom = np.maximum((ab**2).sum(axis=1), 1e-300)
        w = np.clip(((points - a) * ab).sum(axis=1) / denom, 0.0, 1.0)
        d = np.hypot(*(points - a - w[:, None] * ab).T)
        best = np.minimum(best, d)
    return float(best.max())
