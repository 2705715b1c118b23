"""Lumped-parameter dynamics of the reduced-order chain.

Equation of motion in standard manipulator form:

    M(q) qddot + (C(q, qdot) + D) qdot + K q = tau

with generalized inertia M, Coriolis/centrifugal matrix C, diagonal
viscous damping D, joint springs K = k_b * I restoring toward the rest
shape (q = 0), and a pressure-derived torque applied equally at every
joint. Gravity is absent: the actuator operates in a horizontal plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import InvalidInputError
from .kinematics import JointState, LinkChain, LinkParams, _as_angles

__all__ = [
    "ActuatorGeometry",
    "DynamicsParams",
    "build_chain",
    "pressure_torque",
    "mass_matrix",
    "coriolis_matrix",
    "eom_accel",
    "total_energy",
]


@dataclass(frozen=True)
class ActuatorGeometry:
    """Physical dimensions of the actuator body.

    Attributes:
        r1: outer radius (m).
        r2: inner bladder radius (m); the semi-annular pressurized
            cross-section has area pi*r2^2/2 with centroid 4*r2/(3*pi)
            off the flat face.
        wall: fiber-reinforced wall thickness (m).
        total_length: bending-section length (m).
        total_mass: bending-section mass (kg).
    """

    r1: float
    r2: float
    wall: float
    total_length: float
    total_mass: float

    def __post_init__(self):
        if not (0 < self.r2 < self.r1):
            raise InvalidInputError(
                f"need 0 < r2 < r1, got r2={self.r2}, r1={self.r1}"
            )
        if self.wall <= 0:
            raise InvalidInputError(f"wall must be > 0, got {self.wall}")
        if self.total_length <= 0:
            raise InvalidInputError(
                f"total_length must be > 0, got {self.total_length}"
            )
        if self.total_mass <= 0:
            raise InvalidInputError(
                f"total_mass must be > 0, got {self.total_mass}"
            )


@dataclass(frozen=True)
class DynamicsParams:
    """Identified lumped parameters: shared joint spring and per-joint damping.

    Attributes:
        k_b: torsional spring coefficient (N m/rad), shared by all joints.
        damping: per-joint viscous coefficients (N m s/rad), diagonal of D.
    """

    k_b: float
    damping: tuple[float, ...]

    def __post_init__(self):
        if not (math.isfinite(self.k_b) and self.k_b > 0):
            raise InvalidInputError(f"k_b must be > 0, got {self.k_b}")
        damping = tuple(float(d) for d in self.damping)
        if len(damping) < 1:
            raise InvalidInputError("damping needs at least one entry")
        if any(not math.isfinite(d) or d < 0 for d in damping):
            raise InvalidInputError("damping entries must be >= 0")
        object.__setattr__(self, "damping", damping)

    @staticmethod
    def uniform(k_b: float, damping: float, n: int) -> "DynamicsParams":
        """Same damping coefficient at every one of n joints."""
        return DynamicsParams(k_b=k_b, damping=(damping,) * n)


def build_chain(
    geometry: ActuatorGeometry,
    n: int,
    reference=None,
) -> LinkChain:
    """Discretize the actuator body into an n-link chain.

    Lengths and rest offsets come from segmenting `reference` (a
    SensorFrame of the unactuated shape) when given, otherwise the chain
    is n equal straight links. Mass is distributed proportionally to
    link length and each link is treated as a uniform slender rod
    (COM at mid-length, inertia m*l^2/12 about the COM).
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if reference is not None:
        from .reconstruction import fit_reference_chain

        skeleton = fit_reference_chain(reference, n)
        lengths = skeleton.lengths
        offsets = skeleton.offsets
    else:
        lengths = np.full(n, geometry.total_length / n)
        offsets = np.zeros(n)
    masses = geometry.total_mass * lengths / lengths.sum()
    links = tuple(
        LinkParams(
            length=float(l),
            offset=float(off),
            mass=float(m),
            com_distance=float(l) / 2.0,
            inertia_com=float(m) * float(l) ** 2 / 12.0,
        )
        for l, off, m in zip(lengths, offsets, masses)
    )
    return LinkChain(links)


def pressure_torque(geometry: ActuatorGeometry, p: float) -> float:
    """Joint torque (N m) produced by bladder pressure p (Pa).

    The pressurized semi-annular section of area pi*r2^2/2 acts at the
    centroid lever arm 4*r2/(3*pi), so tau = p * A * d = (2/3) p r2^3.
    The same torque is applied at every joint. Negative pressures model
    suction.
    """
    if not math.isfinite(p):
        raise InvalidInputError("pressure must be finite")
    return (2.0 / 3.0) * p * geometry.r2**3


class _ChainDynamics:
    """Precomputed chain constants of the equation of motion.

    Uses absolute link headings phi = L (q + offsets), with L the
    lower-triangular matrix of ones: the kinetic energy is
    (1/2) phidot^T H phidot with H = P o cos(phi_k - phi_m) + diag(I),
    where P collects the constant mass-weighted lever products. Then
    M = L^T H L, and the exact Christoffel-symbol Coriolis matrix is
    C = L^T (P o sin(phi_k - phi_m) o phidot_m) L.

    Because cos 0 = 1 and sin 0 = 0 on the diagonal, both H and the
    sine term use the one constant matrix J = P + diag(I).
    """

    def __init__(self, chain: LinkChain):
        n = len(chain)
        self.offsets = chain.offsets
        self.L = np.tri(n)
        # A[i, k]: lever of heading k in the COM position of link i.
        A = self.L * chain.lengths
        A.flat[:: n + 1] = chain.com_distances
        self.J = (A.T @ (chain.masses[:, None] * A)
                  + np.diag(chain.inertias_com))

    def heading_inertia(self, q: np.ndarray):
        """(dphi, H): heading differences phi_k - phi_m and inertia H."""
        # add.accumulate is cumsum without its Python-level dispatch.
        phi = np.add.accumulate(q + self.offsets)
        dphi = np.subtract.outer(phi, phi)
        return dphi, self.J * np.cos(dphi)


def mass_matrix(chain: LinkChain, q) -> np.ndarray:
    """Generalized inertia matrix M(q) = L^T H L.

    Symmetric positive definite for every configuration with positive
    link masses.
    """
    q = _as_angles(chain, q)
    dyn = _ChainDynamics(chain)
    _, H = dyn.heading_inertia(q)
    return dyn.L.T @ H @ dyn.L


def coriolis_matrix(chain: LinkChain, q, qdot) -> np.ndarray:
    """Coriolis/centrifugal matrix C(q, qdot), exact Christoffel form.

    Built from the closed-form gradient of M in absolute-heading
    coordinates, so dM/dt - 2C is skew-symmetric by construction.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    qdot = np.atleast_1d(np.asarray(qdot, dtype=float))
    if q.shape != (len(chain),) or qdot.shape != q.shape:
        raise InvalidInputError(
            f"expected q and qdot of length {len(chain)}"
        )
    dyn = _ChainDynamics(chain)
    dphi, _ = dyn.heading_inertia(q)
    Ct = (dyn.J * np.sin(dphi)) * np.cumsum(qdot)[None, :]
    return dyn.L.T @ Ct @ dyn.L


def _require_matching(chain: LinkChain, params: DynamicsParams):
    if len(params.damping) != len(chain):
        raise InvalidInputError(
            f"damping has {len(params.damping)} entries, chain has {len(chain)} links"
        )


# LAPACK Cholesky solve (?posv) for the SPD inertia and the solve with
# its factor (?potrs); fetched once.
_POSV, _POTRS = get_lapack_funcs(("posv", "potrs"),
                                 (np.empty((1, 1)), np.empty(1)))


def eom_accel(
    chain: LinkChain,
    params: DynamicsParams,
    geometry: ActuatorGeometry,
    state: JointState,
    p: float,
) -> np.ndarray:
    """Joint accelerations qddot under bladder pressure p (Pa).

    Solves M qddot = tau - (C + D) qdot - k_b q with a symmetric
    positive-definite factorization (no explicit inverse).
    """
    _require_matching(chain, params)
    tau = pressure_torque(geometry, p)
    dyn = _ChainDynamics(chain)
    acc = _accel(
        dyn, np.asarray(params.damping), params.k_b, tau, state.q, state.qdot
    )
    if not np.all(np.isfinite(acc)):
        raise InvalidInputError("mass matrix is not positive definite")
    return acc


def _heading_form(dyn, damping, k_b, tau, q, qdot):
    """(H, S, phidot, b) of the equation of motion H phiddot = b.

    b = L^-T r - S (phidot o phidot) with S = J o sin dphi and the
    joint-space force r = tau - D qdot - k_b q.
    """
    dphi, H = dyn.heading_inertia(q)
    S = dyn.J * np.sin(dphi)
    phidot = np.add.accumulate(qdot)
    b = tau - damping * qdot - k_b * q
    b[:-1] -= b[1:]
    b -= S @ (phidot * phidot)
    return H, S, phidot, b


def _accel(
    dyn: _ChainDynamics,
    damping: np.ndarray,
    k_b: float,
    tau: float,
    q: np.ndarray,
    qdot: np.ndarray,
) -> np.ndarray:
    """qddot from the equation of motion in heading form.

    Solves H phiddot = L^-T r - (P o sin dphi)(phidot o phidot) for the
    joint-space force r = tau - D qdot - k_b q and returns
    qddot = L^-1 phiddot. Both L^-T and L^-1 are first differences, so
    neither M nor C is formed. Returns NaNs when the Cholesky
    factorization fails (non-finite or non-PD H), so integration-loop
    callers surface it as divergence.
    """
    H, _, _, rhs = _heading_form(dyn, damping, k_b, tau, q, qdot)
    _, phiddot, info = _POSV(H, rhs, lower=1, overwrite_a=1, overwrite_b=1)
    if info != 0:
        return np.full_like(rhs, np.nan)
    phiddot[1:] -= phiddot[:-1]
    return phiddot


def _accel_jacobian(
    dyn: _ChainDynamics,
    damping: np.ndarray,
    k_b: float,
    tau: float,
    q: np.ndarray,
    qdot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(d qddot/d q, d qddot/d qdot) of `_accel`, in closed form.

    Differentiating H phiddot = L^-T r - S (phidot o phidot), with
    S = J o sin dphi, in headings gives

        d phiddot/d qdot = H^-1 (-L^-T D - 2 S diag(phidot) L)
        d phiddot/d q = H^-1 [(H diag(phidot^2) - diag(H phidot^2)
                               - S diag(phiddot) + diag(S phiddot)) L
                              - k_b L^-T]

    and both map to joint space through L^-1, a first difference over
    rows. One Cholesky factorization of H serves phiddot and both
    blocks. Returns NaNs when it fails, like `_accel`.
    """
    n = len(q)
    H, S, phidot, rhs = _heading_form(dyn, damping, k_b, tau, q, qdot)
    chol, phiddot, info = _POSV(H, rhs, lower=1, overwrite_b=1)
    if info != 0:
        return np.full((n, n), np.nan), np.full((n, n), np.nan)
    w = phidot * phidot
    L = dyn.L
    L_inv_T = np.eye(n) - np.eye(n, k=1)
    d_q = ((H * w - S * phiddot) @ L + (S @ phiddot - H @ w)[:, None] * L
           - k_b * L_inv_T)
    d_qdot = -L_inv_T * damping - 2.0 * (S * phidot) @ L
    x, info = _POTRS(chol, np.hstack((d_q, d_qdot)), lower=1, overwrite_b=1)
    x[1:] -= x[:-1]
    return x[:, :n], x[:, n:]


def total_energy(
    chain: LinkChain, params: DynamicsParams, state: JointState
) -> float:
    """Kinetic plus elastic energy (J): (1/2) qdot^T M qdot + (1/2) k_b |q|^2.

    The kinetic part is evaluated as (1/2) phidot^T H phidot.
    """
    _require_matching(chain, params)
    if len(state) != len(chain):
        raise InvalidInputError(
            f"state has {len(state)} joints, chain has {len(chain)}"
        )
    _, H = _ChainDynamics(chain).heading_inertia(state.q)
    phidot = np.cumsum(state.qdot)
    kinetic = 0.5 * phidot @ H @ phidot
    elastic = 0.5 * params.k_b * float(state.q @ state.q)
    return float(kinetic + elastic)
