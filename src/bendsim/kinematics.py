"""Planar rigid-link chain geometry.

A chain is an ordered list of links. Link i attaches to the tip of link
i-1, rotates about the out-of-plane axis (counter-clockwise positive) by
its joint variable q_i plus a fixed rest offset, and extends along its
local +Y axis. The base joint sits at the task-space origin with the
first link measured from the +Y axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "PlanarPose",
    "LinkParams",
    "LinkChain",
    "JointState",
    "BodyVelocity",
    "forward_kinematics",
    "joint_positions",
    "body_velocities",
]

def rotation(angle: float) -> np.ndarray:
    """2x2 CCW rotation matrix for `angle` (rad)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class PlanarPose:
    """Orientation (rad) and position (m) of a frame in the task space.

    The pose is stored as an angle plus a translation rather than a 3x3
    matrix; the implied rotation is orthonormal by construction and
    composition reduces to angle addition.
    """

    angle: float
    position: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise InvalidInputError("pose angle must be finite")
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (2,) or not np.all(np.isfinite(pos)):
            raise InvalidInputError("pose position must be a finite 2-vector")
        pos = pos.copy()
        pos.flags.writeable = False
        object.__setattr__(self, "position", pos)

    @property
    def rotation(self) -> np.ndarray:
        """2x2 rotation matrix of this pose."""
        return rotation(self.angle)

    def compose(self, other: "PlanarPose") -> "PlanarPose":
        """Pose of `other` expressed through this pose (this ∘ other)."""
        return PlanarPose(
            angle=self.angle + other.angle,
            position=self.position + self.rotation @ other.position,
        )

    def inverse(self) -> "PlanarPose":
        """Pose such that self.compose(inverse) is the identity."""
        return PlanarPose(
            angle=-self.angle,
            position=-(rotation(-self.angle) @ self.position),
        )

    @staticmethod
    def identity() -> "PlanarPose":
        return PlanarPose(0.0, np.zeros(2))


@dataclass(frozen=True)
class LinkParams:
    """Geometric and inertial parameters of one link.

    Attributes:
        length: link length (m), > 0.
        offset: rest angle relative to the previous link (rad).
        mass: link mass (kg), >= 0.
        com_distance: proximal joint to center of mass (m), in [0, length].
        inertia_com: rotational inertia about the COM, out-of-plane axis
            (kg m^2), >= 0.
    """

    length: float
    offset: float = 0.0
    mass: float = 0.0
    com_distance: float = 0.0
    inertia_com: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise InvalidInputError(f"link length must be > 0, got {self.length}")
        if not math.isfinite(self.offset):
            raise InvalidInputError("link offset must be finite")
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise InvalidInputError(f"link mass must be >= 0, got {self.mass}")
        if not (0.0 <= self.com_distance <= self.length):
            raise InvalidInputError(
                f"com_distance must lie in [0, length], got {self.com_distance}"
            )
        if not (math.isfinite(self.inertia_com) and self.inertia_com >= 0):
            raise InvalidInputError(
                f"inertia_com must be >= 0, got {self.inertia_com}"
            )


@dataclass(frozen=True)
class LinkChain:
    """Ordered list of links forming a serial planar chain (n >= 1)."""

    links: tuple[LinkParams, ...]

    def __post_init__(self):
        links = tuple(self.links)
        if len(links) < 1:
            raise InvalidInputError("chain needs at least one link")
        object.__setattr__(self, "links", links)

    def __len__(self) -> int:
        return len(self.links)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([lk.length for lk in self.links])

    @property
    def offsets(self) -> np.ndarray:
        return np.array([lk.offset for lk in self.links])

    @property
    def masses(self) -> np.ndarray:
        return np.array([lk.mass for lk in self.links])

    @property
    def com_distances(self) -> np.ndarray:
        return np.array([lk.com_distance for lk in self.links])

    @property
    def inertias_com(self) -> np.ndarray:
        return np.array([lk.inertia_com for lk in self.links])

    @property
    def total_length(self) -> float:
        return float(self.lengths.sum())


@dataclass(frozen=True)
class JointState:
    """Joint angles q (rad, deviations from rest offsets) and rates qdot."""

    q: np.ndarray
    qdot: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        qdot = self.qdot
        if qdot is None:
            qdot = np.zeros_like(q)
        qdot = np.atleast_1d(np.asarray(qdot, dtype=float))
        if q.shape != qdot.shape or q.ndim != 1:
            raise InvalidInputError(
                f"q and qdot must be 1-d and the same length, got {q.shape} vs {qdot.shape}"
            )
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qdot))):
            raise InvalidInputError("joint state entries must be finite")
        q = q.copy()
        qdot = qdot.copy()
        q.flags.writeable = False
        qdot.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qdot", qdot)

    def __len__(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class BodyVelocity:
    """Angular rate (rad/s) and linear tip velocity (m/s) in the link frame."""

    omega: float
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).copy()
        v.flags.writeable = False
        object.__setattr__(self, "v", v)


def _as_angles(chain: LinkChain, q) -> np.ndarray:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape != (len(chain),):
        raise InvalidInputError(
            f"expected {len(chain)} joint angles, got shape {q.shape}"
        )
    if not np.all(np.isfinite(q)):
        raise InvalidInputError("joint angles must be finite")
    return q


def absolute_angles(chain: LinkChain, q) -> np.ndarray:
    """Heading of every link relative to the base +Y axis (rad)."""
    return np.cumsum(_as_angles(chain, q) + chain.offsets)


def forward_kinematics(chain: LinkChain, q) -> list[PlanarPose]:
    """Pose of every link tip in the task frame.

    Pose i composes the per-link transforms 1..i; the last pose is the
    chain tip.
    """
    phi = absolute_angles(chain, q)
    tips = np.cumsum(
        chain.lengths[:, None] * np.column_stack([-np.sin(phi), np.cos(phi)]),
        axis=0,
    )
    return [PlanarPose(float(a), p) for a, p in zip(phi, tips)]


def joint_positions(chain: LinkChain, q) -> np.ndarray:
    """(n+1) x 2 array of the base point followed by every joint/tip."""
    phi = absolute_angles(chain, q)
    pts = np.zeros((len(chain) + 1, 2))
    np.cumsum(
        chain.lengths[:, None] * np.column_stack([-np.sin(phi), np.cos(phi)]),
        axis=0,
        out=pts[1:],
    )
    return pts


def body_velocities(chain: LinkChain, state: JointState) -> list[BodyVelocity]:
    """Angular and linear velocity of each link tip in its own frame.

    Propagates velocities down the chain from a fixed base. The angular
    rate accumulates the joint rates; the linear part is the task-space
    tip velocity rotated into the link frame.
    """
    if len(state) != len(chain):
        raise InvalidInputError(
            f"state has {len(state)} joints, chain has {len(chain)}"
        )
    phi = absolute_angles(chain, state.q)
    phidot = np.cumsum(state.qdot)
    # Task-space tip velocities: pdot_i = sum_{k<=i} phidot_k * d/dphi[R(phi_k)(0,l_k)]
    seg = chain.lengths[:, None] * np.column_stack([-np.cos(phi), -np.sin(phi)])
    tip_vel = np.cumsum(phidot[:, None] * seg, axis=0)
    out = []
    for i in range(len(chain)):
        v_body = rotation(-phi[i]) @ tip_vel[i]
        out.append(BodyVelocity(omega=float(phidot[i]), v=v_body))
    return out


def com_positions(chain: LinkChain, q) -> np.ndarray:
    """n x 2 array of link center-of-mass positions in the task frame."""
    phi = absolute_angles(chain, q)
    joints = joint_positions(chain, q)
    u = np.column_stack([-np.sin(phi), np.cos(phi)])
    return joints[:-1] + chain.com_distances[:, None] * u

