"""Shared oracles and generators for the test suite."""

import numpy as np

from bendsim.kinematics import (
    LinkChain,
    LinkParams,
    com_positions,
    joint_positions,
)

# Planar 90-degree rotation (the generator of SO(2)); S @ v rotates v CCW.
_SKEW = np.array([[0.0, -1.0], [1.0, 0.0]])


def random_chain(rng, n=None, curved=True):
    """A random physically valid chain with n links."""
    if n is None:
        n = int(rng.integers(1, 9))
    lengths = rng.uniform(0.01, 0.08, n)
    offsets = rng.uniform(-0.5, 0.5, n) if curved else np.zeros(n)
    masses = rng.uniform(0.005, 0.05, n)
    links = tuple(
        LinkParams(
            length=float(l),
            offset=float(o),
            mass=float(m),
            com_distance=float(l) / 2.0,
            inertia_com=float(m) * float(l) ** 2 / 12.0,
        )
        for l, o, m in zip(lengths, offsets, masses)
    )
    return LinkChain(links)


def com_jacobians(chain, q):
    """Per-link (linear 2xn, angular 1xn) Jacobians at the centers of mass.

    Column j of link i's Jacobians is zero for j > i. The linear columns
    are the lever arms from joint j to the COM rotated by 90 degrees, so
    J_v @ qdot is the task-space COM velocity.
    """
    n = len(chain)
    joints = joint_positions(chain, q)
    coms = com_positions(chain, q)
    out = []
    for i in range(n):
        jv = np.zeros((2, n))
        lever = coms[i] - joints[: i + 1]  # (i+1) x 2, joint j at joints[j]
        jv[:, : i + 1] = _SKEW @ lever.T
        jw = np.zeros((1, n))
        jw[0, : i + 1] = 1.0
        out.append((jv, jw))
    return out


def jacobian_mass_matrix(chain, q):
    """M(q) summed over links from the COM Jacobians (independent oracle).

    M = sum_i m_i Jv_i^T Jv_i + I_i Jw_i^T Jw_i.
    """
    n = len(chain)
    M = np.zeros((n, n))
    masses = chain.masses
    inertias = chain.inertias_com
    for i, (jv, jw) in enumerate(com_jacobians(chain, q)):
        M += masses[i] * (jv.T @ jv) + inertias[i] * (jw.T @ jw)
    return M


def homogeneous(angle, position):
    """3x3 planar homogeneous transform, the matrix-form oracle."""
    c, s = np.cos(angle), np.sin(angle)
    T = np.eye(3)
    T[:2, :2] = [[c, -s], [s, c]]
    T[:2, 2] = position
    return T


def product_form_poses(chain, q):
    """Forward kinematics via explicit matrix products (independent oracle)."""
    poses = []
    T = np.eye(3)
    for link, qi in zip(chain.links, q):
        theta = qi + link.offset
        local = homogeneous(theta, np.zeros(2)) @ homogeneous(
            0.0, np.array([0.0, link.length])
        )
        T = T @ local
        poses.append((np.arctan2(T[1, 0], T[0, 0]), T[:2, 2].copy()))
    return poses


def circumcenter(a, b, c):
    """Center of the circle through three points."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    return np.array([ux, uy])
