"""Synthetic sensor-frame generation from simulated motions.

Measured fiber data is not redistributable, so tests and example runs
synthesize frames instead: simulate a chain, pass a smooth curve
through its joint positions, and resample that curve at the sensor's
nominal spacing. The result has the same shape as real exports (dense
ordered planar points per timestamp).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .integrator import Trajectory, positions_at
from .kinematics import LinkChain, joint_positions
from .reconstruction import SensorFrame, spline_through

__all__ = [
    "node_frames_from_trajectory",
    "dense_frames_from_trajectory",
    "resample_polyline",
    "straight_frame",
    "chain_frame",
]

# Sensor spacing along the fiber (m).
DEFAULT_SPACING = 0.0008


def _frame_times(trajectory: Trajectory, times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise InvalidInputError("need at least one frame time")
    t0, t1 = trajectory.times[0], trajectory.times[-1]
    if times.min() < t0 or times.max() > t1:
        raise InvalidInputError("frame times outside the trajectory span")
    return times


def node_frames_from_trajectory(trajectory: Trajectory, times) -> list[SensorFrame]:
    """Frames whose points are the trajectory's joint positions at each time.

    With K = n+1 points for an n-link chain, segmentation returns the
    points unchanged. Positions are interpolated linearly between output
    samples, so a frame is an exact state of the motion only at a grid
    time. Used for self-consistency fixtures.
    """
    times = _frame_times(trajectory, times)
    return [SensorFrame(float(t), positions_at(trajectory, t)) for t in times]


def resample_polyline(points: np.ndarray, spacing: float) -> np.ndarray:
    """Points along the smooth curve through a polyline, equally spaced.

    A natural cubic spline is fit through the polyline's vertices and
    sampled at the given arc-length spacing (measured along the spline);
    the final point is the curve endpoint regardless of spacing.
    """
    if spacing <= 0:
        raise InvalidInputError(f"spacing must be > 0, got {spacing}")
    curve = spline_through(points)
    fine = np.linspace(curve.s_min, curve.s_max, 20001)
    samples = curve.evaluate(fine)
    seg = np.hypot(*(np.diff(samples, axis=0).T))
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    targets = np.arange(0.0, total, spacing)
    if total - targets[-1] < 0.5 * spacing:
        targets = targets[:-1]
    targets = np.concatenate([targets, [total]])
    s_of_arc = np.interp(targets, arc, fine)
    return curve.evaluate(s_of_arc)


def dense_frames_from_trajectory(
    trajectory: Trajectory,
    times,
    spacing: float = DEFAULT_SPACING,
) -> list[SensorFrame]:
    """Dense sensor-like frames resampled from the simulated shape."""
    times = _frame_times(trajectory, times)
    return [
        SensorFrame(float(t), resample_polyline(positions_at(trajectory, t), spacing))
        for t in times
    ]


def straight_frame(length: float = 0.17, spacing: float = DEFAULT_SPACING,
                   time: float = 0.0) -> SensorFrame:
    """A straight reference frame along +Y, sampled like the sensor."""
    if length <= 0 or spacing <= 0:
        raise InvalidInputError("length and spacing must be > 0")
    y = np.arange(0.0, length, spacing)
    if length - y[-1] < 0.5 * spacing:
        y = y[:-1]
    y = np.concatenate([y, [length]])
    return SensorFrame(time, np.column_stack([np.zeros_like(y), y]))


def chain_frame(chain: LinkChain, q, time: float = 0.0,
                spacing: float = DEFAULT_SPACING) -> SensorFrame:
    """Dense frame for a single chain configuration."""
    return SensorFrame(
        time, resample_polyline(joint_positions(chain, np.asarray(q, float)),
                                spacing)
    )
