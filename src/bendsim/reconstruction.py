"""Shape reconstruction from dense planar point samples.

Dense per-frame samples along the actuator are reduced to an n-link
polyline whose nodes sit at equal fractions of the cumulative chord
length; a natural cubic spline through the nodes reconstructs the
continuous shape. Reconstruction error against the raw samples drives
the choice of the smallest adequate link count.

The splines of all frames of one candidate order come from one batched
solve of the natural-end tridiagonal system. A point's distance to a
spline is found by a coarse scan of every interval followed by bracketed
Newton iterations on d/ds |c(s) - p|^2, so it is exact to rounding rather
than to a sampling step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .kinematics import LinkChain, LinkParams

__all__ = [
    "SensorFrame",
    "SplineCurve",
    "OrderCandidate",
    "OrderSelectionReport",
    "segment_frame",
    "fit_reference_chain",
    "frame_to_joint_angles",
    "spline_through",
    "max_deviation",
    "select_order",
    "wrap_angle",
]

# Deviation metric: coarse samples per spline interval, then a fixed
# number of Newton iterations (quadratic convergence from a sample
# spacing away reaches rounding well within it).
_SCAN_SAMPLES = 16
_NEWTON_ITERATIONS = 6
# Frames per kernel call are capped so the scan's point-by-sample arrays
# stay under this many elements (2 MB each), whatever the frame count.
_SCAN_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class SensorFrame:
    """One timestamped snapshot of ordered points along the actuator.

    Points run base to tip with nominally uniform arc spacing. Only the
    planar projection is stored; reconstruction operations additionally
    require at least 4 points.
    """

    time: float
    points: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.time) and self.time >= 0):
            raise InvalidInputError(f"frame time must be >= 0, got {self.time}")
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise InvalidInputError("points must be a K x 2 array with K >= 2")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("frame points must be finite")
        if np.any(np.hypot(*(np.diff(pts, axis=0).T)) == 0.0):
            raise InvalidInputError("consecutive frame points must be distinct")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def chord_lengths(self) -> np.ndarray:
        """Cumulative chord length at every point, starting at 0 (m)."""
        seg = np.hypot(*(np.diff(self.points, axis=0).T))
        return np.concatenate([[0.0], np.cumsum(seg)])


@dataclass(frozen=True)
class SplineCurve:
    """Piecewise-cubic planar curve in a chord-length parameter.

    knots are strictly increasing parameters (m); coeffs_x / coeffs_y
    hold per-interval polynomial coefficients, highest power first, in
    the local variable (s - knot[j]).
    """

    knots: np.ndarray
    coeffs_x: np.ndarray
    coeffs_y: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        cx = np.asarray(self.coeffs_x, dtype=float)
        cy = np.asarray(self.coeffs_y, dtype=float)
        if knots.ndim != 1 or len(knots) < 2 or np.any(np.diff(knots) <= 0):
            raise InvalidInputError("knots must be strictly increasing")
        if cx.shape != (4, len(knots) - 1) or cy.shape != cx.shape:
            raise InvalidInputError("coefficients must be 4 x (len(knots)-1)")
        for arr in (knots, cx, cy):
            arr.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "coeffs_x", cx)
        object.__setattr__(self, "coeffs_y", cy)

    @property
    def s_min(self) -> float:
        return float(self.knots[0])

    @property
    def s_max(self) -> float:
        return float(self.knots[-1])

    def evaluate(self, s) -> np.ndarray:
        """Curve points at parameters s; shape (..., 2)."""
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, s, side="right") - 1, 0,
                      len(self.knots) - 2)
        ds = s - self.knots[idx]
        out = np.empty(s.shape + (2,))
        for k, coeffs in ((0, self.coeffs_x), (1, self.coeffs_y)):
            val = coeffs[0, idx]
            for row in range(1, 4):
                val = val * ds + coeffs[row, idx]
            out[..., k] = val
        return out

    def derivative(self, s, order: int = 1) -> np.ndarray:
        """First or second parameter derivative at s; shape (..., 2)."""
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, s, side="right") - 1, 0,
                      len(self.knots) - 2)
        ds = s - self.knots[idx]
        out = np.empty(s.shape + (2,))
        for k, c in ((0, self.coeffs_x), (1, self.coeffs_y)):
            if order == 1:
                out[..., k] = (3 * c[0, idx] * ds + 2 * c[1, idx]) * ds + c[2, idx]
            elif order == 2:
                out[..., k] = 6 * c[0, idx] * ds + 2 * c[1, idx]
            else:
                raise InvalidInputError("order must be 1 or 2")
        return out


@dataclass(frozen=True)
class OrderCandidate:
    """Reconstruction errors of one candidate link count."""

    n: int
    max_error: float
    mean_error: float
    per_frame_max: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_frame_max", tuple(self.per_frame_max))


@dataclass(frozen=True)
class OrderSelectionReport:
    """Error sweep over candidate link counts and the selected order."""

    candidates: tuple[OrderCandidate, ...]
    chosen_n: int
    threshold: float
    threshold_met: bool

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))

    def candidate(self, n: int) -> OrderCandidate:
        for c in self.candidates:
            if c.n == n:
                return c
        raise KeyError(n)


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y <= 0.0:
        y += 2.0 * math.pi
    return y - math.pi


def segment_frame(frame: SensorFrame, n: int) -> np.ndarray:
    """Reduce a frame to n+1 node points at equal chord-length fractions.

    Node i is the frame point whose cumulative chord length is nearest
    to i/n of the total (ties toward the lower index), constrained so
    node indices strictly increase; the first and last points are always
    nodes. Returns an (n+1) x 2 array.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    K = len(frame)
    if K < 4:
        raise InvalidInputError(f"frame needs at least 4 points, got {K}")
    if n + 1 > K:
        raise InvalidInputError(
            f"cannot place {n + 1} nodes on a frame of {K} points"
        )
    s = frame.chord_lengths
    total = s[-1]
    idx = np.empty(n + 1, dtype=int)
    idx[0] = 0
    idx[n] = K - 1
    for i in range(1, n):
        # Feasibility window leaves room for the remaining nodes.
        lo = idx[i - 1] + 1
        hi = K - 1 - (n - i)
        target = total * i / n
        k = lo + int(np.argmin(np.abs(s[lo : hi + 1] - target)))
        idx[i] = k
    return frame.points[idx]


def _chord_headings(nodes: np.ndarray) -> np.ndarray:
    """Heading of each node-to-node chord measured from the +Y base axis."""
    d = np.diff(nodes, axis=0)
    norms = np.hypot(d[:, 0], d[:, 1])
    if np.any(norms == 0.0):
        raise InvalidInputError("coincident nodes")
    # A link at heading a points along (-sin a, cos a).
    return np.arctan2(-d[:, 0], d[:, 1])


def fit_reference_chain(reference: SensorFrame, n: int) -> LinkChain:
    """Skeletonize the unactuated reference shape into an n-link chain.

    Link lengths are the node-to-node distances; rest offsets are the
    relative heading changes between consecutive chords (the first
    measured from the +Y base axis). Masses are left zero: inertial
    properties belong to build_chain.
    """
    nodes = segment_frame(reference, n)
    d = np.diff(nodes, axis=0)
    lengths = np.hypot(d[:, 0], d[:, 1])
    headings = _chord_headings(nodes)
    offsets = np.empty(n)
    offsets[0] = headings[0]
    offsets[1:] = np.diff(headings)
    links = tuple(
        LinkParams(length=float(l), offset=float(wrap_angle(o)))
        for l, o in zip(lengths, offsets)
    )
    return LinkChain(links)


def frame_to_joint_angles(frame: SensorFrame, chain: LinkChain) -> np.ndarray:
    """Joint angles that align the chain's chords with the frame's nodes.

    q_i is the chord-to-chord heading change minus the chain's rest
    offset, wrapped to (-pi, pi]. Matches the frame only up to the
    chord-length discretization of the node placement.
    """
    n = len(chain)
    nodes = segment_frame(frame, n)
    headings = _chord_headings(nodes)
    offsets = chain.offsets
    q = np.empty(n)
    prev = 0.0
    for i in range(n):
        q[i] = wrap_angle(headings[i] - prev - offsets[i])
        prev = headings[i]
    return q


def _natural_spline(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Natural cubic splines through F node sets of m >= 3 nodes each.

    nodes is (F, m, 2). Each spline is parameterized by its cumulative
    chord length, with vanishing second derivative at both ends. Returns
    the knots (F, m) and the power-basis coefficients (F, m-1, 4, 2),
    highest power first, in the local variable s - knots[:, j].
    """
    d = np.diff(nodes, axis=1)
    h = np.hypot(d[..., 0], d[..., 1])
    if np.any(h == 0.0):
        raise InvalidInputError("repeated parameter values (coincident nodes)")
    F, m = nodes.shape[:2]
    knots = np.zeros((F, m))
    np.cumsum(h, axis=1, out=knots[:, 1:])
    slope = d / h[..., None]
    # Second derivatives at the knots: zero at both ends, the interior
    # ones from the symmetric tridiagonal C2-continuity system.
    curv = np.zeros((F, m, 2))
    i = np.arange(m - 2)
    A = np.zeros((F, m - 2, m - 2))
    A[:, i, i] = 2.0 * (h[:, :-1] + h[:, 1:])
    A[:, i[1:], i[:-1]] = h[:, 1:-1]
    A[:, i[:-1], i[1:]] = h[:, 1:-1]
    curv[:, 1:-1] = np.linalg.solve(A, 6.0 * np.diff(slope, axis=1))
    h = h[..., None]
    coeffs = np.empty((F, m - 1, 4, 2))
    coeffs[:, :, 0] = (curv[:, 1:] - curv[:, :-1]) / (6.0 * h)
    coeffs[:, :, 1] = 0.5 * curv[:, :-1]
    coeffs[:, :, 2] = slope - h * (2.0 * curv[:, :-1] + curv[:, 1:]) / 6.0
    coeffs[:, :, 3] = nodes[:, :-1]
    return knots, coeffs


def spline_through(nodes: np.ndarray) -> SplineCurve:
    """Natural cubic spline through node points, one per coordinate.

    Parameterized by cumulative chord length; second derivatives vanish
    at both ends. Needs at least 3 nodes with strictly increasing
    cumulative chord length.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise InvalidInputError("nodes must be an m x 2 array")
    if len(nodes) < 3:
        raise InvalidInputError(f"need at least 3 nodes, got {len(nodes)}")
    knots, coeffs = _natural_spline(nodes[None])
    return SplineCurve(knots=knots[0], coeffs_x=coeffs[0, :, :, 0].T,
                       coeffs_y=coeffs[0, :, :, 1].T)


def _nearest_distances(
    knots: np.ndarray, coeffs: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Distance from each point to its frame's piecewise-cubic curve.

    knots (F, m) and coeffs (F, m-1, 4, 2) as from _natural_spline;
    points (F, K, 2). Returns (F, K). Every interval is split into
    _SCAN_SAMPLES steps; the nearest sample picks an interval, and
    Newton on d/ds |c(s) - p|^2, clipped to the interval, runs there and
    in both neighbouring intervals. The result is the least distance
    over those three Newton points and the six interval ends.
    """
    F, J = coeffs.shape[:2]
    S = _SCAN_SAMPLES + 1  # samples per interval, both ends included
    block = max(1, _SCAN_ELEMENTS // (points.shape[1] * J * S))
    if F > block:
        return np.concatenate([
            _nearest_distances(knots[i:i + block], coeffs[i:i + block],
                               points[i:i + block])
            for i in range(0, F, block)
        ])
    h = np.diff(knots, axis=1)

    # Coarse scan: |p - c|^2 - |p|^2 = |c|^2 - 2 p.c for every sample c,
    # one batched matrix product; it only has to rank the samples.
    t = (h[..., None] * (np.arange(S) / (S - 1)))[..., None]
    k = coeffs[:, :, :, None, :]
    samples = (((k[:, :, 0] * t + k[:, :, 1]) * t + k[:, :, 2]) * t
               + k[:, :, 3]).reshape(F, J * S, 2)
    rank = points @ samples.transpose(0, 2, 1)
    rank *= -2.0
    rank += (samples * samples).sum(axis=2)[:, None, :]
    j, best = np.divmod(np.argmin(rank, axis=2), S)

    # Newton in the best sample's interval (from that sample) and in its
    # neighbours (from the shared knot); clipping folds out-of-range
    # neighbours onto the end intervals.
    frame = np.arange(F)[:, None, None]
    jc = np.clip(j[..., None] + np.array([-1, 0, 1]), 0, J - 1)
    hc = h[frame, jc]
    t = np.where(jc < j[..., None], hc, 0.0)
    t[..., 1] = best / (S - 1) * hc[..., 1]
    # Each coefficient as its own contiguous (F, K, 3) array.
    (ax, ay), (bx, by), (cx, cy), (ex, ey) = np.moveaxis(
        coeffs, (2, 3), (0, 1))[:, :, frame, jc]
    ex = ex - points[..., :1]
    ey = ey - points[..., 1:]
    ax3, bx2, ay3, by2 = 3.0 * ax, 2.0 * bx, 3.0 * ay, 2.0 * by
    for _ in range(_NEWTON_ITERATIONS):
        rx = ((ax * t + bx) * t + cx) * t + ex
        ry = ((ay * t + by) * t + cy) * t + ey
        vx = (ax3 * t + bx2) * t + cx
        vy = (ay3 * t + by2) * t + cy
        speed2 = vx * vx + vy * vy
        hess = rx * (2.0 * ax3 * t + bx2) + ry * (2.0 * ay3 * t + by2)
        hess += speed2
        # Damped where the point lies beyond half the radius of curvature
        # on the concave side: the step stays a descent step.
        np.maximum(hess, 0.5 * speed2, out=hess)
        t -= (rx * vx + ry * vy) / hess
        np.clip(t, 0.0, hc, out=t)
    dist = np.hypot(((ax * t + bx) * t + cx) * t + ex,
                    ((ay * t + by) * t + cy) * t + ey)
    dist = np.minimum(dist, np.hypot(ex, ey))
    dist = np.minimum(dist, np.hypot(((ax * hc + bx) * hc + cx) * hc + ex,
                                     ((ay * hc + by) * hc + cy) * hc + ey))
    return dist.min(axis=2)


def max_deviation(
    curve: SplineCurve, frame: SensorFrame
) -> tuple[float, float]:
    """(max, mean) distance from the frame's points to the curve (m).

    Each distance comes from a coarse scan (16 samples per spline
    interval) and Newton refinement in the nearest sample's interval and
    both neighbours. It is exact to rounding whenever that sample lies
    within one interval of the true nearest curve point, which holds
    unless a part of the curve further away along it comes within the
    true distance plus half a sample spacing of the point.
    """
    coeffs = np.stack([curve.coeffs_x.T, curve.coeffs_y.T], axis=-1)
    d = _nearest_distances(curve.knots[None], coeffs[None], frame.points[None])[0]
    return float(d.max()), float(d.mean())


def select_order(
    frames,
    n_values,
    threshold: float,
) -> OrderSelectionReport:
    """Sweep candidate link counts over a frame sequence.

    For each candidate n (>= 2) the per-frame reconstruction error is the
    max deviation of that frame's node spline, computed for all frames of
    the candidate at once; the candidate's max_error and mean_error
    summarize the per-frame series. The chosen order is the
    smallest candidate whose max_error stays below the threshold, or the
    overall argmin when none qualifies (flagged via threshold_met).
    """
    frames = list(frames)
    if not frames:
        raise InvalidInputError("need at least one frame")
    n_values = sorted(set(int(n) for n in n_values))
    if not n_values:
        raise InvalidInputError("need at least one candidate order")
    if n_values[0] < 2:
        raise InvalidInputError(
            f"candidate orders must be >= 2, got {n_values[0]}")
    if not (math.isfinite(threshold) and threshold > 0):
        raise InvalidInputError(
            f"threshold must be finite and > 0, got {threshold}")
    # One (F, K, 2) point stack; shorter frames repeat their last point,
    # which leaves each frame's max distance unchanged.
    width = max(len(f) for f in frames)
    points = np.stack([
        np.concatenate([f.points, np.repeat(f.points[-1:], width - len(f), 0)])
        for f in frames
    ])
    candidates = []
    for n in n_values:
        nodes = np.stack([segment_frame(frame, n) for frame in frames])
        arr = _nearest_distances(*_natural_spline(nodes), points).max(axis=1)
        candidates.append(
            OrderCandidate(
                n=n,
                max_error=float(arr.max()),
                mean_error=float(arr.mean()),
                per_frame_max=tuple(float(v) for v in arr),
            )
        )
    meeting = [c for c in candidates if c.max_error < threshold]
    if meeting:
        chosen = min(meeting, key=lambda c: c.n)
        met = True
    else:
        chosen = min(candidates, key=lambda c: c.max_error)
        met = False
    return OrderSelectionReport(
        candidates=tuple(candidates),
        chosen_n=chosen.n,
        threshold=float(threshold),
        threshold_met=met,
    )
