"""Fitting stiffness and damping to measured shape sequences.

The objective simulates the chain under the recorded pressure input and
scores the RMS distance between simulated joint positions and the node
points segmented from each measured frame. The simulated state at each
frame time is read from the stepper's collocation polynomials, so the
score has no output grid and no interpolation between samples. A
derivative-free Nelder-Mead search over (k_b, damping) minimizes it;
damping is a single shared scalar by default, optionally one value per
joint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ActuatorGeometry, DynamicsParams
from .errors import DivergenceError, InvalidInputError
from .integrator import _states_at
from .kinematics import LinkChain, joint_positions
from .reconstruction import segment_frame

__all__ = [
    "ObjectiveResult",
    "IdentificationResult",
    "objective",
    "identify",
]

# Objective value substituted when the simulation blows up: large enough
# that the search backs away, finite so the simplex stays well formed.
_DIVERGENCE_PENALTY = 1e6

_CONVERGENCE_DIAMETER = 1e-6


@dataclass(frozen=True)
class ObjectiveResult:
    """RMS shape error (m) plus a divergence marker."""

    value: float
    diverged: bool = False


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of a parameter search."""

    params: DynamicsParams
    objective_value: float
    best_history: tuple[float, ...]
    evaluations: tuple[tuple[tuple[float, ...], float], ...]
    n_evaluations: int
    converged: bool


def _frame_targets(frames, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack frame times and their segmented joint nodes (base dropped)."""
    times = np.array([f.time for f in frames], dtype=float)
    nodes = np.stack([segment_frame(f, n)[1:] for f in frames])
    return times, nodes


def objective(
    params: DynamicsParams,
    chain: LinkChain,
    geometry: ActuatorGeometry,
    frames,
    trace,
) -> ObjectiveResult:
    """RMS distance (m) between simulated and measured joint positions.

    The chain is simulated from rest under the pressure trace over
    [0, last frame time]. The state at each frame time is read from the
    stepper's collocation polynomials, with no output grid and no
    interpolation, and its joint positions are compared against the
    frame's segmented nodes, all n moving joints weighted equally.
    Divergent simulations score a fixed large penalty instead of
    raising.
    """
    frames = list(frames)
    if not frames:
        raise InvalidInputError("need at least one frame")
    n = len(chain)
    times, targets = _frame_targets(frames, n)
    try:
        states = _states_at(chain, params, geometry, trace, 0.0,
                            float(times.max()), times)
    except DivergenceError:
        return ObjectiveResult(value=_DIVERGENCE_PENALTY, diverged=True)
    positions = joint_positions(chain, states[:, :n])[:, 1:]
    rms = float(np.sqrt(((positions - targets) ** 2).sum() / (len(frames) * n)))
    return ObjectiveResult(value=rms)


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    simplex = np.tile(x0, (len(x0) + 1, 1))
    for i in range(len(x0)):
        if x0[i] != 0.0:
            simplex[i + 1, i] *= 1.05
        else:
            simplex[i + 1, i] = 0.00025
    return simplex


def identify(
    chain: LinkChain,
    geometry: ActuatorGeometry,
    frames,
    trace,
    init: DynamicsParams,
    bounds,
    budget: int,
    per_joint: bool = False,
) -> IdentificationResult:
    """Nelder-Mead fit of (k_b, damping) to measured frames.

    Candidates are clipped to bounds before evaluation, so every probed
    parameter set is feasible. The search stops when the simplex
    diameter falls below 1e-6 or the evaluation budget runs out; the
    best evaluated point is returned either way. Deterministic: no
    randomized restarts.

    bounds is one (low, high) pair per free variable: 2 pairs for the
    shared-damping search, n+1 with per_joint=True.
    """
    frames = list(frames)
    if not frames:
        raise InvalidInputError("need at least one frame")
    if budget < 1:
        raise InvalidInputError(f"budget must be >= 1, got {budget}")
    n = len(chain)
    if per_joint:
        x0 = np.array([init.k_b, *init.damping], dtype=float)
    else:
        damping = set(init.damping)
        if len(damping) != 1:
            raise InvalidInputError(
                "shared-damping search needs a uniform initial damping"
            )
        x0 = np.array([init.k_b, init.damping[0]], dtype=float)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if lo.shape != x0.shape or hi.shape != x0.shape:
        raise InvalidInputError(
            f"expected {len(x0)} bound pairs, got {len(lo)}"
        )
    if np.any(lo > hi) or np.any(x0 < lo) or np.any(x0 > hi):
        raise InvalidInputError("bounds must contain the initial guess")

    def to_params(x: np.ndarray) -> DynamicsParams:
        if per_joint:
            return DynamicsParams(k_b=float(x[0]),
                                  damping=tuple(float(d) for d in x[1:]))
        return DynamicsParams.uniform(float(x[0]), float(x[1]), n)

    evaluations: list[tuple[tuple[float, ...], float]] = []
    best_history: list[float] = []
    state = {"best_x": None, "best_f": np.inf}

    def evaluate(x: np.ndarray) -> float:
        x = np.clip(x, lo, hi)
        value = objective(to_params(x), chain, geometry, frames,
                          trace).value
        evaluations.append((tuple(float(v) for v in x), value))
        if value < state["best_f"]:
            state["best_f"] = value
            state["best_x"] = x.copy()
        best_history.append(state["best_f"])
        return value

    def out_of_budget() -> bool:
        return len(evaluations) >= budget

    simplex = _initial_simplex(x0)
    values = np.empty(len(simplex))
    values[0] = evaluate(simplex[0])
    converged = False
    for i in range(1, len(simplex)):
        if out_of_budget():
            break
        values[i] = evaluate(simplex[i])
    else:
        while not out_of_budget():
            order = np.argsort(values, kind="stable")
            simplex = simplex[order]
            values = values[order]
            diameter = max(
                float(np.linalg.norm(v - simplex[0])) for v in simplex[1:]
            )
            if diameter < _CONVERGENCE_DIAMETER:
                converged = True
                break
            centroid = simplex[:-1].mean(axis=0)
            worst = simplex[-1]
            reflected = centroid + (centroid - worst)
            f_r = evaluate(reflected)
            if f_r < values[0]:
                if out_of_budget():
                    break
                expanded = centroid + 2.0 * (centroid - worst)
                f_e = evaluate(expanded)
                if f_e < f_r:
                    simplex[-1], values[-1] = expanded, f_e
                else:
                    simplex[-1], values[-1] = reflected, f_r
            elif f_r < values[-2]:
                simplex[-1], values[-1] = reflected, f_r
            else:
                if out_of_budget():
                    break
                if f_r < values[-1]:
                    contracted = centroid + 0.5 * (reflected - centroid)
                else:
                    contracted = centroid + 0.5 * (worst - centroid)
                f_c = evaluate(contracted)
                if f_c < min(f_r, values[-1]):
                    simplex[-1], values[-1] = contracted, f_c
                else:
                    for i in range(1, len(simplex)):
                        if out_of_budget():
                            break
                        simplex[i] = simplex[0] + 0.5 * (simplex[i]
                                                         - simplex[0])
                        values[i] = evaluate(simplex[i])

    best_x = np.clip(state["best_x"], lo, hi)
    return IdentificationResult(
        params=to_params(best_x),
        objective_value=float(state["best_f"]),
        best_history=tuple(best_history),
        evaluations=tuple(evaluations),
        n_evaluations=len(evaluations),
        converged=converged,
    )
