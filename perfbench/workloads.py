"""Seeded inputs, command lines and output checks of the four workloads.

Every workload runs the benchmark actuator (default geometry, k_b =
1.6067, damping 0.008). The seed only jitters the generated inputs; the
program sees nothing but the files written here. Each `prepare_*`
returns the argv lists of one pass and a `check` that judges the files
a pass wrote against references computed here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

N_LINKS = 5
SPACING = 0.0008
TIP_TOL_M = 1e-3          # a trajectory further off than this is wrong
DEV_TOL_REL = 1e-6        # a reported deviation further off than this is wrong

WORK_UNIT = {
    "simulate_pulse": "simulated s",
    "identify_fit": "objective evaluations",
    "select_order_dense": "frame x candidate pairs",
    "replay_logged": "logged pressure samples",
}

QUALITY_UNITS = {
    "tip_err_m": "m", "fit_err_rel": "ratio", "fit_obj_m": "m", "dev_err_m": "m",
    "compare_max_err_m": "m", "converged": "bool", "chosen_n": "links",
    "failed_frac": "ratio",
}


@dataclass
class Checked:
    """Outcome of checking one pass's outputs."""

    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    ref_err: float = float("nan")   # relative error against the reference
    work: float = 0.0               # work units done by one pass


@dataclass
class Prepared:
    passes: list[list[str]]         # argv of each bendsim call in one pass
    outputs: list[str]              # files a pass writes
    check: Callable[[Path], Checked]


# ---------------------------------------------------------------- writers

def _num(x: float) -> str:
    return repr(float(x))


def write_config(path: Path, k_b: float, damping: float) -> None:
    doc = {"geometry": ref.GEOMETRY, "n_links": N_LINKS,
           "params": {"k_b": k_b, "damping": [damping] * N_LINKS}}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def write_pressure(path: Path, times, pressures) -> None:
    lines = ["time_s,pressure_pa"]
    lines += [f"{_num(t)},{_num(p)}" for t, p in zip(times, pressures)]
    path.write_text("\n".join(lines) + "\n")


def write_frames(path: Path, frames) -> None:
    lines = ["time_s,point_index,x_m,y_m"]
    for t, points in frames:
        lines += [f"{_num(t)},{i},{_num(x)},{_num(y)}"
                  for i, (x, y) in enumerate(points)]
    path.write_text("\n".join(lines) + "\n")


def dense_frames(bendsim, model, times, q, rng, noise_m: float):
    """Sensor-like frames: the shape resampled at SPACING plus seeded noise."""
    resample = bendsim.synthetic.resample_polyline
    frames = []
    for t, qk in zip(times, q):
        points = resample(model.joint_positions(qk), SPACING)
        points[1:] += rng.normal(0.0, noise_m, points[1:].shape)
        frames.append((float(t), points))
    return frames


# ---------------------------------------------------------------- readers

def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _check_trajectory(path: Path, model, t_end: float, dt_out: float,
                      q_ref: np.ndarray, out: Checked):
    """Shape, time grid and kinematic consistency of a trajectory CSV."""
    n = model.n
    header, data = _read_table(path)
    expected = (["time_s"] + [f"q_{i}" for i in range(1, n + 1)]
                + [f"qdot_{i}" for i in range(1, n + 1)]
                + [c for j in range(n + 1) for c in (f"x_{j}", f"y_{j}")])
    if header != expected:
        out.problems.append(f"{path.name}: unexpected header")
        return None
    count = int(math.floor(t_end / dt_out + 1e-9)) + 1
    if data.shape != (count, len(expected)) or not np.all(np.isfinite(data)):
        out.problems.append(f"{path.name}: shape {data.shape} or non-finite values")
        return None
    if np.abs(data[:, 0] - np.arange(count) * dt_out).max() > 1e-9:
        out.problems.append(f"{path.name}: output times off the grid")
    q = data[:, 1:1 + n]
    positions = data[:, 1 + 2 * n:].reshape(count, n + 1, 2)
    if np.abs(positions - model.joint_positions(q)).max() > 1e-8:
        out.problems.append(f"{path.name}: positions disagree with q")
    tip_ref = model.joint_positions(q_ref)[:, -1]
    tip_err = float(np.hypot(*(positions[:, -1] - tip_ref).T).max())
    out.quality["tip_err_m"] = tip_err
    out.ref_err = tip_err / float(model.lengths.sum())
    if not tip_err <= TIP_TOL_M:
        out.problems.append(f"{path.name}: tip error {tip_err:.3g} m")
    return data


# -------------------------------------------------------------- workloads

def prepare_simulate_pulse(bendsim, seed: int, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 1])
    t_end, dt_out = 3.0, 1e-3
    # Edges move by whole output steps: where an edge falls inside an
    # output interval sets the seed integrator's error (1e-9 to 3e-8 m),
    # which would make the accuracy figure depend on the seed.
    on_ms, off_ms = 120 + rng.integers(-2, 3), 2880 + rng.integers(-2, 3)
    height = 119e3 * (1 + rng.uniform(-0.01, 0.01))
    times, pressures = [0.0, on_ms / 1000, off_ms / 1000], [0.0, height, 0.0]
    write_config(work / "config.json", ref.K_B, ref.DAMPING)
    write_pressure(work / "pressure.csv", times, pressures)
    model = ref.ChainModel(N_LINKS, ref.K_B, ref.DAMPING)
    grid = np.arange(int(round(t_end / dt_out)) + 1) * dt_out
    q_ref, _ = ref.reference_solve(model, times, pressures, t_end, grid)

    def check(work: Path) -> Checked:
        out = Checked(work=t_end)
        _check_trajectory(work / "traj.csv", model, t_end, dt_out, q_ref, out)
        return out

    argv = ["simulate", "--config", "config.json", "--pressure", "pressure.csv",
            "--t-end", repr(t_end), "--dt-out", repr(dt_out), "--out", "traj.csv"]
    return Prepared([argv], ["traj.csv"], check)


ID_BUDGET = 10
ID_WINDOW_S = 0.4
ID_FRAMES = 9
# The seed only draws the frame noise. At the seed code the objective is
# an RK4 artefact whose landscape is chaotic in the parameters: moving the
# start or the pulse by 0.1 % changes the fitted values by 0.25-0.6 and a
# pass's wall time by 2.5x, so the start is a fixed offset from the truth.
ID_OFFSET = 1.25


def prepare_identify_fit(bendsim, seed: int, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 2])
    times, pressures = [0.0, 0.05, 10.0], [0.0, 119e3, 0.0]
    model = ref.ChainModel(N_LINKS, ref.K_B, ref.DAMPING)
    frame_times = np.linspace(0.0, ID_WINDOW_S, ID_FRAMES)
    q, _ = ref.reference_solve(model, times, pressures, ID_WINDOW_S, frame_times)
    frames = dense_frames(bendsim, model, frame_times, q, rng, noise_m=1e-4)
    k_init, c_init = ref.K_B * ID_OFFSET, ref.DAMPING * ID_OFFSET
    write_config(work / "config.json", k_init, c_init)
    write_pressure(work / "pressure.csv", times, pressures)
    write_frames(work / "frames.csv", frames)

    def check(work: Path) -> Checked:
        out = Checked()
        doc = json.loads((work / "fitted.json").read_text())
        params = doc["config"]["params"]
        k_b, damping = params["k_b"], params["damping"]
        history = doc["best_history_m"]
        evaluations = doc["n_evaluations"]
        out.work = float(evaluations)
        if len(damping) != N_LINKS or len(set(damping)) != 1:
            out.problems.append("fitted damping is not uniform over the links")
        for value, init in ((k_b, k_init), (damping[0], c_init)):
            if not init / 20 * (1 - 1e-9) <= value <= init * 20 * (1 + 1e-9):
                out.problems.append(f"fitted value {value} outside the bounds")
        if not (1 <= evaluations <= ID_BUDGET and len(history) == evaluations):
            out.problems.append(f"{evaluations} evaluations for budget {ID_BUDGET}")
        if evaluations < ID_BUDGET and not doc["converged"]:
            out.problems.append("stopped before the budget without converging")
        if any(b > a for a, b in zip(history, history[1:])):
            out.problems.append("best_history increases")
        if not (math.isfinite(doc["objective_m"]) and history
                and doc["objective_m"] == history[-1]):
            out.problems.append("objective_m is not the last best value")
        fit_err = max(abs(k_b / ref.K_B - 1), abs(damping[0] / ref.DAMPING - 1))
        out.quality.update(fit_err_rel=fit_err, fit_obj_m=doc["objective_m"],
                           converged=float(doc["converged"]))
        out.ref_err = fit_err
        return out

    argv = ["identify", "--config", "config.json", "--frames", "frames.csv",
            "--pressure", "pressure.csv", "--budget", str(ID_BUDGET),
            "--out", "fitted.json"]
    return Prepared([argv], ["fitted.json"], check)


ORDER_FRAMES = 30
ORDER_CANDIDATES = range(2, 9)
ORDER_THRESHOLD_M = 0.003
ORDER_CHECKED_FRAMES = 4


def prepare_select_order_dense(bendsim, seed: int, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 3])
    model = ref.ChainModel(N_LINKS, ref.K_B, ref.DAMPING)
    # Bends grow from straight to about 2 rad in total over the sequence,
    # each joint jittered around the common angle.
    bend = np.linspace(0.0, 0.4, ORDER_FRAMES)[:, None]
    q = bend * (1 + rng.uniform(-0.3, 0.3, (ORDER_FRAMES, N_LINKS)))
    times = np.arange(ORDER_FRAMES) * 0.01
    frames = dense_frames(bendsim, model, times, q, rng, noise_m=2e-5)
    write_frames(work / "frames.csv", frames)
    checked = sorted(rng.choice(ORDER_FRAMES, ORDER_CHECKED_FRAMES, replace=False))
    oracle = {(n, f): ref.oracle_max_deviation(frames[f][1], n)
              for n in ORDER_CANDIDATES for f in checked}

    def check(work: Path) -> Checked:
        out = Checked(work=float(ORDER_FRAMES * len(ORDER_CANDIDATES)))
        doc = json.loads((work / "report.json").read_text())
        cands = doc["candidates"]
        if [c["n"] for c in cands] != list(ORDER_CANDIDATES):
            out.problems.append("candidate list differs from 2..8")
            return out
        worst_gap = worst_m = 0.0
        for c in cands:
            per_frame = c["per_frame_max_m"]
            if len(per_frame) != ORDER_FRAMES:
                out.problems.append(f"n={c['n']}: {len(per_frame)} frame errors")
                return out
            if not math.isclose(c["max_error_m"], max(per_frame), rel_tol=1e-9):
                out.problems.append(f"n={c['n']}: max_error is not the frame max")
            for f in checked:
                want = oracle[(c["n"], f)]
                worst_m = max(worst_m, abs(per_frame[f] - want))
                worst_gap = max(worst_gap, abs(per_frame[f] - want) / want)
        meeting = [c["n"] for c in cands if c["max_error_m"] < ORDER_THRESHOLD_M]
        chosen = (min(meeting) if meeting else
                  min(cands, key=lambda c: c["max_error_m"])["n"])
        if doc["chosen_n"] != chosen or doc["threshold_met"] != bool(meeting):
            out.problems.append(f"chose n={doc['chosen_n']}, expected {chosen}")
        if worst_gap > DEV_TOL_REL:
            out.problems.append(f"deviation off the oracle by {worst_gap:.3g}")
        out.quality["dev_err_m"] = worst_m
        out.quality["chosen_n"] = float(doc["chosen_n"])
        out.ref_err = worst_gap
        return out

    argv = ["select-order", "--frames", "frames.csv", "--min", "2", "--max", "8",
            "--threshold-m", repr(ORDER_THRESHOLD_M), "--out", "report.json"]
    return Prepared([argv], ["report.json"], check)


REPLAY_RATE_HZ = 10_000
REPLAY_S = 0.6
REPLAY_FRAME_DT = 2e-3
ADC_STEP_PA = 1e6 / 4096     # 12-bit logger over 0..1 MPa


def logged_pressure(rng) -> tuple[np.ndarray, np.ndarray]:
    """A quantized noisy pulse: onset ramp, three ripple tones, 12-bit steps."""
    t = np.arange(int(round(REPLAY_S * REPLAY_RATE_HZ))) / REPLAY_RATE_HZ
    onset = 0.05 + rng.uniform(-1e-3, 1e-3)
    height = 119e3 * (1 + rng.uniform(-0.01, 0.01))
    level = height * np.clip((t - onset) / 2e-3, 0.0, 1.0)
    freqs = rng.uniform(5.0, 30.0, 3)
    phases = rng.uniform(0.0, 2 * np.pi, 3)
    ripple = 200.0 * np.sin(2 * np.pi * freqs[:, None] * t + phases[:, None]).sum(0)
    p = np.where(level > 0, level + ripple, 0.0)
    return t, np.round(p / ADC_STEP_PA) * ADC_STEP_PA


def prepare_replay_logged(bendsim, seed: int, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 4])
    times, pressures = logged_pressure(rng)
    dt_out = 1e-3
    model = ref.ChainModel(N_LINKS, ref.K_B, ref.DAMPING)
    grid = np.arange(int(round(REPLAY_S / dt_out)) + 1) * dt_out
    q_ref, _ = ref.reference_solve(model, times, pressures, REPLAY_S, grid)
    step = int(round(REPLAY_FRAME_DT / dt_out))
    frames = dense_frames(bendsim, model, grid[::step], q_ref[::step], rng,
                          noise_m=1e-4)
    write_config(work / "config.json", ref.K_B, ref.DAMPING)
    write_pressure(work / "pressure.csv", times, pressures)
    write_frames(work / "frames.csv", frames)
    node_sets = [ref.segment_nodes(points, N_LINKS) for _, points in frames]

    def check(work: Path) -> Checked:
        out = Checked(work=float(len(times)))
        traj = _check_trajectory(work / "traj.csv", model, REPLAY_S, dt_out,
                                 q_ref, out)
        if traj is None:
            return out
        header, data = _read_table(work / "comparison.csv")
        n = N_LINKS
        if len(header) != 1 + 5 * (n + 1) or data.shape[0] != len(frames):
            out.problems.append("comparison.csv has the wrong shape")
            return out
        cells = data[:, 1:].reshape(len(data), n + 1, 5)
        measured, simulated, err = cells[..., 0:2], cells[..., 2:4], cells[..., 4]
        positions = traj[:, 1 + 2 * n:].reshape(len(traj), n + 1, 2)
        tgrid = traj[:, 0]
        for k, (t, _) in enumerate(frames):
            j = min(int(np.searchsorted(tgrid, t, side="right")) - 1, len(tgrid) - 2)
            w = (t - tgrid[j]) / (tgrid[j + 1] - tgrid[j])
            want = (1 - w) * positions[j] + w * positions[j + 1]
            if (abs(data[k, 0] - t) > 1e-9
                    or np.abs(measured[k] - node_sets[k]).max() > 1e-9
                    or np.abs(simulated[k] - want).max() > 1e-9):
                out.problems.append(f"comparison row {k} disagrees")
                break
        if np.abs(err - np.hypot(*np.moveaxis(measured - simulated, -1, 0))).max() > 1e-9:
            out.problems.append("comparison err column is not the distance")
        out.quality["compare_max_err_m"] = float(err.max())
        return out

    sim = ["simulate", "--config", "config.json", "--pressure", "pressure.csv",
           "--t-end", repr(REPLAY_S), "--dt-out", repr(dt_out), "--out", "traj.csv"]
    cmp = ["compare", "--traj", "traj.csv", "--frames", "frames.csv",
           "--links", str(N_LINKS), "--out", "comparison.csv"]
    return Prepared([sim, cmp], ["traj.csv", "comparison.csv"], check)


PREPARE = {
    "simulate_pulse": prepare_simulate_pulse,
    "identify_fit": prepare_identify_fit,
    "select_order_dense": prepare_select_order_dense,
    "replay_logged": prepare_replay_logged,
}
