"""Command-line pipeline: reconstruct, select-order, simulate, identify, compare.

Each subcommand reads CSV/JSON files, writes machine-readable results
to --out and a short human-readable summary to standard output.
Exit codes: 0 success, 1 I/O failure, 2 invalid input or arguments.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .dynamics import DynamicsParams, build_chain
from .errors import BendsimError, InsufficientDataError, InvalidInputError
from .identification import identify
from .integrator import SimConfig, dominant_frequency, positions_at, simulate
from .io import (
    ModelConfig,
    _jnum,
    _write_json,
    config_to_dict,
    parse_config,
    parse_frames,
    parse_pressure,
    read_trajectory,
    write_report,
    write_trajectory,
)
from .reconstruction import (
    fit_reference_chain,
    frame_to_joint_angles,
    max_deviation,
    segment_frame,
    select_order,
    spline_through,
)

__all__ = ["main"]

# Identification search bounds as factors of the initial guess.
_ID_BOUND_FACTOR = 20.0


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _load_chain(config: ModelConfig):
    reference = None
    if config.reference_path is not None:
        ref_frames = parse_frames(config.reference_path)
        reference = ref_frames[0]
    return build_chain(config.geometry, config.n_links, reference=reference)


def cmd_reconstruct(args) -> int:
    n = args.links
    if n < 2:
        raise InvalidInputError(f"--links must be >= 2, got {n}")
    frames = parse_frames(args.frames)
    if not 0 <= args.reference_index < len(frames):
        raise InvalidInputError(
            f"reference index {args.reference_index} outside 0..{len(frames) - 1}"
        )
    chain = fit_reference_chain(frames[args.reference_index], n)
    out_frames = []
    worst = 0.0
    for frame in frames:
        nodes = segment_frame(frame, n)
        curve = spline_through(nodes)
        mx, mean = max_deviation(curve, frame)
        worst = max(worst, mx)
        out_frames.append(
            {
                "time_s": _jnum(frame.time),
                "nodes_m": [[_jnum(x), _jnum(y)] for x, y in nodes],
                "spline_knots_m": [_jnum(s) for s in curve.knots],
                "q_rad": [_jnum(v) for v in frame_to_joint_angles(frame, chain)],
                "max_deviation_m": _jnum(mx),
                "mean_deviation_m": _jnum(mean),
            }
        )
    doc = {
        "links": n,
        "reference_index": args.reference_index,
        "reference": {
            "lengths_m": [_jnum(v) for v in chain.lengths],
            "offsets_rad": [_jnum(v) for v in chain.offsets],
        },
        "frames": out_frames,
    }
    _write_json(doc, args.out)
    print(f"reconstructed {len(frames)} frames with {n} links")
    print(f"worst max deviation: {worst:.6g} m")
    return 0


def cmd_select_order(args) -> int:
    if args.min < 2:
        raise InvalidInputError(f"--min must be >= 2, got {args.min}")
    if args.min > args.max:
        raise InvalidInputError(
            f"--min must not exceed --max, got {args.min} > {args.max}"
        )
    frames = parse_frames(args.frames)
    report = select_order(frames, range(args.min, args.max + 1),
                          args.threshold_m)
    write_report(report, args.out)
    print(f"chosen n = {report.chosen_n}")
    if not report.threshold_met:
        print(f"threshold {args.threshold_m} m not met by any candidate")
    return 0


def cmd_simulate(args) -> int:
    config = parse_config(args.config)
    trace = parse_pressure(args.pressure)
    if args.t_end <= 0:
        raise InvalidInputError(f"--t-end must be > 0, got {args.t_end}")
    if args.dt_out <= 0 or args.dt_out > args.t_end:
        raise InvalidInputError(
            f"--dt-out must be in (0, t_end], got {args.dt_out}"
        )
    chain = _load_chain(config)
    sim_config = SimConfig(t_start=0.0, t_end=args.t_end,
                           output_rate=1.0 / args.dt_out)
    trajectory = simulate(chain, config.params, config.geometry, trace,
                          sim_config)
    write_trajectory(trajectory, args.out)
    final_q = ", ".join(f"{v:.6g}" for v in trajectory.q[-1])
    print(f"samples: {len(trajectory.times)}")
    print(f"final q (rad): [{final_q}]")
    try:
        freq = dominant_frequency(trajectory, 0, (0.0, args.t_end))
        print(f"dominant frequency (joint 1): {freq:.4g} Hz")
    except InsufficientDataError:
        print("dominant frequency: not measurable (too few oscillations)")
    return 0


def cmd_identify(args) -> int:
    config = parse_config(args.config)
    frames = parse_frames(args.frames)
    trace = parse_pressure(args.pressure)
    frame_times = [f.time for f in frames]
    if min(frame_times) > trace.times[-1] or max(frame_times) < trace.times[0]:
        raise InvalidInputError(
            "frame and pressure time ranges do not overlap"
        )
    chain = _load_chain(config)
    init = config.params
    if len(set(init.damping)) != 1:
        raise InvalidInputError(
            "identification needs a uniform initial damping in the config"
        )
    bounds = [
        (init.k_b / _ID_BOUND_FACTOR, init.k_b * _ID_BOUND_FACTOR),
        (init.damping[0] / _ID_BOUND_FACTOR,
         init.damping[0] * _ID_BOUND_FACTOR),
    ]
    t_last = max(frame_times)
    sim_config = SimConfig(t_end=t_last if t_last > 0 else 1.0,
                           output_rate=500.0)
    result = identify(chain, config.geometry, frames, trace, init, bounds,
                      budget=args.budget, config=sim_config)
    fitted = ModelConfig(
        geometry=config.geometry,
        n_links=config.n_links,
        params=result.params,
        reference_path=config.reference_path,
    )
    doc = {
        "config": config_to_dict(fitted),
        "objective_m": _jnum(result.objective_value),
        "best_history_m": [_jnum(v) for v in result.best_history],
        "n_evaluations": result.n_evaluations,
        "converged": result.converged,
    }
    _write_json(doc, args.out)
    damping = ", ".join(f"{d:.6g}" for d in result.params.damping)
    print(f"fitted k_b: {result.params.k_b:.6g}")
    print(f"fitted damping: [{damping}]")
    print(f"objective: {result.objective_value:.6g} m "
          f"({result.n_evaluations} evaluations)")
    return 0


def cmd_compare(args) -> int:
    trajectory = read_trajectory(args.traj)
    frames = parse_frames(args.frames)
    n = args.links
    if trajectory.n_joints != n:
        raise InvalidInputError(
            f"trajectory has {trajectory.n_joints} joints, --links says {n}"
        )
    t0, t1 = trajectory.times[0], trajectory.times[-1]
    usable = [f for f in frames if t0 <= f.time <= t1]
    if not usable:
        raise InvalidInputError(
            "no frames fall inside the trajectory time span"
        )
    header = ["time_s"]
    for j in range(n + 1):
        header += [f"x_meas_{j}", f"y_meas_{j}", f"x_sim_{j}", f"y_sim_{j}",
                   f"err_{j}"]
    sq_sum = 0.0
    count = 0
    worst = 0.0
    with open(args.out, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for frame in usable:
            measured = segment_frame(frame, n)
            simulated = positions_at(trajectory, frame.time)
            err = np.hypot(*(measured - simulated).T)
            sq_sum += float((err**2).sum())
            count += len(err)
            worst = max(worst, float(err.max()))
            cells = [f"{frame.time:.10g}"]
            for j in range(n + 1):
                cells += [
                    f"{measured[j, 0]:.10g}", f"{measured[j, 1]:.10g}",
                    f"{simulated[j, 0]:.10g}", f"{simulated[j, 1]:.10g}",
                    f"{err[j]:.10g}",
                ]
            fh.write(",".join(cells) + "\n")
    rms = float(np.sqrt(sq_sum / count))
    print(f"frames compared: {len(usable)}")
    print(f"rms error: {rms:.6g} m")
    print(f"max error: {worst:.6g} m")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bendsim",
        description="Reduced-order modeling of soft bending actuators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct",
                       help="segment frames and fit splines through the nodes")
    p.add_argument("--frames", required=True)
    p.add_argument("--links", type=int, required=True)
    p.add_argument("--reference-index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("select-order",
                       help="sweep link counts and pick the smallest adequate")
    p.add_argument("--frames", required=True)
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--threshold-m", type=_finite_float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select_order)

    p = sub.add_parser("simulate",
                       help="integrate the chain under a pressure trace")
    p.add_argument("--config", required=True)
    p.add_argument("--pressure", required=True)
    p.add_argument("--t-end", type=_finite_float, required=True)
    p.add_argument("--dt-out", type=_finite_float, default=1e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify",
                       help="fit stiffness and damping to measured frames")
    p.add_argument("--config", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--pressure", required=True)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("compare",
                       help="score a simulated trajectory against frames")
    p.add_argument("--traj", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--links", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BendsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
