"""One-command benchmark of the bendsim CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; bendsim is imported from ./src. One run
generates the workload's inputs from the seed, starts one worker
process (BLAS pinned to one thread) that runs the `bendsim` CLI passes
for S seconds, checks the outputs against the benchmark's own
references, and prints every metric as `name = value unit`. The last
line is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. `--workload all` runs every workload both ways
and prints one table.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 7

END_TO_END = {
    "wall_s": "s",
    "work_rate": "unit/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ref_digits": "digits",
}


def _per_layer_units() -> dict[str, str]:
    from micro import metric_names
    from tracing import LAYERS, STAGE_NAMES

    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"cli.stage.{stage}_s": "s" for stage in STAGE_NAMES})
    units.update({
        "trace.wall_s": "s", "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s", "trace.unspanned_s": "s",
        "integrator.simulate_s": "s", "integrator.simulate_calls": "count",
        "integrator.wall_per_sim_s": "s",
        "integrator.pressure_at_us": "us", "integrator.pressure_at_calls": "count",
        "dynamics.accel_us": "us", "dynamics.accel_calls": "count",
        "kinematics.joint_positions_us": "us",
        "kinematics.joint_positions_calls": "count",
        "identification.objective_s": "s", "identification.objective_calls": "count",
        "identification.diverged_frac": "ratio",
        "identification.improving_frac": "ratio",
        "identification.converged": "bool",
        "reconstruction.segment_frame_us": "us",
        "reconstruction.segment_frame_calls": "count",
        "reconstruction.spline_through_us": "us",
        "reconstruction.spline_through_calls": "count",
        "reconstruction.max_deviation_us": "us",
        "reconstruction.max_deviation_calls": "count",
        "io.parse_frames_s": "s", "io.parse_pressure_s": "s",
        "io.read_trajectory_s": "s", "io.write_s": "s",
        "integrator.tip_err_m": "m", "identification.fit_err_rel": "ratio",
        "identification.fit_obj_m": "m", "reconstruction.dev_err_m": "m",
    })
    for name in metric_names():
        units[name] = "count" if name.endswith("_samples") else "us"
    return units


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def measure_setup(env) -> float:
    """Median seconds from starting a fresh interpreter to bendsim.cli imported."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", "import bendsim.cli; print('ok', flush=True)"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or not line.startswith(b"ok"):
            _fail("a fresh interpreter could not import bendsim.cli")
    return statistics.median(samples)


def _digits(err: float) -> float:
    """Agreement with the reference in decimal digits: -log10(relative error)."""
    if not math.isfinite(err):
        return 0.0
    return -math.log10(max(err, 1e-16))


def _layer_metrics(work: Path, result: dict, checked, units: dict) -> dict:
    from tracing import objective_ratios, summarize

    spans = json.loads((work / result["spans"]).read_text())
    walls = list(zip(result["walls"], result["traced"]))
    traced = [w for w, on in walls if on]
    untraced = [w for w, on in walls if not on]
    summary, calls, inclusive = summarize(spans, len(traced), sum(traced))
    out = dict.fromkeys(units, 0.0)
    out.update(summary)
    out["trace.untraced_wall_s"] = statistics.fmean(untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]

    def per_call(name: str, scale: float = 1.0) -> float:
        count = calls.get(name, 0)
        return inclusive[name] / count * scale if count else 0.0

    sim = "integrator.simulate"
    out["integrator.simulate_s"] = inclusive.get(sim, 0.0)
    out["integrator.simulate_calls"] = calls.get(sim, 0)
    out["integrator.wall_per_sim_s"] = per_call(sim)
    for name in ("integrator.pressure_at", "dynamics.accel",
                 "kinematics.joint_positions", "reconstruction.segment_frame",
                 "reconstruction.spline_through", "reconstruction.max_deviation"):
        out[f"{name}_us"] = per_call(name, 1e6)
        out[f"{name}_calls"] = calls.get(name, 0)
    out["identification.objective_s"] = per_call("identification.objective")
    out["identification.objective_calls"] = calls.get("identification.objective", 0)
    diverged, improving = objective_ratios(spans)
    out["identification.diverged_frac"] = diverged
    out["identification.improving_frac"] = improving
    out["identification.converged"] = checked.quality.get("converged", 0.0)
    for key in ("parse_frames", "parse_pressure", "read_trajectory"):
        out[f"io.{key}_s"] = inclusive.get(f"io.{key}", 0.0)
    out["io.write_s"] = sum(inclusive.get(name, 0.0) for name in
                            ("io.write_trajectory", "io.write_report", "cli.write_json"))
    out["integrator.tip_err_m"] = checked.quality.get("tip_err_m", 0.0)
    out["identification.fit_err_rel"] = checked.quality.get("fit_err_rel", 0.0)
    out["identification.fit_obj_m"] = checked.quality.get("fit_obj_m", 0.0)
    out["reconstruction.dev_err_m"] = checked.quality.get("dev_err_m", 0.0)
    out.update(result["micro"])
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run.

    Returns the contract result, the quality figures, the pass walls and
    the trace targets and microbenchmarks that were missing (their
    metrics read 0 in the result).
    """
    import bendsim
    import bendsim.synthetic  # noqa: F401  (the generator resamples frames with it)
    from workloads import PREPARE, Checked

    env = _env()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        setup_s = None if trace else measure_setup(env)
        prepared = PREPARE[name](bendsim, seed, work)
        job = {"passes": prepared.passes, "outputs": prepared.outputs,
               "seconds": seconds, "trace": trace}
        (work / "job.json").write_text(json.dumps(job))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "job.json", "result.json"],
                cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=2 * seconds + 120)
        except subprocess.TimeoutExpired:
            _fail(f"{name}: worker did not finish in time")
        if proc.returncode != 0:
            _fail(f"{name}: worker failed:\n{proc.stderr.decode()[-2000:]}")
        result = json.loads((work / "result.json").read_text())
        for message in result["warnings"]:
            print(f"warning: {message}", file=sys.stderr)

        try:
            checked = prepared.check(work)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            checked = Checked(problems=[f"unreadable output: {exc!r}"])
        for problem in checked.problems:
            print(f"check failed: {name}: {problem}", file=sys.stderr)
        last = result["digests"][-1]
        failed = sum(
            1 for codes, digest in zip(result["codes"], result["digests"])
            if any(codes) or digest != last or checked.problems)
        walls = result["walls"]
        if trace:
            units = _per_layer_units()
            values = _layer_metrics(work, result, checked, units)
        else:
            units = END_TO_END
            values = {
                "wall_s": statistics.median(walls),
                "work_rate": checked.work / statistics.median(walls),
                "setup_s": setup_s,
                "peak_rss_mb": result["maxrss_kb"] / 1024.0,
                "ref_digits": _digits(checked.ref_err),
            }
        out = {
            "correct": failed == 0,
            "attempted": len(walls),
            "failed": failed,
            "metrics": {key: {"value": float(values[key]), "unit": unit}
                        for key, unit in units.items()},
        }
        quality = dict(checked.quality, failed_frac=failed / len(walls))
        return out, quality, walls, result["missing"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_metrics(name: str, out: dict, quality: dict, walls, missing) -> None:
    from workloads import QUALITY_UNITS

    print(f"# {name}: {out['attempted']} passes, {out['failed']} failed")
    print("pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    if missing:
        print("missing (their metrics read 0): " + ", ".join(missing))
    for key, metric in out["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    for key, value in quality.items():
        print(f"{key} = {value:.6g} {QUALITY_UNITS[key]}")


def run_all(seed: int, seconds: float) -> None:
    from workloads import PREPARE, QUALITY_UNITS, WORK_UNIT

    rows = []
    for name in PREPARE:
        out, quality, walls, missing = run_one(name, seed, seconds, trace=False)
        _print_metrics(name, out, quality, walls, missing)
        traced, _, walls, missing = run_one(name, seed, seconds, trace=True)
        _print_metrics(f"{name} (traced)", traced, {}, walls, missing)
        rows.append((name, out, quality, traced))
    print()
    print(f"{'workload':<20}{'metric':<28}{'value':>14}  unit")
    for name, out, quality, traced in rows:
        for key, metric in out["metrics"].items():
            unit = metric["unit"]
            if key == "work_rate":
                unit = f"{WORK_UNIT[name]}/s"
            print(f"{name:<20}{key:<28}{metric['value']:>14.6g}  {unit}")
        for key, value in quality.items():
            print(f"{name:<20}{key:<28}{value:>14.6g}  {QUALITY_UNITS[key]}")
        metrics = traced["metrics"]
        print(f"{name:<20}{'trace.overhead_s':<28}"
              f"{metrics['trace.overhead_s']['value']:>14.6g}  s")


def main(argv=None) -> int:
    from workloads import PREPARE

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*PREPARE, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bendsim" / "__init__.py").is_file():
        _fail(f"bendsim sources not found under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        run_all(args.seed, args.seconds)
        return 0
    out, quality, walls, missing = run_one(args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    _print_metrics(args.workload, out, quality, walls, missing)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
