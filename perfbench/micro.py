"""Per-call microbenchmarks of single bendsim functions.

Each one times SAMPLES separate calls and reports the median, the 99th
percentile (the highest with at least ten samples beyond it at this
sample count) and the sample count. A function that no longer exists
under its name is reported as missing, not as a crash.
"""

from __future__ import annotations

import io
import time
import warnings

import numpy as np

from actuator import DAMPING, GEOMETRY, K_B

SAMPLES = 1000
PERCENTILE = 99


def _per_call_us(call, scale: float = 1.0) -> list[float]:
    call()
    out = []
    clock = time.perf_counter_ns
    for _ in range(SAMPLES):
        t0 = clock()
        call()
        out.append((clock() - t0) / 1e3 / scale)
    return out


def _stats(base: str, values) -> dict:
    values = np.asarray(values)
    return {
        f"{base}_us": float(np.median(values)),
        f"{base}_p{PERCENTILE}_us": float(np.percentile(values, PERCENTILE)),
        f"{base}_samples": float(len(values)),
    }


def _geometry(bendsim):
    return bendsim.dynamics.ActuatorGeometry(
        r1=GEOMETRY["r1_m"], r2=GEOMETRY["r2_m"], wall=GEOMETRY["wall_m"],
        total_length=GEOMETRY["total_length_m"],
        total_mass=GEOMETRY["total_mass_kg"])


def eom_accel(bendsim, n: int) -> list[float]:
    geometry = _geometry(bendsim)
    chain = bendsim.dynamics.build_chain(geometry, n)
    params = bendsim.dynamics.DynamicsParams.uniform(K_B, DAMPING, n)
    rng = np.random.default_rng(n)
    state = bendsim.kinematics.JointState(q=rng.uniform(-0.3, 0.3, n),
                                          qdot=rng.uniform(-2.0, 2.0, n))
    fn = bendsim.dynamics.eom_accel
    return _per_call_us(lambda: fn(chain, params, geometry, state, 119e3))


def pressure_at(bendsim, samples: int) -> list[float]:
    times = np.arange(samples) * 1e-4
    pressures = np.random.default_rng(samples).uniform(0.0, 2e5, samples)
    trace = bendsim.integrator.PressureTrace(tuple(zip(times, pressures)))
    fn = bendsim.integrator.pressure_at
    queries = iter(np.random.default_rng(1).uniform(0.0, times[-1], SAMPLES + 1))
    return _per_call_us(lambda: fn(trace, next(queries)))


def parse_frames_per_row(bendsim) -> list[float]:
    rng = np.random.default_rng(7)
    rows = ["time_s,point_index,x_m,y_m"]
    count = 213
    y = np.cumsum(rng.uniform(0.0007, 0.0009, count))
    x = rng.normal(0.0, 1e-3, count)
    rows += [f"0,{i},{x[i]:.10g},{y[i]:.10g}" for i in range(count)]
    text = "\n".join(rows) + "\n"
    fn = bendsim.io.parse_frames
    return _per_call_us(lambda: fn(io.StringIO(text)), scale=count)


BENCHES = (
    ("dynamics.eom_accel_n5", lambda b: eom_accel(b, 5)),
    ("dynamics.eom_accel_n8", lambda b: eom_accel(b, 8)),
    ("integrator.pressure_at_1k", lambda b: pressure_at(b, 1_000)),
    ("integrator.pressure_at_50k", lambda b: pressure_at(b, 50_000)),
    ("io.parse_frames_per_row", parse_frames_per_row),
)


def metric_names() -> list[str]:
    names = []
    for name, _ in BENCHES:
        names += list(_stats(name, [0.0]))
    return names


def run_all(bendsim) -> tuple[dict, list[str]]:
    """Every microbenchmark, and the names of those that were skipped.

    One whose target is gone or no longer takes these arguments reads 0
    with a warning.
    """
    out, skipped = {}, []
    for name, bench in BENCHES:
        try:
            out.update(_stats(name, bench(bendsim)))
        except (AttributeError, TypeError) as exc:
            warnings.warn(f"microbenchmark {name} skipped: {exc!r}", stacklevel=2)
            out.update(dict.fromkeys(_stats(name, [0.0]), 0.0))
            skipped.append(name)
    return out, skipped
