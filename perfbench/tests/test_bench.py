"""Tests of the benchmark itself: generator, reference rhs, spans, wrappers.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import bendsim
import bendsim.synthetic  # noqa: F401
import micro
import reference as ref
import run
import tracing
from bendsim.dynamics import ActuatorGeometry, DynamicsParams, build_chain, eom_accel
from bendsim.kinematics import JointState
from workloads import PREPARE

ROOT = Path(__file__).resolve().parents[2]


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(PREPARE))
def test_generator_is_deterministic_in_the_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        PREPARE[name](bendsim, seed, d)
    first, again, other = (_files(d) for d in dirs)
    assert first and first == again
    assert first != other


@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_reference_rhs_matches_eom_accel(n):
    geometry = ActuatorGeometry(r1=0.014, r2=0.010, wall=0.004,
                                total_length=0.17, total_mass=0.069)
    rng = np.random.default_rng(n)
    damping = rng.uniform(0.001, 0.02, n)
    params = DynamicsParams(k_b=1.6067, damping=tuple(damping))
    chain = build_chain(geometry, n)
    model = ref.ChainModel(n, 1.6067, damping)
    for _ in range(20):
        q = rng.uniform(-1.0, 1.0, n)
        qdot = rng.uniform(-5.0, 5.0, n)
        p = rng.uniform(-5e4, 2e5)
        want = eom_accel(chain, params, geometry, JointState(q=q, qdot=qdot), p)
        got = model.accel(q, qdot, model.torque(p))
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    spans = [
        ("cli.main", -1, 0.0, 10.0, None),
        ("integrator.simulate", 0, 1.0, 4.0, None),
        ("integrator.pressure_at", 1, 2.0, 3.0, None),
        ("io.write_trajectory", 0, 5.0, 9.0, None),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    summary, calls, inclusive = tracing.summarize(spans, passes=1, pass_wall_s=10.5)
    assert calls == {"cli.main": 1, "integrator.simulate": 1,
                     "integrator.pressure_at": 1, "io.write_trajectory": 1}
    assert inclusive["integrator.simulate"] == pytest.approx(3.0)
    assert summary["cli.self_s"] == pytest.approx(3.0)
    assert summary["integrator.self_s"] == pytest.approx(3.0)
    assert summary["io.self_s"] == pytest.approx(4.0)
    assert summary["cli.stage.simulate_s"] == pytest.approx(3.0)
    assert summary["cli.stage.write_s"] == pytest.approx(4.0)
    assert summary["trace.unspanned_s"] == pytest.approx(0.5)
    layers = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + summary["trace.unspanned_s"] == pytest.approx(10.5)


def test_objective_ratios():
    note = lambda value, diverged: [value, diverged]  # noqa: E731
    spans = [
        ("identification.identify", -1, 0, 9, None),
        ("identification.objective", 0, 1, 2, note(3.0, False)),
        ("identification.objective", 0, 2, 3, note(1e6, True)),
        ("identification.objective", 0, 3, 4, note(2.0, False)),
        ("identification.objective", 0, 4, 5, note(2.5, False)),
    ]
    assert tracing.objective_ratios(spans) == (0.25, 0.5)


def test_missing_wrapper_target_warns_and_keeps_tracing():
    module = types.ModuleType("perfbench_fake_target")
    module.present = lambda x: x + 1
    sys.modules[module.__name__] = module
    try:
        tracer = tracing.Tracer(targets=(
            (module.__name__, "present", "integrator.present"),
            (module.__name__, "renamed_away", "integrator.gone"),
            ("perfbench_no_such_module", "f", "io.f"),
        ))
        with pytest.warns(UserWarning) as record:
            tracer.install()
        assert module.present(1) == 2
        tracer.uninstall()
        assert module.present(1) == 2
    finally:
        del sys.modules[module.__name__]
    assert [s[0] for s in tracer.spans] == ["integrator.present"]
    assert tracer.missing == [f"{module.__name__}.renamed_away",
                              "perfbench_no_such_module.f"]
    assert len(record) == 2
    _, calls, _ = tracing.summarize(tracer.spans, passes=1, pass_wall_s=1.0)
    assert calls == {"integrator.present": 1}


def test_missing_microbenchmark_target_reads_zero():
    fake = types.SimpleNamespace(dynamics=types.SimpleNamespace(),
                                 integrator=bendsim.integrator,
                                 kinematics=bendsim.kinematics,
                                 io=types.SimpleNamespace())
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out, skipped = micro.run_all(fake)
    assert skipped == ["dynamics.eom_accel_n5", "dynamics.eom_accel_n8",
                       "io.parse_frames_per_row"]
    assert out["dynamics.eom_accel_n5_us"] == 0.0
    assert out["io.parse_frames_per_row_us"] == 0.0
    assert out["integrator.pressure_at_1k_us"] > 0.0
    assert out["integrator.pressure_at_1k_samples"] == micro.SAMPLES
    assert sum("skipped" in str(w.message) for w in seen) == 3
    assert set(out) == set(micro.metric_names())


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run._per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(PREPARE)


def test_untraced_worker_loads_only_the_program(tmp_path):
    # peak_rss_mb is the worker's; the benchmark's own scipy.integrate
    # (reference solve) and microbenchmarks must not be in it.
    job = {"passes": [], "outputs": [], "seconds": 0.0, "trace": False}
    (tmp_path / "job.json").write_text(json.dumps(job))
    code = ("import sys, worker; worker.main('job.json', 'result.json'); "
            "print(sorted(m for m in ('scipy.integrate', 'micro', 'reference', "
            "'tracing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=run._env(), capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["micro"] == {} and result["missing"] == []


def test_report_names_what_is_missing(capsys):
    out = {"attempted": 2, "failed": 0,
           "metrics": {"dynamics.eom_accel_n5_us": {"value": 0.0, "unit": "us"}}}
    run._print_metrics("w", out, {}, [1.0, 1.0],
                       ["bendsim.integrator._accel", "microbenchmark dynamics.eom_accel_n5"])
    text = capsys.readouterr().out
    assert ("missing (their metrics read 0): bendsim.integrator._accel, "
            "microbenchmark dynamics.eom_accel_n5") in text
