import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bendsim
from bendsim.cli import main
from bendsim.dynamics import ActuatorGeometry, DynamicsParams, build_chain
from bendsim.integrator import PressureTrace, SimConfig, simulate
from bendsim.io import ModelConfig, read_trajectory, write_config
from bendsim.synthetic import node_frames_from_trajectory, straight_frame

GEOMETRY = ActuatorGeometry(r1=0.014, r2=0.010, wall=0.004,
                            total_length=0.17, total_mass=0.069)


def write_frames_csv(path, frames):
    with open(path, "w", newline="") as fh:
        fh.write("time_s,point_index,x_m,y_m\n")
        for frame in frames:
            for i, (x, y) in enumerate(frame.points):
                fh.write(f"{frame.time:.10g},{i},{x:.10g},{y:.10g}\n")


def write_pressure_csv(path, samples):
    with open(path, "w", newline="") as fh:
        fh.write("time_s,pressure_pa\n")
        for t, p in samples:
            fh.write(f"{t:.10g},{p:.10g}\n")


@pytest.fixture
def straight_csv(tmp_path):
    path = tmp_path / "frames.csv"
    frames = [straight_frame(spacing=0.005, time=0.0),
              straight_frame(spacing=0.005, time=1.0)]
    write_frames_csv(path, frames)
    return str(path)


@pytest.fixture
def one_link_config(tmp_path):
    path = tmp_path / "config.json"
    write_config(ModelConfig(geometry=GEOMETRY, n_links=1,
                             params=DynamicsParams.uniform(1.6067, 0.05, 1)),
                 path)
    return str(path)


class TestReconstruct:
    def test_straight_frames(self, straight_csv, tmp_path, capsys):
        out = tmp_path / "recon.json"
        code = main(["reconstruct", "--frames", straight_csv,
                     "--links", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["links"] == 2
        assert doc["reference_index"] == 0
        assert sum(doc["reference"]["lengths_m"]) == pytest.approx(
            0.17, abs=1e-9)
        assert len(doc["frames"]) == 2
        for frame in doc["frames"]:
            assert frame["max_deviation_m"] < 1e-9
            assert frame["mean_deviation_m"] <= frame["max_deviation_m"]
            assert np.allclose(frame["q_rad"], 0.0, atol=1e-9)
            assert len(frame["nodes_m"]) == 3
        assert "worst max deviation" in capsys.readouterr().out

    def test_one_link_rejected_up_front(self, straight_csv, tmp_path, capsys):
        code = main(["reconstruct", "--frames", straight_csv, "--links", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "--links must be >= 2, got 1" in capsys.readouterr().err

    def test_reference_index_out_of_range(self, straight_csv, tmp_path):
        code = main(["reconstruct", "--frames", straight_csv, "--links", "2",
                     "--reference-index", "7",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_missing_frames_file(self, tmp_path):
        code = main(["reconstruct", "--frames", str(tmp_path / "nope.csv"),
                     "--links", "2", "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_malformed_frames_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,i,x,y\n0,0,0,0\n")
        code = main(["reconstruct", "--frames", str(bad), "--links", "2",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_unwritable_output(self, straight_csv, tmp_path):
        out = tmp_path / "no_such_dir" / "r.json"
        code = main(["reconstruct", "--frames", straight_csv, "--links", "2",
                     "--out", str(out)])
        assert code == 1


class TestSelectOrder:
    def test_straight_chooses_minimum(self, straight_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["select-order", "--frames", straight_csv,
                     "--min", "2", "--max", "4", "--threshold-m", "0.003",
                     "--out", str(out)])
        assert code == 0
        assert "chosen n = 2" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["chosen_n"] == 2
        assert doc["threshold_met"] is True
        assert [c["n"] for c in doc["candidates"]] == [2, 3, 4]

    def test_min_above_max(self, straight_csv, tmp_path):
        code = main(["select-order", "--frames", straight_csv,
                     "--min", "5", "--max", "3", "--threshold-m", "0.003",
                     "--out", str(tmp_path / "report.json")])
        assert code == 2

    def test_min_below_one(self, straight_csv, tmp_path, capsys):
        for low in ("0", "1"):
            code = main(["select-order", "--frames", straight_csv,
                         "--min", low, "--max", "3", "--threshold-m", "0.003",
                         "--out", str(tmp_path / "report.json")])
            assert code == 2
            assert f"--min must be >= 2, got {low}" in capsys.readouterr().err


class TestSimulate:
    def test_zero_pressure_stays_at_rest(self, one_link_config, tmp_path):
        pressure = tmp_path / "zero.csv"
        write_pressure_csv(pressure, [(0.0, 0.0)])
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", one_link_config,
                     "--pressure", str(pressure), "--t-end", "0.2",
                     "--dt-out", "0.01", "--out", str(out)])
        assert code == 0
        traj = read_trajectory(out)
        assert np.all(traj.q == 0.0)
        assert np.all(traj.qdot == 0.0)
        assert np.allclose(traj.positions, traj.positions[0])

    def test_constant_pressure_reaches_equilibrium(self, one_link_config,
                                                   tmp_path, capsys):
        pressure = tmp_path / "hold.csv"
        write_pressure_csv(pressure, [(0.0, 119e3)])
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", one_link_config,
                     "--pressure", str(pressure), "--t-end", "3.0",
                     "--dt-out", "0.01", "--out", str(out)])
        assert code == 0
        traj = read_trajectory(out)
        q_eq = (2.0 / 3.0) * 119e3 * 0.010**3 / 1.6067
        assert traj.q[-1, 0] == pytest.approx(q_eq, abs=1e-4)
        assert "final q" in capsys.readouterr().out

    def test_nonpositive_t_end(self, one_link_config, tmp_path):
        pressure = tmp_path / "zero.csv"
        write_pressure_csv(pressure, [(0.0, 0.0)])
        code = main(["simulate", "--config", one_link_config,
                     "--pressure", str(pressure), "--t-end", "0",
                     "--out", str(tmp_path / "traj.csv")])
        assert code == 2

    def test_dt_out_beyond_t_end(self, one_link_config, tmp_path):
        pressure = tmp_path / "zero.csv"
        write_pressure_csv(pressure, [(0.0, 0.0)])
        code = main(["simulate", "--config", one_link_config,
                     "--pressure", str(pressure), "--t-end", "0.1",
                     "--dt-out", "0.5", "--out", str(tmp_path / "traj.csv")])
        assert code == 2


@pytest.fixture(scope="class")
def identify_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("identify")
    params = DynamicsParams.uniform(1.6067, 0.008, 3)
    chain = build_chain(GEOMETRY, 3)
    trace = PressureTrace.rectangular(0.05, 0.2, 119e3)
    traj = simulate(chain, params, GEOMETRY, trace,
                    SimConfig(t_end=0.4, output_rate=500))
    frames = node_frames_from_trajectory(traj, np.linspace(0.1, 0.4, 4))
    frames_path = tmp / "frames.csv"
    write_frames_csv(frames_path, frames)
    pressure_path = tmp / "pressure.csv"
    write_pressure_csv(pressure_path, trace.samples)
    config_path = tmp / "config.json"
    write_config(ModelConfig(geometry=GEOMETRY, n_links=3,
                             params=DynamicsParams.uniform(2.0, 0.01, 3)),
                 config_path)
    return tmp, str(config_path), str(frames_path), str(pressure_path)


class TestIdentify:
    def test_budget_one_returns_initial_guess(self, identify_setup, capsys):
        tmp, config, frames, pressure = identify_setup
        out = tmp / "fit.json"
        code = main(["identify", "--config", config, "--frames", frames,
                     "--pressure", pressure, "--budget", "1",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_evaluations"] == 1
        assert doc["config"]["params"]["k_b"] == pytest.approx(2.0)
        assert doc["config"]["params"]["damping"] == pytest.approx([0.01] * 3)
        assert doc["converged"] is False
        assert len(doc["best_history_m"]) == 1
        assert "fitted k_b" in capsys.readouterr().out

    def test_non_uniform_initial_damping(self, identify_setup, tmp_path):
        tmp, _, frames, pressure = identify_setup
        config = tmp_path / "config.json"
        write_config(ModelConfig(geometry=GEOMETRY, n_links=3,
                                 params=DynamicsParams(
                                     k_b=2.0, damping=(0.01, 0.02, 0.01))),
                     config)
        code = main(["identify", "--config", str(config), "--frames", frames,
                     "--pressure", pressure, "--budget", "1",
                     "--out", str(tmp_path / "fit.json")])
        assert code == 2

    def test_disjoint_time_ranges(self, identify_setup, tmp_path):
        tmp, config, frames, _ = identify_setup
        late = tmp_path / "late.csv"
        write_pressure_csv(late, [(10.0, 0.0), (11.0, 119e3)])
        code = main(["identify", "--config", config, "--frames", frames,
                     "--pressure", str(late), "--budget", "1",
                     "--out", str(tmp_path / "fit.json")])
        assert code == 2


@pytest.fixture(scope="class")
def compare_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("compare")
    params = DynamicsParams.uniform(1.6067, 0.008, 3)
    chain = build_chain(GEOMETRY, 3)
    trace = PressureTrace.rectangular(0.05, 0.2, 119e3)
    traj = simulate(chain, params, GEOMETRY, trace,
                    SimConfig(t_end=0.4, output_rate=100))
    traj_path = tmp / "traj.csv"
    from bendsim.io import write_trajectory
    write_trajectory(traj, traj_path)
    frame_times = traj.times[::10][1:]
    frames = node_frames_from_trajectory(traj, frame_times)
    frames_path = tmp / "frames.csv"
    write_frames_csv(frames_path, frames)
    return tmp, str(traj_path), str(frames_path), frames


class TestCompare:
    def test_self_consistent_frames(self, compare_setup, capsys):
        tmp, traj_path, frames_path, _ = compare_setup
        out = tmp / "cmp.csv"
        code = main(["compare", "--traj", traj_path, "--frames", frames_path,
                     "--links", "3", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        rms = float(stdout.split("rms error:")[1].split()[0])
        assert rms < 1e-9
        header = out.read_text().splitlines()[0].split(",")
        assert header[0] == "time_s"
        assert "err_0" in header and "err_3" in header
        assert len(header) == 1 + 5 * 4

    def test_uniform_offset_measured_exactly(self, compare_setup, tmp_path,
                                             capsys):
        tmp, traj_path, _, frames = compare_setup
        shifted = []
        for frame in frames:
            pts = frame.points + np.array([0.001, 0.0])
            shifted.append(type(frame)(frame.time, pts))
        shifted_path = tmp_path / "shifted.csv"
        write_frames_csv(shifted_path, shifted)
        code = main(["compare", "--traj", traj_path,
                     "--frames", str(shifted_path),
                     "--links", "3", "--out", str(tmp_path / "cmp.csv")])
        assert code == 0
        stdout = capsys.readouterr().out
        rms = float(stdout.split("rms error:")[1].split()[0])
        mx = float(stdout.split("max error:")[1].split()[0])
        assert rms == pytest.approx(0.001, rel=1e-6)
        assert mx == pytest.approx(0.001, rel=1e-6)

    def test_mismatched_links(self, compare_setup, tmp_path):
        tmp, traj_path, frames_path, _ = compare_setup
        code = main(["compare", "--traj", traj_path, "--frames", frames_path,
                     "--links", "2", "--out", str(tmp_path / "cmp.csv")])
        assert code == 2

    def test_no_frames_in_span(self, compare_setup, tmp_path):
        tmp, traj_path, _, frames = compare_setup
        late = [type(frames[0])(frames[0].time + 100.0, frames[0].points)]
        late_path = tmp_path / "late.csv"
        write_frames_csv(late_path, late)
        code = main(["compare", "--traj", traj_path,
                     "--frames", str(late_path),
                     "--links", "3", "--out", str(tmp_path / "cmp.csv")])
        assert code == 2


class TestArgParsing:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


def _fresh_python(code, cwd=None):
    """stdout and stderr of `python -c code` with bendsim on the path."""
    src = str(Path(bendsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return proc.stdout, proc.stderr


def test_cli_import_loads_no_scipy_solvers():
    # A fresh interpreter: scipy costs import time on every run, so the
    # CLI loads none of it.
    out, _ = _fresh_python(
        "import sys, bendsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_simulate_and_identify_runs_load_no_scipy(identify_setup, tmp_path):
    tmp, config, frames, pressure = identify_setup
    runs = [
        ["simulate", "--config", config, "--pressure", pressure,
         "--t-end", "0.3", "--dt-out", "0.01", "--out",
         str(tmp_path / "traj.csv")],
        ["identify", "--config", config, "--frames", frames,
         "--pressure", pressure, "--budget", "3", "--out",
         str(tmp_path / "fit.json")],
    ]
    out, _ = _fresh_python(
        "import sys, bendsim.cli; "
        f"codes = [bendsim.cli.main(argv) for argv in {runs!r}]; "
        "print(codes, sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy'))")
    assert out.strip().splitlines()[-1] == "[0, 0] []"


@pytest.mark.parametrize("flag, value", [
    ("--dt-out", "nan"),
    ("--dt-out", "inf"),
    ("--dt-out", "1e-300"),
    ("--dt-out", "5e-324"),
    ("--t-end", "inf"),
    ("--t-end", "nan"),
    ("--t-end", "1e300"),
    ("--threshold-m", "nan"),
    ("--threshold-m", "inf"),
    ("--threshold-m", "-inf"),
])
def test_non_finite_or_extreme_numbers_exit_2(flag, value, straight_csv,
                                              one_link_config, tmp_path):
    if flag == "--threshold-m":
        argv = ["select-order", "--frames", straight_csv, "--min", "2",
                "--max", "3", "--threshold-m", value]
    else:
        pressure = tmp_path / "zero.csv"
        write_pressure_csv(pressure, [(0.0, 0.0)])
        argv = ["simulate", "--config", one_link_config, "--pressure",
                str(pressure), "--t-end", "1", flag, value]
    out = tmp_path / "out"
    argv += ["--out", str(out)]
    src = str(Path(bendsim.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "bendsim", *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert sum("error:" in line for line in proc.stderr.splitlines()) == 1
    assert not out.exists()
