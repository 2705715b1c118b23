import io
import json

import numpy as np
import pytest

from bendsim.dynamics import ActuatorGeometry, DynamicsParams
from bendsim.errors import ConfigError, ParseError
from bendsim.integrator import Trajectory
from bendsim.io import (
    ModelConfig,
    _fmt,
    _write_json,
    config_to_dict,
    parse_config,
    parse_frames,
    parse_pressure,
    read_trajectory,
    trajectory_header,
    write_config,
    write_report,
    write_trajectory,
)
from bendsim.reconstruction import select_order
from bendsim.synthetic import straight_frame

GOOD_FRAMES = """time_s,point_index,x_m,y_m
0.0,0,0,0
0.0,1,0,0.05
0.0,2,0,0.1
0.5,0,0,0
0.5,1,0.01,0.05
0.5,2,0.03,0.095
"""


def rel_gap(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), 1.0)
    return float(np.max(np.abs(a - b) / scale))


def make_trajectory(rng, n=5, T=40):
    times = np.cumsum(rng.uniform(1e-3, 1e-2, T))
    return Trajectory(
        times=times,
        q=rng.uniform(-1.0, 1.0, (T, n)),
        qdot=rng.uniform(-10.0, 10.0, (T, n)),
        positions=rng.uniform(-0.2, 0.2, (T, n + 1, 2)),
    )


class TestParseFrames:
    def test_well_formed(self):
        frames = parse_frames(io.StringIO(GOOD_FRAMES))
        assert len(frames) == 2
        assert [len(f) for f in frames] == [3, 3]
        assert frames[0].time == 0.0
        assert frames[1].time == 0.5
        assert frames[1].points[2] == pytest.approx([0.03, 0.095])

    def test_z_column_within_bound_dropped(self):
        text = ("time_s,point_index,x_m,y_m,z_m\n"
                "0,0,0,0,0.004\n0,1,0,0.05,-0.004\n")
        frames = parse_frames(io.StringIO(text))
        assert frames[0].points.shape == (2, 2)

    def test_z_out_of_plane_rejected(self):
        text = ("time_s,point_index,x_m,y_m,z_m\n"
                "0,0,0,0,0\n0,1,0,0.05,0.005\n")
        with pytest.raises(ParseError) as err:
            parse_frames(io.StringIO(text))
        assert err.value.line == 3
        assert "z_m" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_frames(io.StringIO("t,idx,x,y\n0,0,0,0\n"))
        assert err.value.line == 1

    def test_point_index_out_of_order(self):
        text = ("time_s,point_index,x_m,y_m\n"
                "0,0,0,0\n0,2,0,0.05\n")
        with pytest.raises(ParseError) as err:
            parse_frames(io.StringIO(text))
        assert err.value.line == 3
        assert "point_index" in str(err.value)

    def test_non_monotone_time(self):
        text = ("time_s,point_index,x_m,y_m\n"
                "0.5,0,0,0\n0.5,1,0,0.05\n"
                "0.2,0,0,0\n0.2,1,0,0.05\n")
        with pytest.raises(ParseError) as err:
            parse_frames(io.StringIO(text))
        assert err.value.line == 4

    def test_non_numeric_cell(self):
        text = ("time_s,point_index,x_m,y_m\n"
                "0,0,0,0\n0,1,abc,0.05\n")
        with pytest.raises(ParseError) as err:
            parse_frames(io.StringIO(text))
        assert err.value.line == 3
        assert "x_m" in str(err.value)

    def test_non_integer_point_index(self):
        text = ("time_s,point_index,x_m,y_m\n"
                "0,0.5,0,0\n")
        with pytest.raises(ParseError) as err:
            parse_frames(io.StringIO(text))
        assert err.value.line == 2

    def test_wrong_column_count(self):
        text = ("time_s,point_index,x_m,y_m\n"
                "0,0,0\n")
        with pytest.raises(ParseError) as err:
            parse_frames(io.StringIO(text))
        assert err.value.line == 2

    def test_single_point_frame_rejected(self):
        text = ("time_s,point_index,x_m,y_m\n"
                "0,0,0,0\n"
                "1,0,0,0\n1,1,0,0.05\n")
        with pytest.raises(ParseError) as err:
            parse_frames(io.StringIO(text))
        assert err.value.line == 2

    def test_coincident_points_rejected_with_frame_line(self):
        text = ("time_s,point_index,x_m,y_m\n"
                "0,0,0,0\n0,1,0,0\n0,2,0,0.05\n")
        with pytest.raises(ParseError) as err:
            parse_frames(io.StringIO(text))
        assert err.value.line == 2

    def test_empty_after_header(self):
        with pytest.raises(ParseError) as err:
            parse_frames(io.StringIO("time_s,point_index,x_m,y_m\n"))
        assert err.value.line == 2

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "frames.csv"
        path.write_text(GOOD_FRAMES)
        frames = parse_frames(path)
        assert len(frames) == 2


class TestParsePressure:
    def test_well_formed(self):
        text = ("time_s,pressure_pa\n"
                "0,0\n0.12,119000\n2.88,0\n")
        trace = parse_pressure(io.StringIO(text))
        assert len(trace.samples) == 3
        assert trace.samples[1] == (0.12, 119000.0)

    def test_duplicate_time_rejected(self):
        text = ("time_s,pressure_pa\n"
                "0,0\n0,119000\n")
        with pytest.raises(ParseError) as err:
            parse_pressure(io.StringIO(text))
        assert err.value.line == 3

    def test_empty_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_pressure(io.StringIO("time_s,pressure_pa\n"))
        assert err.value.line == 2

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_pressure(io.StringIO("t,p\n0,0\n"))
        assert err.value.line == 1


class TestConfig:
    def make_config(self):
        return ModelConfig(
            geometry=ActuatorGeometry(r1=0.014, r2=0.010, wall=0.004,
                                      total_length=0.17, total_mass=0.069),
            n_links=5,
            params=DynamicsParams.uniform(1.6067, 0.008, 5),
            reference_path="frames.csv",
        )

    def test_round_trip_identity(self, tmp_path):
        config = self.make_config()
        path = tmp_path / "config.json"
        write_config(config, path)
        back = parse_config(path)
        assert back == config

    def test_round_trip_through_stream(self):
        config = self.make_config()
        buf = io.StringIO()
        write_config(config, buf)
        assert parse_config(io.StringIO(buf.getvalue())) == config

    def test_extra_keys_tolerated(self):
        doc = config_to_dict(self.make_config())
        doc["comment"] = "bench run 7"
        doc["geometry"]["operator"] = "a. researcher"
        config = parse_config(io.StringIO(json.dumps(doc)))
        assert config.n_links == 5

    def test_missing_geometry_key(self):
        doc = config_to_dict(self.make_config())
        del doc["geometry"]["r1_m"]
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(json.dumps(doc)))
        assert err.value.key == "geometry.r1_m"

    def test_r2_not_smaller_than_r1(self):
        doc = config_to_dict(self.make_config())
        doc["geometry"]["r2_m"] = doc["geometry"]["r1_m"]
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(json.dumps(doc)))
        assert err.value.key == "r2_m"

    def test_missing_k_b(self):
        doc = config_to_dict(self.make_config())
        del doc["params"]["k_b"]
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(json.dumps(doc)))
        assert err.value.key == "params.k_b"

    def test_damping_length_mismatch(self):
        doc = config_to_dict(self.make_config())
        doc["params"]["damping"] = [0.008, 0.008]
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(json.dumps(doc)))
        assert err.value.key == "damping"

    def test_bad_n_links(self):
        doc = config_to_dict(self.make_config())
        doc["n_links"] = 0
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(json.dumps(doc)))
        assert err.value.key == "n_links"

    def test_negative_damping(self):
        doc = config_to_dict(self.make_config())
        doc["params"]["damping"][2] = -0.001
        with pytest.raises(ConfigError) as err:
            parse_config(io.StringIO(json.dumps(doc)))
        assert err.value.key == "damping"

    def test_invalid_json_carries_line(self):
        text = '{\n  "geometry": {\n'
        with pytest.raises(ParseError) as err:
            parse_config(io.StringIO(text))
        assert err.value.line is not None

    def test_non_object_top_level(self):
        with pytest.raises(ConfigError):
            parse_config(io.StringIO("[1, 2]"))


class TestTrajectory:
    def test_header_for_five_links(self):
        header = trajectory_header(5)
        assert len(header) == 23
        assert header[0] == "time_s"
        assert header[1] == "q_1"
        assert header[10] == "qdot_5"
        assert header[-2:] == ["x_5", "y_5"]

    def test_round_trip_relative_error(self, rng, tmp_path):
        traj = make_trajectory(rng)
        path = tmp_path / "traj.csv"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        assert back.n_joints == traj.n_joints
        assert rel_gap(traj.times, back.times) < 1e-9
        assert rel_gap(traj.q, back.q) < 1e-9
        assert rel_gap(traj.qdot, back.qdot) < 1e-9
        assert rel_gap(traj.positions, back.positions) < 1e-9

    def test_rest_trajectory_exact(self, tmp_path):
        traj = Trajectory(
            times=np.array([0.0, 0.1, 0.2]),
            q=np.zeros((3, 2)),
            qdot=np.zeros((3, 2)),
            positions=np.zeros((3, 3, 2)),
        )
        buf = io.StringIO()
        write_trajectory(traj, buf)
        back = read_trajectory(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.q, traj.q)
        assert np.array_equal(back.positions, traj.positions)

    def test_rejects_foreign_header(self):
        with pytest.raises(ParseError) as err:
            read_trajectory(io.StringIO("a,b,c\n1,2,3\n"))
        assert err.value.line == 1

    def test_rejects_truncated_row(self, rng):
        traj = make_trajectory(rng, n=2, T=3)
        buf = io.StringIO()
        write_trajectory(traj, buf)
        lines = buf.getvalue().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])
        with pytest.raises(ParseError) as err:
            read_trajectory(io.StringIO("\n".join(lines) + "\n"))
        assert err.value.line == 3

    def test_rejects_empty_body(self):
        header = ",".join(trajectory_header(2))
        with pytest.raises(ParseError) as err:
            read_trajectory(io.StringIO(header + "\n"))
        assert err.value.line == 2

    def test_rejects_non_increasing_times(self, rng):
        traj = make_trajectory(rng, n=2, T=3)
        buf = io.StringIO()
        write_trajectory(traj, buf)
        lines = buf.getvalue().splitlines()
        first_cells = lines[1].split(",")
        swapped = lines[3].split(",")
        swapped[0] = first_cells[0]
        lines[3] = ",".join(swapped)
        with pytest.raises(ParseError):
            read_trajectory(io.StringIO("\n".join(lines) + "\n"))


    def test_rows_match_the_cell_by_cell_formatter(self, rng):
        # Reference: every cell through _fmt, as the writer did before it
        # formatted whole rows; signed zero and extreme magnitudes included.
        traj = make_trajectory(rng, n=3, T=60)
        specials = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300,
                             5e-324, 0.1, 1 / 3, 123456789.123])
        q = traj.q.copy()
        positions = traj.positions.copy()
        q.flat[rng.choice(q.size, 30, replace=False)] = rng.choice(specials, 30)
        positions.flat[rng.choice(positions.size, 30, replace=False)] = (
            rng.choice(specials, 30))
        traj = Trajectory(times=traj.times, q=q, qdot=traj.qdot,
                          positions=positions)
        expected = [",".join(trajectory_header(3))]
        for k in range(len(traj.times)):
            cells = [_fmt(traj.times[k])]
            cells += [_fmt(v) for v in traj.q[k]]
            cells += [_fmt(v) for v in traj.qdot[k]]
            cells += [_fmt(v) for v in traj.positions[k].ravel()]
            expected.append(",".join(cells))
        buf = io.StringIO()
        write_trajectory(traj, buf)
        assert buf.getvalue() == "\n".join(expected) + "\n"
        assert "-0," in buf.getvalue() and "1e+300" in buf.getvalue()


class TestJsonWriter:
    def test_non_finite_values_are_refused_before_writing(self, tmp_path):
        path = tmp_path / "doc.json"
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                _write_json({"value": [1.0, bad]}, path)
            assert not path.exists()

    def test_finite_document_round_trips(self):
        buf = io.StringIO()
        _write_json({"a": [1.5, -0.0], "b": "x"}, buf)
        assert buf.getvalue().endswith("}\n")
        assert json.loads(buf.getvalue()) == {"a": [1.5, -0.0], "b": "x"}


class TestReport:
    def test_written_report_parses_back(self, tmp_path):
        frames = [straight_frame(time=0.0), straight_frame(time=1.0)]
        report = select_order(frames, range(2, 5), 0.003)
        path = tmp_path / "report.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["chosen_n"] == report.chosen_n
        assert doc["threshold_met"] is True
        assert doc["threshold_m"] == pytest.approx(0.003, rel=1e-9)
        assert [c["n"] for c in doc["candidates"]] == [2, 3, 4]
        for cand, written in zip(report.candidates, doc["candidates"]):
            assert written["max_error_m"] == pytest.approx(
                cand.max_error, rel=1e-9, abs=1e-12)
            assert len(written["per_frame_max_m"]) == 2
