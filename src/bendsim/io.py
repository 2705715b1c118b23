"""File formats: frame/pressure CSV, config JSON, trajectory CSV.

All files use SI units (m, s, Pa, kg). Headers are part of the stable
contract and matched exactly. Parsers reject malformed input rather
than repairing it; parse errors carry a 1-based line number, config
errors the offending key. Numbers are written with 10 significant
digits: enough that write/read round trips agree to 1e-9 relative
(9 digits would only bound the error by 5e-9).
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import ActuatorGeometry, DynamicsParams
from .errors import ConfigError, InvalidInputError, ParseError
from .integrator import PressureTrace, Trajectory
from .reconstruction import OrderSelectionReport, SensorFrame

__all__ = [
    "ModelConfig",
    "parse_frames",
    "parse_pressure",
    "parse_config",
    "config_to_dict",
    "write_config",
    "write_trajectory",
    "read_trajectory",
    "write_report",
]

FRAME_HEADER = ["time_s", "point_index", "x_m", "y_m"]
FRAME_HEADER_Z = FRAME_HEADER + ["z_m"]
PRESSURE_HEADER = ["time_s", "pressure_pa"]

# Frames are nominally planar; larger out-of-plane readings mean the
# data does not fit the planar model and is rejected, not projected.
_MAX_ABS_Z = 0.005


def _fmt(value: float) -> str:
    return f"{float(value):.10g}"


def _jnum(value: float) -> float:
    return float(_fmt(value))


def _write_json(doc: dict, path_or_stream) -> None:
    """Write doc as indented JSON plus a final newline to a path or stream.

    The output is strict JSON: a NaN or infinity in doc raises ValueError
    before anything is written.
    """
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        with open(path_or_stream, "w") as fh:
            fh.write(text)


def _reading(path_or_stream):
    if hasattr(path_or_stream, "read"):
        return _io.StringIO(path_or_stream.read())
    return open(path_or_stream, "r", newline="")


def _cell_float(raw: str, column: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"non-numeric {column} value {raw!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {column} value {raw!r}", line=line)
    return value


def _check_header(row, allowed, line=1):
    if row is None:
        raise ParseError("missing header", line=line)
    got = [c.strip() for c in row]
    for candidate in allowed:
        if got == candidate:
            return got
    raise ParseError(
        f"expected header {','.join(allowed[0])}, got {','.join(got)}",
        line=line,
    )


def parse_frames(path_or_stream) -> list[SensorFrame]:
    """Read timestamped frames from long-format CSV.

    Rows with equal time_s form one frame; point_index must run 0..K-1
    within it and frame times must strictly increase. An optional z_m
    column is checked against the planarity bound and then dropped.
    """
    stream = _reading(path_or_stream)
    with stream:
        rows = csv.reader(stream)
        header = _check_header(next(rows, None), (FRAME_HEADER, FRAME_HEADER_Z))
        has_z = len(header) == 5
        frames: list[SensorFrame] = []
        cur_time = None
        cur_points: list[tuple[float, float]] = []
        cur_start_line = None

        def flush(line):
            if cur_time is None:
                return
            if len(cur_points) < 2:
                raise ParseError(
                    f"frame at t={cur_time} has fewer than 2 points",
                    line=cur_start_line,
                )
            try:
                frames.append(SensorFrame(cur_time, np.array(cur_points)))
            except InvalidInputError as exc:
                raise ParseError(str(exc), line=cur_start_line) from None

        line = 1
        for line, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} columns, got {len(row)}", line=line
                )
            t = _cell_float(row[0], "time_s", line)
            raw_idx = row[1].strip()
            if not raw_idx.lstrip("+-").isdigit():
                raise ParseError(
                    f"non-integer point_index {row[1]!r}", line=line
                )
            idx = int(raw_idx)
            x = _cell_float(row[2], "x_m", line)
            y = _cell_float(row[3], "y_m", line)
            if has_z:
                z = _cell_float(row[4], "z_m", line)
                if abs(z) >= _MAX_ABS_Z:
                    raise ParseError(
                        f"|z_m| = {abs(z)} exceeds the planar bound "
                        f"{_MAX_ABS_Z}", line=line
                    )
            if cur_time is None or t != cur_time:
                if cur_time is not None and t <= cur_time:
                    raise ParseError(
                        f"time_s {t} does not increase past {cur_time}",
                        line=line,
                    )
                flush(line)
                cur_time = t
                cur_points = []
                cur_start_line = line
            if idx != len(cur_points):
                raise ParseError(
                    f"point_index {idx} where {len(cur_points)} expected",
                    line=line,
                )
            cur_points.append((x, y))
        if cur_time is None:
            raise ParseError("no data rows", line=2)
        flush(line)
    return frames


def parse_pressure(path_or_stream) -> PressureTrace:
    """Read a pressure trace from CSV with strictly increasing times."""
    stream = _reading(path_or_stream)
    with stream:
        rows = csv.reader(stream)
        _check_header(next(rows, None), (PRESSURE_HEADER,))
        samples: list[tuple[float, float]] = []
        for line, row in enumerate(rows, start=2):
            if len(row) != 2:
                raise ParseError(
                    f"expected 2 columns, got {len(row)}", line=line
                )
            t = _cell_float(row[0], "time_s", line)
            p = _cell_float(row[1], "pressure_pa", line)
            if samples and t <= samples[-1][0]:
                raise ParseError(
                    f"time_s {t} does not increase past {samples[-1][0]}",
                    line=line,
                )
            samples.append((t, p))
        if not samples:
            raise ParseError("no data rows", line=2)
    return PressureTrace(tuple(samples))


@dataclass(frozen=True)
class ModelConfig:
    """Actuator geometry, chain order and dynamic parameters."""

    geometry: ActuatorGeometry
    n_links: int
    params: DynamicsParams
    reference_path: Optional[str] = None

    def __post_init__(self):
        if self.n_links < 1:
            raise ConfigError("must be >= 1", key="n_links")
        if len(self.params.damping) != self.n_links:
            raise ConfigError(
                f"needs {self.n_links} entries, got {len(self.params.damping)}",
                key="damping",
            )


_GEOMETRY_KEYS = {
    "r1_m": "r1",
    "r2_m": "r2",
    "wall_m": "wall",
    "total_length_m": "total_length",
    "total_mass_kg": "total_mass",
}


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError("missing", key=path)
    return mapping[key]


def _positive_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"must be a number, got {value!r}", key=path)
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"must be a positive number, got {value}", key=path)
    return float(value)


def parse_config(path_or_stream) -> ModelConfig:
    """Read a model config from JSON, validating every field."""
    stream = _reading(path_or_stream)
    with stream:
        try:
            doc = json.load(stream)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object", key="$")
    geo_doc = _require(doc, "geometry", "geometry")
    if not isinstance(geo_doc, dict):
        raise ConfigError("must be an object", key="geometry")
    geo_vals = {
        attr: _positive_number(
            _require(geo_doc, key, f"geometry.{key}"), f"geometry.{key}"
        )
        for key, attr in _GEOMETRY_KEYS.items()
    }
    if geo_vals["r2"] >= geo_vals["r1"]:
        raise ConfigError(
            f"must be smaller than r1_m, got {geo_vals['r2']} >= "
            f"{geo_vals['r1']}", key="r2_m"
        )
    n_links = _require(doc, "n_links", "n_links")
    if isinstance(n_links, bool) or not isinstance(n_links, int) or n_links < 1:
        raise ConfigError(f"must be an integer >= 1, got {n_links!r}",
                          key="n_links")
    params_doc = _require(doc, "params", "params")
    if not isinstance(params_doc, dict):
        raise ConfigError("must be an object", key="params")
    k_b = _positive_number(_require(params_doc, "k_b", "params.k_b"),
                           "params.k_b")
    damping = _require(params_doc, "damping", "params.damping")
    if (not isinstance(damping, list) or not damping
            or any(isinstance(d, bool) or not isinstance(d, (int, float))
                   for d in damping)):
        raise ConfigError("must be a non-empty list of numbers", key="damping")
    if any(not math.isfinite(d) or d < 0 for d in damping):
        raise ConfigError(f"entries must be >= 0, got {damping}", key="damping")
    reference_path = doc.get("reference_path")
    if reference_path is not None and not isinstance(reference_path, str):
        raise ConfigError("must be a string path", key="reference_path")
    try:
        geometry = ActuatorGeometry(**geo_vals)
    except InvalidInputError as exc:
        raise ConfigError(str(exc), key="geometry") from None
    params = DynamicsParams(k_b=k_b, damping=tuple(float(d) for d in damping))
    return ModelConfig(geometry=geometry, n_links=n_links, params=params,
                       reference_path=reference_path)


def config_to_dict(config: ModelConfig) -> dict:
    """JSON-ready dict for a config, numbers rounded for serialization."""
    doc = {
        "geometry": {
            key: _jnum(getattr(config.geometry, attr))
            for key, attr in _GEOMETRY_KEYS.items()
        },
        "n_links": config.n_links,
        "params": {
            "k_b": _jnum(config.params.k_b),
            "damping": [_jnum(d) for d in config.params.damping],
        },
    }
    if config.reference_path is not None:
        doc["reference_path"] = config.reference_path
    return doc


def write_config(config: ModelConfig, path_or_stream) -> None:
    """Write a model config as JSON."""
    _write_json(config_to_dict(config), path_or_stream)


def trajectory_header(n: int) -> list[str]:
    cols = ["time_s"]
    cols += [f"q_{i}" for i in range(1, n + 1)]
    cols += [f"qdot_{i}" for i in range(1, n + 1)]
    for i in range(n + 1):
        cols += [f"x_{i}", f"y_{i}"]
    return cols


def write_trajectory(trajectory: Trajectory, path_or_stream) -> None:
    """Write a trajectory as wide-format CSV, one row per sample."""
    n = trajectory.n_joints
    header = trajectory_header(n)
    T = len(trajectory.times)
    rows = np.column_stack((trajectory.times, trajectory.q, trajectory.qdot,
                            trajectory.positions.reshape(T, -1)))
    # One format string per row; '%.10g' formats a float exactly as _fmt.
    row_format = ",".join(["%.10g"] * len(header)) + "\n"
    own = not hasattr(path_or_stream, "write")
    fh = open(path_or_stream, "w", newline="") if own else path_or_stream
    try:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_format % tuple(row) for row in rows.tolist())
    finally:
        if own:
            fh.close()


def read_trajectory(path_or_stream) -> Trajectory:
    """Read a trajectory CSV written by write_trajectory."""
    stream = _reading(path_or_stream)
    with stream:
        rows = csv.reader(stream)
        header = next(rows, None)
        if header is None:
            raise ParseError("missing header", line=1)
        header = [c.strip() for c in header]
        n = (len(header) - 3) // 4 if len(header) >= 7 else 0
        if n < 1 or header != trajectory_header(n):
            raise ParseError("not a trajectory header", line=1)
        width = len(header)
        data = []
        for line, row in enumerate(rows, start=2):
            if len(row) != width:
                raise ParseError(
                    f"expected {width} columns, got {len(row)}", line=line
                )
            data.append([_cell_float(c, header[j], line)
                         for j, c in enumerate(row)])
        if not data:
            raise ParseError("no data rows", line=2)
    arr = np.asarray(data)
    times = arr[:, 0]
    q = arr[:, 1 : 1 + n]
    qdot = arr[:, 1 + n : 1 + 2 * n]
    positions = arr[:, 1 + 2 * n :].reshape(len(arr), n + 1, 2)
    try:
        return Trajectory(times=times, q=q, qdot=qdot, positions=positions)
    except InvalidInputError as exc:
        raise ParseError(str(exc), line=2) from None


def write_report(report: OrderSelectionReport, path_or_stream) -> None:
    """Write an order-selection report as JSON."""
    doc = {
        "threshold_m": _jnum(report.threshold),
        "chosen_n": report.chosen_n,
        "threshold_met": report.threshold_met,
        "candidates": [
            {
                "n": c.n,
                "max_error_m": _jnum(c.max_error),
                "mean_error_m": _jnum(c.mean_error),
                "per_frame_max_m": [_jnum(v) for v in c.per_frame_max],
            }
            for c in report.candidates
        ],
    }
    _write_json(doc, path_or_stream)
