"""Spans around the calls into each bendsim layer, and their arithmetic.

A wrapper replaces a function on the attribute of the module that calls
it (for example `bendsim.integrator.pressure_at`, which `simulate` looks
up at call time). Each call records a span: name, parent, start, end and
an optional note taken from the result. Spans stay in memory until the
run ends. Layer self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
import warnings

LAYERS = ("cli", "io", "reconstruction", "kinematics", "dynamics",
          "integrator", "identification")

# (module whose attribute is replaced, attribute, span name).
TARGETS = (
    ("bendsim.cli", "main", "cli.main"),
    ("bendsim.cli", "_write_json", "cli.write_json"),
    ("bendsim.cli", "parse_config", "io.parse_config"),
    ("bendsim.cli", "parse_frames", "io.parse_frames"),
    ("bendsim.cli", "parse_pressure", "io.parse_pressure"),
    ("bendsim.cli", "read_trajectory", "io.read_trajectory"),
    ("bendsim.cli", "write_trajectory", "io.write_trajectory"),
    ("bendsim.cli", "write_report", "io.write_report"),
    ("bendsim.cli", "build_chain", "dynamics.build_chain"),
    ("bendsim.cli", "simulate", "integrator.simulate"),
    ("bendsim.cli", "dominant_frequency", "integrator.dominant_frequency"),
    ("bendsim.cli", "positions_at", "integrator.positions_at"),
    ("bendsim.cli", "identify", "identification.identify"),
    ("bendsim.cli", "select_order", "reconstruction.select_order"),
    ("bendsim.cli", "segment_frame", "reconstruction.segment_frame"),
    ("bendsim.identification", "objective", "identification.objective"),
    ("bendsim.identification", "simulate", "integrator.simulate"),
    ("bendsim.identification", "positions_at", "integrator.positions_at"),
    ("bendsim.identification", "segment_frame", "reconstruction.segment_frame"),
    ("bendsim.integrator", "pressure_at", "integrator.pressure_at"),
    # The rhs the RK4 stages call: without this span its cost would count
    # as integrator self time.
    ("bendsim.integrator", "_accel", "dynamics.accel"),
    ("bendsim.integrator", "pressure_torque", "dynamics.pressure_torque"),
    ("bendsim.integrator", "joint_positions", "kinematics.joint_positions"),
    ("bendsim.reconstruction", "segment_frame", "reconstruction.segment_frame"),
    ("bendsim.reconstruction", "spline_through", "reconstruction.spline_through"),
    ("bendsim.reconstruction", "max_deviation", "reconstruction.max_deviation"),
)


def _objective_note(result):
    """(value, diverged) of an identification objective result."""
    return [float(result.value), bool(result.diverged)]


NOTES = {"identification.objective": _objective_note}

# Stage of the pipeline that a direct call from cli.main belongs to.
STAGES = {
    "io.parse_config": "parse",
    "io.parse_frames": "parse",
    "io.parse_pressure": "parse",
    "io.read_trajectory": "parse",
    "dynamics.build_chain": "build_chain",
    "integrator.simulate": "simulate",
    "integrator.dominant_frequency": "summary",
    "identification.identify": "identify",
    "reconstruction.select_order": "select_order",
    "reconstruction.segment_frame": "compare",
    "integrator.positions_at": "compare",
    "io.write_trajectory": "write",
    "io.write_report": "write",
    "cli.write_json": "write",
}
STAGE_NAMES = ("parse", "build_chain", "simulate", "identify", "select_order",
               "compare", "summary", "write")


class Tracer:
    """Records spans of wrapped calls; spans are (name, parent, start, end, note)."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, func, name):
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                self._stack.pop()
                extra = note(result) if note and result is not None else None
                self.spans[sid] = (name, parent, start, end, extra)

        return traced

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is skipped with a warning."""
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                label = f"{module_name}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                    warnings.warn(f"trace target {label} not found; "
                                  f"span {name} is not recorded there",
                                  stacklevel=2)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Spans come from one thread, so the children of a span run one after
    another inside it and cover the sum of their durations.
    """
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans, passes: int, pass_wall_s: float):
    """Per-pass figures from the spans of `passes` traced passes.

    Returns (metrics, calls, inclusive): layer self times, stage times,
    trace.wall_s and trace.unspanned_s; then call counts and inclusive
    seconds per span name. pass_wall_s is the total wall time of those
    passes; the part no root span covers is trace.unspanned_s, so the
    layer self times plus that remainder add up to the traced wall time.
    """
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    stages = dict.fromkeys(STAGE_NAMES, 0.0)
    rooted = 0.0
    for sid, (name, parent, start, end, *_) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[sid]
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        if parent < 0:
            rooted += end - start
        elif spans[parent][0] == "cli.main" and name in STAGES:
            stages[STAGES[name]] += end - start
    out = {f"{layer}.self_s": value / passes for layer, value in layer_self.items()}
    out.update({f"cli.stage.{stage}_s": value / passes
                for stage, value in stages.items()})
    out["trace.unspanned_s"] = (pass_wall_s - rooted) / passes
    out["trace.wall_s"] = pass_wall_s / passes
    return (out, {name: count / passes for name, count in calls.items()},
            {name: value / passes for name, value in inclusive.items()})


def objective_ratios(spans) -> tuple[float, float]:
    """(diverged, improving) shares of identification.objective calls.

    A call improves when its value is below every earlier value in the
    same identification run (a run is one identification.identify span).
    """
    diverged = improving = total = 0
    best: dict[int, float] = {}
    for name, parent, start, end, note in spans:
        if name != "identification.objective" or note is None:
            continue
        value, was_diverged = note
        total += 1
        diverged += bool(was_diverged)
        if value < best.get(parent, float("inf")):
            best[parent] = value
            improving += 1
    if total == 0:
        return 0.0, 0.0
    return diverged / total, improving / total
