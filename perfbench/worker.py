"""Worker process: runs bendsim CLI passes for a fixed time and reports.

Usage: python3 worker.py JOB.json RESULT.json, with bendsim importable
and the working directory holding the generated inputs. The job names
the argv lists of one pass, the files a pass writes, the seconds to
measure and whether to trace.

bendsim.cli is imported before any pass is timed. With tracing on,
passes alternate untraced and traced, so one run yields both wall
times; spans stay in memory and are written next to the result at the
end, and the microbenchmarks run after the passes. The untraced worker
imports nothing beyond bendsim.cli and the standard library, so its
peak memory is the program's own.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import warnings
from pathlib import Path


def _digest(paths) -> list[str]:
    out = []
    for path in paths:
        try:
            out.append(hashlib.sha256(Path(path).read_bytes()).hexdigest())
        except OSError:
            out.append("")
    return out


def main(job_path: str, result_path: str) -> int:
    import bendsim.cli

    job = json.loads(Path(job_path).read_text())
    seconds = float(job["seconds"])
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    walls, traced, codes, digests = [], [], [], []
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        begin = time.perf_counter()
        while True:
            on = tracer is not None and len(walls) % 2 == 1
            if on:
                tracer.install()
            start = time.perf_counter()
            pass_codes = [bendsim.cli.main(list(argv)) for argv in job["passes"]]
            wall = time.perf_counter() - start
            if on:
                tracer.uninstall()
            walls.append(wall)
            traced.append(on)
            codes.append(pass_codes)
            digests.append(_digest(job["outputs"]))
            elapsed = time.perf_counter() - begin
            enough = len(walls) >= (2 if tracer else 1)
            if enough and elapsed + 0.5 * wall >= seconds:
                break
        micro_metrics, missing = {}, []
        if tracer is not None:
            import micro
            micro_metrics, skipped = micro.run_all(bendsim)
            missing = tracer.missing + [f"microbenchmark {name}" for name in skipped]
        caught = [str(w.message) for w in seen]

    result = {
        "walls": walls,
        "traced": traced,
        "codes": codes,
        "digests": digests,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "micro": micro_metrics,
        "missing": missing,
        "warnings": caught,
    }
    if tracer is not None:
        Path("spans.json").write_text(json.dumps(tracer.spans))
        result["spans"] = "spans.json"
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
