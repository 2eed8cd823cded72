"""One pass of a workload in a fresh interpreter, or its set-up alone.

    python3 perfbench/worker.py --workload W --seed N --mode pass --trace 0 --work DIR

Set-up is what a user pays before the first task: start the interpreter,
import reslab from the checkout's ``src`` and build the workload's presets
(with their critical exponents where the workload's tasks start Newton from
them).  A pass then runs the workload's seeded task list once, timing each
task, checking each answer with its oracle and catching every exception,
and prints one JSON line.  A calibration unit is timed before the first
task and after each task, outside the tasks' own timings.  With
``--trace 1`` the reslab functions are wrapped by the tracer for the task
loop and restored afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_reslab():
    """Import reslab from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import reslab

    if Path(reslab.__file__).resolve().parent != (SRC / "reslab").resolve():
        raise ImportError(f"reslab imported from {reslab.__file__}, not {SRC}")
    return reslab


class Context:
    """Presets, set-up results and scratch directories of one pass."""

    def __init__(self, presets, deltas, work: str, reference: dict):
        from reslab import schottky, thermo

        self._data = {name: schottky.preset(name) for name in presets}
        self._delta = {name: thermo.critical_exponent(self._data[name])
                       for name in deltas}
        self.reference = reference
        self._work = work
        self._outs = 0

    def data(self, name: str):
        return self._data[name]

    def delta(self, name: str) -> float:
        return self._delta[name]

    def out_dir(self) -> str:
        self._outs += 1
        return os.path.join(self._work, f"out{self._outs}")


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def run_task(ctx: Context, task: dict):
    """(latency_s, failure reason or None) of one task; never raises."""
    from tasks import KINDS, ref_key

    kind = KINDS[task["kind"]]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            answer = kind.run(ctx, task)
    except Exception as exc:  # a task boundary: count the failure, go on
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"[:300]
    latency = time.perf_counter() - start
    try:
        return latency, kind.check(task, answer, ctx.reference.get(ref_key(task)))
    except Exception as exc:
        return latency, f"oracle {type(exc).__name__}: {exc}"[:300]


class Calibration:
    """A fixed unit of work of about a millisecond, timed between tasks:
    interpreted Python, small complex-array arithmetic and one 32x32 LU,
    the kinds of work reslab's tasks do.  Its data stay in cache, so its
    time does not depend on what the task before it did; and it calls
    nothing in reslab, so its time tracks only the machine's current
    speed.  run.py scales the task latencies by it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._z = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        self._a = np.eye(32) - 0.01 * (rng.standard_normal((32, 32))
                                       + 1j * rng.standard_normal((32, 32)))
        self.times = []
        for _ in range(3):  # warm its code paths
            self.run()
        self.times.clear()

    def run(self) -> None:
        import numpy as np

        start = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        for _ in range(10):
            np.exp(self._z * 0.5) ** 1.5
        np.linalg.det(self._a)
        self.times.append(time.perf_counter() - start)


def setup(workload: str, work: str, reference: dict) -> Context:
    from workloads import PRESETS, SETUP_DELTAS

    return Context(PRESETS[workload], SETUP_DELTAS[workload], work, reference)


def run_pass(workload: str, seed: int, work: str, trace: bool,
             spans_path: str = "") -> dict:
    from workloads import generate

    ctx = setup(workload, work, load_reference())
    tasks = generate(workload, seed)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    cal = Calibration()
    try:
        start = time.perf_counter()
        cal.run()
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = i
            latency, reason = run_task(ctx, task)
            cal.run()
            records.append((task["kind"], latency, reason,
                            bool(task.get("probe"))))
        wall = time.perf_counter() - start - sum(cal.times)
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "wall_s": wall,
        "tasks": [[k, lat, reason is None, probe]
                  for k, lat, reason, probe in records],
        "failures": [[i, k, reason, probe]
                     for i, (k, _, reason, probe) in enumerate(records)
                     if reason is not None],
        "calibration_s": cal.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["counts"] = {k: v for k, v in sorted(tracer.counts.items())}
        result["self_s"] = tracer.self_times()
        if spans_path:
            with open(spans_path, "w") as fh:
                for rec in tracer.span_records():
                    fh.write(json.dumps(rec) + "\n")
    return result


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)
    import_reslab()
    if args.mode == "setup":
        setup(args.workload, args.work, {})
        return 0
    result = run_pass(args.workload, args.seed, args.work, bool(args.trace),
                      args.spans)
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
