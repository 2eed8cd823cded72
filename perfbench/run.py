#!/usr/bin/env python3
"""reslab benchmark: seeded workloads timed end to end, and a traced run for
per-layer self times and work counts.

    python3 perfbench/run.py --workload contour --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout; it imports reslab from ``src/`` there
and writes only under ``.perfbench_work/`` (scratch, removed at exit) and
``.perfbench_out/`` (the run's record, and the spans of a traced run).

With ``--trace 0`` it times the workload's set-up in fresh interpreters,
then runs passes over the seeded task list, each in a fresh process, as
many as fit in ``--seconds`` (at least three), and reports the end-to-end
metrics: the median set-up, the median pass wall time and latency
percentiles pooled over the passes.  Task latencies are scaled to a
reference machine speed by a calibration unit timed beside them (see
``scaled_latencies``).  With ``--trace 1`` it
alternates untraced and traced passes (at least two of each) and reports
the per-layer metrics.  ``--workload all`` runs the three workloads in turn.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  README.md says what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("contour", "covers", "combinatorics")

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 120.0
# stop starting passes when the next one could end after this many seconds
RUN_LIMIT_S = 150.0
BLAS_THREADS = "1"
# Task latencies are reported at the reference speed, at which one
# calibration unit (worker.Calibration) takes CAL_REF_S.  A task's speed is
# the median of the units timed within CAL_WINDOW tasks of it, and its
# latency scales as that speed to the power SPEED_EXPONENT (README.md says
# how these were measured).
CAL_REF_S = 1e-3
CAL_WINDOW = 3
SPEED_EXPONENT = 1.2

END_TO_END = (
    ("wall_s", "s"), ("task_p50_ms", "ms"), ("task_p90_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_share", "share"),
)


def _calls(name):
    return lambda counts, self_s: counts.get(name + ".calls", 0)


def _self(name):
    return lambda counts, self_s: self_s.get(name, 0.0)


def _count(name):
    return lambda counts, self_s: counts.get(name, 0)


def _ratio(num, den):
    def f(counts, self_s):
        d = counts.get(den, 0)
        return counts.get(num, 0) / d if d else 0.0
    return f


def _prefix_self(prefix):
    return lambda counts, self_s: sum(v for k, v in self_s.items()
                                      if k.startswith(prefix))


# (name, unit, better, value from the traced pass's counts and self times);
# trace.overhead_share is added from the wall times of both kinds of pass.
PER_LAYER = (
    ("transfer.assemble.calls", "count", "lower", _calls("transfer.assemble")),
    ("transfer.assemble.self_s", "s", "lower", _self("transfer.assemble")),
    ("transfer.assemble_blocks.calls", "count", "lower",
     _calls("transfer.assemble_blocks")),
    ("transfer.assemble_blocks.self_s", "s", "lower",
     _self("transfer.assemble_blocks")),
    ("transfer.blocks_to_matrix.calls", "count", "lower",
     _calls("transfer.blocks_to_matrix")),
    ("transfer.blocks_to_matrix.self_s", "s", "lower",
     _self("transfer.blocks_to_matrix")),
    ("transfer.fredholm_det.calls", "count", "lower", _calls("transfer.fredholm_det")),
    ("transfer.fredholm_det.self_s", "s", "lower", _self("transfer.fredholm_det")),
    ("transfer.fredholm_det.flops", "flop", "lower",
     _count("transfer.fredholm_det.flops")),
    ("transfer.matrix_bytes", "B", "lower", _count("transfer.matrix_bytes")),
    ("transfer.spectral_radius.self_s", "s", "lower", _self("transfer.spectral_radius")),
    ("zeros.det_evals", "count", "lower", _count("zeros.det_evals")),
    ("zeros.det_cache_hit_ratio", "ratio", "higher",
     _ratio("zeros.det_repeats", "zeros.det_evals")),
    ("zeros.count_zeros.calls", "count", "lower", _calls("zeros.count_zeros")),
    ("zeros.count_zeros.self_s", "s", "lower", _self("zeros.count_zeros")),
    ("zeros.resonances.calls", "count", "lower", _calls("zeros.resonances")),
    ("zeros.resonances.self_s", "s", "lower", _self("zeros.resonances")),
    ("zeros.refine_zero.calls", "count", "lower", _calls("zeros.refine_zero")),
    ("zeros.refine_zero.self_s", "s", "lower", _self("zeros.refine_zero")),
    ("zeros.refine_zero.ok_ratio", "ratio", "higher",
     _ratio("zeros.refine_zero.converged", "zeros.refine_zero.calls")),
    ("zeros.refine_zero.dets_per_call", "count", "lower",
     _ratio("zeros.refine_zero.dets", "zeros.refine_zero.calls")),
    ("thermo.critical_exponent.calls", "count", "lower",
     _calls("thermo.critical_exponent")),
    ("thermo.critical_exponent.self_s", "s", "lower", _self("thermo.critical_exponent")),
    ("thermo.pressure.calls", "count", "lower", _calls("thermo.pressure")),
    ("abelian.nonvanishing_scan.self_s", "s", "lower", _self("abelian.nonvanishing_scan")),
    ("abelian.implicit_curve.self_s", "s", "lower", _self("abelian.implicit_curve")),
    ("abelian.equidistribution_experiment.self_s", "s", "lower",
     _self("abelian.equidistribution_experiment")),
    ("abelian.cover_zeta_zeros.self_s", "s", "lower", _self("abelian.cover_zeta_zeros")),
    ("schottky.primitive_geodesics.calls", "count", "lower",
     _calls("schottky.primitive_geodesics")),
    ("schottky.primitive_geodesics.self_s", "s", "lower",
     _self("schottky.primitive_geodesics")),
    ("schottky.validate.self_s", "s", "lower", _self("schottky.validate")),
    ("congruence.class_statistics.self_s", "s", "lower",
     _self("congruence.class_statistics")),
    ("congruence.classify.calls", "count", "lower", _calls("congruence.classify")),
    ("congruence.conjugacy_partition_mod_p.self_s", "s", "lower",
     _self("congruence.conjugacy_partition_mod_p")),
    ("congruence.power_classes.self_s", "s", "lower", _self("congruence.power_classes")),
    ("congruence.character_average.self_s", "s", "lower",
     _self("congruence.character_average")),
    ("congruence.conj1_check.self_s", "s", "lower", _self("congruence.conj1_check")),
    ("congruence.pairs_examined", "count", "lower", _count("congruence.pairs_examined")),
    ("cayley.cheeger_exhaustive.self_s", "s", "lower", _self("cayley.cheeger_exhaustive")),
    ("cayley.cheeger_exhaustive.subsets", "count", "lower",
     _count("cayley.cheeger_exhaustive.subsets")),
    ("cayley.adjacency_matrix.self_s", "s", "lower", _self("cayley.adjacency_matrix")),
    ("cayley.laplacian_eigenvalues.self_s", "s", "lower",
     _self("cayley.laplacian_eigenvalues")),
    ("explicit_formula.build_test_function.self_s", "s", "lower",
     _self("explicit_formula.build_test_function")),
    ("explicit_formula.geodesic_sum.self_s", "s", "lower",
     _self("explicit_formula.geodesic_sum")),
    ("cli.main.self_s", "s", "lower", _self("cli.main")),
    ("report.self_s", "s", "lower", _prefix_self("report.")),
    ("report.bytes_written", "B", "lower", _count("report.bytes_written")),
)
OVERHEAD = ("trace.overhead_share", "share", "lower")


class BenchError(RuntimeError):
    pass


def git_sha(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _spawn(args: list, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {args}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {args}\n{proc.stderr[-2000:]}")
    return proc


def time_setup(workload: str, seed: int, work: Path) -> float:
    start = time.perf_counter()
    _spawn(["--workload", workload, "--seed", str(seed), "--mode", "setup",
            "--work", str(work)], PASS_TIMEOUT_S)
    return time.perf_counter() - start


def run_pass(workload: str, seed: int, work: Path, traced: bool,
             spans: str = "") -> dict:
    proc = _spawn(["--workload", workload, "--seed", str(seed), "--mode", "pass",
                   "--trace", str(int(traced)), "--work", str(work),
                   "--spans", spans], PASS_TIMEOUT_S)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker printed no result: {proc.stdout[-500:]}")


def scaled_latencies(p: dict) -> list:
    """Each task's latency in a pass, at the reference speed.

    On a shared 2-vCPU VM the speed of a core drifts by a third or more,
    within seconds and between minutes, and moves interpreted code, array
    arithmetic and LU nearly alike.  A pass therefore times a calibration
    unit before its first task and after each task (calibration_s[i] and
    [i + 1] bracket task i).  Each latency is scaled by CAL_REF_S over the
    median unit time around it, to the power SPEED_EXPONENT, which takes
    most of the drift out and leaves the work the code does: the scale
    does not depend on reslab, so a task that does less work reads faster
    in proportion.  README.md says how well it works."""
    cal = p["calibration_s"]
    return [t[1] * (CAL_REF_S / statistics.median(cal[max(0, i - CAL_WINDOW):
                                                      i + CAL_WINDOW + 2])) ** SPEED_EXPONENT
            for i, t in enumerate(p["tasks"])]


def latency_stats(passes: list) -> dict:
    """Latency percentiles over the well-formed tasks of the given passes,
    pooled, and the median pass wall time, all at the reference speed.
    A pass's wall time is the sum of its tasks' latencies."""
    scaled = [scaled_latencies(p) for p in passes]
    lat = sorted(x for p, xs in zip(passes, scaled)
                 for t, x in zip(p["tasks"], xs) if not t[3])
    if len(lat) < 100 * len(passes):
        raise BenchError("a pass needs >= 100 well-formed tasks for its p90")
    return {"wall_s": statistics.median(sum(xs) for xs in scaled),
            "task_p50_ms": 1e3 * statistics.median(lat),
            "task_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    try:
        setups = [] if trace else [time_setup(workload, seed, work)
                                   for _ in range(SETUP_REPEATS)]
        passes, longest = [], 0.0
        start = time.perf_counter()
        while True:
            n_traced = sum(1 for p in passes if p["traced"])
            enough = (len(passes) - n_traced >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
                      and n_traced >= (MIN_TRACED_PASSES if trace else 0))
            # start another pass only if it should end within --seconds
            if enough and time.perf_counter() - start + longest > seconds:
                break
            if passes and time.perf_counter() - t0 + longest > RUN_LIMIT_S:
                break
            traced = trace and len(passes) % 2 == 1
            spans = str(outdir / f"{tag}.spans.jsonl") if traced else ""
            p0 = time.perf_counter()
            p = run_pass(workload, seed, work, traced, spans)
            longest = max(longest, time.perf_counter() - p0)
            p["traced"] = traced
            passes.append(p)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    return summarize(workload, seed, seconds, trace, setups, passes, outdir / f"{tag}.json")


def summarize(workload, seed, seconds, trace, setups, passes, record_path):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    tasks = [t for p in passes for t in p["tasks"]]
    well_formed = [t for t in tasks if not t[3]]
    attempted = len(well_formed)
    failed = sum(1 for t in well_formed if not t[2])
    stats = latency_stats(plain)
    metrics = {}
    counts_repeat = True
    if trace:
        counts = traced[0]["counts"]
        counts_repeat = all(p["counts"] == counts for p in traced[1:])
        self_s = {k: statistics.median(p["self_s"].get(k, 0.0) for p in traced)
                  for k in {k for p in traced for k in p["self_s"]}}
        for name, unit, _, value in PER_LAYER:
            metrics[name] = {"value": value(counts, self_s), "unit": unit}
        overhead = (latency_stats(traced)["wall_s"] / stats["wall_s"] - 1.0)
        metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    else:
        for name, unit in END_TO_END:
            if name == "setup_s":
                value = statistics.median(setups)
            elif name == "ok_share":
                value = sum(1 for t in tasks if t[2]) / len(tasks)
            else:
                value = stats[name]
            metrics[name] = {"value": value, "unit": unit}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": dict(passes[0]["versions"], nproc=os.cpu_count(),
                    blas_threads=BLAS_THREADS, git_sha=git_sha(ROOT), seed=seed,
                    platform=platform.platform()),
        "setup_s": setups,
        "passes": [dict(latency_stats([p]), traced=p["traced"], failures=p["failures"],
                        raw_wall_s=p["wall_s"], latencies_s=[t[1] for t in p["tasks"]],
                        calibration_s=p["calibration_s"]) for p in passes],
        "tasks_by_kind": dict(Counter(t[0] for t in passes[0]["tasks"])),
        "counts": traced[0]["counts"] if traced else None,
        "counts_repeat": counts_repeat,
        "metrics": metrics,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {"correct": failed == 0 and counts_repeat, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "reslab" / "__init__.py").is_file():
        print(f"error: no reslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            record, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        seen = set()
        for i, kind, reason, probe in (f for p in record["passes"] for f in p["failures"]):
            if (i, reason) not in seen:
                seen.add((i, reason))
                label = "known-defect probe" if probe else "task"
                print(f"{name}: {label} {i} ({kind}) failed: {reason}", file=sys.stderr)
        print(f"# {name} seed {args.seed}: {result['attempted']} tasks, "
              f"{result['failed']} failed, correct={result['correct']}")
        for metric, v in result["metrics"].items():
            print(f"#   {metric:48s} {v['value']:.6g} {v['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
