"""Benchmark of ``ioncavity``: one workload per invocation, checked against an oracle.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run repeats whole passes over the workload's operations until
``--seconds`` have gone, checking every output of every pass, and measures
``setup_s`` (``import ioncavity.cli`` in fresh interpreters) before and
after the passes.  Each timing metric is formed from the operations' median
times over the passes; on ``closed_form`` each time is first scaled to the
host's nominal speed by the probe in ``hostspeed.py``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run makes
the same untraced passes, then one pass with every public function of the
layers wrapped (see ``spans.py``), and writes its spans to ``perfbench/out``.

BLAS runs on one thread, so every workload runs on one thread of work.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Tuple

import hostspeed
import moments
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: fresh interpreters whose import time gives setup_s, timed before the
#: passes (after one warm-up import that also writes the byte-code cache) and
#: again after them, so the median spans the run and not one moment of the host
SETUP_SAMPLES = 4
#: fresh interpreters run under -X importtime in a traced run
IMPORTTIME_SAMPLES = 3

IMPORT_CLI = "import ioncavity.cli"


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(args: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)


def time_imports(warm_up: bool) -> List[float]:
    """Times of ``import ioncavity.cli``, each in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); " + IMPORT_CLI
            + "; print(repr(time.perf_counter() - t0))")
    if warm_up:
        _python(["-c", code])
    return [float(_python(["-c", code]).stdout) for _ in range(SETUP_SAMPLES)]


def measure_import_layers() -> Dict[str, float]:
    """Median self import time of numpy, scipy and ioncavity (python -X importtime)."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_SAMPLES):
        totals = defaultdict(float)
        for line in _python(["-X", "importtime", "-c", IMPORT_CLI]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us = float(parts[0].split(":")[1])
            except ValueError:
                continue  # the header line
            package = parts[2].strip().split(".")[0]
            if package in ("numpy", "scipy", "ioncavity"):
                totals[package] += self_us * 1e-6
        for package in ("numpy", "scipy", "ioncavity"):
            samples[package].append(totals[package])
    return {f"setup.{p}_s": statistics.median(v) for p, v in samples.items()}


def import_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import ioncavity.cli

    if not Path(ioncavity.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"imported ioncavity from {ioncavity.__file__}, not {SRC}")
    return SimpleNamespace(**{name: sys.modules[f"ioncavity.{name}"] for name in spans.LAYERS})


class Tally:
    """Operations attempted and failed, and the worst error of each check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: List[str] = []
        self.mismatches: List[str] = []
        self.worst: Dict[str, Tuple[float, float]] = {}

    def judge(self, where: str, checks) -> None:
        for quantity, err, tol in checks:
            key = f"{where}: {quantity}"
            if key not in self.worst or err > self.worst[key][0]:
                self.worst[key] = (err, tol)
            if not err <= tol:
                self.mismatches.append(f"{key}: error {err:.3e} > tolerance {tol:.1e}")


def run_pass(ops, tally: Tally, tracer=None, readings=None) -> List[Tuple[object, float]]:
    """Run every operation once; return (op, seconds) of each.  With a list
    for ``readings``, read the host-speed probe before each operation and
    after the last, and append the readings to it."""
    timings = []
    for index, op in enumerate(ops):
        if readings is not None:
            readings.append(hostspeed.reading())
        tally.attempted += 1
        span = tracer.operation(index, op.name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            timings.append((op, time.perf_counter() - t0))
            tally.failed.append(f"{op.name}: {type(exc).__name__}: {exc}")
            print(f"operation {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        timings.append((op, time.perf_counter() - t0))
        try:
            checks = op.check(result)
        except Exception as exc:  # an output too malformed to check is a mismatch
            checks = [(f"check raised {type(exc).__name__}: {exc}", math.inf, 0.0)]
        tally.judge(op.name, checks)
    if readings is not None:
        readings.append(hostspeed.reading())
    return timings


def scaled(timings: List[Tuple[object, float]], readings: List[float]) -> List[Tuple[object, float]]:
    """Each operation's time at the probe's nominal speed, from the pass's
    ``len(timings) + 1`` readings (see ``hostspeed``)."""
    return [(op, seconds * hostspeed.NOMINAL_S / (0.5 * (readings[k] + readings[k + 1])))
            for k, (op, seconds) in enumerate(timings)]


def workload_metrics(ops, op_seconds: Dict[str, List[float]]) -> Dict[str, float]:
    """``wall_s`` and the figures of the workload's own commands, from each
    operation's median time over the passes.  Only ``wall_s`` applies to every
    workload, so the command figures are reported with the per-layer metrics
    (prefixed ``untraced.``), where a workload without the command reads 0."""
    median = {op.name: statistics.median(op_seconds[op.name]) for op in ops}
    by_kind = defaultdict(list)
    for op in ops:
        by_kind[op.kind].append(op)
    wall = sum(median.values())
    out = {"wall_s": wall}
    if "simulate" in by_kind:
        rows = sum(op.rows for op in by_kind["simulate"])
        out["untraced.simulate_rows_per_s"] = rows / sum(median[op.name] for op in by_kind["simulate"])
    if "sweep-ratio" in by_kind:
        out["untraced.sweep_ratio_s"] = statistics.mean(median[op.name] for op in by_kind["sweep-ratio"])
    if "validate" in by_kind:
        out["untraced.validate_s"] = statistics.mean(median[op.name] for op in by_kind["validate"])
    if "joint" in by_kind:
        out["untraced.joint_states_per_s"] = len(by_kind["joint"]) / wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ioncavity" / "__init__.py").is_file():
        print(f"error: the program is not in {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    oracle_problems = moments.self_check()
    if oracle_problems:
        print("error: " + "; ".join(oracle_problems), file=sys.stderr)
        return 3

    setup = measure_import_layers() if args.trace else {}
    imports = [] if args.trace else time_imports(warm_up=True)
    ic = import_program()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        work = workloads.WORKLOADS[args.workload](ic, args.seed, workdir)
        tally = Tally()
        tally.judge("precheck", work.prechecks)
        op_seconds: Dict[str, List[float]] = defaultdict(list)
        raw_seconds: Dict[str, List[float]] = defaultdict(list)
        readings: List[float] = []
        passes = 0
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            pass_readings = [] if work.probe else None
            timings = run_pass(work.ops, tally, readings=pass_readings)
            for op, seconds in timings:
                raw_seconds[op.name].append(seconds)
            if work.probe:
                readings.extend(pass_readings)
                timings = scaled(timings, pass_readings)
            for op, seconds in timings:
                op_seconds[op.name].append(seconds)
            passes += 1
        untraced = workload_metrics(work.ops, op_seconds)
        untraced["untraced.raw_wall_s"] = sum(statistics.median(v) for v in raw_seconds.values())
        untraced["untraced.probe_s"] = statistics.median(readings) if readings else 0.0
        if not args.trace:
            setup["setup_s"] = statistics.median(imports + time_imports(warm_up=False))
        untraced["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layers = {}
        if args.trace:
            tracer = spans.Tracer()
            traced_readings = [] if work.probe else None
            tracer.install()
            try:
                traced = run_pass(work.ops, tally, tracer, readings=traced_readings)
            finally:
                tracer.uninstall()
            if work.probe:
                traced = scaled(traced, traced_readings)
            tracer.write(str(OUT / f"{args.workload}-seed{args.seed}-spans.csv"))
            layers = dict(tracer.summary(), **setup)
            layers.update((k, v) for k, v in untraced.items() if k.startswith("untraced."))
            layers["trace.overhead_s"] = sum(sec for _, sec in traced) - untraced["wall_s"]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {name: layers.get(name, 0.0) for name in units}
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            measured = dict(untraced, **setup)
            metrics = {name: measured[name] for name in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in tally.failed:
        print(f"failed: {line}", file=sys.stderr)
    for line in tally.mismatches:
        print(f"MISMATCH: {line}", file=sys.stderr)
    report = {
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {name: {"value": round(value) if units[name] == "count" else value,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }
    detail = dict(report, passes=passes, readings=readings, op_seconds=op_seconds,
                  raw_seconds=raw_seconds, untraced=untraced, layers=layers,
                  failures=tally.failed, mismatches=tally.mismatches,
                  worst={k: {"error": e, "tolerance": t} for k, (e, t) in tally.worst.items()})
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
