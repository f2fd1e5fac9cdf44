"""Closed-loop benchmark of the shiftlab command line.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 32 --trace 0

One process, no threads, one request at a time: each request of the
workload's seeded list is passed to ``shiftlab.cli.main(argv)`` in-process,
so interpreter start-up is paid once and reported separately as
``setup_s``.  The list is run in whole passes, at least ``MIN_PASSES``,
until ``--seconds`` of request time is spent.  Each request's time is
scaled to a reference host speed by calibration samples taken just before
and after it (see ``calibrate.py``); ``wall_s`` and the latency
percentiles come from each request's median scaled time over the passes,
and the ``measured:`` line shows them unscaled.  Every report is checked against a reference that the
benchmark computes itself (see ``checks.py``); the checks run outside the
timed interval.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``tracing.py``) plus their
overhead.  ``--profile`` runs one pass under cProfile and prints the top
functions per layer.  ``--workload all`` runs the three workloads in turn.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import io
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
import calibrate  # noqa: E402
from calibrate import Calibration  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 15
# Fewest passes over the request list in one run, so that each request's
# median time has samples from several moments of the run.
MIN_PASSES = 3
SPAN_DIR = HERE / "out"
# Per-layer metrics the runner measures itself rather than the tracer.
RUNNER_METRICS = ("cli.out_bytes", "trace_overhead")


def load_shiftlab():
    """Import the checkout's shiftlab from src/, never an installed copy."""
    if not (SRC / "shiftlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no shiftlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shiftlab.cli

    if SRC.resolve() not in Path(shiftlab.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported shiftlab from {shiftlab.__file__}")
    return shiftlab.cli


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m for m in spec["end_to_end"]},
        {m["name"]: m for m in spec["per_layer"]},
    )


class SetupProbe:
    """Set-up time: a fresh interpreter that imports shiftlab and builds the
    workload's argv list, scaled to the reference host by calibration
    samples just before and after it.  The probes are spread evenly over
    the run's request time, and the median is reported.  One unmeasured
    probe first writes the bytecode caches, as any installed copy would
    have them."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
        self.every = seconds / SETUP_REPEATS
        self.spent = 0.0
        self.times = []
        self.calibration = Calibration()
        self._probe()

    def _probe(self) -> float:
        before = self.calibration.sample()
        start = time.perf_counter()
        subprocess.run(self.cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        return elapsed * calibrate.scale(before, self.calibration.sample())

    def tick(self, request_s: float) -> None:
        """Called after each request; probes when its share of time is due."""
        self.spent += request_s
        if len(self.times) < SETUP_REPEATS and self.spent >= self.every * len(self.times):
            self.times.append(self._probe())

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.times.append(self._probe())
        return statistics.median(self.times)


class Runner:
    """Runs request lists through cli.main and checks every report."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.seen = {}  # request index -> (exit code, output hash, verdict)
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures outside the known failing slice
        self.rejected = []  # argv lists the CLI's argument parser refused

    def call(self, argv) -> tuple[float, int, str, str]:
        """Seconds, exit code, stdout and stderr of one CLI invocation."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # the argument parser refused the argv
                code = exc.code if isinstance(exc.code, int) else 2
                self.rejected.append(argv)
            except Exception:  # a traceback is exit code 1 for a CLI user
                code = 1
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), err.getvalue()

    def run_pass(self, tracer=None, after=None) -> tuple[list[float], int]:
        """One pass over the list: per-request seconds and bytes written.
        ``after(seconds)`` is called after each request, outside its time."""
        gc.collect()
        times, out_bytes = [], 0
        for i, req in enumerate(self.requests):
            if tracer is not None:
                tracer.request = i
            elapsed, code, text, err = self.call(req.argv)
            times.append(elapsed)
            out_bytes += len(text.encode())
            self._check(i, req, code, text, err)
            if after is not None:
                after(elapsed)
        return times, out_bytes

    def _check(self, i, req, code, text, err) -> None:
        key = (code, hash(text))
        seen = self.seen.get(i)
        if seen is not None and seen[:2] == key:
            verdict = seen[2]
        else:
            verdict = checks.check(req, code, text)
            if verdict is not None and err.strip():
                verdict += ": " + err.strip().splitlines()[-1]
            self.seen[i] = (*key, verdict)
        self.attempted += 1
        if verdict is not None:
            self.failed += 1
            if not (req.known_failure and code == 3):
                self.unexpected.append((req.argv, verdict))


def _quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def typical_times(passes) -> list[float]:
    """Each request's median time over the passes."""
    return [statistics.median(column) for column in zip(*passes)]


def end_to_end(workload, seed, seconds, cli, requests) -> tuple[Runner, dict, int]:
    probe = SetupProbe(workload, seed, seconds)
    calibration = Calibration()

    def after(elapsed):
        calibration.add(elapsed)
        probe.tick(elapsed)

    runner = Runner(cli, requests)
    passes, scaled = [], []
    while len(passes) < MIN_PASSES or sum(map(sum, passes)) + sum(passes[-1]) <= seconds:
        passes.append(runner.run_pass(after=after)[0])
        scaled.append(calibration.take())
    raw, typical = typical_times(passes), typical_times(scaled)
    print("measured: " + json.dumps({
        "wall_s": sum(raw),
        "latency_p50_ms": 1e3 * statistics.median(raw),
        "latency_p90_ms": 1e3 * _quantile(raw, 90),
        "calibration_median_s": statistics.median(calibration.samples),
        "calibration_reference_s": calibrate.REFERENCE_S,
    }))
    metrics = {
        "setup_s": probe.median(),
        "wall_s": sum(typical),
        "latency_p50_ms": 1e3 * statistics.median(typical),
        "latency_p90_ms": 1e3 * _quantile(typical, 90),
        "ok_rate": 1.0 - runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return runner, metrics, len(passes)


def traced(workload, seed, seconds, cli, requests, names) -> tuple[Runner, dict, int]:
    runner = Runner(cli, requests)
    tracer = Tracer()
    plain, traced_passes, per_pass = [], [], []
    spent = 0.0
    while not plain or spent + sum(plain[-1]) + sum(traced_passes[-1]) <= seconds:
        times, _ = runner.run_pass()
        plain.append(times)
        tracer.reset()
        tracer.install()
        try:
            times, out_bytes = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced_passes.append(times)
        spent += sum(plain[-1]) + sum(times)
        values = tracer.metrics(names)
        values["cli.out_bytes"] = out_bytes
        per_pass.append(values)
    print(f"spans: {write_spans(tracer, workload, seed).relative_to(ROOT)}")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace_overhead"] = sum(typical_times(traced_passes)) / sum(typical_times(plain))
    metrics["traced_self_over_wall"] = (
        sum(tracer.self_times()[0].values()) / sum(traced_passes[-1])
    )
    return runner, metrics, len(plain)


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    """Spans of the last traced pass, one JSON array per line."""
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        fh.write('["id", "parent", "request", "name", "start_s", "end_s"]\n')
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def profile(cli, requests) -> Runner:
    """One pass under cProfile; the top functions of each layer by own time."""
    runner = Runner(cli, requests)
    profiler = cProfile.Profile()
    profiler.enable()
    runner.run_pass()
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    by_layer = {layer: [] for layer in LAYERS}
    for (filename, line, func), (_, calls, own, total, _) in stats.items():
        path = Path(filename)
        if path.parent.name == "shiftlab" and path.stem in by_layer:
            by_layer[path.stem].append((own, total, calls, f"{func}:{line}"))
    for layer, rows in by_layer.items():
        print(f"[{layer}] own_s total_s calls function")
        for own, total, calls, where in sorted(rows, reverse=True)[:8]:
            print(f"  {own:9.4f} {total:9.4f} {calls:9d} {where}")
    return runner


def run_workload(args, cli, e2e_specs, layer_specs) -> tuple[Runner, dict]:
    requests = workloads.build(args.workload, args.seed)
    meta = workloads.describe(args.workload, requests)
    if args.profile:
        return profile(cli, requests), {}
    if args.trace:
        names = [n for n in layer_specs if n not in RUNNER_METRICS]
        runner, metrics, passes = traced(
            args.workload, args.seed, args.seconds, cli, requests, names
        )
        specs = layer_specs
    else:
        runner, metrics, passes = end_to_end(
            args.workload, args.seed, args.seconds, cli, requests
        )
        specs = e2e_specs
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": len(requests),
        "passes": passes,
        "latency_samples": len(requests),  # per-request medians over the passes
        "fail_rate": runner.failed / runner.attempted,
    }
    print("env: " + json.dumps(env))
    print("workload: " + json.dumps(meta))
    for argv, verdict in runner.unexpected[:10]:
        print(f"FAILED: {' '.join(argv)[:160]}: {verdict}")
    print(f"{'metric':42} {'value':>14} {'unit':6} better")
    for name, value in metrics.items():
        spec = specs.get(name, {"unit": "ratio", "better": "-"})
        print(f"{name:42} {value:14.6g} {spec['unit']:6} {spec['better']}")
    reported = {
        name: {"value": metrics[name], "unit": spec["unit"]} for name, spec in specs.items()
    }
    return runner, reported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    cli = load_shiftlab()
    e2e_specs, layer_specs = metric_specs()
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        args.workload = name
        runner, reported = run_workload(args, cli, e2e_specs, layer_specs)
        correct = correct and not runner.unexpected
        attempted += runner.attempted
        failed += runner.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in reported.items()})
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
