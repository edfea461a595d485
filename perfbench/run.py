"""Run one workload of the kbonacci benchmark and print its metrics.

    python3 perfbench/run.py --workload pressure-sweep --seed 1 --seconds 30 --trace 0

Commands run in a closed loop: one after another, from this single
process, each through ``kbonacci.cli.main(argv)`` with module caches
cleared first, as a fresh ``kbonacci`` process would see them.  The seed
fixes the commands of one pass (see ``workloads.py``) and their order in
each pass; passes repeat until ``--seconds`` is used up, at least
MIN_PASSES times.
Every command's output is checked (see ``checks.py``).

Times are in reference seconds (see ``speed.py``): each command's wall
time is scaled by the machine speed measured around it, and a command's
latency is its median over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the
traced passes (see ``tracing.py``).  The last line of stdout is one
JSON object; the lines before it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
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

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_REPEATS = 7
# Probes on each side of a command that give its machine speed.
PROBE_WINDOW = 3

# Set-up is timed as an import, and it is scaled by an import of the same
# kind that the program cannot change: numpy and argparse, which
# kbonacci.cli imports too.  Imports slow down with the machine differently
# from computation, so the speed probe does not fit them.
SETUP_CODE = """
import time
start = time.perf_counter()
import kbonacci.cli
kbonacci.cli.build_parser()
print(time.perf_counter() - start)
"""
BASE_IMPORT_CODE = """
import time
start = time.perf_counter()
import argparse, numpy
argparse.ArgumentParser()
print(time.perf_counter() - start)
"""
# The base import's typical time on an idle 2-vCPU x86-64 host.
BASE_IMPORT_REFERENCE_S = 0.15

END_TO_END_UNITS = {"run_s": "s", "cmd_p50_ms": "ms", "cmd_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def load_cli():
    """Import the package from this checkout's source tree."""
    if not (SRC / "kbonacci" / "cli.py").is_file():
        raise FileNotFoundError(f"no kbonacci sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from kbonacci import cli

    return cli


def module_caches() -> list:
    """The functools caches held by the package's modules."""
    return [
        obj
        for name, module in sorted(sys.modules.items())
        if name == "kbonacci" or name.startswith("kbonacci.")
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


def execute(cli, argv: list[str], caches: list) -> tuple[float, int, str, str]:
    """(wall seconds, exit code, stdout, stderr) of one in-process CLI command."""
    for cache in caches:
        cache.cache_clear()
    # Collect the previous command's garbage now, so the collector does
    # not bill it to this one.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            # A real process would die here with a traceback; record it as one.
            traceback.print_exc()
            code = 1
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median reference seconds to import kbonacci.cli and build its parser
    in a fresh interpreter.

    Each measurement is paired with a base import in the next fresh
    interpreter and scaled by BASE_IMPORT_REFERENCE_S over its time.
    """
    env = dict(os.environ)
    # An installed kbonacci imports from bytecode caches; measure that case.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def seconds(code: str) -> float:
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.split()[-1])

    seconds(SETUP_CODE)  # writes the bytecode caches; not counted
    return statistics.median(
        seconds(SETUP_CODE) * BASE_IMPORT_REFERENCE_S / seconds(BASE_IMPORT_CODE) for _ in range(repeats)
    )


class IncompleteTraceError(RuntimeError):
    """A layer the workload must exercise recorded no traced calls."""


class Pass:
    """One pass over the batch: wall time, per-command latencies, failures."""

    def __init__(self):
        self.seconds = 0.0
        self.latencies: list[float] = []  # reference seconds
        self.failures: list[tuple[str, str]] = []
        self.layers: dict[str, float] | None = None


def run_pass(cli, commands, golden, caches, order=None, tracer=None) -> Pass:
    """Run `commands` in `order` (indices; default as listed).

    Latencies are stored by position in `commands`, whatever the order.
    With a `tracer`, each command's span self times are added to it,
    scaled to reference seconds by the same factor as the command's latency.
    """
    order = list(range(len(commands))) if order is None else order
    result = Pass()
    walls = []
    spans = []
    probes = [speed.probe_seconds()]
    start = time.perf_counter()
    for index in order:
        argv = commands[index]
        if tracer is not None:
            tracer.begin_command()
        seconds, code, stdout, stderr = execute(cli, argv, caches)
        if tracer is not None:
            spans.append(tracer.end_command())
        probes.append(speed.probe_seconds())
        walls.append(seconds)
        reason = checks.check(argv, code, stdout, stderr, golden)
        if reason is not None:
            result.failures.append((checks.command_key(argv), reason))
    result.seconds = time.perf_counter() - start
    # The i-th command ran between probes i and i+1; a median over a few
    # probes on each side keeps one interrupted probe from skewing its speed.
    result.latencies = [0.0] * len(commands)
    for i, (index, wall) in enumerate(zip(order, walls)):
        local = statistics.median(probes[max(0, i + 1 - PROBE_WINDOW): i + 1 + PROBE_WINDOW])
        factor = speed.REFERENCE_S / local
        result.latencies[index] = wall * factor
        if tracer is not None:
            tracer.add_self_times(spans[i], factor)
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, linear between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(commands: int) -> int:
    """The highest of p90, p80, p75 with at least ten commands beyond it."""
    return next((q for q in (90, 80, 75) if commands * (100 - q) >= 1000), 50)


def command_latencies(passes: list[Pass]) -> list[float]:
    """Each command's median latency over the passes.

    The median, not the best: a probe slowed by an interrupt makes the
    command it brackets look fast, and the best of several runs would
    pick exactly those.
    """
    return [statistics.median(runs) for runs in zip(*(p.latencies for p in passes))]


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool, golden: dict[str, str]):
    """(commands, untraced passes, traced passes) of one run of `workload`.

    Untraced passes repeat until `seconds` is used up, and at least
    MIN_PASSES times.  With `trace`, untraced and traced passes alternate.
    """
    commands = workloads.batch(workload, seed)
    caches = module_caches()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        pressure_commands = sum(argv[0] == "pressure" for argv in commands)
    # Each pass runs the batch in a fresh order, so that a command's median
    # is not tied to the heap state one particular predecessor leaves.
    rng = random.Random(f"order:{workload}:{seed}")
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        order = rng.sample(range(len(commands)), len(commands))
        if trace and len(plain) > len(traced):
            tracer.reset()
            try:
                tracer.install()
                done = run_pass(cli, commands, golden, caches, order, tracer)
            finally:
                tracer.uninstall()
            missing = tracer.missing(workload)
            if missing:
                raise IncompleteTraceError(f"traced run recorded no calls in layer {', '.join(missing)} on {workload}")
            done.layers = tracer.metrics(pressure_commands)
            traced.append(done)
        else:
            plain.append(run_pass(cli, commands, golden, caches, order))
        elapsed = time.perf_counter() - start
        upcoming = traced if trace and len(plain) > len(traced) else plain
        enough = len(traced) >= 1 if trace else len(plain) >= MIN_PASSES
        if enough and elapsed + 0.5 * statistics.median(p.seconds for p in upcoming) >= seconds:
            return commands, plain, traced


def layer_metrics(plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Per-layer medians over the traced passes, and the tracing overhead."""
    values = {name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers}
    values["trace.run_s"] = sum(command_latencies(traced))
    values["trace.untraced_run_s"] = sum(command_latencies(plain))
    values["trace.overhead_frac"] = values["trace.run_s"] / values["trace.untraced_run_s"] - 1.0
    return values


def end_to_end_metrics(plain: list[Pass], setup_s: float) -> tuple[dict[str, float], dict[str, str]]:
    """(values, how each was sampled) of the end-to-end metrics."""
    latency_ms = [s * 1000.0 for s in command_latencies(plain)]
    tail = tail_percentile(len(latency_ms))
    values = {
        "run_s": sum(latency_ms) / 1000.0,
        "cmd_p50_ms": percentile(latency_ms, 50),
        "cmd_tail_ms": percentile(latency_ms, tail),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "run_s": f"sum over {len(latency_ms)} commands of the median of {len(plain)} passes",
        "cmd_p50_ms": f"p50 of {len(latency_ms)} per-command medians",
        "cmd_tail_ms": f"p{tail} of {len(latency_ms)} per-command medians",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters, each over a base import",
        "peak_rss_mb": "max RSS of this process",
    }
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_cli()
        golden = checks.load_golden()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    try:
        commands, plain, traced = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace), golden)
    except IncompleteTraceError as exc:
        print(f"perfbench: traced run failed: {exc}", file=sys.stderr)
        return 1
    failures = [f for p in plain + traced for f in p.failures]
    attempted = len(commands) * len(plain + traced)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes "
          f"of {len(commands)} commands, {attempted} attempted, {len(failures)} failed, "
          f"fail_frac {len(failures) / attempted:.4f}")
    for key, reason in failures[:10]:
        print(f"FAIL {key}: {reason}", file=sys.stderr)

    if args.trace:
        from tracing import PER_LAYER

        values, units, notes = layer_metrics(plain, traced), dict(PER_LAYER), {}
    else:
        values, notes = end_to_end_metrics(plain, setup_s)
        units = END_TO_END_UNITS
    for name, value in values.items():
        print(f"  {name:44s} {value:14.6g} {units[name]:5s} {notes.get(name, '')}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
