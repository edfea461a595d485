"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/report.py --seeds 1-10 --seconds 30
    python3 perfbench/report.py --seeds 1-10 --seconds 30 --trace --repeat --scaling --write perfbench/baseline.json

Each run is a separate ``run.py`` process, as the benchmark is run for
real.  The table gives, per workload and end-to-end metric, the median,
the quartiles and their distance as a share of the median (the spread
that each metric's bound in BENCHMARK.json must cover), and fail_frac
over every command attempted.  ``--trace`` adds one traced run per
workload.  ``--repeat`` runs every workload over the same seeds a second
time and compares the two sets of medians against the bounds in
BENCHMARK.json.  ``--scaling`` adds the ungated scaling curves.
``--write`` records all of it with the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run
import speed
import workloads

HELD_OUT_SEED = 9001


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        summary[name] = {
            "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "unit": results[0]["metrics"][name]["unit"], "runs": len(values),
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary["fail_frac"] = {"median": failed / attempted, "unit": "frac", "attempted": attempted}
    return summary


def run_round(seeds: list[int], seconds: float, label: str) -> dict:
    """Every workload over `seeds`: the summary of each, printed as it goes."""
    summaries = {}
    for workload in workloads.WORKLOADS:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, seconds, trace=False))
            print(f"{label} {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()), file=sys.stderr)
        summary = summaries[workload] = summarise(results)
        print(f"\n{label}: {workload} ({len(seeds)} runs of {seconds:g} s)")
        for name, s in summary.items():
            if name == "fail_frac":
                print(f"  {name:12s} {s['median']:12.4g} {s['unit']:5s} over {s['attempted']} commands")
            else:
                print(f"  {name:12s} {s['median']:12.4g} {s['unit']:5s} q1 {s['q1']:.4g} q3 {s['q3']:.4g} "
                      f"spread {s['spread']:.3f}  n={s['runs']}")
    return summaries


def agreement(first: dict, repeat: dict) -> dict:
    """Per workload and end-to-end metric: the repeat's median over the
    first's, and whether both rounds stay within the metric's bound."""
    bounds = {m["name"]: m["bound"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    result = {}
    print("\nagreement (repeat median / first median)")
    for workload, metrics in first.items():
        result[workload] = {}
        for name, bound in bounds.items():
            ratio = repeat[workload][name]["median"] / metrics[name]["median"]
            spread = max(metrics[name]["spread"], repeat[workload][name]["spread"])
            result[workload][name] = {
                "repeat_over_first": ratio, "bound": bound, "within": abs(ratio - 1) <= bound,
                "spread_below_third_of_bound": spread < bound / 3,
            }
            print(f"  {workload:15s} {name:12s} {ratio:.3f}  bound {bound}  max spread {spread:.3f}")
    return result


def _timed(fn, *args) -> dict:
    before = speed.probe_seconds()
    start = time.perf_counter()
    fn(*args)
    wall = time.perf_counter() - start
    factor = speed.REFERENCE_S / statistics.median([before, speed.probe_seconds()])
    return {"wall_s": wall, "reference_s": wall * factor}


def scaling() -> dict:
    """birkhoff_bounds for k=2 over depth, build_language for k=3 over depth."""
    run.load_cli()
    from kbonacci.potentials import Potential
    from kbonacci.pressure import birkhoff_bounds
    from kbonacci.substitution import kbonacci
    from kbonacci.words import build_language

    sweep = []
    for n in range(10, 19):
        s = kbonacci(2)
        s.language(n)  # the language build is not the sweep's cost
        point = _timed(birkhoff_bounds, s, Potential.v0(1.0), n)
        sweep.append({"n": n, "windows": 2**n, **point})
        print(f"  birkhoff_bounds k=2 n={n}: {point['wall_s']:.3f} s", file=sys.stderr)
    language = []
    for depth in range(25, 201, 25):
        point = _timed(build_language, kbonacci(3), depth)
        language.append({"depth": depth, **point})
        print(f"  build_language k=3 depth={depth}: {point['wall_s']:.3f} s", file=sys.stderr)
    return {"pressure.birkhoff_bounds k=2": sweep, "words.build_language k=3": language}


def machine() -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--repeat", action="store_true", help="run every workload a second time and compare")
    parser.add_argument("--scaling", action="store_true", help="add the scaling curves")
    parser.add_argument("--write", help="write the record as JSON to this path")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    record = {
        "machine": machine(), "seeds": seeds, "held_out_seed": HELD_OUT_SEED, "run_seconds": args.seconds,
        "tail_percentile": {w: run.tail_percentile(len(workloads.batch(w, seeds[0]))) for w in workloads.WORKLOADS},
        "units": "end_to_end times, per_layer self_s and scaling reference_s are reference seconds "
                 "(see speed.py)",
        "end_to_end": run_round(seeds, args.seconds, "first"), "per_layer": {},
    }
    if args.trace:
        for workload in workloads.WORKLOADS:
            record["per_layer"][workload] = run_once(workload, seeds[0], args.seconds, trace=True)["metrics"]
    if args.repeat:
        record["end_to_end_repeat"] = run_round(seeds, args.seconds, "repeat")
        record["agreement"] = agreement(record["end_to_end"], record["end_to_end_repeat"])
    if args.scaling:
        record["scaling"] = scaling()
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
