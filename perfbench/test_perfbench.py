"""Self-checks of the benchmark: its output checker, golden file and tracer."""

from __future__ import annotations

import json
import types
from pathlib import Path

import checks
import run
import tracing
import workloads

CLI = run.load_cli()
GOLDEN = checks.load_golden()
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

PRESSURE = ["pressure", "--k", "4", "--depth", "5", "--alpha", "1", "--statistic", "raw"]
LANG = ["lang", "--k", "2", "--depth", "30"]


def _corrupting_cli(target: list[str]):
    """A stand-in for kbonacci.cli whose main garbles one data row of `target`'s output."""

    def main(argv):
        code, stdout, stderr = _run(argv)
        if argv == target:
            lines = stdout.splitlines(keepends=True)
            lines[2] = lines[2].replace("4,1,5,", "4,1,6,", 1)
            stdout = "".join(lines)
        print(stdout, end="")
        return code

    return types.SimpleNamespace(main=main)


def _run(argv):
    _, code, stdout, stderr = run.execute(CLI, argv, run.module_caches())
    return code, stdout, stderr


def test_every_generated_command_has_a_golden_digest():
    for workload in workloads.WORKLOADS:
        missing = [argv for argv in workloads.catalogue(workload) if checks.command_key(argv) not in GOLDEN]
        assert not missing, f"{workload}: {missing[:3]}"


def test_batch_is_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.batch(workload, 5) == workloads.batch(workload, 5)
        assert workloads.batch(workload, 5) != workloads.batch(workload, 6)
        assert len(workloads.batch(workload, 5)) == 50


def test_correct_outputs_pass():
    for argv in (PRESSURE, LANG):
        code, stdout, stderr = _run(argv)
        assert checks.check(argv, code, stdout, stderr, GOLDEN) is None


def test_corrupted_row_raises_fail_frac_and_names_the_command():
    done = run.run_pass(_corrupting_cli(PRESSURE), [LANG, PRESSURE], GOLDEN, run.module_caches())
    assert len(done.failures) / 2 > 0
    assert done.failures == [(checks.command_key(PRESSURE), "output differs from the golden digest")]


def test_property_checks_hold_without_the_digest():
    code, stdout, stderr = _run(PRESSURE)
    lines = stdout.splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[4] = str(float(cells[5]) + 1.0)  # P_low above P_high
    lines[2] = ",".join(cells)
    bad = "".join(lines)
    reason = checks.check(PRESSURE, code, bad, stderr, {checks.command_key(PRESSURE): checks.digest(bad)})
    assert reason is not None and reason.startswith("pressure bracket")

    code, stdout, stderr = _run(LANG)
    bad = stdout.replace("\n3,4,", "\n3,5,", 1)
    reason = checks.check(LANG, code, bad, stderr, {checks.command_key(LANG): checks.digest(bad)})
    assert reason is not None and reason.startswith("lang complexity")

    verify = ["verify", "--k", "2", "--suites", "language"]
    bad = "PASS language: a\nFAIL language: b\n1/2 checks passed\n"
    reason = checks.check(verify, 0, bad, "", {checks.command_key(verify): checks.digest(bad)})
    assert reason is not None and reason.startswith("verify summary")


def test_digest_ignores_the_options_line_only():
    assert checks.digest("# threads=1 k=2\nn,x\n1,2\n") == checks.digest("# k=2\nn,x\n1,2\n")
    assert checks.digest("# k=2\nn,x\n1,2\n") != checks.digest("# k=2\nn,x\n1,3\n")


def test_tracer_wraps_names_imported_into_other_modules():
    import kbonacci.cli
    import kbonacci.recognition
    import kbonacci.renorm
    import kbonacci.verify
    import kbonacci.words

    aliases = [
        (kbonacci.recognition, "in_language"), (kbonacci.renorm, "brute_delta"),
        (kbonacci.verify, "brute_delta"), (kbonacci.cli, "pressure_curve"), (kbonacci.cli, "find_beta_c"),
    ]
    originals = [getattr(module, name) for module, name in aliases]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, name), original in zip(aliases, originals):
            assert getattr(module, name) is not original, f"{module.__name__}.{name} not traced"
        assert kbonacci.words.in_language is kbonacci.recognition.in_language
        done = run.run_pass(CLI, [PRESSURE], GOLDEN, run.module_caches(), tracer=tracer)
    finally:
        tracer.uninstall()
    assert done.failures == []
    assert [getattr(module, name) for module, name in aliases] == originals
    values = tracer.metrics(pressure_commands=1)
    assert values["pressure.sweeps_per_cmd"] == 2
    assert values["pressure.birkhoff_bounds.windows"] == 2 * 4**5
    assert 0 < values["pressure.self_s"] < done.latencies[0]
    assert tracer.missing("pressure-sweep") == []


def test_every_traced_method_exists():
    # install() skips a method the program no longer has; none is skipped today.
    import importlib

    for layer, cls_name, method, _ in tracing.METHODS:
        assert method in vars(getattr(importlib.import_module(f"kbonacci.{layer}"), cls_name))


def test_layer_check_counts_any_span_of_the_layer():
    tracer = tracing.Tracer()
    tracer.calls.update({"cli.main": 1, "pressure.find_beta_c": 1})
    assert tracer.missing("pressure-sweep") == ["potentials"]
    tracer.calls["potentials.some_new_function"] += 3
    assert tracer.missing("pressure-sweep") == []
    assert tracer.metrics(pressure_commands=1)["pressure.birkhoff_bounds.calls"] == 0


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_keeps_ten_commands_beyond_it():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(50) == 80
    assert run.tail_percentile(40) == 75
