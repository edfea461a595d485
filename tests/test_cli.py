import argparse
import contextlib
import io
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kbonacci.recognition
import kbonacci.renorm
from kbonacci import Potential, cli, renorm_power
from kbonacci.cli import main
from kbonacci.renorm import MODES
from kbonacci.sampling import sample_configurations

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lang_table(capsys):
    code, out = run(capsys, "lang", "--k", "3", "--depth", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "n,complexity,left_special,right_special,bispecial"
    assert lines[2].startswith("1,3,1,1,")
    assert lines[4].startswith("3,7,1,1,010")


def test_spectral_matches_cardan(capsys):
    code, out = run(capsys, "spectral", "--k", "3")
    assert code == 0
    lam_line = next(l for l in out.splitlines() if l.startswith("lambda,"))
    lam = float(lam_line.split(",")[2])
    cardan = (
        (19 + 3 * math.sqrt(33)) ** (1 / 3) + (19 - 3 * math.sqrt(33)) ** (1 / 3) + 1
    ) / 3
    assert abs(lam - cardan) < 1e-11


def test_pressure_beta_zero_row(capsys):
    code, out = run(capsys, "pressure", "--k", "2", "--alpha", "1", "--depth", "8",
                    "--beta-grid", "0.01:64:8")
    assert code == 0
    first = next(l for l in out.splitlines() if l.startswith("2,1,8,0.01,"))
    _, _, _, _, lo, hi = first.split(",")
    # beta = 0.01 sits near log 2; the exact beta=0 value is a library-level test
    assert 0 < float(lo) <= float(hi) < math.log(2) + 1e-9


def test_verify_exits_zero(capsys):
    code, out = run(capsys, "verify", "--k", "3", "--suites", "spectral,language")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_full_small_k(capsys):
    code, out = run(capsys, "verify", "--k", "2")
    assert code == 0, out


@pytest.mark.parametrize("k", [6, 8])
def test_verify_past_k_5_exits_zero(k, capsys):
    # the pressure suite sweeps the largest depth n <= 10 whose k^n
    # windows fit the sweep budget: 8 at k = 6, 7 at k = 8
    code, out = run(capsys, "verify", "--k", str(k))
    assert code == 0, out
    assert out.splitlines()[-1] == "17/17 checks passed"


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert len(cli.COMMANDS) == 7
    for name, (help_text, _, _) in cli.COMMANDS.items():
        assert f"    {name:<20}{help_text}\n" in out
    # each command's usage and errors are written under its own name
    full = _subparsers(cli.build_parser())
    assert list(full) == list(cli.COMMANDS)
    for name in cli.COMMANDS:
        assert full[name].prog == f"kbonacci {name}"


def outcome(argv):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_with_the_full_parser(argv):
    return cli.build_parser().parse_args(argv)


# The full parser answers whatever the option table declines: help, no
# command, an unknown one, an abbreviated, repeated or unknown flag, a bad or
# negative value, "--" and leftover arguments.
@pytest.mark.parametrize("argv", [["--help"], ["delta", "--help"], ["bogus"], [], ["delta", "--bogus"],
                                  ["renorm", "--mode", "x"], ["lang", "--k", "2", "--depth", "3"],
                                  ["lang", "--dep", "3"], ["lang", "--k=2", "--depth", "3"],
                                  ["lang", "--depth", "3", "stray"], ["lang", "--", "--k", "2"],
                                  ["pressure", "--depth", "x"], ["-h", "--k"],
                                  ["lang", "--depth", "3", "--depth", "4"], ["delta", "--seed", "-3"],
                                  ["pressure", "--beta-grid=0.01:64:8"]])
def test_main_answers_as_with_the_full_parser(argv, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(argv) or build())
    answer = outcome(argv)
    table = cli._read_options(argv[0], argv[1:]) if argv and argv[0] in cli.COMMANDS else None
    assert built == ([argv] if table is None else [])
    monkeypatch.setattr(cli, "_parse_args", parse_with_the_full_parser)
    assert outcome(argv) == answer
    if argv == ["delta", "--bogus"]:
        assert answer[2].startswith("usage: kbonacci [-h] {lang,delta,recog,spectral,renorm,pressure,verify} ...\n")


# One well-formed command of each kind the benchmark catalogue runs, small.
WELL_FORMED = [["lang", "--k", "3", "--depth", "30"],
               ["delta", "--k", "3", "--samples", "2", "--n-max", "10", "--seed", "1"],
               ["recog", "--k", "2", "--n-max", "6", "--window", "2000"],
               ["spectral", "--k", "3"],
               ["renorm", "--mode", "brute-force", "--k", "2", "--n-max", "3", "--samples", "1", "--alpha", "0.5"],
               ["renorm", "--mode", "study", "--k", "3", "--n-max", "8", "--alpha", "2", "--seed", "3"],
               ["renorm", "--mode=closed-form", "--k=3", "--n-max=5", "--samples=2"],
               ["pressure", "--k", "2", "--depth", "8", "--alpha", "1", "--statistic", "excess"],
               ["verify", "--k", "2", "--suites", "language,recognizability"]]


@pytest.mark.parametrize("argv", WELL_FORMED)
def test_a_well_formed_command_builds_no_parser(argv, monkeypatch):
    answer = outcome(argv)
    assert answer[0] == 0, answer

    def refuse(*args, **kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert outcome(argv) == answer


def test_no_option_has_a_str_default_and_a_type():
    # argparse converts a str default through the type; the option table does not
    for name, (_, _, options) in cli.COMMANDS.items():
        for flag, type_, default, _, _ in options:
            assert not (type_ is not None and isinstance(default, str)), (name, flag)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["pressure", "--depth", "not-a-number"])
    assert exc.value.code == 2


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_budget_exit_code(capsys):
    code = main(["pressure", "--k", "3", "--depth", "25", "--beta-grid", "0.01:1:2"])
    assert code == 3


def run_capped(argv):
    # in a child capped at 2 GB of address space, so an unbudgeted index
    # ends in a MemoryError there instead of filling the host's memory
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "kbonacci.cli", *argv], capture_output=True, text=True,
                          env=env, preexec_fn=cap, timeout=120)


@pytest.mark.parametrize("argv", [["lang", "--k", "10", "--depth", "1100"],
                                  ["lang", "--k", "2", "--depth", "100000"],
                                  ["recog", "--k", "2", "--window", "100000000"],
                                  ["lang", "--k", "2", "--depth", "4181"]])
def test_language_index_past_the_length_budget_exits_3(argv):
    proc = run_capped(argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert sum("budget exceeded:" in line for line in proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("depth", [700, 4180])
def test_language_index_within_the_length_budget_exits_0(depth):
    # lang reads no layer's words, so only the slices of the top layer
    # are charged: depth 4180 (an index of depth 4181) is the deepest at
    # k = 2 within the default budget
    proc = run_capped(["lang", "--k", "2", "--depth", str(depth)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(f"{depth},{depth + 1},1,1,")


def test_the_runtime_does_not_import_mpmath():
    # mpmath is a test oracle only; verify --k 3 --suites renorm sums
    # inverse powers over ranges of 3.9 M terms
    script = "\n".join([
        "import sys",
        "from kbonacci.cli import main",
        "codes = [main(['renorm', '--mode', 'study', '--k', '4', '--n-max', '20', '--alpha', '0.5']),",
        "         main(['verify', '--k', '3', '--suites', 'renorm'])]",
        "print(codes, 'mpmath' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


def test_importing_the_cli_loads_no_dataclasses():
    # the package's records are NamedTuples and plain classes, so a fresh
    # process pays for no generated dataclass methods; numpy and argparse
    # are imported first, so the check holds whether or not they load it
    script = "\n".join([
        "import sys",
        "import argparse, numpy",
        "before = set(sys.modules)",
        "import kbonacci.cli",
        "print(' '.join(sorted(set(sys.modules) - before)))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "kbonacci.cli" in added and "dataclasses" not in added


@pytest.mark.parametrize("argv, bisections", [(["delta", "--k", "3", "--samples", "4", "--n-max", "10"], 4),
                                             (["verify", "--k", "3", "--suites", "delta"], 8),
                                             (["renorm", "--k", "3", "--samples", "2", "--n-max", "10"], 2),
                                             (["renorm", "--mode", "brute-force", "--k", "3", "--samples", "2",
                                               "--n-max", "4"], 2)])
def test_one_break_bisection_per_configuration(argv, bisections, monkeypatch, capsys):
    # maximal_prefix bisects through recognition.brute_delta; the
    # scans of s^n(x) by verify and by brute-force renorm call the names
    # imported into those modules and are not counted
    calls = []
    original = kbonacci.recognition.brute_delta

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kbonacci.recognition, "brute_delta", counted)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == bisections



@pytest.mark.parametrize("argv, configurations", [(["delta", "--k", "3", "--samples", "4", "--n-max", "20"], 4),
                                                  (["renorm", "--mode", "study", "--k", "3", "--samples", "2",
                                                    "--n-max", "20"], 2)])
def test_one_letter_count_and_kbonacci_check_per_configuration(argv, configurations, monkeypatch, capsys):
    # every level's break is read off one count of the letters of w, and
    # the delta column still equals delta_after_power level by level
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for module in (cli, kbonacci.renorm):
        monkeypatch.setattr(module, "_letter_counts", counted("count", module._letter_counts))
        monkeypatch.setattr(module, "require_kbonacci", counted("check", module.require_kbonacci))
    code, out = run(capsys, *argv)
    assert code == 0
    assert calls.count("count") == calls.count("check") == configurations
    if argv[0] == "delta":
        s = kbonacci.kbonacci(3)
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert len(rows) == configurations * 18
        for _, text, _, n, delta in rows:
            w = kbonacci.maximal_prefix(s, kbonacci.Configuration.from_text(text))
            assert int(delta) == kbonacci.delta_after_power(s, w, int(n))

def test_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["delta", "--k", "3", "--samples", "4", "--seed", "42",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_samples(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["delta", "--k", "3", "--samples", "4", "--seed", "1", "--out", str(a)]) == 0
    assert main(["delta", "--k", "3", "--samples", "4", "--seed", "2", "--out", str(b)]) == 0
    assert a.read_text().splitlines()[1] == b.read_text().splitlines()[1]  # same header
    assert a.read_bytes() != b.read_bytes()


def test_config_file_input(tmp_path, capsys):
    cfg = tmp_path / "points.txt"
    cfg.write_text("head=0000 tail=const:0\nhead=111 tail=const:1\n")
    code, out = run(capsys, "delta", "--k", "3", "--n-max", "3", "--config", str(cfg))
    assert code == 0
    assert "head=0000 tail=const:0,2,3,21" in out


def test_substitution_file(tmp_path, capsys):
    from kbonacci import kbonacci

    sub = tmp_path / "fib.txt"
    sub.write_text(kbonacci(2).to_text())
    code, out = run(capsys, "spectral", "--substitution", str(sub))
    assert code == 0
    lam_line = next(l for l in out.splitlines() if l.startswith("lambda,"))
    assert abs(float(lam_line.split(",")[2]) - (1 + math.sqrt(5)) / 2) < 1e-10


def test_renorm_study_output(capsys):
    code, out = run(capsys, "renorm", "--k", "3", "--samples", "1", "--n-max", "8")
    assert code == 0
    assert "fixed-point:converges" in out


@pytest.mark.parametrize("mode", MODES)
def test_renorm_mode_rows_are_renorm_power(mode, capsys):
    code, out = run(capsys, "renorm", "--mode", mode, "--k", "3", "--samples", "3", "--n-max", "4")
    assert code == 0
    s = kbonacci.kbonacci(3)
    expected = [
        ",".join(f"{c:.12g}" if isinstance(c, float) else str(c)
                 for c in (3, 1.0, 4, i, renorm_power(s, Potential.v0(1.0), x, 4, mode), mode))
        for i, x in enumerate(sample_configurations(s, 3, 0))
    ]
    assert out.splitlines()[2:] == expected


@pytest.mark.parametrize("mode", MODES)
def test_renorm_at_n_max_zero_prints_the_potential(mode, capsys):
    code, out = run(capsys, "renorm", "--mode", mode, "--k", "3", "--samples", "2", "--n-max", "0")
    assert code == 0
    assert out.splitlines()[2:] == [f"3,1,0,0,0.111111111111,{mode}", f"3,1,0,1,0.333333333333,{mode}"]


def test_closed_form_renorm_below_k_is_a_usage_error(capsys):
    assert_usage_error(capsys, main(["renorm", "--mode", "closed-form", "--k", "3", "--n-max", "1"]))


def test_recog_output(capsys):
    code, out = run(capsys, "recog", "--k", "2", "--n-max", "3", "--window", "2000")
    assert code == 0
    for line in out.splitlines()[2:]:
        assert line.endswith(",1")


def assert_usage_error(capsys, code):
    err = capsys.readouterr().err
    assert code == 2
    assert sum("error:" in line for line in err.splitlines()) == 1 and "Traceback" not in err


def test_config_line_without_tail_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "points.txt"
    cfg.write_text("head=0000\n")
    assert_usage_error(capsys, main(["delta", "--k", "3", "--config", str(cfg)]))


@pytest.mark.parametrize("suites", ["nope", ""])
def test_unknown_suite_is_a_usage_error(suites, capsys):
    assert_usage_error(capsys, main(["verify", "--k", "3", "--suites", suites]))


@pytest.mark.parametrize("argv", [["lang", "--depth", "-1"], ["delta", "--samples", "-1"]])
def test_negative_count_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert_usage_error(capsys, exc.value.code)


@pytest.mark.parametrize("command", ["delta", "renorm"])
def test_non_primitive_substitution_is_a_usage_error(command, tmp_path, capsys):
    sub = tmp_path / "non_primitive.txt"
    sub.write_text("3\n01\n1\n2\n")
    cfg = tmp_path / "points.txt"
    cfg.write_text("head=0000 tail=const:0\n")
    code = main([command, "--substitution", str(sub), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("samples", [str(cli.MAX_SAMPLES + 1), "100000000000000000000000"])
@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("command", [["delta", "--k", "2"],
                                     ["renorm", "--k", "2", "--n-max", "3", "--mode", "closed-form"]])
def test_samples_past_the_cap_is_a_usage_error(command, joined, samples, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("configurations were sampled")

    # a count past the cap is refused while parsing, before any sampling
    monkeypatch.setattr(cli, "sample_configurations", refuse)
    argv = command + ([f"--samples={samples}"] if joined else ["--samples", samples])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert_usage_error(capsys, exc.value.code)


def test_samples_at_the_cap_parse():
    assert cli._read_options("delta", ["--samples", str(cli.MAX_SAMPLES)]).samples == cli.MAX_SAMPLES


@pytest.mark.parametrize("n_max", [str(cli.MAX_LEVELS + 1), "100000000000000000000000"])
@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("command", [["delta", "--k", "2", "--samples", "1"], ["recog", "--k", "2"],
                                     ["renorm", "--k", "2", "--samples", "1", "--mode", "closed-form"]])
def test_n_max_past_the_cap_is_a_usage_error(command, joined, n_max, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a substitution was loaded")

    # a level count past the cap is refused while parsing, before any length table grows
    monkeypatch.setattr(cli, "_load_substitution", refuse)
    argv = command + ([f"--n-max={n_max}"] if joined else ["--n-max", n_max])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert_usage_error(capsys, exc.value.code)


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("command", ["delta", "recog", "renorm"])
def test_n_max_at_the_cap_parses(command, joined):
    flag = [f"--n-max={cli.MAX_LEVELS}"] if joined else ["--n-max", str(cli.MAX_LEVELS)]
    assert cli._read_options(command, flag).n_max == cli.MAX_LEVELS
    assert cli.build_parser().parse_args([command, *flag]).n_max == cli.MAX_LEVELS


@pytest.mark.parametrize("command, n_column", [(["delta", "--k", "10"], 3),
                                               (["renorm", "--mode", "closed-form", "--k", "2"], 2)])
def test_breaks_at_the_level_cap_print(command, n_column, capsys):
    # the breaks at k = 10 and n = 10^4 have about 3,010 digits, under the
    # 4,300 that CPython turns into text
    code, out = run(capsys, *command, "--samples", "1", f"--n-max={cli.MAX_LEVELS}")
    assert code == 0
    last = out.splitlines()[-1].split(",")
    assert last[n_column] == str(cli.MAX_LEVELS)
    if command[0] == "delta":
        assert 3000 < len(last[4]) < 4300


def test_empty_beta_grid_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pressure", "--beta-grid", "0.01:64:0"])
    assert_usage_error(capsys, exc.value.code)


@pytest.mark.parametrize("grid", ["-1:3:3", "0:3:3", "1:nan:3", "nan:3:3", "1:inf:3",
                                  f"0.01:64:{cli.MAX_BETA_GRID_POINTS + 1}", "0.01:64:1000000000000"])
def test_non_positive_or_non_finite_beta_grid_is_a_usage_error(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pressure", "--k", "2", "--depth", "4", f"--beta-grid={grid}"])
    assert_usage_error(capsys, exc.value.code)


@pytest.mark.parametrize("grid", ["64:0.01:8", "5:5:3", "1:1.0000000000000002:5"])
def test_beta_grid_that_does_not_rise_is_a_usage_error(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pressure", "--k", "2", "--depth", "6", "--beta-grid", grid, "--tol", "0.5"])
    assert_usage_error(capsys, exc.value.code)


def test_beta_grid_at_the_point_cap_parses():
    assert cli._parse_beta_grid(f"0.01:64:{cli.MAX_BETA_GRID_POINTS}").size == cli.MAX_BETA_GRID_POINTS


@pytest.mark.parametrize("alpha", ["nan", "inf"])
@pytest.mark.parametrize("command", [["pressure", "--depth", "4", "--beta-grid", "0.01:1:2"],
                                     ["renorm", "--samples", "1", "--n-max", "3"]])
def test_non_finite_alpha_is_a_usage_error(command, alpha, capsys):
    assert_usage_error(capsys, main([*command, "--k", "2", "--alpha", alpha]))


@pytest.mark.parametrize("alpha", ["400", "1e300"])
@pytest.mark.parametrize("command", [["pressure", "--depth", "10"],
                                     ["renorm", "--mode", "study", "--n-max", "3"],
                                     ["renorm", "--mode", "brute-force", "--n-max", "3"]])
def test_alpha_whose_power_overflows_a_float_is_a_usage_error(command, alpha, capsys):
    # float(delta) ** alpha past the largest float
    code = main([*command, "--k", "2", "--alpha", alpha])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.splitlines() == [f"error: --alpha {float(alpha):.12g} is too large: delta**alpha overflows a float"]


def test_closed_form_renorm_takes_an_alpha_whose_power_would_overflow(capsys):
    code, out = run(capsys, "renorm", "--mode", "closed-form", "--k", "2", "--alpha", "400", "--n-max", "3",
                    "--samples", "1")
    assert code == 0
    assert out.splitlines()[2:] == ["2,400,3,0,0,closed-form"]


@pytest.mark.parametrize("mode, k, n_max", [("study", 2, 1500), ("closed-form", 2, 1480), ("study", 3, 1200)])
def test_a_break_past_the_largest_float_is_not_an_alpha_error(mode, k, n_max, capsys):
    # the breaks of s^n(x) pass 1.8e308 near n = 1480 at k = 2 (n = 1200 at
    # k = 3); the inverse power sum over them never converts one to a float
    code, out = run(capsys, "renorm", "--mode", mode, "--k", str(k), "--samples", "1", "--n-max", str(n_max),
                    "--alpha", "2")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [row[2] for row in rows if row[5] == "closed-form"][-1] == str(n_max)


BAD_CONFIG_LINES = ["head=0190 tail=const:0", "head=0000 tail=periodic:012",
                    "head=0000 tail=const:", "head=0000 tail=const:01", "head= tail=orbit:-3"]


@pytest.mark.parametrize("command", ["delta", "renorm"])
@pytest.mark.parametrize("line", BAD_CONFIG_LINES)
def test_bad_configuration_is_a_usage_error(command, line, tmp_path, capsys):
    cfg = tmp_path / "points.txt"
    cfg.write_text(line + "\n")
    assert_usage_error(capsys, main([command, "--k", "2", "--config", str(cfg)]))


# each malformed configuration line, with the text its one error line names
MALFORMED_CONFIG_LINES = {
    "bad": "'bad'",
    "head=0000 tail=const:0 extra": "'extra'",
    "haed=0000 tail=const:0": "'haed=0000'",
    "head=0000 tail=const:0 seed=3": "'seed=3'",
    "head=0000 head=1 tail=const:0": "repeats head=",
    "head= tail=orbit:x": "orbit offset 'x'",
    "head=0000 tail=const:": "const tail needs exactly one letter, got ''",
    "head=0000 tail=const:01": "const tail needs exactly one letter, got '01'",
    "head=0000 tail=periodic:": "periodic tail needs a nonempty period word",
    "head=0000 tail=cyclic:0": "unknown tail kind 'cyclic'",
    "head= tail=orbit:-3": "orbit offset must be nonnegative, got -3",
    "head=01 tail=orbit:3": "an orbit tail takes no head, got head '01'",
    # refused by maximal_prefix, where a configuration first meets the substitution
    "head=0190 tail=const:0": "uses letters outside the alphabet of size 2",
    "head=0000 tail=periodic:012": "uses letters outside the alphabet of size 2",
    "head=01\u06610 tail=const:0": "uses letters outside the alphabet of size 2",
    "head=0100 tail=const:\u0661": "uses letters outside the alphabet of size 2",
}


@pytest.mark.parametrize("command", ["delta", "renorm"])
@pytest.mark.parametrize("line", MALFORMED_CONFIG_LINES)
def test_malformed_configuration_line_names_its_text(command, line, tmp_path, capsys):
    cfg = tmp_path / "points.txt"
    cfg.write_text(line + "\n", encoding="utf-8")
    code = main([command, "--k", "2", "--config", str(cfg)])
    (error,) = capsys.readouterr().err.splitlines()
    assert code == 2
    assert error.startswith(f"error: configuration {line!r}") and MALFORMED_CONFIG_LINES[line] in error


def test_substitution_file_with_an_image_outside_the_alphabet_is_a_usage_error(tmp_path, capsys):
    # int() reads the Arabic-Indic digit as 1; the constructor refuses it
    sub = tmp_path / "arabic-indic.txt"
    sub.write_text("2\n0\u0661\n0\n", encoding="utf-8")
    code = main(["lang", "--substitution", str(sub)])
    (error,) = capsys.readouterr().err.splitlines()
    assert code == 2
    assert error == "error: image of 0 ('0\u0661') uses letters outside the alphabet"


def test_orbit_configuration_has_no_delta_after_power(tmp_path, capsys):
    cfg = tmp_path / "points.txt"
    cfg.write_text("head= tail=orbit:3\n")
    assert_usage_error(capsys, main(["delta", "--k", "2", "--config", str(cfg)]))


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_non_positive_or_non_finite_tol_is_a_usage_error(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pressure", "--k", "2", "--depth", "6", f"--tol={tol}"])
    assert_usage_error(capsys, exc.value.code)


def test_options_line_records_the_loaded_substitutions_k(tmp_path, capsys):
    sub = tmp_path / "one_letter.txt"
    sub.write_text("1\n00\n")
    code, out = run(capsys, "pressure", "--substitution", str(sub), "--depth", "4", "--beta-grid", "0.01:1:2")
    assert code == 0
    options, _, first_row = out.splitlines()[:3]
    assert " k=1 " in options and first_row.startswith("1,")


@pytest.mark.parametrize("grid", [None, "1.0000001:2.123456789:3", "1e-300:1e300:2", "5:5:1"])
def test_options_line_beta_grid_parses_back_to_the_same_grid(grid, capsys):
    # the default grid must still read 0.01:64:64
    argv = ["pressure", "--k", "2", "--depth", "4"] + ([] if grid is None else ["--beta-grid", grid])
    code, out = run(capsys, *argv)
    assert code == 0
    fields = dict(item.split("=", 1) for item in out.splitlines()[0][2:].split())
    expected = cli.default_beta_grid() if grid is None else cli._parse_beta_grid(grid)
    assert np.array_equal(cli._parse_beta_grid(fields["beta_grid"]), expected)
    if grid is None:
        assert fields["beta_grid"] == "0.01:64:64"


@pytest.mark.parametrize("argv", [["delta", "--k", "2", "--n-max", "1", "--samples", "1"],
                                  ["recog", "--k", "3", "--n-max", "2"],
                                  ["renorm", "--k", "3", "--n-max", "1", "--alpha", "1"]])
def test_n_max_below_k_is_a_usage_error(argv, capsys):
    assert_usage_error(capsys, main(argv))


@pytest.mark.parametrize("text, argv", [
    ("3\n02\n0\n01\n", ["verify", "--suites", "appendix"]),
    ("2\n01\n10\n", ["spectral"]),
    ("3\n01\n1\n2\n", ["recog"]),
    ("1\n00\n", ["delta"]),
])
def test_k_bonacci_commands_reject_other_substitutions(text, argv, tmp_path, capsys):
    sub = tmp_path / "substitution.txt"
    sub.write_text(text)
    assert_usage_error(capsys, main([*argv, "--substitution", str(sub)]))


def test_appendix_suite_needs_k_3(capsys):
    assert_usage_error(capsys, main(["verify", "--k", "4", "--suites", "appendix"]))


def test_verify_writes_the_options_line_and_the_same_text_to_out(tmp_path, capsys):
    code, out = run(capsys, "verify", "--k", "3", "--suites", "spectral,appendix")
    assert code == 0
    assert out.startswith("# ") and "PASS appendix: 001 in language" in out
    path = tmp_path / "verify.txt"
    assert main(["verify", "--k", "3", "--suites", "spectral,appendix", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == out


# -- the exit-code contract under random arguments -------------------------------
# Every option value below is either bad or cheap: a "large" count is large
# enough to leave the usual range but stays fast, or trips a budget at once
# (pressure depth 40, recog window 10^9).  The sizes and verify's suites are
# always given, because some defaults run for seconds to minutes at k = 10.

SUBSTITUTION_FILES = {"fib": "2\n01\n0\n", "thue-morse": "2\n01\n10\n", "not-kbonacci": "3\n02\n0\n01\n",
                      "non-primitive": "3\n01\n1\n2\n", "one-letter": "1\n00\n", "garbage": "x\n", "empty": ""}
CONFIG_FILES = {"good": "head=0000 tail=const:0\n", "no-tail": "head=0000\n", "orbit": "head= tail=orbit:3\n",
                **{f"bad{i}": line + "\n" for i, line in enumerate([*BAD_CONFIG_LINES, *MALFORMED_CONFIG_LINES])}}


def counts(large: str):
    return st.sampled_from(["-1", "0", "1", "2", large, "x"])


# refused while parsing: sampling that many configurations would not end,
# and a length table that deep would not fit
PAST_THE_SAMPLES_CAP = st.sampled_from([str(cli.MAX_SAMPLES + 1), "100000000000000000000000"])
PAST_THE_LEVELS_CAP = st.sampled_from([str(cli.MAX_LEVELS + 1), "100000000000000000000000"])
ALPHAS = st.sampled_from(["1", "0.5", "2", "0", "-1", "nan", "inf", "x", "400", "1e300"])
COMMAND_OPTIONS = {
    "lang": {"depth": counts("60")},
    "delta": {"samples": counts("30") | PAST_THE_SAMPLES_CAP, "n-max": counts("40") | PAST_THE_LEVELS_CAP,
              "seed": st.sampled_from(["0", "7", "-3"]), "config": st.sampled_from(sorted(CONFIG_FILES))},
    "recog": {"n-max": counts("40") | PAST_THE_LEVELS_CAP,
              "window": st.sampled_from(["-1", "0", "1", "50", "20000", str(10**9)])},
    "spectral": {},
    "renorm": {"alpha": ALPHAS, "n-max": counts("5") | PAST_THE_LEVELS_CAP,
               "samples": counts("3") | PAST_THE_SAMPLES_CAP,
               "mode": st.sampled_from(["closed-form", "brute-force", "study", "nope"]),
               "config": st.sampled_from(sorted(CONFIG_FILES))},
    "pressure": {"alpha": ALPHAS, "depth": counts("40"),
                 "beta-grid": st.sampled_from(["0.01:64:8", "0.01:64:0", "-1:3:3", "1:nan:3", "a:b", "1:2:3:4", "2:0.5:3",
                                               "0.01:64:1000000000000"]),
                 "tol": st.sampled_from(["1e-3", "0", "-1", "nan", "inf", "x"]),
                 "statistic": st.sampled_from(["raw", "excess", "x"])},
    "verify": {"suites": st.sampled_from(["spectral", "language", "recognizability", "appendix", "spectral,appendix",
                                          "nope", ",", "spectral,nope"])},
}


SIZES = {"depth", "n-max", "samples", "window", "suites"}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for kind, files in (("substitution", SUBSTITUTION_FILES), ("config", CONFIG_FILES)):
        for name, text in files.items():
            paths[kind, name] = root / f"{kind}-{name}.txt"
            paths[kind, name].write_text(text, encoding="utf-8")
    paths["out", "ok"] = root / "out.csv"
    paths["out", "missing-dir"] = root / "missing" / "out.csv"
    return paths


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    options = {"k": st.integers(-1, 11).map(str), "substitution": st.sampled_from(sorted(SUBSTITUTION_FILES)),
               "out": st.sampled_from(["ok", "missing-dir"]), **COMMAND_OPTIONS[command]}
    chosen = [(name, draw(values)) for name, values in options.items() if name in SIZES or draw(st.booleans())]
    if chosen and draw(st.integers(0, 9)) == 0:
        # a repeated flag: argparse keeps the last value, and the option table leaves it to argparse
        name = draw(st.sampled_from([name for name, _ in chosen]))
        chosen.append((name, draw(options[name])))
    # each option as --name=value or as the two tokens --name value
    return command, [(name, value, draw(st.booleans())) for name, value in chosen]


def fuzz_argv(input_files, command_line) -> list[str]:
    command, chosen = command_line
    argv = [command]
    for name, value, joined in chosen:
        if name in ("substitution", "config", "out"):
            value = input_files[name, value]
        argv += [f"--{name}={value}"] if joined else [f"--{name}", str(value)]
    return argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_exit_code_contract_holds_for_random_arguments(input_files, command_line):
    argv = fuzz_argv(input_files, command_line)
    code, _, err = outcome(argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)


@settings(max_examples=100, deadline=None)
@given(command_lines())
def test_main_answers_random_arguments_as_with_the_full_parser(input_files, command_line):
    argv = fuzz_argv(input_files, command_line)
    answer = outcome(argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse_args", parse_with_the_full_parser)
        assert outcome(argv) == answer, argv
