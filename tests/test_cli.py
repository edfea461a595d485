import math

import pytest

from kbonacci.cli import main


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


def test_unknown_suite_is_a_usage_error(capsys):
    assert_usage_error(capsys, main(["verify", "--k", "3", "--suites", "nope"]))


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


def test_empty_beta_grid_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pressure", "--beta-grid", "0.01:64:0"])
    assert_usage_error(capsys, exc.value.code)


@pytest.mark.parametrize("grid", ["-1:3:3", "0:3:3", "1:nan:3", "nan:3:3", "1:inf:3"])
def test_non_positive_or_non_finite_beta_grid_is_a_usage_error(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pressure", "--k", "2", "--depth", "4", f"--beta-grid={grid}"])
    assert_usage_error(capsys, exc.value.code)


@pytest.mark.parametrize("alpha", ["nan", "inf"])
@pytest.mark.parametrize("command", [["pressure", "--depth", "4", "--beta-grid", "0.01:1:2"],
                                     ["renorm", "--samples", "1", "--n-max", "3"]])
def test_non_finite_alpha_is_a_usage_error(command, alpha, capsys):
    assert_usage_error(capsys, main([*command, "--k", "2", "--alpha", alpha]))


@pytest.mark.parametrize("command", ["delta", "renorm"])
@pytest.mark.parametrize("line", ["head=0190 tail=const:0", "head=0000 tail=periodic:012",
                                  "head=0000 tail=const:", "head=0000 tail=const:01", "head= tail=orbit:-3"])
def test_bad_configuration_is_a_usage_error(command, line, tmp_path, capsys):
    cfg = tmp_path / "points.txt"
    cfg.write_text(line + "\n")
    assert_usage_error(capsys, main([command, "--k", "2", "--config", str(cfg)]))


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
