"""Command-line driver: reproducible experiments with CSV output.

Every command writes a CSV (stdout or --out) whose first line is a `#`
comment recording the resolved options, so a result file is traceable
to the exact invocation; fixed seed means byte-identical output.
`main` owns that lifecycle: it loads the substitution, opens the one
writer, runs the command, which only writes rows, and writes the output.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np

from .errors import BudgetExceededError, KbonacciError
from .potentials import Potential
from .pressure import DEFAULT_TOL, default_beta_grid, find_beta_c, pressure_curve
from .recognition import (
    Configuration, _delta_from_counts, _letter_counts, cut_points, maximal_prefix, verify_recognizability,
)
from .renorm import MODES, convergence_study, renorm_power
from .sampling import sample_configurations
from .spectral import growth_decomposition
from .substitution import Substitution, kbonacci, require_kbonacci
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# --beta-grid points; a grid this size already prints a million CSV rows
MAX_BETA_GRID_POINTS = 10**6
# --samples configurations; all are drawn before the first row, and this
# many already take about 40 s and 0.4 GB at k = 3
MAX_SAMPLES = 10**6
# --n-max levels; every break at k <= 10 then has fewer than the 4,300
# digits CPython turns into text, and a study at k = 10 takes about 13 s
MAX_LEVELS = 10**4


class CsvWriter:
    def __init__(self, config_line: str):
        self._buffer = io.StringIO()
        self.comment(config_line)

    def comment(self, text: str):
        self._buffer.write(f"# {text}\n")

    def row(self, *cells):
        # np.float64 is a float, so it is formatted as one
        self._buffer.write(",".join([f"{c:.12g}" if isinstance(c, float) else str(c) for c in cells]) + "\n")

    def dump(self, out_path: str | None):
        text = self._buffer.getvalue()
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _config_line(args: argparse.Namespace, s: Substitution) -> str:
    """The resolved options; `k` is the loaded substitution's, which a
    --substitution file sets in place of --k."""
    pairs = []
    for key, value in sorted({**vars(args), "k": s.k}.items()):
        if key in ("func", "out") or value is None:
            continue
        if isinstance(value, np.ndarray):
            # each end in its shortest round-trip form, so the line parses back
            lo, hi = (repr(float(end)).removesuffix(".0") for end in (value[0], value[-1]))
            value = f"{lo}:{hi}:{len(value)}"
        pairs.append(f"{key}={value}")
    return " ".join(pairs)


def _load_substitution(args: argparse.Namespace) -> Substitution:
    if args.substitution:
        with open(args.substitution, encoding="utf-8") as fh:
            return Substitution.from_text(fh.read())
    return kbonacci(args.k)


def _load_configurations(args: argparse.Namespace, s: Substitution) -> list[Configuration]:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            return [Configuration.from_text(line) for line in fh if line.strip()]
    return sample_configurations(s, args.samples, args.seed)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def sample_count(text: str) -> int:
    value = non_negative_int(text)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_SAMPLES} samples, got {value}")
    return value


def level_count(text: str) -> int:
    value = non_negative_int(text)
    if value > MAX_LEVELS:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_LEVELS} levels, got {value}")
    return value


def positive_finite_float(text: str) -> float:
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _parse_beta_grid(text: str) -> np.ndarray:
    try:
        lo, hi, points = text.split(":")
        ends = float(lo), float(hi)
        points = int(points)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("beta grid must look like 0.01:64:64") from exc
    if not all(0 < end < np.inf for end in ends):
        raise argparse.ArgumentTypeError("beta grid ends must be positive and finite")
    if points < 1:
        raise argparse.ArgumentTypeError("beta grid needs at least 1 point")
    if points > MAX_BETA_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"beta grid takes at most {MAX_BETA_GRID_POINTS} points, got {points}")
    betas = np.geomspace(*ends, points)
    if not np.all(np.diff(betas) > 0):
        raise argparse.ArgumentTypeError("beta grid must strictly rise: its first end below its last, its points distinct")
    return betas


# -- subcommands ---------------------------------------------------------------


def _levels(args, s: Substitution) -> range:
    """The levels n = k..n_max that `delta` and `recog` tabulate."""
    if args.n_max < s.k:
        raise ValueError(f"--n-max must be at least k = {s.k}, got {args.n_max}")
    return range(s.k, args.n_max + 1)


def cmd_lang(args, s: Substitution, w: CsvWriter) -> int:
    index = s.language(args.depth + 1)
    w.row("n", "complexity", "left_special", "right_special", "bispecial")
    for n in range(1, args.depth + 1):
        left, right, bi = index.special_words(n)
        w.row(n, index.complexity(n), len(left), len(right), ";".join(sorted(bi)))
    return EXIT_OK


def cmd_delta(args, s: Substitution, w: CsvWriter) -> int:
    levels = _levels(args, s)
    configs = _load_configurations(args, s)
    w.row("x_id", "configuration", "delta", "n", "delta_after_power")
    for i, x in enumerate(configs):
        prefix = maximal_prefix(s, x)
        require_kbonacci(s)
        counts = _letter_counts(s, prefix)
        for n in levels:
            w.row(i, x.to_text(), len(prefix), n, _delta_from_counts(s, counts, n))
    return EXIT_OK


def cmd_recog(args, s: Substitution, w: CsvWriter) -> int:
    require_kbonacci(s)  # before cut_points, which grows a non-primitive fixed point for minutes
    w.row("n", "window", "cut_count", "recognizable")
    for n in _levels(args, s):
        cuts = cut_points(s, n, args.window)
        ok = verify_recognizability(s, cuts)
        w.row(n, args.window, len(cuts.starts), int(ok))
    return EXIT_OK


def cmd_spectral(args, s: Substitution, w: CsvWriter) -> int:
    growth = growth_decomposition(s)
    w.row("quantity", "index", "value")
    w.row("lambda", "", growth.lam)
    for l, value in enumerate(growth.v):
        w.row("v", l, float(value))
    for l, value in enumerate(growth.gamma):
        w.row("gamma", l, float(value))
    w.row("theta", "", growth.theta)
    w.row("polynomial_residual", "", growth.residual)
    return EXIT_OK


def cmd_renorm(args, s: Substitution, w: CsvWriter) -> int:
    configs = _load_configurations(args, s)
    V = Potential.v0(args.alpha)
    w.row("k", "alpha", "n", "x_id", "value", "method")
    for i, x in enumerate(configs):
        if args.mode == "study":
            study = convergence_study(s, V, x, n_max=args.n_max)
            for n, value, method in study.rows:
                w.row(s.k, args.alpha, n, i, value, method)
            w.row(s.k, args.alpha, "", i, study.fixed_point, f"fixed-point:{study.verdict}")
        else:
            value = renorm_power(s, V, x, args.n_max, mode=args.mode)
            w.row(s.k, args.alpha, args.n_max, i, value, args.mode)
    return EXIT_OK


def cmd_pressure(args, s: Substitution, w: CsvWriter) -> int:
    V = Potential.v0(args.alpha)
    curve = pressure_curve(s, V, args.depth, args.beta_grid)
    report = find_beta_c(s, V, args.depth, tol=args.tol, betas=args.beta_grid, statistic=args.statistic)
    w.row("k", "alpha", "n", "beta", "P_low", "P_high")
    for beta, lo, hi in zip(curve.betas, curve.lows, curve.highs):
        w.row(s.k, args.alpha, args.depth, beta, lo, hi)
    if report.crossed:
        w.comment(
            f"beta_c={report.beta_c:.12g} bracket={report.bracket[0]:.12g}:"
            f"{report.bracket[1]:.12g} statistic={report.statistic} tol={report.tol:.12g}"
        )
    else:
        w.comment(f"no crossing at this depth (statistic={report.statistic} tol={report.tol:.12g})")
    w.comment(f"floor={curve.floor:.12g} convex={int(curve.is_convex)} monotone={int(curve.is_monotone)}")
    return EXIT_OK


def cmd_verify(args, s: Substitution, w: CsvWriter) -> int:
    results = run_all(s, args.suites.split(",") if args.suites is not None else None)
    failed = 0
    for r in results:
        failed += 0 if r.passed else 1
        detail = f" ({r.detail})" if r.detail else ""
        w.row(f"{'PASS' if r.passed else 'FAIL'} {r.suite}: {r.name}{detail}")
    w.row(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


# -- argument wiring -----------------------------------------------------------

# Each command's options as (flag, type, default, choices, help), in help
# order.  A callable default makes a fresh value per parse.  No str default
# has a type: argparse would convert it and the table path would not.
_COMMON = (
    ("--k", int, 3, None, "k-bonacci parameter (>= 2)"),
    ("--substitution", None, None, None, "substitution file overriding --k"),
    ("--out", None, None, None, "output path (default: stdout)"),
)
_SEED = (("--seed", int, 0, None, "seed for sampled configurations"),)
_ALPHA = (("--alpha", float, 1.0, None, None),)

COMMANDS = {
    "lang": ("complexity and special-word tables", cmd_lang, _COMMON + (
        ("--depth", non_negative_int, 12, None, None),
    )),
    "delta": ("break positions and closed-form checks", cmd_delta, _COMMON + _SEED + (
        ("--samples", sample_count, 10, None, None),
        ("--n-max", level_count, 6, None, None),
        ("--config", None, None, None, "file of configuration lines (head=... tail=...)"),
    )),
    "recog": ("cut-point scans of the fixed point", cmd_recog, _COMMON + (
        ("--n-max", level_count, 6, None, None),
        ("--window", non_negative_int, 100_000, None, None),
    )),
    "spectral": ("Perron data and growth coefficients", cmd_spectral, _COMMON),
    "renorm": ("renormalization iterates", cmd_renorm, _COMMON + _SEED + _ALPHA + (
        ("--n-max", level_count, 20, None, None),
        ("--samples", sample_count, 5, None, None),
        ("--config", None, None, None, "file of configuration lines"),
        ("--mode", None, "study", (*MODES, "study"), None),
    )),
    "pressure": ("pressure curves and transition report", cmd_pressure, _COMMON + _ALPHA + (
        ("--depth", non_negative_int, 10, None, None),
        ("--beta-grid", _parse_beta_grid, default_beta_grid, None, None),
        ("--tol", positive_finite_float, DEFAULT_TOL, None, None),
        ("--statistic", None, "raw", ("raw", "excess"), None),
    )),
    "verify": ("run the property suites", cmd_verify, _COMMON + (
        ("--suites", None, None, None, "comma-separated suite names (default: all)"),
    )),
}


def _default(value):
    return value() if callable(value) else value


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for whatever the option table does not
    take: help, usage errors and leftover arguments.  argparse builds each
    subparser eagerly, so `main` builds it only when the table declines."""
    parser = argparse.ArgumentParser(
        prog="kbonacci",
        description="k-bonacci substitution combinatorics and pressure experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, type_, default, choices, option_help in options:
            p.add_argument(flag, type=type_, default=_default(default), choices=choices, help=option_help)
        p.set_defaults(func=func)
    return parser


def _read_options(name: str, tokens: list[str]) -> argparse.Namespace | None:
    """A well-formed command's options, read off its table with no parser:
    exact flags, each at most once, as `--flag value` or `--flag=value` with
    a value that is not empty and does not start with "-", converted by the
    option's type and within its choices.  None for anything else, which
    argparse answers with its own text."""
    _, func, options = COMMANDS[name]
    specs = {spec[0]: spec for spec in options}
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in specs or flag in given:
            return None
        if not eq:
            value = next(tokens, "")
        if not value or value.startswith("-"):
            return None
        _, type_, _, choices, _ = specs[flag]
        if type_ is not None:
            try:
                value = type_(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        given[flag] = value
    values = {flag[2:].replace("-", "_"): given[flag] if flag in given else _default(default)
              for flag, _, default, _, _ in options}
    return argparse.Namespace(**values, func=func, command=name)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """A named command is read off its option table; the full parser
    answers whatever the table declines, with argparse's own text."""
    if argv and argv[0] in COMMANDS:
        args = _read_options(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    try:
        s = _load_substitution(args)
        w = CsvWriter(_config_line(args, s))
        code = args.func(args, s, w)
        w.dump(args.out)
        return code
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OverflowError:
        # float(delta) ** alpha in renorm and pressure, the one float power a command can overflow
        print(f"error: --alpha {args.alpha:.12g} is too large: delta**alpha overflows a float", file=sys.stderr)
        return EXIT_USAGE
    except (KbonacciError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
