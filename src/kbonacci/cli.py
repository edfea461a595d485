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
from .recognition import Configuration, cut_points, delta_after_power, maximal_prefix, verify_recognizability
from .renorm import MODES, convergence_study, renorm_power
from .sampling import sample_configurations
from .spectral import growth_decomposition, left_eigenvector
from .substitution import Substitution, kbonacci, require_kbonacci
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# --beta-grid points; a grid this size already prints a million CSV rows
MAX_BETA_GRID_POINTS = 10**6


class CsvWriter:
    def __init__(self, config_line: str):
        self.buffer = io.StringIO()
        self.buffer.write(f"# {config_line}\n")

    def row(self, *cells):
        # np.float64 is a float, so it is formatted as one
        self.buffer.write(",".join([f"{c:.12g}" if isinstance(c, float) else str(c) for c in cells]) + "\n")

    def dump(self, out_path: str | None):
        text = self.buffer.getvalue()
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
        with open(args.substitution) as fh:
            return Substitution.from_text(fh.read())
    return kbonacci(args.k)


def _load_configurations(args: argparse.Namespace, s: Substitution) -> list[Configuration]:
    if args.config:
        with open(args.config) as fh:
            configs = [Configuration.from_text(line) for line in fh if line.strip()]
        letters = {str(a) for a in range(s.k)}
        for x in configs:
            if not x.in_subshift and not set(x.head + str(x.tail_data)) <= letters:
                raise ValueError(f"configuration {x.to_text()!r} uses letters outside the alphabet of size {s.k}")
        return configs
    return sample_configurations(s, args.samples, args.seed)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
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
        for n in levels:
            w.row(i, x.to_text(), len(prefix), n, delta_after_power(s, prefix, n))
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
    lam = growth.lam
    w.row("quantity", "index", "value")
    w.row("lambda", "", lam)
    for l, value in enumerate(left_eigenvector(s.k, lam)):
        w.row("v", l, float(value))
    for l, value in enumerate(growth.gamma):
        w.row("gamma", l, float(value))
    w.row("theta_hat", "", growth.theta_hat)
    w.row("polynomial_residual", "", abs(lam**s.k - sum(lam**j for j in range(s.k))))
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
    for beta, lo, hi in curve.rows():
        w.row(s.k, args.alpha, args.depth, beta, lo, hi)
    if report.crossed:
        w.buffer.write(
            f"# beta_c={report.beta_c:.12g} bracket={report.bracket[0]:.12g}:"
            f"{report.bracket[1]:.12g} statistic={report.statistic} tol={report.tol:.12g}\n"
        )
    else:
        w.buffer.write(f"# no crossing at this depth (statistic={report.statistic} tol={report.tol:.12g})\n")
    w.buffer.write(
        f"# floor={curve.floor:.12g} convex={int(curve.is_convex)} monotone={int(curve.is_monotone)}\n"
    )
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


def _common(p: argparse.ArgumentParser, seed=True):
    p.add_argument("--k", type=int, default=3, help="k-bonacci parameter (>= 2)")
    p.add_argument("--substitution", help="substitution file overriding --k")
    p.add_argument("--out", help="output path (default: stdout)")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="seed for sampled configurations")


def _lang_options(p: argparse.ArgumentParser):
    _common(p, seed=False)
    p.add_argument("--depth", type=non_negative_int, default=12)


def _delta_options(p: argparse.ArgumentParser):
    _common(p)
    p.add_argument("--samples", type=non_negative_int, default=10)
    p.add_argument("--n-max", type=non_negative_int, default=6)
    p.add_argument("--config", help="file of configuration lines (head=... tail=...)")


def _recog_options(p: argparse.ArgumentParser):
    _common(p, seed=False)
    p.add_argument("--n-max", type=non_negative_int, default=6)
    p.add_argument("--window", type=non_negative_int, default=100_000)


def _spectral_options(p: argparse.ArgumentParser):
    _common(p, seed=False)


def _renorm_options(p: argparse.ArgumentParser):
    _common(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n-max", type=non_negative_int, default=20)
    p.add_argument("--samples", type=non_negative_int, default=5)
    p.add_argument("--config", help="file of configuration lines")
    p.add_argument("--mode", choices=[*MODES, "study"], default="study")


def _pressure_options(p: argparse.ArgumentParser):
    _common(p, seed=False)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--depth", type=non_negative_int, default=10)
    p.add_argument("--beta-grid", type=_parse_beta_grid, default=default_beta_grid())
    p.add_argument("--tol", type=positive_finite_float, default=DEFAULT_TOL)
    p.add_argument("--statistic", choices=["raw", "excess"], default="raw")


def _verify_options(p: argparse.ArgumentParser):
    _common(p, seed=False)
    p.add_argument("--suites", help="comma-separated suite names (default: all)")


COMMANDS = {
    "lang": ("complexity and special-word tables", cmd_lang, _lang_options),
    "delta": ("break positions and closed-form checks", cmd_delta, _delta_options),
    "recog": ("cut-point scans of the fixed point", cmd_recog, _recog_options),
    "spectral": ("Perron data and growth coefficients", cmd_spectral, _spectral_options),
    "renorm": ("renormalization iterates", cmd_renorm, _renorm_options),
    "pressure": ("pressure curves and transition report", cmd_pressure, _pressure_options),
    "verify": ("run the property suites", cmd_verify, _verify_options),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for `--help` and the errors that name
    them all: argparse builds each subparser eagerly, so `main` builds it
    only when one command's parser cannot answer."""
    parser = argparse.ArgumentParser(
        prog="kbonacci",
        description="k-bonacci substitution combinatorics and pressure experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        p.set_defaults(func=func)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser, built as `add_parser(name, help=...)` builds it
    under the full parser, so its help and error text are the same bytes."""
    _, func, add_options = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"kbonacci {name}")
    add_options(parser)
    parser.set_defaults(func=func, command=name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """A named command is parsed by its own parser. The full parser answers
    the rest: no command, `--help`, and leftover arguments, which it reports
    under its own usage line."""
    if argv and argv[0] in COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
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
    except (KbonacciError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
