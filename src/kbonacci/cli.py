"""Command-line driver: reproducible experiments with CSV output.

Every command writes a CSV (stdout or --out) whose first line is a `#`
comment recording the resolved options, so a result file is traceable
to the exact invocation; fixed seed means byte-identical output.

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
from .pressure import find_beta_c, pressure_curve
from .recognition import Configuration, cut_points, delta, delta_shifted, verify_recognizability
from .renorm import convergence_study, fixed_point_U, renorm_power
from .sampling import sample_configurations
from .spectral import spectral_data
from .substitution import Substitution, kbonacci
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


class CsvWriter:
    def __init__(self, config_line: str):
        self.buffer = io.StringIO()
        self.buffer.write(f"# {config_line}\n")

    def row(self, *cells):
        self.buffer.write(",".join(_fmt(c) for c in cells) + "\n")

    def dump(self, out_path: str | None):
        text = self.buffer.getvalue()
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _config_line(args: argparse.Namespace) -> str:
    pairs = []
    for key, value in sorted(vars(args).items()):
        if key in ("func", "out") or value is None:
            continue
        if isinstance(value, np.ndarray):
            value = f"{value[0]:g}:{value[-1]:g}:{len(value)}"
        pairs.append(f"{key}={value}")
    return " ".join(pairs)


def _load_substitution(args: argparse.Namespace) -> Substitution:
    if getattr(args, "substitution", None):
        with open(args.substitution) as fh:
            return Substitution.from_text(fh.read())
    return kbonacci(args.k)


def _load_configurations(args: argparse.Namespace, s: Substitution, count: int) -> list[Configuration]:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            return [Configuration.from_text(line) for line in fh if line.strip()]
    return sample_configurations(s, count, args.seed)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
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
    return np.geomspace(*ends, points)


# -- subcommands ---------------------------------------------------------------


def cmd_lang(args) -> int:
    s = _load_substitution(args)
    index = s.language(args.depth + 1)
    w = CsvWriter(_config_line(args))
    w.row("n", "complexity", "left_special", "right_special", "bispecial")
    for n in range(1, args.depth + 1):
        left, right, bi = index.special_words(n)
        w.row(n, index.complexity(n), len(left), len(right), ";".join(sorted(bi)))
    w.dump(args.out)
    return EXIT_OK


def cmd_delta(args) -> int:
    s = _load_substitution(args)
    configs = _load_configurations(args, s, args.samples)
    w = CsvWriter(_config_line(args))
    w.row("x_id", "configuration", "delta", "n", "delta_after_power")
    for i, x in enumerate(configs):
        d = delta(s, x)
        for n in range(s.k, args.n_max + 1):
            w.row(i, x.to_text(), d, n, delta_shifted(s, x, n, 0))
    w.dump(args.out)
    return EXIT_OK


def cmd_recog(args) -> int:
    s = _load_substitution(args)
    w = CsvWriter(_config_line(args))
    w.row("n", "window", "cut_count", "recognizable")
    for n in range(s.k, args.n_max + 1):
        cuts = cut_points(s, n, args.window)
        ok = verify_recognizability(s, n, args.window)
        w.row(n, args.window, len(cuts.points), int(ok))
    w.dump(args.out)
    return EXIT_OK


def cmd_spectral(args) -> int:
    s = _load_substitution(args)
    data = spectral_data(s)
    w = CsvWriter(_config_line(args))
    w.row("quantity", "index", "value")
    w.row("lambda", "", data.lam)
    for l, value in enumerate(data.v):
        w.row("v", l, float(value))
    for l, value in enumerate(data.gamma):
        w.row("gamma", l, float(value))
    w.row("theta_hat", "", data.theta_hat)
    w.row("polynomial_residual", "", data.polynomial_residual)
    w.dump(args.out)
    return EXIT_OK


def cmd_renorm(args) -> int:
    s = _load_substitution(args)
    configs = _load_configurations(args, s, args.samples)
    V = Potential.v0(args.alpha)
    w = CsvWriter(_config_line(args))
    w.row("k", "alpha", "n", "x_id", "value", "method")
    for i, x in enumerate(configs):
        if args.mode == "study":
            study = convergence_study(s, V, x, n_max=args.n_max)
            for n, value in study.rows:
                method = "brute-force" if n < s.k else "closed-form"
                w.row(s.k, args.alpha, n, i, value, method)
            w.row(s.k, args.alpha, "", i, fixed_point_U(s, x), f"fixed-point:{study.verdict}")
        else:
            value = renorm_power(s, V, x, args.n_max, mode=args.mode)
            w.row(s.k, args.alpha, args.n_max, i, value, args.mode)
    w.dump(args.out)
    return EXIT_OK


def cmd_pressure(args) -> int:
    s = _load_substitution(args)
    V = Potential.v0(args.alpha)
    curve = pressure_curve(s, V, args.depth, args.beta_grid)
    report = find_beta_c(s, V, args.depth, tol=args.tol, betas=args.beta_grid, statistic=args.statistic)
    w = CsvWriter(_config_line(args))
    w.row("k", "alpha", "n", "beta", "P_low", "P_high")
    for beta, lo, hi in curve.rows():
        w.row(s.k, args.alpha, args.depth, beta, lo, hi)
    if report.crossed:
        w.buffer.write(
            f"# beta_c={_fmt(report.beta_c)} bracket={_fmt(report.bracket[0])}:"
            f"{_fmt(report.bracket[1])} statistic={report.statistic} tol={_fmt(report.tol)}\n"
        )
    else:
        w.buffer.write(f"# no crossing at this depth (statistic={report.statistic} tol={_fmt(report.tol)})\n")
    w.buffer.write(
        f"# floor={_fmt(curve.floor)} convex={int(curve.is_convex)} monotone={int(curve.is_monotone)}\n"
    )
    w.dump(args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    s = _load_substitution(args)
    suites = args.suites.split(",") if args.suites else None
    results = run_all(s, suites)
    lines = []
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        detail = f" ({r.detail})" if r.detail else ""
        lines.append(f"{status} {r.suite}: {r.name}{detail}")
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


# -- argument wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbonacci",
        description="k-bonacci substitution combinatorics and pressure experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed=True):
        p.add_argument("--k", type=int, default=3, help="k-bonacci parameter (>= 2)")
        p.add_argument("--substitution", help="substitution file overriding --k")
        p.add_argument("--out", help="output path (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed for sampled configurations")

    p = sub.add_parser("lang", help="complexity and special-word tables")
    common(p, seed=False)
    p.add_argument("--depth", type=non_negative_int, default=12)
    p.set_defaults(func=cmd_lang)

    p = sub.add_parser("delta", help="break positions and closed-form checks")
    common(p)
    p.add_argument("--samples", type=non_negative_int, default=10)
    p.add_argument("--n-max", type=non_negative_int, default=6)
    p.add_argument("--config", help="file of configuration lines (head=... tail=...)")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("recog", help="cut-point scans of the fixed point")
    common(p, seed=False)
    p.add_argument("--n-max", type=non_negative_int, default=6)
    p.add_argument("--window", type=non_negative_int, default=100_000)
    p.set_defaults(func=cmd_recog)

    p = sub.add_parser("spectral", help="Perron data and growth coefficients")
    common(p, seed=False)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("renorm", help="renormalization iterates")
    common(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n-max", type=non_negative_int, default=20)
    p.add_argument("--samples", type=non_negative_int, default=5)
    p.add_argument("--config", help="file of configuration lines")
    p.add_argument("--mode", choices=["closed-form", "brute-force", "study"], default="study")
    p.set_defaults(func=cmd_renorm)

    p = sub.add_parser("pressure", help="pressure curves and transition report")
    common(p, seed=False)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--depth", type=non_negative_int, default=10)
    p.add_argument("--beta-grid", type=_parse_beta_grid, default="0.01:64:64")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--statistic", choices=["raw", "excess"], default="raw")
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("verify", help="run the property suites")
    common(p, seed=False)
    p.add_argument("--suites", help="comma-separated suite names (default: all)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (KbonacciError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
