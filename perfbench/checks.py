"""Correctness checks on the output of one CLI command.

A command passes when it exits 0, writes no traceback, its output
matches the golden digest recorded for its argv, and its output has the
properties that hold for any correct implementation:

* ``lang``: the complexity column equals (k-1)n+1;
* ``pressure``: every row has 0 <= P_low <= P_high;
* ``verify``: the last line reads ``N/N checks passed``.

The digest covers every line except a leading ``#`` line, which echoes
the resolved options and may change when an option is removed.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

_VERIFY_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(stdout: str) -> str:
    lines = stdout.splitlines(keepends=True)
    if lines and lines[0].startswith("#"):
        lines = lines[1:]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _data_rows(stdout: str) -> list[list[str]]:
    """CSV rows after the header, without comment lines."""
    rows = [line.split(",") for line in stdout.splitlines() if line and not line.startswith("#")]
    return rows[1:]


def _option(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _property_error(argv: list[str], stdout: str) -> str | None:
    command = argv[0]
    if command == "lang":
        k = int(_option(argv, "--k", "3"))
        rows = _data_rows(stdout)
        if len(rows) != int(_option(argv, "--depth", "12")):
            return f"lang printed {len(rows)} rows"
        for row in rows:
            n, complexity = int(row[0]), int(row[1])
            if complexity != (k - 1) * n + 1:
                return f"lang complexity {complexity} at n={n}, expected {(k - 1) * n + 1}"
    elif command == "pressure":
        rows = _data_rows(stdout)
        if not rows:
            return "pressure printed no rows"
        for row in rows:
            low, high = float(row[4]), float(row[5])
            if not 0.0 <= low <= high:
                return f"pressure bracket [{low}, {high}] at beta={row[3]}"
    elif command == "verify":
        lines = stdout.splitlines()
        match = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
        if match is None or match.group(1) != match.group(2):
            return f"verify summary {lines[-1] if lines else ''!r}"
    return None


def check(argv: list[str], exit_code: int, stdout: str, stderr: str, golden: dict[str, str]) -> str | None:
    """None when the command's output is correct, otherwise the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    expected = golden.get(command_key(argv))
    if expected is None:
        return "no golden digest for this command"
    if digest(stdout) != expected:
        return "output differs from the golden digest"
    try:
        return _property_error(argv, stdout)
    except (ValueError, IndexError) as exc:
        return f"malformed output: {exc}"
