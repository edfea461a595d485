"""Regenerate ``golden.json``: the output digest of every command any seed can draw.

    python3 perfbench/golden.py

Run it only on a commit whose outputs are known to be right; the
benchmark counts any later difference as a failed command.  Prints each
command's latency, which is how the slots in ``workloads.py`` were sized.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    cli = run.load_cli()
    caches = run.module_caches()
    golden = {}
    for workload in workloads.WORKLOADS:
        for argv in workloads.catalogue(workload):
            key = checks.command_key(argv)
            if key in golden:
                continue
            seconds, code, stdout, stderr = run.execute(cli, argv, caches)
            golden[key] = checks.digest(stdout)
            reason = checks.check(argv, code, stdout, stderr, golden)
            if reason is not None:
                print(f"{key}: {reason}\n{stderr}", file=sys.stderr)
                return 1
            print(f"{seconds * 1000:9.1f} ms  {key}", flush=True)
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump(dict(sorted(golden.items())), fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {checks.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
