"""The three command mixes of the benchmark.

A workload is a list of slots.  A slot is a cost class: a list of argv
variants that cost about the same, and how many commands of that class
one pass holds.  The seed picks a variant for every command (and
``run.py`` draws the order of each pass from it); the mix of cost
classes is the same for every seed, so the seed changes the inputs but
not the size of the work.  Every
variant of every slot has a golden digest in ``golden.json``.

Each pass holds 50 commands, so the tail latency is p80 (ten commands
beyond it).  The copies are set so that the median (the 25th command by
cost) and p80 (the 40th) fall inside a class of ten or more
equal-cost commands, not on a step between two classes, where a few
percent of noise would move them by the height of the step.
"""

from __future__ import annotations

import random

ALPHAS = ("0.5", "1", "2")
STATISTICS = ("raw", "excess")
CONFIG_SEEDS = ("0", "1", "2", "3")


def _pressure(k, depth):
    return [["pressure", "--k", str(k), "--depth", str(depth), "--alpha", alpha, "--statistic", stat]
            for alpha in ALPHAS for stat in STATISTICS]


def _delta(k, samples, n_max, seeds=CONFIG_SEEDS):
    return [["delta", "--k", str(k), "--samples", str(samples), "--n-max", str(n_max), "--seed", seed]
            for seed in seeds]


def _brute_force(k, n):
    # The configuration seed moves the cost of a brute-force scan by up to
    # 2x, so it stays at its default and the seed only picks alpha.
    return [["renorm", "--mode", "brute-force", "--k", str(k), "--n-max", str(n), "--samples", "1",
             "--alpha", alpha] for alpha in ALPHAS]


def _study(k):
    return [["renorm", "--mode", "study", "--k", str(k), "--n-max", "20", "--alpha", alpha, "--seed", seed]
            for alpha in ALPHAS for seed in CONFIG_SEEDS]


def _recog(k, window, n_maxes):
    return [["recog", "--k", str(k), "--n-max", str(n), "--window", str(window)] for n in n_maxes]


def _lang(k, depths):
    return [["lang", "--k", str(k), "--depth", str(d)] for d in depths]


def _verify(k, suites):
    return [["verify", "--k", str(k), "--suites", suites]]


def _pressure_sweep():
    # Ordered by cost; the median falls in depth 12 of k=2, p80 in depth 13.
    classes = ((4, 5, 4), (2, 10, 4), (3, 7, 4), (2, 11, 4), (4, 6, 4),
               (2, 12, 10), (3, 8, 5), (2, 13, 8),
               (4, 7, 3), (3, 9, 2), (2, 14, 1), (2, 15, 1))
    return [(copies, _pressure(k, depth)) for k, depth, copies in classes]


def _break_scan():
    # Brute force runs at n = k..k+3 once each.  The median falls in
    # `delta --k 3 --samples 10`, p80 in the renormalization study at k=4.
    slots = [(1, _brute_force(k, n)) for k in (2, 3, 4) for n in range(k, k + 4)]
    slots += [(3, _delta(k, 5, 10)) for k in (2, 3, 4)]
    slots += [(2, _delta(2, 10, 20)), (10, _delta(3, 10, 20)), (2, _delta(4, 10, 20))]
    # One copy each of the largest scans, whose cost the configuration seed
    # moves by up to 30%: their seed is fixed, like the brute-force one.
    slots += [(1, _delta(k, 20, 30, seeds=("0",))) for k in (2, 3, 4)]
    slots += [(1, _study(2)), (1, _study(3)), (8, _study(4))]
    slots += [(1, _verify(k, "delta,renorm")) for k in (2, 3)]
    return slots


def _omega_build():
    # The median falls in the 10^4-letter scan at k=2, p80 in the
    # depth-100 language at k=4.  The single large scans have one variant
    # each: one more n would add a third to their cost.
    suites = "language,recognizability"
    return [
        (5, _lang(2, (30, 40, 50))), (5, _lang(3, (30, 40, 50))), (5, _lang(4, (30, 40))),
        (4, _recog(3, 10_000, (9, 10))), (2, _lang(4, (50,))), (2, _lang(3, (60,))),
        (10, _recog(2, 10_000, (10,))),
        (1, _verify(2, suites)), (1, _verify(3, suites)), (1, _lang(3, (100,))), (1, _recog(3, 30_000, (10,))),
        (10, _lang(4, (100,))),
        (1, _recog(2, 30_000, (10,))), (1, _recog(3, 300_000, (6,))), (1, _lang(3, (200,))),
    ]


WORKLOADS = {
    "pressure-sweep": _pressure_sweep,
    "break-scan": _break_scan,
    "omega-build": _omega_build,
}


def catalogue(workload: str) -> list[list[str]]:
    """Every argv the workload can generate, for any seed."""
    return [argv for _, variants in WORKLOADS[workload]() for argv in variants]


def batch(workload: str, seed: int) -> list[list[str]]:
    """The commands of one pass, drawn from the workload's slots by `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    commands = [rng.choice(variants) for copies, variants in WORKLOADS[workload]() for _ in range(copies)]
    rng.shuffle(commands)
    return commands
