"""Every public name of the package is reached by a command.

A few small commands run in process under ``sys.setprofile``.  Each
function that ``kbonacci`` exports, and each public method of a class it
exports, must be called by one of them or be listed in ALLOWED with the
reason it stays.  A function that only unit tests call belongs in the
test module that uses it, as an oracle, and not in the package.
"""

import functools
import inspect
import sys

import kbonacci
from kbonacci import cli

# public name -> why it stays in the package although no command calls it
ALLOWED = {
    "letter_frequencies": "the acceptance report reads mu[0] off it for (1 + mu[0]) U",
    "maximal_prefix_after_power": "the closed form reads its windows for potentials of order > 1",
    "Substitution.apply_power": "perfbench traces it by name",
    "Substitution.to_text": "the partner of Substitution.from_text: writes a substitution file",
    "BetaCReport.plateau_excess": "the acceptance report reads the plateau net of the floor",
    "CutPointSet.points": "the acceptance report reads the nested cut sets as Python ints",
    "CylinderFunction.indicator": "the acceptance report builds g = 1 + 1_[0] with it",
}


def commands(tmp_path) -> list[list[str]]:
    """One small run of each command; lang reads a substitution file and
    delta a configuration file, so both file formats are parsed."""
    subst = tmp_path / "tribonacci.txt"
    subst.write_text("3\n01\n02\n0\n")
    config = tmp_path / "configurations.txt"
    config.write_text("head=0000 tail=const:0\nhead=11 tail=const:1\n")
    return [
        ["lang", "--substitution", str(subst), "--depth", "6"],
        ["delta", "--config", str(config), "--n-max", "4"],
        ["recog", "--n-max", "4", "--window", "2000"],
        ["spectral"],
        ["verify", "--k", "3"],
        ["renorm", "--mode", "study", "--samples", "1", "--n-max", "4"],
        ["renorm", "--mode", "brute-force", "--samples", "1", "--n-max", "0"],
        ["renorm", "--mode", "closed-form", "--samples", "1", "--n-max", "0"],
        ["pressure", "--k", "2", "--depth", "6", "--statistic", "excess"],
    ]


def _function(member):
    """The function behind a method, classmethod or property, or None."""
    if isinstance(member, classmethod):
        member = member.__func__
    elif isinstance(member, property):
        member = member.fget
    elif isinstance(member, functools.cached_property):
        member = member.func
    return member if inspect.isfunction(member) else None


def public_functions() -> dict:
    """Dotted name -> function, over the package's exports."""
    found = {}
    for name, obj in vars(kbonacci).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            found[name] = obj
        elif inspect.isclass(obj) and obj.__module__.startswith("kbonacci."):
            for attr, member in vars(obj).items():
                func = _function(member)
                if func is not None and not attr.startswith("_"):
                    found[f"{name}.{attr}"] = func
    return found


def test_every_public_name_is_reached_by_a_command(tmp_path, capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # the package's functools caches, cleared before each command as in a fresh process
    caches = [obj for name, module in sys.modules.items() if name.startswith("kbonacci.")
              for obj in vars(module).values() if callable(getattr(obj, "cache_clear", None))]
    for argv in commands(tmp_path):
        for cache in caches:
            cache.cache_clear()
        sys.setprofile(profile)
        try:
            assert cli.main(argv) == 0, argv
        finally:
            sys.setprofile(None)
    capsys.readouterr()
    unreached = {name for name, func in public_functions().items() if func.__code__ not in called}
    assert unreached == set(ALLOWED), (
        f"public, but no command calls it: {sorted(unreached - set(ALLOWED))}; "
        f"allowed, but called or no longer public: {sorted(set(ALLOWED) - unreached)}"
    )
