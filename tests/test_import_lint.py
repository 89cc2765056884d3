"""Import fences, checked by reading the source (nothing is imported).

The reproduction tier -- the XSLT engine the paper's prototype ran its
QEG on, and the discrete-event simulator that regenerates its figures --
is paper-only code: the live system (agents, engine, subsystems) must
not depend on it.  The second fence keeps deleted modules deleted.  The
third keeps the subsystem seam one-way: the opt-in packages import the
agent's world, never the reverse.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LIVE_PACKAGES = ("net", "core", "agg", "replication", "rebalance")
REPRODUCTION_TIER = ("repro.xslt", "repro.sim")
DELETED_MODULES = ("repro.net.aioruntime", "repro.net.runtime",
                   "repro.core.aggregates", "repro.xmlkit.merge")
SEAM_HOSTS = ("net", "core", "obs")
OPT_IN_SUBSYSTEMS = ("repro.replication", "repro.agg", "repro.rebalance")
#: Durability supplies the recovered database before an agent exists,
#: so the cluster builds its manager by name; nothing else may.
DURABILITY_BOOTSTRAP = {"net/cluster.py"}


def imported_modules(path):
    """Every module name an ``import`` statement in *path* could bind.

    ``from a.b import c`` yields both ``a.b`` and ``a.b.c``: ``c`` may
    be a submodule.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def offenders(files, fenced):
    found = []
    for path in files:
        for module in imported_modules(path):
            if any(module == name or module.startswith(name + ".")
                   for name in fenced):
                found.append(f"{path.relative_to(SRC)}: {module}")
    return found


def test_live_packages_do_not_import_the_reproduction_tier():
    files = [path for package in LIVE_PACKAGES
             for path in sorted((SRC / "repro" / package).rglob("*.py"))]
    assert files
    assert offenders(files, REPRODUCTION_TIER) == []


def test_nothing_imports_the_deleted_runtimes():
    files = sorted(SRC.rglob("*.py"))
    assert files
    assert offenders(files, DELETED_MODULES) == []
    for module in DELETED_MODULES:
        assert not (SRC / (module.replace(".", "/") + ".py")).exists()


def test_the_seam_hosts_do_not_import_the_opt_in_subsystems():
    # ast.walk sees function bodies too, so lazy imports count.
    files = [path for package in SEAM_HOSTS
             for path in sorted((SRC / "repro" / package).rglob("*.py"))]
    assert files
    assert offenders(files, OPT_IN_SUBSYSTEMS) == []
    durable = {found.split(":")[0].removeprefix("repro/")
               for found in offenders(files, ("repro.durability",))}
    assert durable <= DURABILITY_BOOTSTRAP
