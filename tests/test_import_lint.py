"""Import fences, checked by reading the source (nothing is imported).

The reproduction tier -- the XSLT engine the paper's prototype ran its
QEG on, and the discrete-event simulator that regenerates its figures --
is paper-only code: the live system (agents, engine, subsystems) must
not depend on it.  The second fence keeps deleted modules deleted.  The
third keeps the subsystem seam one-way: the opt-in packages import the
agent's world, never the reverse.  The option fence at the end (which
does import) keeps the query plan free of knobs.
"""

import ast
import inspect
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


# ----------------------------------------------------------------------
# Call fences: one guarded request, one place that keeps the breakers
# ----------------------------------------------------------------------
#: The only code that may put a request on the wire itself.  Everything
#: an agent sends goes through ``OrganizingAgent.request``; the rest are
#: clients (no agent, no breaker), and ``restore_site`` rebuilds a site
#: that has no agent yet.
WIRE_CALLERS = {
    ("net/oa.py", "OrganizingAgent.request"),
    ("net/cluster.py", "Cluster.query_via_messages"),
    ("net/sa.py", "SensingAgent.send_update"),
    ("rebalance/smoke.py", "run"),
    ("replication/ring.py", "ReplicationRing.restore_site"),
}
BREAKER_CALLS = ("health.allow", "health.record_success",
                 "health.record_failure")


def dotted_calls(path):
    """``(enclosing scope, dotted callee)`` for every call in *path*
    whose callee is a plain dotted name (``a.b.c(...)``)."""
    found = []

    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        return ".".join(reversed(parts + [node.id]))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                callee = dotted(child.func)
                if callee is not None:
                    found.append((".".join(scope[:2]), callee))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def test_agents_reach_the_wire_through_one_guarded_request():
    wire, breaker = set(), set()
    for package in LIVE_PACKAGES:
        root = SRC / "repro" / package
        for path in sorted(root.rglob("*.py")):
            name = str(path.relative_to(SRC / "repro"))
            for scope, callee in dotted_calls(path):
                if callee == "network.request" or \
                        callee.endswith(".network.request"):
                    wire.add((name, scope))
                if callee.endswith(BREAKER_CALLS):
                    breaker.add(name)
    assert wire == WIRE_CALLERS
    assert breaker == {"net/oa.py"}


def test_no_unused_imports_under_src():
    """What ``ruff check --select F401`` would report (ruff is not
    installed here): a name an ``import`` binds and nothing reads."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        # A name listed in __all__ is re-exported, which is a use.
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                read |= {element.value for element in ast.walk(node.value)
                         if isinstance(element, ast.Constant)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            statement = " ".join(lines[node.lineno - 1:node.end_lineno])
            if "noqa" in statement:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(
                        f"{path.relative_to(SRC)}:{node.lineno}: {bound}")
    assert unused == []


# ----------------------------------------------------------------------
# Option fence: one query plan
# ----------------------------------------------------------------------
#: Every tunable an organizing agent has.  Generalization and nesting
#: strategy are not among them: the plan is the paper's (3.3, 4).
OA_TUNABLES = ("cache_results", "executor", "retry_policy", "breaker",
               "stale_on_error", "subsystems")
PLAN_KNOBS = ("strategy", "generaliz", "nesting", "aggressive", "probe")


def test_the_query_plan_has_no_options():
    from repro.core import GatherDriver, run_qeg
    from repro.net import OAConfig

    assert tuple(inspect.signature(OAConfig).parameters) == OA_TUNABLES
    for name in OA_TUNABLES:
        assert f"``{name}``" in OAConfig.__doc__, name
    for function in (run_qeg, GatherDriver, GatherDriver.gather):
        knobs = [parameter for parameter in inspect.signature(function)
                 .parameters if any(knob in parameter for knob in PLAN_KNOBS)]
        assert knobs == [], function.__qualname__


def test_one_freshness_bound_has_no_options():
    # A subquery carries the caller's own bound; both answer caches key
    # by the freshness-stripped answer key, with no freshness buckets.
    from repro import agg
    from repro.core import GatherDriver, consistency, semcache

    assert tuple(inspect.signature(agg.AggregationConfig).parameters) == ()
    assert tuple(inspect.signature(semcache.canonicalize).parameters) == (
        "query",)
    assert "semcache" not in inspect.signature(GatherDriver).parameters
    assert [name for name in vars(semcache) if name.endswith("Config")] == []
    # No freshness-bucket class, boundary set or tolerance rounding.
    for module in (semcache, consistency):
        assert [name for name in vars(module)
                if "bucket" in name.lower()] == [], module.__name__
