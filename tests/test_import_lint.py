"""Import fences, checked by reading the source (nothing is imported).

The reproduction tier -- the discrete-event simulator that regenerates
the paper's figures -- is paper-only code: the live system (agents,
engine, subsystems) must not depend on it.  The second fence keeps
deleted modules and packages deleted.  The third keeps the subsystem
seam one-way: the opt-in packages import the agent's world, never the
reverse.  The option fence at the end (which does import) keeps the
query plan free of knobs.
"""

import ast
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

LIVE_PACKAGES = ("net", "core", "agg", "replication", "rebalance")
REPRODUCTION_TIER = ("repro.sim",)
DELETED_MODULES = ("repro.net.aioruntime", "repro.net.runtime",
                   "repro.core.aggregates", "repro.xmlkit.merge",
                   "repro.xslt")
SEAM_HOSTS = ("net", "core", "obs")
#: Aggregation is not among them: every agent builds it.
OPT_IN_SUBSYSTEMS = ("repro.replication", "repro.rebalance")
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
        path = SRC / module.replace(".", "/")
        assert not path.with_suffix(".py").exists(), module
        assert not (path / "__init__.py").exists(), module


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


# ----------------------------------------------------------------------
# One ask path: whole rounds in, one function makes every envelope
# ----------------------------------------------------------------------
ASK_ENVELOPES = ("QueryMessage",)


def test_one_function_builds_every_ask_envelope():
    files = [SRC / "repro" / "net" / "oa.py",
             *sorted((SRC / "repro" / "replication").rglob("*.py")),
             *sorted((SRC / "repro" / "agg").rglob("*.py"))]
    made_in = {envelope: set() for envelope in ASK_ENVELOPES}
    for path in files:
        name = str(path.relative_to(SRC / "repro"))
        for scope, callee in dotted_calls(path):
            if callee in made_in:
                made_in[callee].add((name, scope))
    assert made_in == {envelope: {("net/oa.py", "ask")}
                        for envelope in ASK_ENVELOPES}


def test_only_the_wire_module_defines_message_kinds():
    # One ask exchange: ``query``/``answer`` carry every ask, and no
    # subsystem adds an envelope of its own.
    defined = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    (base.id if isinstance(base, ast.Name) else
                     getattr(base, "attr", None)) == "Message"
                    for base in node.bases):
                defined.append(f"{path.relative_to(SRC)}: {node.name}")
    assert defined and all(entry.startswith("repro/net/messages.py:")
                           for entry in defined), defined


def test_one_module_defines_the_nesting_rule():
    # Definition 3.3 and Section 4's collect point have one
    # implementation: the one the compiler runs.
    rules = ("_path_is_nested", "predicate_is_nested", "_max_upward_levels",
             "collect_point", "nesting_depth")
    defined = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [f"{path.relative_to(SRC)}: {node.name}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name.lstrip("_") in
                    {rule.lstrip("_") for rule in rules}]
    assert sorted(defined) == sorted(
        f"repro/xpath/analysis.py: {rule}" for rule in rules)


def test_a_rollup_asks_through_the_dispatcher():
    # Its asks leave through ``_send_subqueries`` (the driver's
    # ``send``), never through a request of its own.
    calls = [(path.name, scope, callee)
             for path in sorted((SRC / "repro" / "agg").rglob("*.py"))
             for scope, callee in dotted_calls(path)
             if callee.endswith("agent.request")]
    assert calls == []


def test_the_gather_driver_takes_whole_rounds():
    from repro.core import GatherDriver
    from repro.net.oa import OrganizingAgent
    import repro.replication.manager as replication

    parameters = inspect.signature(GatherDriver).parameters
    assert "executor" not in parameters and "send_many" not in parameters
    assert not hasattr(GatherDriver, "_dispatch_round")
    for gone in ("_send_subquery", "_redispatch", "_ship"):
        assert not hasattr(OrganizingAgent, gone), gone
    for gone in ("unforwarded_ask", "unforwarded_replies"):
        assert not hasattr(replication, gone), gone


def test_no_unused_imports():
    """What ``ruff check --select F401 src tests`` would report, read
    without ruff: a name an ``import`` binds and nothing reads."""
    unused = []
    for path in sorted([*SRC.rglob("*.py"), *TESTS.rglob("*.py")]):
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
                        f"{path.relative_to(ROOT)}:{node.lineno}: {bound}")
    assert unused == []


# ----------------------------------------------------------------------
# Option fence: one query plan
# ----------------------------------------------------------------------
#: Every tunable an organizing agent has.  Generalization and nesting
#: strategy are not among them: the plan is the paper's (3.3, 4).
OA_TUNABLES = ("cache_results", "executor", "retry_policy", "breaker",
               "subsystems")
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
    # A subquery carries the caller's own bound; the one scalar answer
    # cache keys by the freshness-stripped path, with no freshness
    # buckets, and aggregation has no switch.
    from repro import agg
    from repro.core import GatherDriver, consistency, semcache

    assert [name for name in vars(agg) if name.endswith("Config")] == []
    assert tuple(inspect.signature(semcache.canonicalize).parameters) == (
        "query",)
    assert "semcache" not in inspect.signature(GatherDriver).parameters
    assert [name for name in vars(semcache) if name.endswith("Config")] == []
    # No freshness-bucket class, boundary set or tolerance rounding.
    for module in (semcache, consistency):
        assert [name for name in vars(module)
                if "bucket" in name.lower()] == [], module.__name__


# ----------------------------------------------------------------------
# Parse fence: a query's structure comes from one compile memo
# ----------------------------------------------------------------------
PARSERS = ("parse", "parse_cached")
#: Serving-path code that reads a query's structure (LCA routing, load
#: accounting, path-vs-scalar dispatch): file -> scope, ``None`` for all.
COMPILE_MEMO_READERS = {"net/cluster.py": None, "net/load.py": None,
                        "core/gather.py": "GatherDriver.answer_any"}


def test_the_serving_path_parses_nothing_outside_the_compile_memo():
    for name, scope in COMPILE_MEMO_READERS.items():
        path = SRC / "repro" / name
        calls = [callee for where, callee in dotted_calls(path)
                 if scope is None or where == scope]
        assert calls, name
        assert [callee for callee in calls
                if callee.split(".")[-1] in PARSERS] == [], name
    readers = [SRC / "repro" / "net" / name
               for name in ("cluster.py", "load.py")]
    assert offenders(readers, ("repro.xpath.parser",)) == []


def test_the_compile_memo_has_one_keying_and_no_options():
    # One keying (text, then shape): no spelling aliases, no switch
    # around canonicalization or around the memo.
    from repro.core import qeg

    tree = ast.parse((SRC / "repro" / "core" / "qeg.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(key.value for key in node.keys
                         if isinstance(key, ast.Constant))
    assert [name for name in names if name and
            ("alias" in name or "sugar" in name)] == []
    assert tuple(inspect.signature(qeg.compile_pattern).parameters) == (
        "query", "schema")
    assert tuple(qeg.pattern_key_stats()) == ("canonical_compiles",)


def test_the_xpath_evaluator_is_a_compiler():
    # One evaluation mechanism: ASTs compile to closures once, and no
    # tree-walking ``_eval*`` interpreter stands beside the compiler.
    path = SRC / "repro" / "xpath" / "evaluator.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_eval")] == []
