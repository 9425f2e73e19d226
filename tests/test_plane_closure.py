"""The data plane's import closure is a committed list.

A quarter of ``src/repro`` is the paper's Section IV exhibits — modules no
deployment shape imports.  This test holds the line between the two
without moving a file: it walks the explicit ``import``/``from``
statements reachable from the protocol and the three deployment shapes
and compares the set with :data:`PLANE`.  A plane module that starts
importing anything outside it fails here, with the offending edge.

A package imported as a package (``from ..semantic import SemanticIndex``)
counts as its ``__init__`` module and is not walked further: what a
package re-exports is its own business.

Inside the plane, nothing serves only its own tests: every public
function, class and method a plane module defines is named somewhere
else under ``src/``, ``benchmarks/``, ``examples/`` or ``macrobench/``,
or is on :data:`TESTS_ONLY` with the test that uses it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

ROOTS = (
    "repro.api.dataplane",
    "repro.platform.platform",
    "repro.cluster.cluster",
    "repro.geo.deployment",
)

#: The plane (``repro.`` prefix dropped): 33 modules, 10,463 lines.
PLANE = {
    "api.dataplane",
    "cluster.cluster",
    "cluster.config",
    "cluster.coordinator",
    "cluster.elasticity",
    "cluster.failover",
    "cluster.router",
    "core.clock",
    "core.columns",
    "core.errors",
    "core.metrics",
    "core.records",
    "geo.deployment",
    "geo.replication",
    "net.overlay",
    "net.pubsub",
    "net.simnet",
    "obs.tracing",
    "placement",
    "platform.gateway",
    "platform.platform",
    "query.plane",
    "replication",
    "resilience.faults",
    "resilience.policies",
    "semantic",
    "spatial.geometry",
    "storage.bufferpool",
    "storage.engine",
    "storage.kv",
    "storage.wal",
    "txn.mvcc",
    "txn.twopc",
}


def source_of(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def imported_by(module: str) -> set[str]:
    """Every ``repro`` module an import statement of ``module`` names,
    at any nesting depth (function-level and ``TYPE_CHECKING`` included)."""
    named = set()
    for node in ast.walk(ast.parse(source_of(module).read_text())):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parent = module.split(".")[: -node.level] if node.level else []
            base = ".".join(parent + ([node.module] if node.module else []))
            named.add(base)
            # ``from package import submodule`` names a module too.
            named.update(f"{base}.{alias.name}" for alias in node.names)
    return {
        name for name in named
        if name.split(".")[0] == "repro" and source_of(name) is not None
    }


def closure() -> tuple[set[str], dict[str, str]]:
    """Reachable modules, and for each the module that first imported it."""
    seen: set[str] = set()
    via: dict[str, str] = {}
    stack = list(ROOTS)
    while stack:
        module = stack.pop()
        if module in seen:
            continue
        seen.add(module)
        if source_of(module).name == "__init__.py":
            continue
        for name in sorted(imported_by(module)):
            via.setdefault(name, module)
            stack.append(name)
    return seen, via


def test_the_plane_imports_nothing_outside_the_committed_list():
    seen, via = closure()
    reachable = {name.removeprefix("repro.") for name in seen}
    leaked = sorted(reachable - PLANE)
    assert not leaked, "the plane grew: " + ", ".join(
        f"{via['repro.' + name].removeprefix('repro.')} imports {name}"
        for name in leaked
    )
    assert not PLANE - reachable, (
        f"no longer on the plane, drop from PLANE: {sorted(PLANE - reachable)}"
    )


def test_the_walk_sees_function_level_and_relative_imports():
    assert "repro.spatial.geometry" in imported_by("repro.platform.platform")
    assert "repro.semantic" in imported_by("repro.platform.platform")
    assert imported_by("repro.core.errors") == set()


#: Public definitions in the plane that no program code names, each
#: with the test that uses it.  Keys are ``module.Qualname`` (``repro.``
#: dropped); values are ``file::test`` under ``tests/``.
TESTS_ONLY = {
    "core.clock.EventScheduler.run_for": "test_core_clock.py::test_run_for_is_relative",
    "core.metrics.Histogram.stddev": "test_core_metrics.py::test_stddev",
    "core.records.DataRecord.age": "test_core_records.py::test_age",
    "net.overlay.BatonTree.range_owners":
        "test_net_overlay.py::test_range_owners_contiguous",
    "net.pubsub.Broker.unsubscribe": "test_net_pubsub.py::test_unsubscribe",
    "obs.tracing.Tracer.finished_spans": "test_obs_tracing.py::test_bounded_memory",
    "obs.tracing.Tracer.spans_named": "test_obs_tracing.py::test_flush_gateways_span_tree",
    "obs.tracing.Tracer.children_of": "test_obs_tracing.py::test_siblings_share_parent",
    "placement.Placement.load_of": "test_cluster_ring.py::test_max_load_within_bound",
    "resilience.faults.FaultInjector.maybe_crash":
        "test_resilience.py::test_maybe_crash_raises",
    "resilience.policies.RetryPolicy.planned_delays":
        "test_resilience.py::test_jitter_is_deterministic_under_fixed_seed",
    "spatial.geometry.Point.translated": "test_spatial_geometry.py::test_translate",
    "spatial.geometry.BBox.from_points": "test_spatial_geometry.py::test_from_points",
    "spatial.geometry.BBox.contains_box": "test_spatial_geometry.py::test_contains_box",
    "storage.wal.WriteAheadLog.truncated_lsn":
        "test_storage_lifecycle.py::test_last_valid_lsn_survives_empty_body",
    "txn.mvcc.MVStore.vacuum": "test_txn_mvcc.py::test_vacuum_drops_old_versions",
    "txn.mvcc.MVStore.version_count": "test_txn_mvcc.py::test_vacuum_drops_old_versions",
    "txn.twopc.Participant.staged_count": "test_txn_twopc.py::test_no_vote_aborts_all",
}

WORD = re.compile(r"[A-Za-z_]\w*")


def words_under(*dirs: str) -> Counter:
    """How often each identifier-shaped word occurs in the ``.py`` files
    under ``dirs`` (code, strings and comments alike)."""
    counts: Counter = Counter()
    for name in dirs:
        for path in (REPO / name).rglob("*.py"):
            counts.update(WORD.findall(path.read_text()))
    return counts


def public_definitions(module: str):
    """``(Qualname, name)`` for every public module-level function and
    class of ``module``, and every public method of those classes."""
    for node in ast.parse(source_of(module).read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (
                    isinstance(member, ast.FunctionDef)
                    and not member.name.startswith("_")
                ):
                    yield f"{node.name}.{member.name}", member.name


def test_nothing_in_the_plane_serves_only_its_own_tests():
    in_src = words_under("src")
    elsewhere = words_under("benchmarks", "examples", "macrobench")
    unnamed = {
        f"{module}.{qualname}"
        for module in PLANE
        for qualname, name in public_definitions("repro." + module)
        # One occurrence in src/ is the definition itself.
        if in_src[name] <= 1 and not elsewhere[name]
    }
    assert not unnamed - TESTS_ONLY.keys(), (
        "used only by tests; delete it, or list it in TESTS_ONLY with "
        f"the test that uses it: {sorted(unnamed - TESTS_ONLY.keys())}"
    )
    assert not TESTS_ONLY.keys() - unnamed, (
        "named by program code now, or gone from the plane; drop from "
        f"TESTS_ONLY: {sorted(TESTS_ONLY.keys() - unnamed)}"
    )
    for qualified, entry in TESTS_ONLY.items():
        test_file, test = entry.split("::")
        text = (REPO / "tests" / test_file).read_text()
        name = qualified.rsplit(".", 1)[1]
        assert f"def {test}(" in text and re.search(rf"\b{name}\b", text), entry

