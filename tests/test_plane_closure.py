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
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ROOTS = (
    "repro.api.dataplane",
    "repro.platform.platform",
    "repro.cluster.cluster",
    "repro.geo.deployment",
)

#: The plane (``repro.`` prefix dropped): 34 modules, 10,740 lines.
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
    "selftune.heat",
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
