"""The exactly-once ledger (``repro.verify``), and the rule that no test
or benchmark writes its own copy again."""

import ast
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import DataRecord, Space
from repro.platform import PurchaseOutcome
from repro.verify import exactly_once_violations, units_sold
from repro.workloads.marketplace import PurchaseRequest

REPO = Path(__file__).resolve().parents[1]


def sale(pid, quantity=1, success=True):
    return PurchaseOutcome(PurchaseRequest("s", pid, Space.VIRTUAL, 0.0, quantity), success)


@pytest.mark.parametrize("outcomes, initial, stocks, violations", [
    ([sale("a"), sale("a"), sale("b"), sale("b", success=False)], {"a": 5, "b": 1},
     {"a": 3, "b": 0}, []),
    ([sale("a"), sale("a")], {"a": 5}, {"a": 4}, ["a"]),
    ([sale("a"), sale("a")], {"a": 1}, {"a": -1}, ["a"]),  # the sum balances, the sign not
    ([sale("a", 3), sale("a", 2, success=False)], {"a": 8}, {"a": 5}, []),
    ([sale("a"), sale("ghost")], {"a": 2}, {"a": 1, "ghost": 0}, ["ghost"]),
], ids=["conserved", "lost-decrement", "double-decrement", "quantity", "sold-not-in-initial"])
def test_exactly_once_violations(outcomes, initial, stocks, violations):
    assert exactly_once_violations(initial, units_sold(outcomes), stocks) == violations


def test_a_salted_product_is_read_as_the_sum_of_its_buckets():
    cluster = PlatformCluster(ClusterConfig(n_shards=3))
    cluster.load_catalog([DataRecord("p0", {"stock": 12})])
    buckets = cluster.salt_product("p0", 3)
    sold = units_sold(cluster.process_purchases([
        PurchaseRequest(f"s{i}", "p0", Space.VIRTUAL, float(i)) for i in range(7)
    ]))
    assert sold == {"p0": 7}
    assert exactly_once_violations({"p0": 12}, sold, {"p0": cluster.get_stock("p0")}) == []
    one_bucket = {"p0": cluster.committed_product(buckets[0])["stock"]}
    assert exactly_once_violations({"p0": 12}, sold, one_bucket) == ["p0"]


def test_no_test_or_benchmark_defines_its_own_ledger():
    banned = {"units_sold", "not_exactly_once", "sold_by_product"}
    found = []
    for path in sorted([*REPO.glob("tests/**/*.py"), *REPO.glob("benchmarks/**/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (
                node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                else node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                else node.arg if isinstance(node, ast.arg)
                else None
            )
            if name in banned:
                found.append(f"{path.relative_to(REPO)}:{node.lineno} {name}")
    assert found == []
