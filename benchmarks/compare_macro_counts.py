"""Cross-tree macrobench counts: which deterministic number did a change move?

Usage:  python benchmarks/compare_macro_counts.py BASE_TREE HEAD_TREE [MACROBENCH_ARGS...]

Runs ``python3 -m macrobench --workload W --seed 11 --scale 0.05
--seconds 1 --trace 1`` for every workload in each tree (each tree's own
``macrobench/`` against its own ``src/``), keeps the metrics whose unit
is ``count`` or ``bytes`` plus ``sim.elapsed_s`` — the numbers that
repeat exactly — and prints every one that moved with its base and head
value.  Report-only: a perf PR moves counts on purpose and says why in
CHANGES.md; this makes "every other count is equal" a diff, not a claim.
The exception is ``NEVER_UP``: work metrics that may fall but must not
rise (ROADMAP items 2 and 3), the isolation counts ``mvcc.conflicts``
and ``platform.retries``, which stay 0 while a purchase call is one
transaction, the fabric's work (bytes on the simulated network,
shard-router lookups), the storage round trips
(``storage.rpc.calls``: a standing query answered from its views makes
none once hydrated) and the engine's point reads (``kv.gets``: a sole
writer's kept page answers a read of what it wrote) — head above base
on any of them exits 1.
Otherwise exits 0 unless a run itself fails.  Trailing arguments go to
macrobench after the defaults (``--scale 1 --seconds 6`` for the full
populations: at 0.05 ``twin_mixed`` has 12 players on 12 distinct
(shard, storage node) pairs, so nothing there can coalesce).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from macrobench.catalog import WORKLOADS  # noqa: E402  (read, never edited)

ARGS = ("--seed", "11", "--scale", "0.05", "--seconds", "1", "--trace", "1")
ABSENT = "<absent>"
#: Deterministic work counts and byte totals a change may lower, never
#: silently raise.
NEVER_UP = (
    "semantic.distance_evals_build",
    "semantic.distance_evals_query",
    "storage.scan.rows_examined",
    "kv.scans",
    "geo.antientropy.rounds",
    "failover.replicated_ops",
    "wal.appends",
    "geo.repl.shipped",
    "wal.bytes",
    "storage.rpc.bytes",
    "net.messages_sent",
    "geo.rpc.round_trips",
    "mvcc.conflicts",
    "platform.retries",
    "net.bytes_sent",
    "cluster.router.lookups",
    "storage.rpc.calls",
    "kv.gets",
)


def deterministic(result: dict) -> dict[str, float]:
    """The exactly repeating metrics of one macrobench result object."""
    return {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if entry["unit"] in ("count", "bytes") or name == "sim.elapsed_s"
    }


def moved(base: dict, head: dict) -> list[str]:
    """One line per deterministic metric that differs between two result
    objects (or exists on one side only)."""
    was, now = deterministic(base), deterministic(head)
    return [
        f"  {name}: base={was.get(name, ABSENT)!r} head={now.get(name, ABSENT)!r}"
        for name in sorted(was.keys() | now.keys())
        if was.get(name, ABSENT) != now.get(name, ABSENT)
    ]


def risen(base: dict, head: dict) -> list[str]:
    """The ``NEVER_UP`` metrics whose head value exceeds the base's."""
    was, now = deterministic(base), deterministic(head)
    return [
        name for name in NEVER_UP
        if name in was and name in now and now[name] > was[name]
    ]


def measure(tree: Path, workload: str, extra: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "macrobench", "--workload", workload, *ARGS, *extra],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def main() -> None:
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    base, head, extra = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:]
    up = []
    for workload in WORKLOADS:
        was, now = measure(base, workload, extra), measure(head, workload, extra)
        lines = moved(was, now)
        print(f"{workload}: {len(lines)} deterministic metric(s) moved")
        print("\n".join(lines), end="\n" if lines else "")
        up += [f"{workload}: {name}" for name in risen(was, now)]
    if up:
        sys.exit("never-up metric(s) rose: " + ", ".join(up))


if __name__ == "__main__":
    main()
