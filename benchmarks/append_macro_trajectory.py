"""Append one point to the macrobench trajectory, ``BENCH_macro.jsonl``.

Usage:  python3 -m macrobench --seed 11 | python benchmarks/append_macro_trajectory.py LABEL

Reads the full run's tables from stdin and appends one JSON line: per
workload the end-to-end medians (untraced pass) and the three layers with
the largest share of summed layer self time (traced pass).  One line per
merged PR, so a re-anchor reads a curve instead of CHANGES.md prose.
``macrobench/`` is read (metric names), never edited.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from macrobench import catalog  # noqa: E402

END_TO_END = {m.name for m in catalog.END_TO_END}
SELF_TIMES = {m.name for m in catalog.PER_LAYER if m.source in (("self",), ("setup_self",))}
HEADER = re.compile(r"# (\w+)\s+seed=(\d+) .*trace=([01])")


def point(label: str, text: str) -> dict:
    workloads: dict[str, dict] = {}
    seed, current, wanted = None, {}, END_TO_END
    for line in text.splitlines():
        head, parts = HEADER.match(line), line.split()
        if head:
            seed, traced = int(head[2]), head[3] == "1"
            entry = workloads.setdefault(head[1], {"self": {}})
            current, wanted = (entry["self"], SELF_TIMES) if traced else (entry, END_TO_END)
        elif len(parts) >= 3 and parts[0] in wanted:
            current[parts[0]] = float(parts[1])
    for entry in workloads.values():
        layers = entry.pop("self")
        total = sum(layers.values()) or 1.0
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
        entry["top_layers"] = [[name, round(value / total, 3)] for name, value in top]
    return {"label": label, "seed": seed, "workloads": workloads}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(ROOT / "BENCH_macro.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(point(sys.argv[1], sys.stdin.read()), sort_keys=True) + "\n")
