"""Cross-tree artifact identity: did a change move a byte of any metric?

Usage:  python benchmarks/compare_artifacts.py BASE_DIR HEAD_DIR

Compares every ``*.json`` artifact two ``run_experiments.py --smoke
--artifacts-dir`` runs wrote — typically the merge base's and the head's —
after the same wall-clock strip ``tests/test_determinism.py`` applies
between two runs of one tree.  That test cannot catch a refactor that
changes a simulated metric (it moves identically in both of its runs);
this comparison can.  Exits nonzero naming every artifact that differs
or exists on one side only, and under each differing artifact every JSON
path that moved with its base and head value — "which count moved" is
read off the log, not re-derived by hand.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_determinism import strip_wall_clock  # noqa: E402

#: Shown for the side on which a path does not exist.
ABSENT = "<absent>"


def differing_paths(base, head, path: str = ""):
    """Yield ``(json_path, base_value, head_value)`` for every value that
    differs between two decoded JSON documents.  Objects are descended key
    by key (``/``-joined: metric names carry dots); anything else —
    scalars, lists, an object against a non-object — is one value, equal
    iff it serialises to the same bytes (so ``1`` and ``1.0`` differ, as
    they do under the byte comparison this replaces)."""
    if isinstance(base, dict) and isinstance(head, dict):
        for key in sorted(base.keys() | head.keys()):
            yield from differing_paths(
                base.get(key, ABSENT), head.get(key, ABSENT),
                f"{path}/{key}" if path else key,
            )
    elif json.dumps(base, sort_keys=True) != json.dumps(head, sort_keys=True):
        yield path, base, head


def compare(base: Path, head: Path) -> tuple[int, list[str]]:
    """``(JSON artifacts under head, report lines)`` — no lines when every
    artifact exists on both sides and is identical after the strip."""
    base_names, head_names = (
        {path.name for path in directory.glob("*.json")}
        for directory in (base, head)
    )
    lines: list[str] = []
    for name in sorted(base_names | head_names):
        if name not in head_names or name not in base_names:
            side = base if name in base_names else head
            lines.append(f"{name}: only under {side}")
            continue
        moved = list(differing_paths(*(
            strip_wall_clock(json.loads((side / name).read_text()))
            for side in (base, head)
        )))
        if moved:
            lines.append(f"{name}: {len(moved)} value(s) differ")
            lines.extend(
                f"  {path}: base={was!r} head={now!r}"
                for path, was, now in moved
            )
    return len(head_names), lines


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, head = Path(sys.argv[1]), Path(sys.argv[2])
    count, lines = compare(base, head)
    if lines or not count:
        sys.exit("\n".join([
            f"artifacts differ between {base} and {head} after the "
            f"wall-clock strip:",
            *(lines or ["  no artifacts found"]),
        ]))
    print(f"{count} JSON artifacts identical after the wall-clock strip")


if __name__ == "__main__":
    main()
