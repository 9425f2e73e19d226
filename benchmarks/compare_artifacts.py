"""Cross-tree artifact identity: did a change move a byte of any metric?

Usage:  python benchmarks/compare_artifacts.py BASE_DIR HEAD_DIR

Compares every ``*.json`` artifact two ``run_experiments.py --smoke
--artifacts-dir`` runs wrote — typically the merge base's and the head's —
after the same wall-clock strip ``tests/test_determinism.py`` applies
between two runs of one tree.  That test cannot catch a refactor that
changes a simulated metric (it moves identically in both of its runs);
this comparison can.  Exits nonzero naming every artifact that differs
or exists on one side only.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_determinism import canonical_bytes  # noqa: E402


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, head = Path(sys.argv[1]), Path(sys.argv[2])
    base_names, head_names = (
        {path.name for path in directory.glob("*.json")}
        for directory in (base, head)
    )
    diverged = sorted(
        (base_names ^ head_names)
        | {
            name for name in base_names & head_names
            if canonical_bytes(base / name) != canonical_bytes(head / name)
        }
    )
    if diverged or not head_names:
        sys.exit(
            f"artifacts differ between {base} and {head} after the "
            f"wall-clock strip: {diverged or 'no artifacts found'}"
        )
    print(f"{len(head_names)} JSON artifacts identical after the "
          f"wall-clock strip")


if __name__ == "__main__":
    main()
