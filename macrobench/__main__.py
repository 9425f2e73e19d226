"""``python3 -m macrobench`` from a checkout root (see ``cli``)."""

import sys
from pathlib import Path

# The program under test is the checkout's own source tree; BENCHMARK.json's
# command may not name it, so it is put on the path here.
SRC = Path(__file__).resolve().parents[1] / "src"
if SRC.is_dir():
    sys.path.insert(0, str(SRC))

try:
    import repro  # noqa: F401
except ImportError as exc:
    print(f"macrobench: cannot import the program under test: {exc}",
          file=sys.stderr)
    sys.exit(2)

from macrobench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
