"""``python -m benchmarks.suite``: put the checkout's ``src`` on the path."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        # a directory holding only the benchmark has nothing to measure
        sys.exit(f"benchmarks.suite: no program under {ROOT / 'src'}")
    # always this checkout's sources, never an installed copy
    sys.path.insert(0, str(ROOT / "src"))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from benchmarks.suite.cli import main

    sys.exit(main())
