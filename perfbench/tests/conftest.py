"""Put the benchmark modules, the analyzer sources and the repository
root (for ``benchmarks``) on the import path.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for path in (_ROOT, _ROOT / "src", _ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
