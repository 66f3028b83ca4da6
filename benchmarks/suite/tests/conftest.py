"""Self-tests of the benchmark suite (``python -m pytest benchmarks/suite/tests -q``).

Not part of tier-1: ``testpaths`` in ``pyproject.toml`` stays ``tests``.
"""

import pathlib
import sys

SUITE = pathlib.Path(__file__).resolve().parents[1]
ROOT = SUITE.parents[1]
for path in (ROOT / "src", SUITE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
