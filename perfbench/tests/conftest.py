"""Self-tests of the benchmark; run with ``python -m pytest perfbench/tests``
(tier-1's ``testpaths`` does not collect this directory)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
