"""Path set-up for ``python -m pytest perfbench/tests`` (not part of tier-1)."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
for entry in (HERE, HERE.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
