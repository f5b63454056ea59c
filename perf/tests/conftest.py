"""Make the harness modules and the program importable for the self-tests."""

import pathlib
import sys

PERF = pathlib.Path(__file__).resolve().parent.parent
for path in (PERF.parent / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
