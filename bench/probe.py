"""Set-up probe: what every CLI run pays before its experiment starts.

Run as `python3 bench/probe.py CONFIG`: it prints `time.perf_counter()` once
Python has started, imported arisim, parsed the config and built the
geometry.  The clock is CLOCK_MONOTONIC, shared by all processes, so the
caller subtracts the time it started the process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arisim.channel import make_geometry  # noqa: E402
from arisim.cli import build_system, load_config  # noqa: E402

make_geometry(build_system(load_config(sys.argv[1])))
print(repr(time.perf_counter()))
