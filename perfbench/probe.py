"""Set-up probe: what every CLI invocation pays before its first job can
start (imports and report-schema load), and nothing else.

    python3 perfbench/probe.py      # prints `ready`

run.py times fresh processes of this script for `setup_s`.  It imports no
benchmark code, so the figure holds only the library's own start-up cost.
"""

import sobrough.cli  # noqa: F401
from sobrough.report import load_schema

load_schema()
print("ready", flush=True)
