"""Run ``python -m scenefuse ARG...`` in this process and record its peak RSS.

    python3 perfbench/launch.py PEAK_FILE ARG...

The peak RSS that ``wait4`` reports for a child includes the memory of the
process it was forked from, so the benchmark would read its own size.  This
process's ``VmHWM`` counts only its image after exec; it is written to
PEAK_FILE, in kB, when the command exits.
"""

import atexit
import runpy
import sys
from pathlib import Path


def _record_peak(path: str) -> None:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            Path(path).write_text(line.split()[1])


if __name__ == "__main__":
    atexit.register(_record_peak, sys.argv[1])
    sys.argv = ["scenefuse", *sys.argv[2:]]
    runpy.run_module("scenefuse", run_name="__main__", alter_sys=True)
