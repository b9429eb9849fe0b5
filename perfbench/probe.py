"""One fresh start of the ``life`` or ``batch`` program, for ``setup_s``.

    python3 perfbench/probe.py life <inputs-dir>
    python3 perfbench/probe.py batch <inputs-dir> <seed>

Imports what the workload's first job needs, loads its inputs, prints
``ready`` and exits; the parent times launch to ``ready``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    workload, directory = sys.argv[1], Path(sys.argv[2])
    if workload == "life":
        import workload_life

        workload_life.load_inputs(directory)
    elif workload == "batch":
        import workload_batch

        workload_batch.start_engine(directory, int(sys.argv[3]))
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
