"""Entry point of the fresh child each repeat runs in.

``python3 -m perfbench.child <spec.json> run|trace`` prints one JSON object
as its last line.  Nothing here imports ``repro``: the runners do, inside
their timed set-up.
"""

from __future__ import annotations

import json
import signal
import sys

from . import workloads


def _terminate(signum: int, frame: object) -> None:
    # Unwind instead of dying in place, so a server this child started is
    # stopped by its ``finally`` even when the parent gives up on us.
    raise SystemExit(128 + signum)


def main(argv: list) -> int:
    spec_path, mode = argv
    signal.signal(signal.SIGTERM, _terminate)
    spec = workloads.load_spec(spec_path)
    if mode == "run":
        result = workloads.RUNNERS[spec["workload"]](spec)
    else:
        from . import layers

        result = layers.trace_workload(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
