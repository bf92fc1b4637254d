"""Child-process launcher for the benchmark.

``run.py`` starts this once, before it allocates any inputs, and runs every
CLI operation through it.  Linux carries a process's resident-memory high
water mark across ``exec``, so a child started straight from the benchmark
process would report at least the benchmark's own peak; started from this
small process, each child's ``ru_maxrss`` is its own.

Protocol: one JSON request per stdin line,
``{"argv", "out", "err", "env", "cwd", "timeout"}``, answered by one JSON
line ``{"wall_s", "maxrss_kb", "returncode"}``.  The launcher exits at end
of input.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(req: dict) -> dict:
    with open(req["out"], "w") as out, open(req["err"], "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                env=req["env"], cwd=req["cwd"])
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
