"""Helper process that runs the benchmark's children and measures them.

    python perfbench/spawner.py    (started by perfbench/run.py)

A child's ru_maxrss covers the high-water RSS of the process that spawned
it: exec records the old address space's peak, and subprocess spawns with
vfork, whose old address space is the parent's.  run.py grows when it
parses large outputs (the paths JSON), so it does not spawn jobs itself;
this helper does, and stays near a bare interpreter's RSS.

Protocol: one JSON request per stdin line,
{"argv", "stdout", "stderr", "cwd", "env", "timeout"}, answered by one JSON
line on stdout, {"seconds", "code", "maxrss_kib"}.  Wall seconds run from
spawn to exit.  A child still running after "timeout" seconds is killed.
The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                cwd=request["cwd"], env=request["env"])
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
