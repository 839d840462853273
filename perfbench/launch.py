"""Runs the benchmark's child processes from a process that stays small.

Linux folds the peak resident set of the address space a process leaves
behind at exec into that process's own peak, so a child spawned straight
from the benchmark (which holds the generator's tallies) would report at
least the benchmark's size in its rusage. This process imports nothing
heavy; the children it spawns start from its few MiB and report their own
peak.

Protocol: one JSON object per line on stdin, {"argv": [...], "stderr":
path}; one JSON line back, {"wall": s, "maxrss_kb": n, "code": exit code}.
It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}),
              flush=True)


if __name__ == "__main__":
    main()
