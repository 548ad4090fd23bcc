"""Run one command and record its wall time, exit code and peak RSS.

Usage: python3 -I -S bench/spawn.py RESULT_JSON -- <command...>

Linux keeps a process's peak-RSS mark across exec, so a child spawned
straight from the benchmark (which holds numpy and scipy) would report at
least the benchmark's own size. This launcher is small, so the peak RSS
that wait4 reports for its child is the stage's own.
"""

import json
import os
import subprocess
import sys
import time


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: spawn.py RESULT_JSON -- <command...>", file=sys.stderr)
        return 2
    spawn = time.perf_counter()
    proc = subprocess.Popen(argv[2:])
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(argv[0], "w") as f:
        json.dump({"spawn": spawn, "wall_s": wall, "code": proc.returncode,
                   "rss_mb": usage.ru_maxrss / 1024.0}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
