"""Runs one command and writes its wall time, exit code and own resource use
to a JSON file:

    python3 bench/spawn.py RESULT.json TIMEOUT_S CMD [ARG...]

The benchmark starts every diffid child through this small process. At exec,
Linux carries the peak RSS of the memory image being replaced into the new
program's ru_maxrss. A child that subprocess starts with vfork replaces its
parent's image, so a child started straight from the benchmark reported the
benchmark's own peak (143 MB after checking a 38 MB output) in place of its
own (81 MB). This process stays small, so the ru_maxrss that os.wait4
returns for its child is the child's. The child inherits stdout, stderr, the
working directory and the environment. It is killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    result, timeout, command = argv[0], float(argv[1]), argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({
            "wall_s": wall,
            "exit_code": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        }, fh)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main(sys.argv[1:]))
