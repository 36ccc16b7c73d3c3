"""A forked helper process that formats the second half of a grid CSV file.

The helper writes the pieces _write_grid_csv hands it into an unlinked
temporary file beside the output file, while the parent formats the first
half; the parent then waits and appends that file with one in-kernel copy
(os.sendfile), so no byte passes through the parent.  The file is written
with write calls and never mapped, so its pages sit in the reclaimable page
cache and never count as resident memory.  Fork is safe only while the
process runs one thread (no BLAS pool or other thread can hold a lock
across it), so start() forks only then, and only on two or more CPUs.
fileio imports this module only for a file of two or more pieces.
"""

from __future__ import annotations

import os
import signal
import tempfile


def can_fork() -> bool:
    """Whether a helper may be forked: os.fork exists, this process runs one
    thread (pinning BLAS with OPENBLAS_NUM_THREADS=1 keeps numpy at one) and
    it may run on two or more CPUs."""
    try:
        return (hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
                and len(os.sched_getaffinity(0)) >= 2)
    except (OSError, AttributeError):  # no /proc, or no sched_getaffinity
        return False


class Helper:
    """A forked child that writes ``pieces`` in order into an unlinked
    temporary file.  It ends only in os._exit (0 once all are written, 1 on
    an exception): no atexit hook, no inherited buffer flushed, no traceback."""

    def __init__(self, pid: int, spool):
        self.pid, self.spool = pid, spool

    @classmethod
    def start(cls, path, pieces) -> Helper | None:
        """The helper, or None if can_fork() fails or no process can be
        started.  ``pieces`` is iterated in the child only."""
        if not can_fork():
            return None
        spool = tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))
        try:
            pid = os.fork()
        except OSError:
            spool.close()
            return None
        if pid == 0:
            try:
                spool.writelines(pieces)
                spool.flush()
                os._exit(0)
            finally:
                os._exit(1)
        return cls(pid, spool)

    def append_to(self, out) -> bool:
        """Wait for the helper.  If it exited 0, append its file to the
        binary file object ``out`` and return True; else return False, and
        the caller formats those pieces itself."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0:
            return False
        out.flush()
        size, done = os.fstat(self.spool.fileno()).st_size, 0
        while done < size:
            done += os.sendfile(out.fileno(), self.spool.fileno(), done, size - done)
        return True

    def close(self) -> None:
        """Kill and reap the helper if it still runs, and close its file."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        self.spool.close()
