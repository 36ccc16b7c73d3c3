"""A forked helper process that produces a stream of bytes for its parent.

_write_grid_csv hands it a lazy iterable of the pieces it should format:
the helper iterates its own copy-on-write copy of that iterable and sends
each piece, length-prefixed, through a pipe, while the parent formats the
other pieces and writes every piece in order.  Fork is safe only while the
process runs one thread (no BLAS pool or other thread can hold a lock
across it), so start() forks only then, and only on two or more CPUs.

fileio imports this module only for a file of two or more pieces, so a run
that writes no such file never compiles it.
"""

from __future__ import annotations

import os


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
    """A forked child that sends each bytes object of ``pieces`` in order.
    The child ends only in os._exit, so it runs no atexit hook and flushes
    no inherited buffer, and its copy of stdio and warnings state is
    dropped unused."""

    def __init__(self, pid: int, reader):
        self.pid, self.reader = pid, reader

    @classmethod
    def start(cls, pieces) -> Helper | None:
        """The helper, or None if can_fork() fails or no process can be
        started.  ``pieces`` is iterated in the child only."""
        if not can_fork():
            return None
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return None
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as out:
                    for text in pieces:
                        out.write(len(text).to_bytes(8, "little"))
                        out.write(text)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        return cls(pid, open(read_fd, "rb"))

    def received(self, path) -> bytes:
        """The helper's next piece; an OSError naming the file ``path`` if
        its stream ends first."""
        prefix = self.reader.read(8)
        size = int.from_bytes(prefix, "little")
        text = self.reader.read(size)
        if len(prefix) == 8 and len(text) == size:
            return text
        raise OSError(f"{path}: the helper process formatting every other piece ended early")

    def close(self) -> None:
        """Reap the helper.  The read end closes first, so a helper blocked
        on a full pipe exits on EPIPE."""
        self.reader.close()
        os.waitpid(self.pid, 0)
