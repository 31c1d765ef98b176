"""How work is split: a table into blocks of rows, a large float table across CPUs.

``blocks`` is the one walk over a table's rows, ``BLOCK`` values at a time, ``parts``
the one rule for loads and writes alike, and ``regular_size`` the one test of whether
a file is regular, so that a load may split it and a ``train-eval`` cell on it may go
to a worker.  ``line_ends`` cuts a regular file into ranges, ``Span`` reads one range,
and ``Forks`` runs a job in a forked child: one per range for a float table, one per
share of the cells for ``train-eval``.  What a child does and how its results are
merged stay with its caller (``scenefuse.io``, ``scenefuse.cli``).
"""

from __future__ import annotations

import os
import stat
import tempfile
import threading

CHUNK = 1 << 18  # bytes per read of a line loader
BLOCK = 1 << 14  # values (rows x width) per np.loadtxt call, producer request or fuse_rows call
PARALLEL_MIN = 1 << 17  # values (rows x width) from which a float table is split across CPUs

_in_child = False  # set in a child of ``Forks``
_running: set[int] = set()  # pids of the children of ``Forks`` this process has not reaped


def cpus() -> int:
    """The CPUs this process may run on.

    One without ``os.fork`` or ``os.sched_getaffinity``, while another Python
    thread runs, since a fork copies only the thread that calls it, and in a child
    of ``Forks`` or while this process has one running, since those use the others.
    """
    if _in_child or _running or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0)) if threading.active_count() == 1 else 1


def parts(values: int) -> int:
    """How many parts a float table of ``values`` values (rows x width) is split into.

    ``cpus()`` from ``PARALLEL_MIN`` values on, else one.
    """
    return cpus() if values >= PARALLEL_MIN else 1


def block_rows(width: int) -> int:
    """The rows in a block of a table ``width`` values wide: ``BLOCK // width``, one at least."""
    return max(1, BLOCK // width)


def blocks(start: int, end: int, width: int):
    """Rows ``start`` to ``end`` of a table ``width`` values wide, as one ``slice`` per block."""
    step = block_rows(width)
    return (slice(at, min(at + step, end)) for at in range(start, end, step))


def regular_size(file) -> int | None:
    """The size of ``file`` (a path or a descriptor) if it is a regular file, else None
    (a pipe, a device, no file)."""
    try:
        info = os.stat(file)
    except (OSError, ValueError):
        return None
    return info.st_size if stat.S_ISREG(info.st_mode) else None


def line_ends(fd: int, start: int, size: int, count: int) -> list[int]:
    """Where ``count`` ranges from ``start`` end: past the first ``\\n`` from ``size * i // count``.

    The last ends at ``size``; an empty one is dropped.  A ``\\n`` is a ``str.splitlines``
    break never inside a UTF-8 sequence, so each range but the first decodes on its own.
    """
    ends = [start]
    for part in range(1, count):
        at, found = max(size * part // count, ends[-1]), -1
        while at < size and (found := os.pread(fd, CHUNK, at).find(b"\n")) < 0:
            at += CHUNK
        ends.append(min(at + found + 1, size))
    return sorted(set(ends[1:] + [size]))


class Span:
    """A ``read(n)`` of bytes ``start`` to ``end`` (which may move) of ``fd`` by ``os.pread``."""

    def __init__(self, fd: int, start: int, end: int):
        self.fd, self.start, self.end = fd, start, end

    def read(self, n: int) -> bytes:
        data = os.pread(self.fd, max(0, min(n, self.end - self.start)), self.start)
        self.start += len(data)
        return data


class Forks:
    """Children made by ``os.fork``, each running one job into its own unlinked temp file.

    ``start(job, *args)`` makes the temp file, then the child, which calls
    ``job(file, *args)`` and leaves by ``os._exit`` alone, so no ``atexit``
    handler runs and no buffer of the parent is flushed in it: status 0 if the
    job returned, else 1.  ``cpus()`` is one in the child, and in the parent until
    the child is reaped.  Leaving the ``with`` block kills and reaps every
    child not yet reaped by ``result`` and closes every temp file.
    """

    def __init__(self):
        self._files: list = []  # per job index, its temp file (None if none was made)
        self._pids: dict[int, int] = {}  # job index -> pid of a child not yet reaped

    def __enter__(self) -> "Forks":
        return self

    def start(self, job, *args) -> int:
        """Run ``job`` in a new child; the index that ``result`` takes."""
        index = len(self._files)
        self._files.append(None)
        try:
            self._files[index] = out = tempfile.TemporaryFile()
            pid = os.fork()
        except OSError:  # no temp file or no child: the job counts as failed
            return index
        if pid == 0:
            global _in_child
            _in_child, status = True, 1
            try:
                job(out, *args)
                out.flush()
                status = 0
            finally:
                os._exit(status)
        self._pids[index] = pid
        _running.add(pid)
        return index

    def result(self, index: int):
        """The temp file of job ``index``, at its first byte, once its child exits 0; else None."""
        pid = self._pids.pop(index, None)
        _running.discard(pid)
        if pid is None or os.waitpid(pid, 0)[1] != 0:  # a wait status of 0 is exit status 0
            return None
        out = self._files[index]
        out.seek(0)
        return out

    def __exit__(self, *exc) -> None:
        try:
            if self._pids:
                import signal  # not at startup: only a job given up on needs it

                _running.difference_update(self._pids.values())
                for pid in self._pids.values():
                    os.kill(pid, signal.SIGKILL)
                for pid in self._pids.values():
                    os.waitpid(pid, 0)
        finally:
            for out in filter(None, self._files):
                out.close()
