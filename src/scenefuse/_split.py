"""How a large float table is split across CPUs: the rule, the byte ranges and the forks.

``parts`` is the one rule for loads and writes alike.  ``line_ends`` cuts a
regular file into ranges, ``Span`` reads one range, and ``Forks`` runs a job in
a forked child per range.  What a child does and how its rows are merged stay
with the formats in ``scenefuse.io``.
"""

from __future__ import annotations

import os
import tempfile
import threading

CHUNK = 1 << 18  # bytes per read of a line loader
PARALLEL_MIN = 1 << 17  # values (rows x width) from which a float table is split across CPUs


def cpus() -> int:
    """The CPUs this process may run on.

    One without ``os.fork`` or ``os.sched_getaffinity``, and while another Python
    thread runs, since a fork copies only the thread that calls it.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0)) if threading.active_count() == 1 else 1


def parts(values: int) -> int:
    """How many parts a float table of ``values`` values (rows x width) is split into.

    ``cpus()`` from ``PARALLEL_MIN`` values on, else one.
    """
    return cpus() if values >= PARALLEL_MIN else 1


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
    job returned, else 1.  Leaving the ``with`` block kills and reaps every
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
            status = 1
            try:
                job(out, *args)
                out.flush()
                status = 0
            finally:
                os._exit(status)
        self._pids[index] = pid
        return index

    def result(self, index: int):
        """The temp file of job ``index``, at its first byte, once its child exits 0; else None."""
        pid = self._pids.pop(index, None)
        if pid is None or os.waitpid(pid, 0)[1] != 0:  # a wait status of 0 is exit status 0
            return None
        out = self._files[index]
        out.seek(0)
        return out

    def __exit__(self, *exc) -> None:
        try:
            if self._pids:
                import signal  # not at startup: only a job given up on needs it

                for pid in self._pids.values():
                    os.kill(pid, signal.SIGKILL)
                for pid in self._pids.values():
                    os.waitpid(pid, 0)
        finally:
            for out in filter(None, self._files):
                out.close()
