"""One checksummed-blob primitive for every on-disk store.

The verifying-key registry, the disk proving-key cache and the flight
recorder all persist "a blob, checksummed with blake2b-16, written so a
reader never sees half of it".  This module is that idea once:
:func:`checksum16` and :func:`atomic_write`, plus the one cross-process
lock, :func:`file_lock`.  Formats, schema tags and typed errors stay
with each store.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.resilience import events

try:  # advisory locking is POSIX-only; elsewhere the stores still work,
    import fcntl  # they just may race a keygen or an index update
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["checksum16", "atomic_write", "file_lock", "WRITE_ATTEMPTS",
           "WRITE_BACKOFF_SECONDS"]

#: How many times the registry and the disk proving-key cache try a
#: write, and the backoff before the first retry (doubling after).
WRITE_ATTEMPTS = 3
WRITE_BACKOFF_SECONDS = 0.05


def checksum16(data: bytes) -> bytes:
    """The 16-byte blake2b digest every store keeps beside its blobs."""
    return hashlib.blake2b(data, digest_size=16).digest()


def atomic_write(path: str, data: bytes, *, attempts: int,
                 backoff_seconds: float, retry_event: str,
                 **event_fields: Any) -> None:
    """Write ``data`` to ``path`` via a temp file and ``os.replace``.

    The temp name is unique per writer (process and thread), so
    concurrent writers of one path never clobber each other's partial
    file and the last rename wins whole.  A failed attempt that is not
    the last is counted as ``events.retried(retry_event, attempt,
    **event_fields)`` and retried after exponential backoff.  After the
    last attempt the ``OSError`` is raised for the caller to wrap in its
    own typed error.
    """
    tmp = "%s.tmp.%d.%d" % (path, os.getpid(), threading.get_ident())
    for attempt in range(1, attempts + 1):
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
            return
        except OSError as exc:
            if attempt == attempts:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            events.retried(retry_event, attempt, error=type(exc).__name__,
                           **event_fields)
            time.sleep(backoff_seconds * (2 ** (attempt - 1)))


@contextmanager
def file_lock(path: str) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``path`` (created if absent); the
    kernel drops it if the holder dies, so a crash wedges no one."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)
