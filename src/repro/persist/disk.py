"""Untrusted storage backends for the durability layer.

The disk is *outside* the trust boundary — exactly like untrusted memory in
the paper's threat model, but persistent.  Everything written here is sealed
first (:mod:`repro.persist.wal`); the disk's job is only to hold bytes and
to model the failure repertoire of real storage faithfully:

* :class:`MemoryDisk` — an in-process dict of named byte blobs.  The
  default for tests: it survives enclave kills (it lives in the parent,
  like any host filesystem would) but not process exit, and it supports
  whole-state capture/restore so fault schedules can stage the classic
  stale-state rollback attack deterministically.
* :class:`FileDisk` — real files under a directory, for
  ``python -m repro serve --durable --data-dir``.  Blob writes are atomic
  and durable when they return (write-to-temp + ``fsync`` +
  ``os.replace`` + directory ``fsync``); appends are plain appends on one
  kept ``O_APPEND`` descriptor per log — the torn tails a host crash can
  leave are the durability layer's problem to detect, not the disk's to
  prevent.

Both expose the same seven-verb contract (read/write/append/size/truncate/
delete/sync) plus capture/restore and ``close()``, so every fault-injection
and recovery test runs identically against either.  ``append`` only
*stages* bytes: they are durable after the next :meth:`UntrustedDisk.sync`,
the one barrier the durability layer pays per coordinator call before any
ack leaves (ARCHITECTURE §12 "Commit protocol").  This module and
:mod:`repro.sgx.monotonic` are the only places in ``src/`` that flush.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.errors import DiskIOError


class UntrustedDisk:
    """Interface: named byte blobs with append and truncate."""

    name = "abstract"

    def read_blob(self, name: str) -> Optional[bytes]:
        """The blob's bytes, or None if it does not exist."""
        raise NotImplementedError

    def write_blob(self, name: str, data: bytes) -> None:
        """Atomically replace the blob's contents."""
        raise NotImplementedError

    def append(self, name: str, data: bytes) -> None:
        """Append bytes to the blob (created empty if missing).

        Staged, not durable: visible to ``size``/``read_blob`` at once,
        guaranteed on the medium only after the next :meth:`sync`.
        """
        raise NotImplementedError

    def sync(self) -> None:
        """The durability barrier: every append made so far is on the
        medium when this returns.  Idempotent, and free when nothing was
        appended since the last barrier.  A :class:`DiskIOError` means no
        append since the last successful barrier may be assumed durable.
        """
        raise NotImplementedError

    def size(self, name: str) -> int:
        """Current byte length of the blob (0 if missing)."""
        raise NotImplementedError

    def truncate(self, name: str, length: int) -> None:
        """Cut the blob down to ``length`` bytes (no-op if already shorter)."""
        raise NotImplementedError

    def delete(self, name: str) -> None:
        """Remove the blob if present."""
        raise NotImplementedError

    # -- the attacker's verbs -----------------------------------------------------

    def capture(self) -> object:
        """Snapshot the disk's entire state (the rollback attack, step 1)."""
        raise NotImplementedError

    def restore(self, token: object) -> None:
        """Restore a captured state wholesale (the rollback attack, step 2)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release host resources (open descriptors); the disk stays usable."""


class MemoryDisk(UntrustedDisk):
    """Untrusted storage as a dict of bytearrays (test default)."""

    name = "memory"

    def __init__(self):
        self._blobs: Dict[str, bytearray] = {}

    def read_blob(self, name: str) -> Optional[bytes]:
        blob = self._blobs.get(name)
        return None if blob is None else bytes(blob)

    def write_blob(self, name: str, data: bytes) -> None:
        self._blobs[name] = bytearray(data)

    def append(self, name: str, data: bytes) -> None:
        self._blobs.setdefault(name, bytearray()).extend(data)

    def sync(self) -> None:
        pass  # nothing is ever staged: the dict is the medium

    def size(self, name: str) -> int:
        blob = self._blobs.get(name)
        return 0 if blob is None else len(blob)

    def truncate(self, name: str, length: int) -> None:
        blob = self._blobs.get(name)
        if blob is not None and len(blob) > length:
            del blob[length:]

    def delete(self, name: str) -> None:
        self._blobs.pop(name, None)

    def capture(self) -> object:
        return {name: bytes(blob) for name, blob in self._blobs.items()}

    def restore(self, token: object) -> None:
        self._blobs = {name: bytearray(blob)
                       for name, blob in dict(token).items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(len(b) for b in self._blobs.values())
        return f"MemoryDisk({len(self._blobs)} blobs, {total} B)"


class FileDisk(UntrustedDisk):
    """Untrusted storage as real files under one directory.

    A log keeps one ``O_APPEND`` descriptor from its first ``append`` until
    the file is replaced (``delete``/``truncate``/``write_blob``/``restore``)
    or the disk is closed, so no stale handle outlives a snapshot's log
    reset; :meth:`sync` flushes each descriptor written since the last
    barrier exactly once.
    """

    name = "file"

    #: Stands in for a descriptor whose flush failed.  The kernel reports a
    #: write-back error once and may drop the dirty pages, so a retry on the
    #: same descriptor would read as success: every later ``append``/``sync``
    #: of that log fails until the file is replaced.
    _POISONED = -1

    def __init__(self, root: str):
        self._fds: Dict[str, int] = {}      # log name -> kept descriptor
        self._dirty: Dict[str, None] = {}   # appended since the last sync()
        self.root = root
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as exc:  # pragma: no cover - host permission issue
            raise DiskIOError(f"cannot create data dir {root!r}: {exc}") \
                from exc

    def _path(self, name: str) -> str:
        # Blob names are internal (partition ids + fixed suffixes), but
        # keep path traversal impossible anyway: flatten separators.
        return os.path.join(self.root, name.replace("/", "_"))

    def _sync_dir(self) -> None:
        """Flush the directory: a rename, a new log and an unlink are only
        durable once their entry is (snapshot/repair and a log's first
        append — never per commit)."""
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _drop(self, name: str) -> None:
        """Forget the log's descriptor: the file it names is going away."""
        self._dirty.pop(name, None)
        fd = self._fds.pop(name, None)
        if fd is not None and fd != self._POISONED:
            os.close(fd)

    def read_blob(self, name: str) -> Optional[bytes]:
        try:
            with open(self._path(name), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise DiskIOError(f"read {name!r} failed: {exc}") from exc

    def write_blob(self, name: str, data: bytes) -> None:
        path = self._path(name)
        tmp = path + ".tmp"
        try:
            self._drop(name)
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            self._sync_dir()
        except OSError as exc:
            raise DiskIOError(f"write {name!r} failed: {exc}") from exc

    def _live(self, name: str) -> int:
        fd = self._fds[name]
        if fd == self._POISONED:
            raise OSError("an earlier flush of this log failed")
        return fd

    def append(self, name: str, data: bytes) -> None:
        try:
            if name not in self._fds:
                path = self._path(name)
                created = not os.path.exists(path)
                self._fds[name] = os.open(
                    path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                if created:
                    self._sync_dir()
            fd = self._live(name)
            self._dirty[name] = None
            if os.write(fd, data) != len(data):
                raise OSError("short write")
        except OSError as exc:
            raise DiskIOError(f"append {name!r} failed: {exc}") from exc

    def sync(self) -> None:
        dirty = self._dirty
        while dirty:
            name = next(iter(dirty))
            try:
                fd = self._live(name)
                try:
                    os.fsync(fd)
                except OSError:
                    os.close(fd)
                    self._fds[name] = self._POISONED
                    raise
            except OSError as exc:
                raise DiskIOError(f"sync {name!r} failed: {exc}") from exc
            del dirty[name]

    def size(self, name: str) -> int:
        try:
            return os.path.getsize(self._path(name))
        except FileNotFoundError:
            return 0
        except OSError as exc:
            raise DiskIOError(f"stat {name!r} failed: {exc}") from exc

    def truncate(self, name: str, length: int) -> None:
        path = self._path(name)
        try:
            self._drop(name)
            if os.path.getsize(path) > length:
                with open(path, "r+b") as fh:
                    fh.truncate(length)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise DiskIOError(f"truncate {name!r} failed: {exc}") from exc

    def delete(self, name: str) -> None:
        try:
            self._drop(name)
            os.remove(self._path(name))
            self._sync_dir()
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise DiskIOError(f"delete {name!r} failed: {exc}") from exc

    def capture(self) -> object:
        state = {}
        for entry in os.listdir(self.root):
            if entry.endswith(".tmp"):
                continue
            with open(os.path.join(self.root, entry), "rb") as fh:
                state[entry] = fh.read()
        return state

    def restore(self, token: object) -> None:
        self._release()
        state = dict(token)
        for entry in os.listdir(self.root):
            if entry not in state and not entry.endswith(".tmp"):
                os.remove(os.path.join(self.root, entry))
        for entry, data in state.items():
            with open(os.path.join(self.root, entry), "wb") as fh:
                fh.write(data)

    def close(self) -> None:
        """Release every kept descriptor, after a last barrier: dropping a
        written descriptor unflushed would turn the next ``sync()`` into a
        no-op for bytes somebody is about to ack."""
        try:
            self.sync()
        finally:
            self._release()

    def _release(self) -> None:
        for name in list(self._fds):
            self._drop(name)

    # An abandoned disk (a crashed coordinator) leaks none; nobody is left
    # to ack what it had staged, so nothing is flushed.
    __del__ = _release

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileDisk({self.root!r})"
