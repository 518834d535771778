"""The one length-prefixed framed stream both TCP edges speak.

The client edge (:class:`~repro.cluster.netserver.ClusterClient` ↔ front
door) and the shard hop (:class:`~repro.cluster.sockbackend.SocketShard`
↔ shard host) frame identically: a little-endian ``u32`` length, then the
payload (a v2 session frame — this layer never looks).  The
blocking-socket side of that lives here once, under the one session
server and the one ``dial`` of :mod:`repro.cluster.netutil`; failures
surface as the typed :class:`~repro.errors.ClusterTimeoutError` /
:class:`~repro.errors.ClusterConnectionError` /
:class:`~repro.errors.ProtocolError`, never as a bare ``OSError``.
"""

from __future__ import annotations

import socket
import struct

from repro.errors import (
    ClusterConnectionError,
    ClusterTimeoutError,
    ProtocolError,
)
from repro.server.protocol import MAX_FRAME_BYTES

FRAME_HEADER = struct.Struct("<I")


def frame(payload: bytes) -> bytes:
    """``payload`` behind its length prefix, ready for one write."""
    return FRAME_HEADER.pack(len(payload)) + payload


def frame_length_ok(frame_len: int) -> bool:
    """Whether a peer-claimed length may be read at all.

    A zero or oversize length is hostile in itself: the reader must refuse
    it without reading (or allocating) the claimed payload, and the stream
    cannot be resynchronized afterwards.
    """
    return 0 < frame_len <= MAX_FRAME_BYTES


def write_frame(sock: socket.socket, payload: bytes) -> None:
    """A length the peer's reader would refuse is refused here, unsent."""
    if not frame_length_ok(len(payload)):
        raise ProtocolError(
            f"frame of {len(payload)} bytes is outside 1..{MAX_FRAME_BYTES}")
    try:
        sock.sendall(frame(payload))
    except socket.timeout as exc:
        raise ClusterTimeoutError(
            f"send timed out after {sock.gettimeout()}s") from exc
    except OSError as exc:
        raise ClusterConnectionError(
            f"send failed: connection lost ({exc})") from exc


def read_frame(sock: socket.socket) -> bytes:
    (frame_len,) = FRAME_HEADER.unpack(read_exactly(sock, FRAME_HEADER.size))
    if not frame_length_ok(frame_len):
        raise ProtocolError(
            f"peer frame of {frame_len} bytes is outside "
            f"1..{MAX_FRAME_BYTES}")
    return read_exactly(sock, frame_len)


def read_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as exc:
            raise ClusterTimeoutError(
                f"no frame within {sock.gettimeout()}s") from exc
        except OSError as exc:
            raise ClusterConnectionError(
                f"receive failed: connection lost ({exc})") from exc
        if not chunk:
            raise ClusterConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def wake_and_close(sock: socket.socket) -> None:
    """``shutdown`` then ``close``.

    ``close()`` alone does not wake another thread blocked in ``accept()``
    or ``recv()`` on the socket (Linux): it would sit there until the next
    connection or byte, or for ever.  ``shutdown()`` does.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not connected, or the peer is already gone
    try:
        sock.close()
    except OSError:  # pragma: no cover
        pass
