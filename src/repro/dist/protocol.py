"""The plan-cache wire protocol: tiny, length-prefixed, stdlib-only.

One TCP connection carries a sequence of request/response frames.  A
frame is a 4-byte big-endian payload length followed by the payload; the
first payload byte is the operation (requests) or status (responses):

=========  =======================================================
request    payload after the op byte
=========  =======================================================
``G``      get: the UTF-8 content key
``P``      put: ``u16`` key length, the key, then the value blob
``S``      stats: nothing (response carries a JSON object)
``?``      ping: nothing
=========  =======================================================

=========  =======================================================
response   payload after the status byte
=========  =======================================================
``H``      get hit: the value blob
``M``      get miss: nothing
``O``      ok (put acknowledged / pong)
``S``      stats: UTF-8 JSON object
``E``      error: UTF-8 message
=========  =======================================================

Keys are the plan cache's entry digests (64 hex chars embedding the code
fingerprint, :mod:`repro.utils.plancache`), and value blobs are the
encoded records exactly as they sit on disk -- the service is a dumb
content-addressed blob store and never decodes anything; clients
validate every blob they receive.  Frames are capped at
:data:`MAX_FRAME_BYTES` so a corrupt length prefix cannot make either
side allocate unbounded memory.

This module is deliberately dependency-free (no other ``repro`` imports)
so the client tier in :mod:`repro.utils.plancache` can use it without
import cycles.
"""

from __future__ import annotations

import socket
import struct
from typing import Optional, Tuple

#: Upper bound on one frame's payload (a plan-cache record is a few hundred
#: bytes; 64 MB is a generous safety margin, not a target).
MAX_FRAME_BYTES = 64 * 1024 * 1024

OP_GET = b"G"
OP_PUT = b"P"
OP_STATS = b"S"
OP_PING = b"?"

STATUS_HIT = b"H"
STATUS_MISS = b"M"
STATUS_OK = b"O"
STATUS_STATS = b"S"
STATUS_ERROR = b"E"

_LEN = struct.Struct(">I")
_KEYLEN = struct.Struct(">H")


class ProtocolError(ConnectionError):
    """The peer sent a malformed or oversized frame."""


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the cap")
    sock.sendall(_LEN.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one frame; ``None`` on a clean EOF before the length prefix."""
    header = _recv_exact(sock, _LEN.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame; refusing")
    if length == 0:
        return b""
    payload = _recv_exact(sock, length, eof_ok=False)
    assert payload is not None
    return payload


def _recv_exact(sock: socket.socket, count: int, *, eof_ok: bool) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- request/response encoding -------------------------------------------------------


def encode_get(key: str) -> bytes:
    return OP_GET + key.encode()


def encode_put(key: str, blob: bytes) -> bytes:
    raw_key = key.encode()
    if len(raw_key) > 0xFFFF:
        raise ProtocolError(f"cache key of {len(raw_key)} bytes is too long")
    return OP_PUT + _KEYLEN.pack(len(raw_key)) + raw_key + blob


def decode_put(payload: bytes) -> Tuple[str, bytes]:
    """Split a put request payload (after the op byte) into (key, blob)."""
    if len(payload) < _KEYLEN.size:
        raise ProtocolError("truncated put request")
    (key_len,) = _KEYLEN.unpack(payload[: _KEYLEN.size])
    key_end = _KEYLEN.size + key_len
    if len(payload) < key_end:
        raise ProtocolError("put request shorter than its announced key")
    key = payload[_KEYLEN.size:key_end].decode()
    return key, payload[key_end:]


def parse_url(url: str) -> Tuple[str, int]:
    """Parse ``host:port`` (an optional ``tcp://`` prefix is accepted)."""
    text = str(url).strip()
    for prefix in ("tcp://", "repro://"):
        if text.startswith(prefix):
            text = text[len(prefix):]
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cache url must look like HOST:PORT, got {url!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"cache url port must be an integer, got {url!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"cache url port out of range in {url!r}")
    return host, port
