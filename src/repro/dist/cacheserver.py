"""``repro cache-serve`` -- the shared plan-cache service.

A :class:`PlanCacheServer` is a threaded stdlib TCP server speaking the
length-prefixed protocol of :mod:`repro.dist.protocol`.  It stores
opaque ``key -> blob`` entries (the plan cache's content-addressed
records) in memory, optionally spooled to a directory so a restarted
server comes back warm.  Because keys embed the client's code
fingerprint (:func:`repro.utils.plancache.code_fingerprint`), clients
running different code simply miss instead of poisoning each other.

The server is deliberately dumb: no eviction policy beyond an optional
entry cap, no authentication (run it on a trusted network or
localhost), no decoding of anything it stores.  Counters (``gets`` /
``hits`` / ``puts`` / ``entries``) are served over the ``stats`` op so
benchmarks and smoke tests can assert the fleet actually shared work.

Usage::

    python -m repro cache-serve --host 0.0.0.0 --port 8377
    # workers:
    python -m repro sweep ... --cache-url HOST:8377

or embedded (tests, benchmarks)::

    with PlanCacheServer() as server:      # ephemeral port
        url = server.url
        ...
"""

from __future__ import annotations

import hashlib
import json
import os
import socketserver
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.dist import protocol


class _Handler(socketserver.BaseRequestHandler):
    """One client connection: serve request frames until EOF."""

    def handle(self) -> None:  # pragma: no cover - exercised via the client
        server: "PlanCacheServer" = self.server.owner  # type: ignore[attr-defined]
        sock = self.request
        try:
            while True:
                payload = protocol.recv_frame(sock)
                if payload is None:
                    return
                protocol.send_frame(sock, server.handle_request(payload))
        except protocol.ProtocolError:
            return  # drop the broken connection; the store is untouched
        except OSError:
            return


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class PlanCacheServer:
    """A shared plan-cache blob store (see the module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        spool_dir: Optional[Union[str, Path]] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        self._entries: Dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._stats = {"gets": 0, "hits": 0, "misses": 0, "puts": 0}
        self._spool_dir = None if spool_dir is None else Path(spool_dir)
        self._max_entries = max_entries
        self._thread: Optional[threading.Thread] = None
        if self._spool_dir is not None:
            self._load_spool()
        self._server = _ThreadedTCPServer((host, port), _Handler)
        self._server.owner = self  # type: ignore[attr-defined]

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` (the port is real even when 0 was asked)."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "PlanCacheServer":
        """Serve from a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-cache-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's foreground mode)."""
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "PlanCacheServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- the store ---------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {**self._stats, "entries": len(self._entries)}

    def handle_request(self, payload: bytes) -> bytes:
        """Serve one decoded request frame; always returns a response frame."""
        if not payload:
            return protocol.STATUS_ERROR + b"empty request"
        op, body = payload[:1], payload[1:]
        try:
            if op == protocol.OP_GET:
                blob = self._get(body.decode())
                if blob is None:
                    return protocol.STATUS_MISS
                return protocol.STATUS_HIT + blob
            if op == protocol.OP_PUT:
                key, blob = protocol.decode_put(payload[1:])
                self._put(key, blob)
                return protocol.STATUS_OK
            if op == protocol.OP_STATS:
                return protocol.STATUS_STATS + json.dumps(
                    self.stats(), sort_keys=True
                ).encode()
            if op == protocol.OP_PING:
                return protocol.STATUS_OK
        except Exception as exc:  # defensive: one bad request, not a dead server
            return protocol.STATUS_ERROR + str(exc).encode()
        return protocol.STATUS_ERROR + f"unknown op {op!r}".encode()

    def _get(self, key: str) -> Optional[bytes]:
        """Memory first, then the spool; a miss only when both miss."""
        with self._lock:
            self._stats["gets"] += 1
            blob = self._entries.get(key)
            if blob is not None:
                self._stats["hits"] += 1
                return blob
        if self._spool_dir is not None:
            try:
                blob = (self._spool_dir / self._spool_name(key)).read_bytes()
            except OSError:
                pass
        with self._lock:
            if blob is None:
                self._stats["misses"] += 1
            else:
                self._stats["hits"] += 1
                self._entries.setdefault(key, blob)
        return blob

    def _put(self, key: str, blob: bytes) -> None:
        with self._lock:
            self._stats["puts"] += 1
            if (
                self._max_entries is not None
                and key not in self._entries
                and len(self._entries) >= self._max_entries
            ):
                # Cheap wholesale reset: the store is a cache, entries are
                # recomputable, and a rare full refill beats bookkeeping an
                # LRU under every request.
                self._entries.clear()
            self._entries[key] = blob
        if self._spool_dir is not None:
            self._spool_write(key, blob)

    # -- spool (optional persistence) ----------------------------------------------

    @staticmethod
    def _spool_name(key: str) -> str:
        return hashlib.sha256(key.encode()).hexdigest() + ".bin"

    def _load_spool(self) -> None:
        """Prepare the spool directory; entries promote lazily.

        Spool files are named by the hash of their key, so the directory
        cannot be bulk-loaded into the key map up front; instead a ``get``
        that misses memory probes the spool and promotes what it finds
        (see :meth:`_get`).  A restarted server therefore comes back warm
        without a startup scan.
        """
        self._spool_dir.mkdir(parents=True, exist_ok=True)

    def _spool_write(self, key: str, blob: bytes) -> None:
        try:
            self._spool_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(self._spool_dir), suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, self._spool_dir / self._spool_name(key))
        except OSError:
            pass  # the spool is best-effort; memory still has the entry
