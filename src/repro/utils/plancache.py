"""Content-addressed persistent cache for fill-job execution estimates.

The in-process shared estimate caches (:mod:`repro.core.executor`) make
plan searches free *within* one process, but every `repro sweep` worker
and every fresh `repro bench`/`repro run` invocation still re-pays the
profile + Algorithm-1 cold start.  An estimate is a pure function of
``(bubble cycle, device, PipeFill config, efficiency model, model spec,
job type)`` -- all frozen value objects -- so it can be cached *across
processes* under a content hash of exactly those inputs.

Entries live as individual files under ``<cache-dir>/estimates/``
(default ``.repro-cache/``), named by the SHA-256 of a canonical JSON
rendering of the key plus :data:`ENTRY_SUFFIX`.  Writes go through a temp
file + ``os.replace`` so concurrent sweep workers can never observe a torn
entry; unreadable or corrupt entries are treated as misses and
recomputed.  A negative result ("this job fits no configuration on this
cycle") is cached too, as an explicit ``None`` (JSON ``null``).

Record format
-------------
An entry holds plain data, never code: the value rendered as canonical
JSON (sorted keys, compact separators, no ``NaN``/``Infinity``), prefixed
by the 64 hex characters of that body's SHA-256.  :func:`get` checks the
digest, parses the body (rejecting the non-finite constants), and hands
the result to the caller's ``decode`` function, which validates it against
the caller's schema and builds the value to return.  The executor stores
the chosen configuration and the five floats the simulator reads
(:mod:`repro.core.executor`); JSON round-trips finite floats bit-exactly,
so a hit can never change simulation results --
``tests/test_plancache.py`` asserts both the hit path and the equality.

The cache is **disabled by default** for library use (tests and direct
imports see byte-for-byte the behaviour of the in-process caches alone);
the CLI commands ``run``/``sweep``/``bench``/``profile`` enable it, with
``--cache-dir``/``--no-disk-cache`` to relocate or opt out.

Hygiene: the directory is safe to delete at any time (`rm -rf
.repro-cache/`); there is no index to corrupt.  Keys embed a
*code fingerprint* -- a hash of the source of every module the estimate
computation can touch -- so any code change silently orphans all older
entries instead of serving plans computed by a different algorithm.
A warm cache restored onto changed code (e.g. CI's ``restore-keys``
prefix fallback) therefore degrades to misses, never to wrong results.

Remote tier
-----------
``configure(..., remote_url="HOST:PORT")`` (CLI: ``--cache-url`` or
``REPRO_CACHE_URL``) adds a second, *shared* tier behind the local
directory: a ``repro cache-serve`` daemon (:mod:`repro.dist.cacheserver`)
addressed over the length-prefixed protocol of
:mod:`repro.dist.protocol`.  Lookups read through (local disk first,
then the service; a remote hit is written back to local disk so it is
paid at most once per machine) and stores write through both tiers, so
a fleet of sweep shards pays each plan search **once globally**.  The
remote entry is the same record as the local file under the same
fingerprinted content digest, so a mixed-version fleet can only miss.  A
remote record is decoded and validated exactly like a local one before it
is returned or written back, so a peer can never run code in a client.

The remote tier can never make a run slower than local-only by more
than its bounded socket timeout, and can never fail a run: every remote
operation is wrapped, counted in the ``remote_errors`` stat on failure,
and after :data:`_REMOTE_MAX_CONSECUTIVE_ERRORS` consecutive failures
the circuit opens and the process silently degrades to local-only for
the rest of its lifetime.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import socket
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

#: Format epoch for the entry layout itself (record framing, key shape).
_FORMAT_VERSION = 2

#: File suffix of a local entry: ``<entry digest><ENTRY_SUFFIX>``.
ENTRY_SUFFIX = ".rec"

#: Length of the record's hex SHA-256 prefix.
_DIGEST_CHARS = 64

#: Subpackages whose source feeds the cached computation: models/profiles
#: (the profiler), pipeline (bubble cycles, partitioning), core (plan
#: search + estimates), hardware (device/memory models).  Deliberately a
#: superset: over-invalidation costs one cold run; under-invalidation
#: silently changes results.
_FINGERPRINT_SUBPACKAGES = ("core", "hardware", "models", "pipeline")

#: Consecutive remote failures after which the circuit opens and the
#: process stops talking to the service (silent local-only degradation).
_REMOTE_MAX_CONSECUTIVE_ERRORS = 3

#: Bounded socket timeout for every remote operation (seconds).  A slow
#: or dead service costs at most this much, at most
#: ``_REMOTE_MAX_CONSECUTIVE_ERRORS`` times, then nothing.
_REMOTE_DEFAULT_TIMEOUT = 2.0

_enabled = False
_cache_dir: Optional[Path] = None
_code_fingerprint: Optional[str] = None
_remote: Optional["RemoteCacheClient"] = None

#: Hit/miss/write counters since process start (or the last reset).
_stats = {
    "hits": 0,
    "misses": 0,
    "writes": 0,
    "errors": 0,
    "quarantined": 0,
    "remote_hits": 0,
    "remote_misses": 0,
    "remote_errors": 0,
}

#: Canonical key JSON per pinned object (model specs and efficiency
#: models are hashed once; the strong reference keeps ids stable).  The
#: memo is cleared on configure() and flushed wholesale past the bound,
#: so long-lived processes hashing many distinct objects cannot leak.
_object_keys: Dict[int, Tuple[Any, str]] = {}
_MAX_OBJECT_KEYS = 4096


def configure(
    cache_dir,
    *,
    enabled: bool = True,
    remote_url: Optional[str] = None,
    remote_timeout: Optional[float] = None,
) -> None:
    """Point the cache at a directory (created lazily) and switch it on/off.

    ``remote_url`` ("HOST:PORT") additionally attaches the shared
    plan-cache service tier; omitting it (the default) detaches any
    previously-configured remote, so reconfiguration is always explicit
    and legacy callers keep their exact semantics.  The remote tier works
    with or without a local directory (``cache_dir=None`` plus a url is a
    remote-only cache).
    """
    global _enabled, _cache_dir, _remote
    _cache_dir = None if cache_dir is None else Path(cache_dir)
    _enabled = bool(enabled) and (_cache_dir is not None or remote_url is not None)
    if _remote is not None:
        _remote.close()
    _remote = (
        RemoteCacheClient(
            remote_url, timeout=remote_timeout or _REMOTE_DEFAULT_TIMEOUT
        )
        if enabled and remote_url is not None
        else None
    )
    _object_keys.clear()


def code_fingerprint() -> str:
    """Hash of the source of every module estimates are computed from.

    Computed once per process by walking the fingerprinted subpackages,
    so two processes agree on it iff they run the same code -- the
    property that makes cross-process (and cross-restore) sharing safe.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for sub in _FINGERPRINT_SUBPACKAGES:
            for path in sorted((package_root / sub).rglob("*.py")):
                digest.update(str(path.relative_to(package_root)).encode())
                digest.update(b"\x00")
                digest.update(path.read_bytes())
                digest.update(b"\x00")
        _code_fingerprint = digest.hexdigest()[:16]
    return _code_fingerprint


def is_enabled() -> bool:
    """Whether lookups/writes are live."""
    return _enabled


def cache_dir() -> Optional[Path]:
    """The configured cache directory (``None`` when unconfigured)."""
    return _cache_dir


def remote_url() -> Optional[str]:
    """The configured remote service url (``None`` without a remote tier)."""
    return None if _remote is None else _remote.url


def stats() -> Dict[str, int]:
    """Hit/miss/write/error counters for this process."""
    return dict(_stats)


def reset_stats() -> None:
    for k in _stats:
        _stats[k] = 0


def _canonical(value: Any) -> Any:
    """Render a key component as JSON-stable plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)  # enums and other atoms; str-enums hit the str branch


def content_key(obj: Any) -> str:
    """Stable content hash of a (frozen dataclass) key component.

    Memoised per object identity with the object pinned, so repeated
    estimate lookups hash each cycle/model/config exactly once.
    """
    # repro: lint-ignore[hash-id] -- identity-memo lookup; the memo pins
    # the object and the content digest below is what gets persisted.
    entry = _object_keys.get(id(obj))
    if entry is not None and entry[0] is obj:
        return entry[1]
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    if len(_object_keys) >= _MAX_OBJECT_KEYS:
        _object_keys.clear()  # bound the pinned-object memo (cheap to refill)
    # repro: lint-ignore[hash-id] -- identity-memo insert (see lookup above).
    _object_keys[id(obj)] = (obj, digest)
    return digest


def _entry_digest(key_parts: Tuple[str, ...]) -> str:
    """The content digest addressing an entry in *both* tiers.

    Embeds the format version and the code fingerprint, so the digest is
    the complete cross-machine identity of an entry: the local file name
    and the remote service key are this same string.
    """
    text = "/".join((f"v{_FORMAT_VERSION}", code_fingerprint()) + key_parts)
    return hashlib.sha256(text.encode()).hexdigest()


def _entry_path(digest: str) -> Path:
    assert _cache_dir is not None
    return _cache_dir / "estimates" / f"{digest}{ENTRY_SUFFIX}"


def _encode(value: Any) -> bytes:
    """Frame a value as a record: hex SHA-256 of the body, then the body."""
    body = json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode()
    return hashlib.sha256(body).hexdigest().encode() + body


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite constant {name} in a plan-cache record")


def _decode(blob: bytes, decode: Callable[[Any], Any]) -> Any:
    """Check a record's digest, parse its body and apply ``decode``.

    Raises on a digest mismatch, bad JSON, a ``NaN``/``Infinity``
    constant, or anything ``decode`` rejects.
    """
    body = blob[_DIGEST_CHARS:]
    if hashlib.sha256(body).hexdigest().encode() != blob[:_DIGEST_CHARS]:
        raise ValueError("plan-cache record digest mismatch")
    return decode(json.loads(body, parse_constant=_reject_constant))


def _plain(value: Any) -> Any:
    return value


def _quarantine(path: Path) -> None:
    """Move a corrupt entry aside so it cannot poison later lookups.

    The entry is renamed to ``<name>.rec.corrupt`` (atomic on POSIX):
    every subsequent ``get`` of the same key sees a clean miss instead of
    re-reading the broken record, the recomputed value's ``put`` lands on
    the now-free path, and the corpse stays on disk for diagnosis.
    """
    try:
        os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
    except OSError:
        return
    _stats["quarantined"] += 1


def get(
    key_parts: Tuple[str, ...], decode: Callable[[Any], Any] = _plain
) -> Tuple[bool, Any]:
    """Look an entry up through the tiers; returns ``(hit, value)``.

    ``decode`` turns the record's parsed JSON into the returned value and
    raises to reject it (the executor validates its schema there); the
    default returns the plain JSON data.  It runs inside this function's
    error handling, so a rejected record counts exactly like bytes that
    fail to parse.

    Local disk is consulted first.  A missing file is a miss.  Any other
    error opening or reading the file (too many open files, a flaky
    disk) is a miss plus one ``errors``, and the file stays in place: the
    entry may be valid, and the next lookup reads it again.  A record
    that fails to decode (truncated write, bit rot, a stale digest, a
    value ``decode`` rejects) is a miss, an error *and* a quarantine --
    the broken entry is moved to ``<name>.rec.corrupt`` so it is
    recomputed and rewritten, never retried.  On a local miss the remote
    service (when configured) is asked; a remote hit is decoded, written
    back to local disk, and counted as ``remote_hits``.  Any remote
    trouble (connection refused, timeout, a record that fails to decode)
    counts one ``remote_errors`` and degrades to a plain miss; a rejected
    remote record never reaches local disk.  ``value`` may legitimately
    be ``None`` on a hit.
    """
    if not _enabled:
        return False, None
    digest = _entry_digest(key_parts)
    if _cache_dir is not None:
        path = _entry_path(digest)
        blob = None
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            pass
        except OSError:
            _stats["misses"] += 1
            _stats["errors"] += 1
            return False, None
        if blob is not None:
            try:
                value = _decode(blob, decode)
            except Exception:
                _stats["misses"] += 1
                _stats["errors"] += 1
                _quarantine(path)
                return False, None
            _stats["hits"] += 1
            return True, value
    if _remote is not None:
        status, blob = _remote.get(digest)
        if status == "hit":
            try:
                value = _decode(blob, decode)
            except Exception:
                _stats["misses"] += 1
                _stats["remote_errors"] += 1
                return False, None
            _stats["remote_hits"] += 1
            _write_local(digest, blob)
            return True, value
        if status == "miss":
            _stats["remote_misses"] += 1
        else:
            _stats["remote_errors"] += 1
    _stats["misses"] += 1
    return False, None


def put(key_parts: Tuple[str, ...], value: Any) -> None:
    """Store an entry through both tiers (best effort; errors swallowed).

    The value (plain JSON data) is encoded once; the same record lands
    atomically on local disk and is pushed to the remote service under a
    bounded socket timeout, so a slow or dead remote can never block the
    simulation -- the worst case is one timeout per attempt until the
    circuit opens, each counted in ``remote_errors``.
    """
    if not _enabled:
        return
    try:
        blob = _encode(value)
    except (TypeError, ValueError):
        # A value JSON cannot carry (a non-finite float, a foreign type)
        # degrades to "not cached", never to a crash the uncached run
        # would not have had.
        _stats["errors"] += 1
        return
    digest = _entry_digest(key_parts)
    if _write_local(digest, blob):
        _stats["writes"] += 1
    if _remote is not None:
        if _remote.put(digest, blob):
            if _cache_dir is None:
                _stats["writes"] += 1
        else:
            _stats["remote_errors"] += 1


def _write_local(digest: str, blob: bytes) -> bool:
    """Atomically land an encoded record in the local tier (best effort)."""
    if _cache_dir is None:
        return False
    path = _entry_path(digest)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except Exception:
        _stats["errors"] += 1
        return False
    return True


class RemoteCacheClient:
    """One process's connection to the shared plan-cache service.

    A thread-safe, lazily-connected client over one persistent socket
    (reconnected on error).  Every operation is bounded by the configured
    timeout and *never raises*: failures return an error status and feed
    the consecutive-failure circuit breaker -- after
    :data:`_REMOTE_MAX_CONSECUTIVE_ERRORS` misfires the client goes
    permanently quiet and every later call is a free local miss.
    """

    def __init__(self, url: str, *, timeout: float = _REMOTE_DEFAULT_TIMEOUT) -> None:
        from repro.dist import protocol  # stdlib-only; no import cycle

        self._protocol = protocol
        self.url = str(url)
        self._address = protocol.parse_url(url)
        self.timeout = float(timeout)
        self._sock = None
        self._consecutive_errors = 0
        self._lock = threading.Lock()

    @property
    def dead(self) -> bool:
        """True once the circuit breaker has opened."""
        return self._consecutive_errors >= _REMOTE_MAX_CONSECUTIVE_ERRORS

    def get(self, key: str) -> Tuple[str, bytes]:
        """Fetch a blob; returns ``("hit", blob)``, ``("miss", b"")`` or
        ``("error", b"")``."""
        response = self._request(self._protocol.encode_get(key))
        if response is None:
            return "error", b""
        if response[:1] == self._protocol.STATUS_HIT:
            return "hit", response[1:]
        if response[:1] == self._protocol.STATUS_MISS:
            return "miss", b""
        return "error", b""

    def put(self, key: str, blob: bytes) -> bool:
        """Push a blob; False on any failure (bounded by the timeout)."""
        response = self._request(self._protocol.encode_put(key, blob))
        return response is not None and response[:1] == self._protocol.STATUS_OK

    def server_stats(self) -> Optional[Dict[str, int]]:
        """The service's counters (``None`` when unreachable)."""
        response = self._request(self._protocol.OP_STATS)
        if response is None or response[:1] != self._protocol.STATUS_STATS:
            return None
        try:
            return json.loads(response[1:].decode())
        except ValueError:
            return None

    def ping(self) -> bool:
        response = self._request(self._protocol.OP_PING)
        return response is not None and response[:1] == self._protocol.STATUS_OK

    def close(self) -> None:
        with self._lock:
            self._close_socket()

    # -- internals ---------------------------------------------------------------

    def _request(self, payload: bytes) -> Optional[bytes]:
        if self.dead:
            return None
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        self._address, timeout=self.timeout
                    )
                self._protocol.send_frame(self._sock, payload)
                response = self._protocol.recv_frame(self._sock)
                if response is None:
                    raise ConnectionError("service closed the connection")
            except Exception:
                self._close_socket()
                self._consecutive_errors += 1
                return None
            self._consecutive_errors = 0
            return response

    def _close_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
