"""Content-addressed persistent cache for fill-job execution estimates.

The in-process shared estimate caches (:mod:`repro.core.executor`) make
plan searches free *within* one process, but every `repro sweep` worker
and every fresh `repro bench`/`repro run` invocation still re-pays the
profile + Algorithm-1 cold start.  An estimate is a pure function of
``(bubble cycle, device, PipeFill config, efficiency model, model spec,
job type)`` -- all frozen value objects -- so it can be cached *across
processes* under a content hash of exactly those inputs.  A negative
result ("this job fits no configuration on this cycle") is cached too,
as an explicit ``None`` (JSON ``null``).

Layout
------
The local tier is one append-only log per cache directory (default
``.repro-cache/``) and code fingerprint::

    <cache-dir>/estimates/<code fingerprint><LOG_SUFFIX>

Every process on the machine appends to the same log, one line per
entry: the 64 hex characters of the entry digest (the SHA-256 of the
key, see :func:`_entry_digest`), then the record, then ``\\n``.  A
record is canonical JSON, which escapes every newline, so the newline
frames lines unambiguously.  Logs of other fingerprints are never
opened.

A write is one ``os.write`` of one whole line to a descriptor opened
with ``O_APPEND``.  On a local filesystem POSIX makes that write an
atomic append: the kernel moves the offset to the end of the file and
copies the line under the inode's lock, so lines from forked or spawned
sweep workers never interleave.  One file per entry would cost a new
inode per put, up to hundreds of microseconds of kernel time; an append
costs about one.

Each process keeps a *view* of the log: for every entry digest, the
``(offset, length)`` of the record on each complete line read, in file
order, plus the offset read up to -- positions, not bytes, so memory
grows with the number of keys rather than the log.  A lookup whose key
is not in the view calls ``fstat`` on the log, reads only the bytes
appended since, and indexes the complete lines.  A partial last line is
left for later, neither served nor counted: it cannot be told from a
write in flight.  If the read ended inside a line, the process's next
write starts with a newline, so a torn tail (a crashed writer, a cut
file) never swallows the next line; when the tail was a write in
flight, the extra newline only adds an empty line, which readers skip.
A log that shrank is indexed again from the start, and a log deleted
under the process (``rm -rf``) is dropped; the next write opens a new
one.
:func:`configure` and :func:`close` (which
:func:`repro.core.executor.clear_shared_caches` calls) close the
descriptor and drop the view, so the next lookup reads the log from
disk as a new process would.

Record format
-------------
A record holds plain data, never code: the value rendered as canonical
JSON (sorted keys, compact separators, no ``NaN``/``Infinity``), prefixed
by the 64 hex characters of that body's SHA-256.  :func:`get` checks the
digest, parses the body (rejecting the non-finite constants), and hands
the result to the caller's ``decode`` function, which validates it against
the caller's schema and builds the value to return.  The executor stores
the chosen configuration and the five floats the simulator reads
(:mod:`repro.core.executor`); JSON round-trips finite floats bit-exactly,
so a hit can never change simulation results --
``tests/test_plancache.py`` asserts both the hit path and the equality.

A lookup serves the first line for its key whose record passes those
checks.  A line that fails is dropped from the view and never retried;
its bytes stay in the log for forensics.  A lookup that drops lines and
serves none is a miss, one ``errors`` and one ``quarantined``, so the
value is recomputed and appended again.

The cache is **disabled by default** for library use (tests and direct
imports see byte-for-byte the behaviour of the in-process caches alone);
the CLI commands ``run``/``sweep``/``bench``/``profile`` enable it, with
``--cache-dir``/``--no-disk-cache`` to relocate or opt out.

Hygiene: the directory is safe to delete at any time (`rm -rf
.repro-cache/`), and deleting it is the only way to reclaim space: there
is no compaction.  A log grows by one line per key computed; two workers
that compute the same key at once append two identical lines.  Keys
embed a *code fingerprint* -- a hash of the source of every module the
estimate computation can touch -- so any code change silently orphans
the old log instead of serving plans computed by a different algorithm.
A warm cache restored onto changed code (e.g. CI's ``restore-keys``
prefix fallback) therefore degrades to misses, never to wrong results.

The local tier is per machine.  On a directory shared over NFS,
``O_APPEND`` is not atomic and a line can be garbled; a garbled line
fails its digest and is recomputed, never served.  Sharing plans across
machines is the remote tier's job.

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
remote entry is the same record as the local line under the same
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
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Format epoch for the entry layout itself (record framing, key shape).
_FORMAT_VERSION = 2

#: File suffix of the local log: ``<code fingerprint><LOG_SUFFIX>``.
LOG_SUFFIX = ".log"

#: Length of a hex SHA-256: the entry digest opening a line, and the
#: value digest opening a record.
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
_log: Optional["_Log"] = None

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

    Closes the local log and drops this process's view of it (see
    :func:`close`), whether or not the directory changes.
    ``remote_url`` ("HOST:PORT") additionally attaches the shared
    plan-cache service tier; omitting it (the default) detaches any
    previously-configured remote, so reconfiguration is always explicit
    and legacy callers keep their exact semantics.  The remote tier works
    with or without a local directory (``cache_dir=None`` plus a url is a
    remote-only cache).
    """
    global _enabled, _cache_dir, _remote
    close()
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


def close() -> None:
    """Close the local log and drop this process's view of it.

    The cache stays configured: the next lookup opens the log again and
    reads it from disk, as a new process would.
    """
    global _log
    if _log is not None:
        _log.close()
        _log = None


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
    the complete cross-machine identity of an entry: the prefix of its
    line in the local log and the remote service key are this same
    string.
    """
    text = "/".join((f"v{_FORMAT_VERSION}", code_fingerprint()) + key_parts)
    return hashlib.sha256(text.encode()).hexdigest()


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


def get(
    key_parts: Tuple[str, ...], decode: Callable[[Any], Any] = _plain
) -> Tuple[bool, Any]:
    """Look an entry up through the tiers; returns ``(hit, value)``.

    ``decode`` turns the record's parsed JSON into the returned value and
    raises to reject it (the executor validates its schema there); the
    default returns the plain JSON data.  It runs inside this function's
    error handling, so a rejected record counts exactly like bytes that
    fail to parse.

    The local log is consulted first, and it serves the first line for
    the key whose record decodes.  No line for the key (or no log) is a
    miss.  Any error reading the log other than a missing file (too many
    open files, a flaky disk) is a miss plus one ``errors``, and nothing
    is dropped: the entry may be valid, and the next lookup reads it
    again.  A line whose record fails to decode (bit rot, a torn or
    garbled write, a stale digest, a value ``decode`` rejects) is dropped
    from this process's view and never retried; when every line for the
    key fails, the lookup is a miss, one ``errors`` and one
    ``quarantined``, so the value is recomputed and appended again.  On a
    local miss the remote service (when configured) is asked; a remote
    hit is decoded, appended to the local log, and counted as
    ``remote_hits``.  Any remote trouble (connection refused, timeout, a
    record that fails to decode) counts one ``remote_errors`` and
    degrades to a plain miss; a rejected remote record never reaches
    local disk.  ``value`` may legitimately be ``None`` on a hit.
    """
    if not _enabled:
        return False, None
    digest = _entry_digest(key_parts)
    if _cache_dir is not None:
        log = _local_log()
        key = digest.encode()
        try:
            records = log.records(key)
        except OSError:
            _stats["misses"] += 1
            _stats["errors"] += 1
            return False, None
        for span, blob in records:
            try:
                value = _decode(blob, decode)
            except Exception:
                log.drop(key, span)
                continue
            _stats["hits"] += 1
            return True, value
        if records:
            _stats["misses"] += 1
            _stats["errors"] += 1
            _stats["quarantined"] += 1
            return False, None
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

    The value (plain JSON data) is encoded once; the same record is
    appended to the local log as one line and pushed to the remote
    service under a bounded socket timeout, so a slow or dead remote can
    never block the simulation -- the worst case is one timeout per
    attempt until the circuit opens, each counted in ``remote_errors``.
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
    """Append an encoded record to the local log as one line (best effort).

    A short write or an ``OSError`` counts one ``errors``.
    """
    if _cache_dir is None:
        return False
    try:
        written = _local_log().append(digest.encode() + blob + b"\n")
    except OSError:
        written = False
    if not written:
        _stats["errors"] += 1
    return written


def _local_log() -> "_Log":
    global _log
    if _log is None:
        assert _cache_dir is not None
        _log = _Log(_cache_dir / "estimates" / f"{code_fingerprint()}{LOG_SUFFIX}")
    return _log


#: A record's place in the log: ``(offset, length)``.
_Span = Tuple[int, int]


class _Log:
    """This process's descriptor on the shared local log, and its view.

    The view maps each entry digest (as bytes) to the span of the record
    on every complete line read for it, in file order.  ``_end`` is the
    offset just past the last complete line indexed, and ``_torn`` says
    the last read found bytes after it.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._fd: Optional[int] = None
        self._spans: Dict[bytes, List[_Span]] = {}
        self._end = 0
        self._torn = False

    def close(self) -> None:
        """Close the descriptor and drop the view."""
        fd, self._fd = self._fd, None
        self._spans = {}
        self._end = 0
        self._torn = False
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass

    def records(self, key: bytes) -> List[Tuple[_Span, bytes]]:
        """Every record in the view for ``key``, in file order.

        A key not in the view first indexes the bytes appended since the
        last read.  Raises ``OSError`` on any failure but a missing
        directory, which holds no records.
        """
        spans = self._spans.get(key)
        if spans is None:
            try:
                self._read_new()
            except FileNotFoundError:
                return []
            spans = self._spans.get(key)
            if spans is None:
                return []
        fd = self._fd
        assert fd is not None
        return [(span, os.pread(fd, span[1], span[0])) for span in spans]

    def drop(self, key: bytes, span: _Span) -> None:
        """Forget one line, so no later lookup in this view retries it."""
        spans = self._spans[key]
        spans.remove(span)
        if not spans:
            del self._spans[key]

    def append(self, line: bytes) -> bool:
        """Append one whole line with one ``write``; False if it was short.

        Creates the directory on the first write.  After a read that ended
        inside a line, the write starts with a newline, so a torn tail
        cannot swallow this line.
        """
        try:
            fd = self._open()
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = self._open()
        if self._torn:
            line = b"\n" + line
            self._torn = False
        return os.write(fd, line) == len(line)

    def _open(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
            )
        return self._fd

    def _read_new(self) -> None:
        """Index the complete lines appended since the last read."""
        fd = self._open()
        st = os.fstat(fd)
        if st.st_nlink == 0:
            # Deleted under us (``rm -rf``): drop it; the next write
            # opens a new log at the path.
            self.close()
            return
        if st.st_size < self._end:
            # The log shrank: what the view points at may be gone.
            self._spans = {}
            self._end = 0
        if st.st_size == self._end:
            self._torn = False
            return
        data = os.pread(fd, st.st_size - self._end, self._end)
        base = self._end
        for key, offset, length in iter_records(data):
            self._spans.setdefault(key, []).append((base + offset, length))
        complete = data.rfind(b"\n") + 1
        self._end = base + complete
        self._torn = complete < len(data)


def iter_records(data: bytes) -> Iterator[Tuple[bytes, int, int]]:
    """``(entry digest, offset, length)`` of the record on each complete
    line of log bytes ``data``, in order; offsets are into ``data``.

    A partial last line is skipped, and so is a line too short to hold
    an entry digest and a record (the empty line a torn-tail newline
    leaves).
    """
    start = 0
    while True:
        stop = data.find(b"\n", start)
        if stop < 0:
            return
        if stop - start > _DIGEST_CHARS:
            record = start + _DIGEST_CHARS
            yield data[start:record], record, stop - record
        start = stop + 1


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
