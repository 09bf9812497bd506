"""The append-only sweep journal: crash-safe checkpoint/resume state.

One journal lives per sweep at ``<root>/<sweep_id>/journal.jsonl``
(``root`` defaults to ``.repro-cache/sweeps/`` via the CLI).  Every
record is a single JSON line, flushed and fsynced as it is written, so
the journal survives the process being killed at any instant: the worst
case is a torn final line, which :meth:`SweepJournal.read` skips (and
counts) instead of failing.  There is no index to corrupt and the
directory is safe to delete at any time -- a missing journal just means
a sweep starts from scratch.

Records
-------
``{"record": "sweep", ...}``
    The header: ``sweep_id``, scenario name, swept parameter, the
    ``grid_digest`` (content digest of every grid point, used to refuse
    resuming against a different grid) and ``num_points``.
``{"record": "point", "key": ..., "payload": {...}}``
    One completed grid point: the content digest of the applied scenario
    document (``key``), the swept value, the attempt count and the full
    simulation-core payload.  Payloads are plain JSON, and JSON
    round-trips ints and floats exactly, so a resumed merge is
    bit-identical to an uninterrupted run.
``{"record": "failure", "key": ..., ...}``
    One point that exhausted its retry budget, with the structured
    failure (kind/type/message).  Failed points are *re-attempted* on
    resume; a later ``point`` record for the same key supersedes the
    failure.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

#: Schema tag stamped into every journal header.
JOURNAL_SCHEMA = "repro-sweep-journal/v1"

#: The journal file name inside ``<root>/<sweep_id>/``.
JOURNAL_FILENAME = "journal.jsonl"


def content_digest(doc: Any) -> str:
    """Stable 16-hex content digest of a JSON-serialisable document.

    Keys grid points (digest of the fully-applied scenario document) and
    whole grids; ``default=str`` keeps exotic scalar overrides hashable.
    """
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class JournalState:
    """Everything a resume needs, reconstructed from the journal lines."""

    header: Optional[Dict[str, Any]]
    #: Completed points by grid-point key (latest record wins).
    completed: Dict[str, Dict[str, Any]]
    #: Exhausted-retry failures by key, minus keys later completed.
    failed: Dict[str, Dict[str, Any]]
    #: Lines that did not parse (torn writes, truncation, garbage).
    corrupt_lines: int


class SweepJournal:
    """Writer/reader for one sweep's ``journal.jsonl``."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = None

    @classmethod
    def for_sweep(cls, root: Union[str, Path], sweep_id: str) -> "SweepJournal":
        """The journal under ``<root>/<sweep_id>/journal.jsonl``."""
        return cls(Path(root) / str(sweep_id) / JOURNAL_FILENAME)

    def exists(self) -> bool:
        return self.path.exists()

    # -- writing -----------------------------------------------------------------

    def start(self, header: Dict[str, Any]) -> None:
        """Begin a fresh journal (truncating any previous run's file)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._append({"record": "sweep", "schema": JOURNAL_SCHEMA, **header})

    def open_append(self) -> None:
        """Reopen an existing journal to append resume-run records."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def record_completed(
        self,
        key: str,
        *,
        parameter: str,
        value: Any,
        attempts: int,
        payload: Dict[str, Any],
    ) -> None:
        self._append(
            {
                "record": "point",
                "key": key,
                "parameter": parameter,
                "value": value,
                "attempts": int(attempts),
                "payload": payload,
            }
        )

    def record_failed(
        self,
        key: str,
        *,
        parameter: str,
        value: Any,
        attempts: int,
        kind: str,
        error_type: str,
        message: str,
    ) -> None:
        self._append(
            {
                "record": "failure",
                "key": key,
                "parameter": parameter,
                "value": value,
                "attempts": int(attempts),
                "kind": kind,
                "error_type": error_type,
                "message": message,
            }
        )

    def _append(self, record: Dict[str, Any]) -> None:
        assert self._fh is not None, "journal not opened (start/open_append)"
        self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        # Flush + fsync per record, so a killed sweep loses at most the
        # point in flight.
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -----------------------------------------------------------------

    def read(self) -> JournalState:
        """Reconstruct the journal state, skipping unparseable lines."""
        header: Optional[Dict[str, Any]] = None
        completed: Dict[str, Dict[str, Any]] = {}
        failed: Dict[str, Dict[str, Any]] = {}
        corrupt = 0
        if not self.path.exists():
            return JournalState(None, {}, {}, 0)
        with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    corrupt += 1
                    continue
                if not isinstance(record, dict):
                    corrupt += 1
                    continue
                kind = record.get("record")
                if kind == "sweep":
                    header = record
                elif kind == "point" and "key" in record and "payload" in record:
                    completed[record["key"]] = record
                    failed.pop(record["key"], None)
                elif kind == "failure" and "key" in record:
                    if record["key"] not in completed:
                        failed[record["key"]] = record
                else:
                    corrupt += 1
        return JournalState(header, completed, failed, corrupt)
