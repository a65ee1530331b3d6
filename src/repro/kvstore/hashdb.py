"""Hash-table key-value store with WAL durability semantics.

The store distinguishes *applied* state (what readers see) from
*durable* state (what survives a crash).  Mutations append to a
write-ahead log; :meth:`sync` makes the log durable.  ``sync_mode=
"always"`` syncs after every mutation — the paper's configuration
("Changes to the mapping table are synchronously written to the
storage in order to survive power failures").

Two backends share the same API:

- **in-memory** (default, ``path=None``): the durable log is a list;
  :meth:`crash` simulates a power failure.  This is what the simulated
  middleware's DMT runs on.
- **file-backed** (``path=...``): the durable log is a real append-only
  file of length-prefixed pickled records, so the store survives the
  *process* — this is what the sweep result cache
  (:mod:`repro.parallel.store`) persists through.  Reopening replays
  the log; a truncated *trailing* record (a crash mid-append) is
  tolerated: replay stops at the last complete record and the file is
  trimmed back to it, so the next append continues from a clean tail.
"""

from __future__ import annotations

import dataclasses
import io
import os
import pickle
import struct
import typing

from ..errors import KVStoreClosed, KVStoreError

_PUT = "put"
_DELETE = "delete"

#: Little-endian u32 record-length prefix for the file backend.
_LEN = struct.Struct("<I")


@dataclasses.dataclass(slots=True)
class WalRecord:
    """One durable log record (written once, never mutated)."""

    op: str
    key: str
    value: typing.Any = None


def _encode_record(record: WalRecord) -> bytes:
    blob = pickle.dumps((record.op, record.key, record.value), protocol=4)
    return _LEN.pack(len(blob)) + blob


def replay_wal_bytes(data: bytes) -> tuple[list[WalRecord], int]:
    """Decode a WAL byte string into ``(records, good_length)``.

    ``good_length`` is the offset of the first incomplete record — the
    length the file should be trimmed to before appending again.  A
    truncated trailing record (short length prefix, short body, or a
    body the pickler cannot finish decoding) ends replay; everything
    before it is returned.  Corruption that still *decodes* but into
    the wrong shape raises :class:`KVStoreError` (that is damage, not
    a mid-append crash).
    """
    records: list[WalRecord] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _LEN.size:
            break  # truncated length prefix
        (length,) = _LEN.unpack_from(data, offset)
        start = offset + _LEN.size
        if total - start < length:
            break  # truncated record body
        blob = data[start:start + length]
        try:
            decoded = pickle.loads(blob)
        except Exception:
            # A complete-by-length but undecodable tail record is still
            # a mid-append crash artefact (e.g. the length prefix of
            # the *next* record made it to disk but its body did not).
            break
        if (not isinstance(decoded, tuple) or len(decoded) != 3
                or decoded[0] not in (_PUT, _DELETE)):
            raise KVStoreError(
                f"corrupt WAL record at byte {offset}: {decoded!r}"
            )
        records.append(WalRecord(*decoded))
        offset = start + length
    return records, offset


class HashDB:
    """An embedded hash-table database file.

    Keys are strings (the paper's mapID encodes application name,
    process count, rank and original file name into one string key);
    values are arbitrary picklable objects.
    """

    def __init__(
        self,
        name: str,
        sync_mode: str = "always",
        path: str | os.PathLike | None = None,
    ):
        if sync_mode not in ("always", "manual"):
            raise KVStoreError(f"bad sync_mode {sync_mode!r}")
        self.name = name
        self.sync_mode = sync_mode
        self.path = os.fspath(path) if path is not None else None
        self._applied: dict[str, typing.Any] = {}
        self._durable_log: list[WalRecord] = []
        self._pending: list[WalRecord] = []
        self._file: typing.IO[bytes] | None = None
        self._closed = False
        self.puts = 0
        self.gets = 0
        self.syncs = 0
        #: True when the last open found (and trimmed) a truncated
        #: trailing record — surfaced so callers can report recovery.
        self.recovered_truncated_tail = False
        if self.path is not None:
            self._open_file()

    def _open_file(self) -> None:
        """Open (or create) the backing log, replaying durable state."""
        try:
            fh = open(self.path, "a+b")
        except OSError as exc:
            raise KVStoreError(f"cannot open {self.path!r}: {exc}") from exc
        self._file = fh
        fh.seek(0)
        data = fh.read()
        self._durable_log, good = replay_wal_bytes(data)
        self.recovered_truncated_tail = good != len(data)
        if self.recovered_truncated_tail:
            # Trim the torn tail so the next append starts on a record
            # boundary instead of extending garbage.
            fh.truncate(good)
        fh.seek(0, io.SEEK_END)
        self._applied = self._replay()

    # -- basic ops -------------------------------------------------------
    def put(self, key: str, value: typing.Any) -> None:
        self._check_open()
        self._pending.append(WalRecord(_PUT, key, value))
        self._applied[key] = value
        self.puts += 1
        if self.sync_mode == "always":
            self.sync()

    def get(self, key: str, default: typing.Any = None) -> typing.Any:
        self._check_open()
        self.gets += 1
        return self._applied.get(key, default)

    def __contains__(self, key: str) -> bool:
        self._check_open()
        return key in self._applied

    def delete(self, key: str) -> None:
        self._check_open()
        if key not in self._applied:
            raise KVStoreError(f"delete of missing key {key!r}")
        self._pending.append(WalRecord(_DELETE, key))
        del self._applied[key]
        if self.sync_mode == "always":
            self.sync()

    def keys(self) -> list[str]:
        self._check_open()
        return sorted(self._applied)

    def items(self) -> list[tuple[str, typing.Any]]:
        self._check_open()
        return sorted(self._applied.items())

    def __len__(self) -> int:
        self._check_open()
        return len(self._applied)

    # -- durability -------------------------------------------------------
    def sync(self) -> int:
        """Flush pending WAL records to durable storage.

        Returns the number of records made durable (useful for charging
        metadata-I/O time in the middleware).
        """
        self._check_open()
        flushed = len(self._pending)
        if self._file is not None and self._pending:
            payload = b"".join(_encode_record(r) for r in self._pending)
            self._file.write(payload)
            self._file.flush()
            os.fsync(self._file.fileno())
        self._durable_log.extend(self._pending)
        self._pending.clear()
        if flushed:
            self.syncs += 1
        return flushed

    @property
    def unsynced_records(self) -> int:
        return len(self._pending)

    def crash(self) -> None:
        """Simulate a power failure: lose everything not synced."""
        self._pending.clear()
        if self._file is not None:
            self._file.close()
            self._file = None
            self._closed = False
            self._open_file()
            return
        self._applied = self._replay()
        self._closed = False

    def recover(self) -> None:
        """Explicit recovery (idempotent; crash already replays)."""
        self._applied = self._replay()

    def _replay(self) -> dict[str, typing.Any]:
        state: dict[str, typing.Any] = {}
        for record in self._durable_log:
            if record.op == _PUT:
                state[record.key] = record.value
            else:
                state.pop(record.key, None)
        return state

    def compact(self) -> None:
        """Rewrite the durable log as one record per live key."""
        self._check_open()
        self.sync()
        self._durable_log = [
            WalRecord(_PUT, key, value) for key, value in sorted(self._applied.items())
        ]
        if self._file is not None:
            # Atomic rewrite: temp file + rename, so a crash mid-compact
            # leaves either the old log or the new one, never a mix.
            tmp_path = self.path + ".compact"
            with open(tmp_path, "wb") as tmp:
                for record in self._durable_log:
                    tmp.write(_encode_record(record))
                tmp.flush()
                os.fsync(tmp.fileno())
            self._file.close()
            os.replace(tmp_path, self.path)
            self._file = open(self.path, "a+b")
            self._file.seek(0, io.SEEK_END)

    @property
    def durable_log_length(self) -> int:
        return len(self._durable_log)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self.sync()
            if self._file is not None:
                self._file.close()
                self._file = None
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise KVStoreClosed(f"database {self.name!r} is closed")
