"""Crash-consistent write-ahead checkpoint journal.

The old checkpoint was one JSON blob rewritten after every experiment —
atomic per write, but a single torn or corrupt file lost the whole
batch's progress.  The journal is append-only JSONL: one self-checking
record per line, each committed with ``flush`` + ``fsync`` before the
run proceeds, so the durable prefix of the file is always a valid
history and recovery is "truncate the torn tail, replay the rest".

Record format (canonical JSON, sorted keys, compact separators)::

    {"crc": "<sha256-16>", "data": {...}, "kind": "done", "seq": 3}

``crc`` is the checksum of the record serialized with ``crc`` set to
``""`` — any bit flip in the line fails verification.  ``seq`` is
strictly increasing; the first record is always the header
(``kind="header"``) carrying the run configuration ``(quick, seed)``
that resume compatibility is keyed on.

:func:`recover` reads a journal back: it verifies every line, stops at
the first unparsable / checksum-failing / out-of-order record, truncates
the file to the durable prefix in place (crash-mid-write leaves exactly
one torn tail; anything after it is unreachable history), and reports
how much was dropped.  A non-empty file without one verified record is
not a journal: recovery leaves it untouched and
:meth:`CheckpointJournal.open` moves it aside.

:func:`atomic_write_text` is the sanctioned primitive for every
non-append artifact write (cache entries, rendered reports): temp file
in the same directory, ``fsync``, ``os.replace``, directory ``fsync`` —
a crash at any instant leaves either the old bytes or the new bytes,
never a truncated hybrid.  simlint rule ERR004 flags direct writes to
checkpoint/cache artifacts that bypass it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.obs.metrics import get_registry
from repro.obs.tracebus import NO_SIM_TIME, get_bus

__all__ = [
    "CheckpointJournal",
    "JournalRecovery",
    "atomic_write_text",
    "record_checksum",
    "recover",
]

#: Bump on record-format changes; recovery refuses newer versions.
JOURNAL_VERSION = 1


def atomic_write_text(path: pathlib.Path | str, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` all-or-nothing.

    Temp file in the same directory (so ``os.replace`` stays on one
    filesystem), data ``fsync`` before the rename, directory ``fsync``
    after it — the sequence a crash cannot tear.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with _ignore_os_error():
            os.unlink(tmp)
        raise
    _fsync_dir(path.parent)
    return path


class _ignore_os_error:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return exc_type is not None and issubclass(exc_type, OSError)


def _fsync_dir(directory: pathlib.Path) -> None:
    """Persist a rename/append by fsyncing the containing directory
    (best effort: some filesystems refuse directory fds)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def record_checksum(record: dict) -> str:
    """Checksum of a journal record with its ``crc`` field blanked."""
    payload = json.dumps(
        {**record, "crc": ""}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _encode(record: dict) -> str:
    record = {**record, "crc": record_checksum(record)}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass
class JournalRecovery:
    """What :func:`recover` found in (and did to) a journal file."""

    #: verified records, header first (empty for missing/foreign files).
    records: list[dict] = field(default_factory=list)
    #: bytes removed as a torn/corrupt tail (0 for a clean journal).
    dropped_bytes: int = 0
    #: lines removed (the torn record plus anything after it).
    dropped_records: int = 0

    @property
    def header(self) -> dict | None:
        if self.records and self.records[0].get("kind") == "header":
            return self.records[0]["data"]
        return None

    @property
    def truncated(self) -> bool:
        return self.dropped_bytes > 0

    def done_map(self) -> dict[str, dict]:
        """Fold ``done`` records into exp_id -> latest status entry."""
        done: dict[str, dict] = {}
        for record in self.records:
            if record.get("kind") == "done":
                data = dict(record["data"])
                exp_id = data.pop("exp_id", None)
                if isinstance(exp_id, str):
                    done[exp_id] = data
        return done


def _parse_line(line: str, expect_seq: int) -> dict | None:
    """One verified record from ``line``, or None on any defect."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    if record.get("seq") != expect_seq:
        return None
    crc = record.get("crc")
    if not isinstance(crc, str) or record_checksum(record) != crc:
        return None
    return record


def recover(path: pathlib.Path | str, *, truncate: bool = True) -> JournalRecovery:
    """Replay a journal, truncating any torn tail to the durable prefix.

    Missing or entirely unreadable files recover to an empty history —
    resume must never refuse to start because a crash mangled its own
    bookkeeping.  Only a tail behind at least one verified record is
    truncated, so a file that is not a journal is never destroyed.
    With ``truncate=False`` the file is left untouched (dry-run
    verification).
    """
    path = pathlib.Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return JournalRecovery()
    if not raw:
        return JournalRecovery()
    text = raw.decode("utf-8", errors="replace")
    records: list[dict] = []
    good_bytes = 0
    cursor = 0
    dropped_records = 0
    for line in text.splitlines(keepends=True):
        stripped = line.rstrip("\r\n")
        record = _parse_line(stripped, len(records)) if stripped else None
        if record is None or not line.endswith("\n"):
            # torn/corrupt record: everything from here on is dropped
            dropped_records = sum(
                1 for rest in text[cursor:].splitlines() if rest.strip()
            )
            break
        records.append(record)
        cursor += len(line)
        good_bytes = cursor
    dropped = len(raw) - len(text[:good_bytes].encode())
    recovery = JournalRecovery(
        records=records,
        dropped_bytes=dropped,
        dropped_records=dropped_records,
    )
    if recovery.truncated and records and truncate:
        with open(path, "rb+") as fh:
            fh.truncate(len(text[:good_bytes].encode()))
            fh.flush()
            os.fsync(fh.fileno())
        get_registry().counter("journal_recoveries").inc()
        get_bus().emit(
            NO_SIM_TIME,
            "journal_recovered",
            -1,
            path=str(path),
            kept=len(records),
            dropped_records=dropped_records,
            dropped_bytes=dropped,
        )
    return recovery


class CheckpointJournal:
    """Append-only, fsync-committed run journal keyed on ``(quick, seed)``.

    ``open()`` recovers any existing file first: a compatible journal is
    continued (its ``done`` map is what ``--resume`` replays), while a
    foreign-configuration journal or a file that is not a journal at all
    is moved aside to ``<name>.old`` so the new run starts from a clean,
    verifiable history.
    """

    def __init__(
        self,
        path: pathlib.Path | str,
        *,
        quick: bool = False,
        seed: int | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.quick = bool(quick)
        self.seed = seed
        self._fh = None
        self._seq = 0
        self.recovery: JournalRecovery | None = None
        #: what ``open()`` moved aside: a foreign-configuration history,
        #: or a non-journal file (no verified record, so ``header`` is
        #: None).  None when the existing file was compatible or absent.
        self.rotated: JournalRecovery | None = None

    # ------------------------------------------------------------------
    def _compatible(self, recovery: JournalRecovery) -> bool:
        header = recovery.header
        return (
            header is not None
            and header.get("version") == JOURNAL_VERSION
            and header.get("quick") == self.quick
            and header.get("seed") == self.seed
        )

    def open(self) -> "CheckpointJournal":
        """Recover + open for appending; idempotent."""
        if self._fh is not None:
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.recovery = recover(self.path)
        if (
            self.recovery.records or self.recovery.truncated
        ) and not self._compatible(self.recovery):
            # foreign history or not a journal: preserve it, start fresh
            self.rotated = self.recovery
            with _ignore_os_error():
                os.replace(self.path, self.path.with_name(self.path.name + ".old"))
            self.recovery = JournalRecovery()
        self._fh = open(self.path, "a", encoding="utf-8")
        self._seq = len(self.recovery.records)
        if self._seq == 0:
            self.append(
                "header",
                version=JOURNAL_VERSION,
                quick=self.quick,
                seed=self.seed,
            )
        return self

    def append(self, kind: str, **data) -> dict:
        """Durably append one record (flush + fsync before returning)."""
        if self._fh is None:
            raise ExperimentError("journal is not open; call open() first")
        record = {"seq": self._seq, "kind": kind, "data": data}
        self._fh.write(_encode(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._seq += 1
        get_bus().emit(
            NO_SIM_TIME,
            "checkpoint_written",
            -1,
            path=str(self.path),
            record_kind=kind,
            seq=record["seq"],
        )
        return record

    def mark_done(self, exp_id: str, entry: dict) -> None:
        """Record one experiment's final status (the ``--resume`` unit)."""
        self.append("done", exp_id=exp_id, **entry)

    def done_map(self) -> dict[str, dict]:
        """Completed/failed entries replayed at ``open()`` time."""
        return self.recovery.done_map() if self.recovery else {}

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()
