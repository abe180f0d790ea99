"""Content-addressed experiment result cache.

``python -m repro`` reruns are usually replays: the simulator is a pure
function of ``(code, exp_id, kwargs, seed, quick)``, so recomputing a
200k-trial grid that nothing invalidated is pure wall clock.  The cache
stores each experiment's **rows** under a key that hashes exactly the
things the rows depend on:

``key = sha256(version | exp_id | quick | seed | canonical(kwargs) |
source fingerprint)``

* ``kwargs`` are canonicalized (sorted keys, tuples as lists,
  non-JSON values by ``repr``) so equivalent calls collide on purpose.
* The **source fingerprint** hashes every ``.py`` file under the
  installed ``repro`` package (path + content), so *any* code change
  invalidates every entry — no staleness analysis, just a new key.

Only rows are reused; titles, params, and notes are rebuilt from the
live registry at hit time, so a cached result is indistinguishable from
a fresh one in every rendered artifact (rows survive a JSON round-trip
bit-exactly: floats serialize via shortest-repr).

Failures are never cached, and a corrupt or unreadable entry is a miss,
never an error.  Since version 2 every entry carries a ``crc`` — a
checksum over its canonical rows — so silent bit rot is *detected*, not
replayed into results: a mismatch counts as ``cache_corrupt`` and the
rows are recomputed.  ``repro cache verify`` / ``repro cache prune``
(:mod:`repro.parallel.cache_cli`) expose the same check as an operator
tool via :func:`scan_cache_dir`.  Entries are committed with
:func:`atomic_write_text`, so a crash mid-write leaves the previous
entry (or nothing), never a torn file.  That makes the cache the way to
finish an interrupted batch: rerun the same command with the same
``--cache-dir``, and every experiment that completed before the
interruption is a hit (docs/ROBUSTNESS.md §3).
``scorecard`` is the headline consumer across runs: it re-grades
sub-experiments from a previous batch's entries instead of recomputing
them.  Inside one ``python -m repro all`` batch it grades the rows the
process already computed, with or without ``--no-cache``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass

import repro
from repro.obs.metrics import get_registry
from repro.obs.tracebus import NO_SIM_TIME, get_bus

__all__ = [
    "ResultCache",
    "atomic_write_text",
    "source_fingerprint",
    "cache_key",
    "rows_checksum",
    "CacheEntryReport",
    "scan_cache_dir",
]

#: Bump to invalidate every existing cache entry on format changes.
#: v2 added the per-entry ``crc`` field (rows checksum).
CACHE_VERSION = 2


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


_fingerprint_memo: dict[pathlib.Path, str] = {}


def source_fingerprint(root: pathlib.Path | None = None) -> str:
    """Hash of every ``.py`` file (relative path + content) under ``root``.

    ``root`` defaults to the installed :mod:`repro` package directory.
    Memoized per process: the tree cannot change under a running
    experiment batch, and workers would otherwise rescan per task.
    """
    if root is None:
        root = pathlib.Path(repro.__file__).resolve().parent
    root = pathlib.Path(root)
    cached = _fingerprint_memo.get(root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    out = digest.hexdigest()
    _fingerprint_memo[root] = out
    return out


def _canon(value):
    """Canonical JSON-able form of a kwargs value (stable across runs)."""
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def rows_checksum(rows: list) -> str:
    """Checksum over the canonical JSON form of an entry's rows."""
    payload = json.dumps(_canon(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cache_key(
    exp_id: str,
    kwargs: dict,
    *,
    quick: bool,
    seed: int | None,
    fingerprint: str,
) -> str:
    """The content hash one experiment invocation addresses."""
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "exp_id": exp_id,
            "quick": bool(quick),
            "seed": seed,
            "kwargs": _canon(kwargs),
            "fingerprint": fingerprint,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Row store under ``root``, one JSON file per key.

    ``fingerprint`` may be passed in (e.g. computed once in the parent
    and shipped to worker processes); by default it is computed — and
    memoized — from the installed source tree.
    """

    def __init__(
        self, root: pathlib.Path | str, *, fingerprint: str | None = None
    ) -> None:
        self.root = pathlib.Path(root)
        self.fingerprint = fingerprint or source_fingerprint()

    def _path(self, exp_id: str, key: str) -> pathlib.Path:
        # exp_id prefix keeps the directory human-auditable; slashes in
        # dynamic ids (ablate/<flip>/<workload>) flatten so every entry
        # stays a direct child of root (scan/prune glob "*.json" there)
        return self.root / f"{exp_id.replace('/', '__')}-{key[:32]}.json"

    def key(
        self, exp_id: str, kwargs: dict, *, quick: bool, seed: int | None
    ) -> str:
        return cache_key(
            exp_id, kwargs, quick=quick, seed=seed, fingerprint=self.fingerprint
        )

    def get_rows(
        self, exp_id: str, kwargs: dict, *, quick: bool, seed: int | None
    ) -> list[dict] | None:
        """Cached rows for this invocation, or ``None`` on any miss."""
        path = self._path(
            exp_id, self.key(exp_id, kwargs, quick=quick, seed=seed)
        )
        report = _check_entry(path)
        if report.status == "corrupt":
            # detected bit rot: surface it, recompute instead of replaying
            get_registry().counter("cache_corrupt").inc()
            get_bus().emit(
                NO_SIM_TIME,
                "cache_miss",
                -1,
                exp_id=exp_id,
                corrupt=True,
                reason=report.reason,
            )
            get_registry().counter("cache_misses").inc()
            return None
        if report.status != "ok":
            return self._miss(exp_id)
        get_registry().counter("cache_hits").inc()
        get_bus().emit(NO_SIM_TIME, "cache_hit", -1, exp_id=exp_id)
        return report.rows

    def _miss(self, exp_id: str) -> None:
        """Count a lookup miss (no-op instruments when obs is off)."""
        get_registry().counter("cache_misses").inc()
        get_bus().emit(NO_SIM_TIME, "cache_miss", -1, exp_id=exp_id)
        return None

    def put_rows(
        self,
        exp_id: str,
        rows: list[dict],
        kwargs: dict,
        *,
        quick: bool,
        seed: int | None,
    ) -> pathlib.Path | None:
        """Store rows; returns the entry path, or ``None`` when the rows
        are not JSON-serializable (such results are simply not cached)."""
        key = self.key(exp_id, kwargs, quick=quick, seed=seed)
        payload = {
            "version": CACHE_VERSION,
            "exp_id": exp_id,
            "quick": bool(quick),
            "seed": seed,
            "kwargs": _canon(kwargs),
            "fingerprint": self.fingerprint,
            "rows": rows,
        }
        try:
            payload["crc"] = rows_checksum(rows)
            text = json.dumps(payload)
        except (TypeError, ValueError):
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(exp_id, key)
        # durable + atomic: concurrent writers race benignly, a crash
        # mid-write leaves the previous entry (or nothing), never a torn one
        atomic_write_text(path, text + "\n")
        return path

    # -- operator verbs (``repro cache verify`` / ``prune``) -----------
    def scan(self) -> list["CacheEntryReport"]:
        """Checksum-verify every entry under :attr:`root`."""
        return scan_cache_dir(self.root)


@dataclass(frozen=True)
class CacheEntryReport:
    """Verdict on one cache file from :func:`scan_cache_dir`.

    ``status`` is ``"ok"``, ``"corrupt"`` (bit rot, torn write, schema
    damage — the entry can only mislead), ``"stale"`` (valid but a
    previous format version — harmless, will never hit), or
    ``"missing"`` (unreadable/absent).
    """

    path: pathlib.Path
    status: str
    reason: str = ""
    rows: list | None = None


def _check_entry(path: pathlib.Path) -> CacheEntryReport:
    """Classify one cache file: ok / corrupt / stale / missing."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return CacheEntryReport(path, "missing", f"unreadable: {exc}")
    try:
        payload = json.loads(raw.decode())
    except UnicodeDecodeError:
        return CacheEntryReport(path, "corrupt", "not valid UTF-8")
    except ValueError:
        return CacheEntryReport(path, "corrupt", "not valid JSON")
    if not isinstance(payload, dict) or not isinstance(
        payload.get("rows"), list
    ):
        return CacheEntryReport(path, "corrupt", "entry schema damaged")
    version = payload.get("version")
    if version != CACHE_VERSION:
        return CacheEntryReport(
            path, "stale", f"format version {version} != {CACHE_VERSION}"
        )
    crc = payload.get("crc")
    if not isinstance(crc, str):
        return CacheEntryReport(path, "corrupt", "checksum missing")
    actual = rows_checksum(payload["rows"])
    if actual != crc:
        return CacheEntryReport(
            path, "corrupt", f"checksum mismatch ({actual} != {crc})"
        )
    return CacheEntryReport(path, "ok", rows=payload["rows"])


def scan_cache_dir(root: pathlib.Path | str) -> list[CacheEntryReport]:
    """Verify every ``*.json`` entry under ``root`` (sorted by name).

    Leftover ``*.tmp.*`` files from interrupted writes are not entries
    and are not reported; ``repro cache prune`` sweeps them separately.
    """
    root = pathlib.Path(root)
    if not root.is_dir():
        return []
    return [_check_entry(path) for path in sorted(root.glob("*.json"))]
