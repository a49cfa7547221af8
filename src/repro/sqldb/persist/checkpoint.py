"""Checkpointing: rewrite the database image atomically, then reset the WAL.

The sequence is crash-safe at every boundary:

1. The full image (next generation) is written to ``<path>.tmp`` and fsynced.
   A crash here leaves the old image + WAL intact; recovery deletes the temp.
2. ``os.replace`` swaps the temp over the real file — atomic on POSIX and
   Windows — and the directory entry is fsynced so the rename itself is
   durable.  A crash *after* this point leaves a new image with an old-
   generation WAL; recovery sees the generation mismatch and resets the log
   instead of replaying records the image already contains.
3. The WAL is reset to the new generation (truncate + fresh header, fsynced).

Segment encoding reads the stored column vectors directly: no value is
converted, so a checkpoint is mostly compression and I/O.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ...errors import CorruptionError, PersistenceError
from . import faults
from . import format as format_mod
from .recovery import tmp_path_for
from .wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database import Database


@dataclass
class CheckpointStats:
    """Outcome of one checkpoint (surfaced by benchmarks and the server)."""

    generation: int
    seconds: float
    tables: int
    segments: int
    rows: int
    file_bytes: int
    wal_records_truncated: int
    #: Time spent writing + fsyncing the temp image (the bulk of the work;
    #: the remainder of ``seconds`` is the atomic swap + WAL reset).
    prepare_seconds: float = 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "generation": self.generation,
            "seconds": round(self.seconds, 6),
            "prepare_seconds": round(self.prepare_seconds, 6),
            "tables": self.tables,
            "segments": self.segments,
            "rows": self.rows,
            "file_bytes": self.file_bytes,
            "wal_records_truncated": self.wal_records_truncated,
        }


@dataclass
class PreparedCheckpoint:
    """A fully-written, fsynced temp image awaiting the atomic swap.

    Until :func:`commit_checkpoint` runs, nothing durable has changed: a
    failure while preparing (ENOSPC, encode error) leaves the old image and
    WAL authoritative, so the caller may simply retry later.  Failures
    *after* the swap are the dangerous ones — see the module docstring.
    """

    generation: int
    tmp_path: Path
    stats: format_mod.WriteStats
    started: float
    #: ``perf_counter`` reading when the temp image finished (fsync done).
    prepared_at: float = 0.0


def prepare_checkpoint(path: str | os.PathLike[str], database: "Database", *,
                       generation: int,
                       segment_rows: int = format_mod.DEFAULT_SEGMENT_ROWS,
                       codec: str = format_mod.DEFAULT_CODEC,
                       fs: faults.FileSystem | None = None
                       ) -> PreparedCheckpoint:
    """Write and fsync the next-generation image to ``<path>.tmp``."""
    started = time.perf_counter()
    fs = fs or faults.current_fs()
    quarantined = _quarantined_tables(database)
    if quarantined:
        # writing an image from a salvaged database would launder its NULL
        # placeholder rows into a "healthy" file; the corruption must be
        # dropped (DROP/TRUNCATE the affected tables) before a new image
        raise CorruptionError(
            f"cannot write a database image while tables have quarantined "
            f"row ranges: {', '.join(sorted(quarantined))} (drop or "
            "truncate them first)", table=sorted(quarantined)[0])
    tmp_path = tmp_path_for(path)
    try:
        with fs.open(tmp_path, "wb") as handle:
            stats = format_mod.write_database(
                handle, database.storage, database.catalog,
                generation=generation, segment_rows=segment_rows, codec=codec)
            handle.flush()
            fs.fsync(handle)
    except BaseException as exc:
        # nothing durable changed; don't leave a half-written temp around
        try:
            tmp_path.unlink()
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise PersistenceError(
                f"checkpoint image write to {tmp_path} failed ({exc}); the "
                "previous image and WAL remain authoritative — retryable"
            ) from exc
        raise
    return PreparedCheckpoint(generation=generation, tmp_path=tmp_path,
                              stats=stats, started=started,
                              prepared_at=time.perf_counter())


def _quarantined_tables(database: "Database") -> set[str]:
    storage = database.storage
    return {name for name in storage.table_names()
            if getattr(storage.table(name), "quarantined", None)}


def swap_image(path: str | os.PathLike[str],
               prepared: PreparedCheckpoint, *,
               fs: faults.FileSystem | None = None) -> None:
    """Atomically install the prepared image over the database file.

    This is the point of no return: before it, a failure leaves the old
    image + WAL authoritative (retryable); after it, the WAL is one
    generation behind the image and must be reset before any new append.
    """
    db_path = Path(path)
    fs = fs or faults.current_fs()
    try:
        fs.replace(prepared.tmp_path, db_path)
    except BaseException as exc:
        # nothing durable changed; drop the temp so recovery has no
        # leftovers to clean (best-effort: it may be what failed)
        try:
            prepared.tmp_path.unlink()
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise PersistenceError(
                f"atomic swap of {prepared.tmp_path} over {db_path} failed "
                f"({exc}); the previous image remains authoritative"
            ) from exc
        raise
    _fsync_directory(db_path.parent)


def reset_wal(prepared: PreparedCheckpoint,
              wal: WriteAheadLog) -> CheckpointStats:
    """Reset the WAL to the new image's generation (post-swap step)."""
    truncated = wal.records_appended
    wal.reset(prepared.generation)
    wal.records_appended = 0
    stats = prepared.stats
    return CheckpointStats(
        generation=prepared.generation,
        seconds=time.perf_counter() - prepared.started,
        tables=stats.tables,
        segments=stats.segments,
        rows=stats.rows,
        file_bytes=stats.file_bytes,
        wal_records_truncated=truncated,
        prepare_seconds=max(0.0, prepared.prepared_at - prepared.started),
    )


def commit_checkpoint(path: str | os.PathLike[str],
                      prepared: PreparedCheckpoint,
                      wal: WriteAheadLog) -> CheckpointStats:
    """Atomically swap the prepared image in, then reset the WAL."""
    swap_image(path, prepared)
    return reset_wal(prepared, wal)


def write_checkpoint(path: str | os.PathLike[str], database: "Database",
                     wal: WriteAheadLog, *, generation: int,
                     segment_rows: int = format_mod.DEFAULT_SEGMENT_ROWS,
                     codec: str = format_mod.DEFAULT_CODEC) -> CheckpointStats:
    """Convenience: prepare + commit in one call (tooling/tests)."""
    prepared = prepare_checkpoint(path, database, generation=generation,
                                  segment_rows=segment_rows, codec=codec)
    return commit_checkpoint(path, prepared, wal)


@dataclass
class BackupStats:
    """Outcome of one online backup (``BACKUP TO`` / ``Database.backup``)."""

    path: str
    generation: int
    seconds: float
    tables: int
    segments: int
    rows: int
    file_bytes: int

    def as_dict(self) -> dict[str, float | int | str]:
        return {
            "path": self.path,
            "generation": self.generation,
            "seconds": round(self.seconds, 6),
            "tables": self.tables,
            "segments": self.segments,
            "rows": self.rows,
            "file_bytes": self.file_bytes,
        }


def backup_to(target: str | os.PathLike[str], database: "Database", *,
              generation: int,
              segment_rows: int = format_mod.DEFAULT_SEGMENT_ROWS,
              codec: str = format_mod.DEFAULT_CODEC,
              fs: faults.FileSystem | None = None) -> BackupStats:
    """Write a consistent standalone image of ``database`` at ``target``.

    Exactly the checkpoint machinery pointed at a different path: the image
    is prepared at ``<target>.tmp`` (fsynced), then atomically renamed into
    place with the directory entry fsynced — so a crash mid-backup leaves
    either no target file or a complete one, never a half image that looks
    restorable, and the orphaned ``.tmp`` follows the same naming convention
    recovery already cleans up.  The backup carries the *next* generation:
    if it is ever copied over the live file, a leftover same-path WAL is
    recognised as stale and reset instead of being replayed over newer data.
    The live image, WAL, and store state are never touched — a failed backup
    leaves the store fully usable.
    """
    prepared = prepare_checkpoint(target, database, generation=generation,
                                  segment_rows=segment_rows, codec=codec,
                                  fs=fs)
    swap_image(target, prepared, fs=fs)
    stats = prepared.stats
    return BackupStats(
        path=str(target),
        generation=generation,
        seconds=time.perf_counter() - prepared.started,
        tables=stats.tables,
        segments=stats.segments,
        rows=stats.rows,
        file_bytes=stats.file_bytes,
    )


def _fsync_directory(directory: Path) -> None:
    """Make the rename durable; best-effort where directories can't be opened."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)
