"""Per-site durability: journal hooks, auto-checkpoint, recovery.

A :class:`DurabilityManager` sits between one site's
:class:`~repro.core.database.SensorDatabase` and disk.  Attached to a
database it receives every mutation record the database (and the
schema-evolution helpers) emit through the ``journal`` hook, appends
them to the site's :class:`~repro.durability.wal.WriteAheadLog`, and
every ``checkpoint_interval`` records snapshots the whole partition
via :mod:`~repro.durability.checkpoint` and rotates the log.

Recovery (:meth:`DurabilityManager.recover`) is the inverse: load the
newest loadable checkpoint, replay the WAL records past it in LSN
order, truncate any torn tail, and optionally re-validate cached
entries against a freshness bound -- a restarted site must not serve
cache contents as fresh that aged past their bound while it was dead.
Replay is idempotent at the log level: the database carries an
applied-LSN watermark and :func:`apply_record` skips any record at or
below it, so a crash *during* recovery (or a record that both the
checkpoint and the log cover) cannot double-apply a mutation.
"""

import os
import tempfile
import threading
import time

from repro.core.errors import CacheError, CoreError
from repro.core.idable import id_path_of
from repro.core.status import Status, get_status, get_timestamp, set_timestamp
from repro.durability.checkpoint import (
    latest_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from repro.durability.wal import WriteAheadLog
from repro.obs.tracing import TRACER
from repro.xmlkit.parser import parse_fragment
from repro.xmlkit.serializer import serialize

#: Snapshot generations a site keeps: the newest, and the one before it
#: in case the newest turns out unreadable.
KEEP_CHECKPOINTS = 2


class DurabilityError(Exception):
    """Durability subsystem misuse or unrecoverable state."""


def partition_fingerprint(database):
    """The canonical serialized form of one site's partition.

    Sorted attributes, memo bypassed: two databases holding the same
    information produce byte-identical fingerprints regardless of
    attribute insertion order or cache state.  This is the equality
    the recovery tests (and the acceptance criterion) are stated in.
    """
    return serialize(database.root, sort_attributes=True, use_cache=False)


class DurabilityConfig:
    """Tunables for the per-site durability managers.

    Pass it as ``Cluster(durability=...)`` to journal every site; not
    passing it leaves agents exactly as before this subsystem existed
    (no directory is touched).

    ``directory``
        root directory; each site journals under ``<directory>/<site>``.
        ``None`` creates a fresh temporary directory on first use.
    ``sync_every``
        fsync the WAL every N appended records (group commit); ``0``
        never fsyncs (flush-to-OS only -- fine for tests/benchmarks).
    ``checkpoint_interval``
        snapshot the partition and rotate the log every N records;
        ``0`` disables automatic checkpoints (explicit
        :meth:`DurabilityManager.checkpoint` calls only).
    ``revalidate_max_age``
        on recovery, evict cached (``complete``) entries whose data
        timestamp is older than this many seconds; ``None`` restores
        the cache verbatim.
    """

    def __init__(self, directory=None, sync_every=64,
                 checkpoint_interval=256, revalidate_max_age=None):
        self.directory = directory
        self.sync_every = sync_every
        self.checkpoint_interval = checkpoint_interval
        self.revalidate_max_age = revalidate_max_age
        self._lock = threading.Lock()

    def resolved_directory(self):
        """The root directory, creating a temporary one on first use."""
        with self._lock:
            if self.directory is None:
                self.directory = tempfile.mkdtemp(prefix="repro-durability-")
            return self.directory

    def site_directory(self, site_id):
        path = os.path.join(self.resolved_directory(), str(site_id))
        os.makedirs(path, exist_ok=True)
        return path

    def __repr__(self):
        return (f"DurabilityConfig(dir={self.directory!r}, "
                f"sync_every={self.sync_every}, "
                f"checkpoint_interval={self.checkpoint_interval})")


# ----------------------------------------------------------------------
# Record replay: one handler per record kind.  Handlers tolerate
# missing targets (a later record may have removed them); exactly-once
# application is the LSN watermark's job (see apply_record).
# ----------------------------------------------------------------------
def _path_from(raw):
    return tuple((entry[0], entry[1]) for entry in raw)


def _replay_update(database, record):
    element = database.apply_update(
        _path_from(record["path"]),
        attributes=record.get("attributes") or None,
        values=record.get("values") or None,
        require_owned=False,
        timestamp=record["ts"],
    )
    return element


def _replay_fragment(database, record):
    database.store_fragment(parse_fragment(record["xml"]))


def _replay_evict(database, record):
    path = _path_from(record["path"])
    element = database.find(path)
    if element is None or get_status(element) is Status.OWNED:
        return  # already gone with an ancestor, or re-owned later
    if record.get("keep_ids") and \
            get_status(element) is Status.ID_COMPLETE:
        return
    if not record.get("keep_ids") and \
            get_status(element) is Status.INCOMPLETE:
        return
    try:
        database.evict(path, keep_ids=bool(record.get("keep_ids")))
    except CacheError:
        pass  # an owned descendant appeared later in the log


def _replay_evict_all(database, record):
    database.evict_all_cached()


def _replay_mark_owned(database, record):
    element = database.find(_path_from(record["path"]))
    if element is None or get_status(element) is Status.OWNED:
        return
    database.mark_owned(_path_from(record["path"]))


def _replay_release_ownership(database, record):
    element = database.find(_path_from(record["path"]))
    if element is None or get_status(element) is not Status.OWNED:
        return
    database.release_ownership(_path_from(record["path"]))


def _replay_add_node(database, record):
    from repro.core.evolution import add_idable_child

    parent_path = _path_from(record["parent"])
    node_path = parent_path + ((record["tag"], record["id"]),)
    element = database.find(node_path)
    if element is None:
        element = add_idable_child(
            database, parent_path, record["tag"], record["id"],
            attributes=record.get("attributes") or None,
            values=record.get("values") or None,
        )
    # The original clock readings, not the replay-time ones.
    set_timestamp(element, record["node_ts"])
    parent = database.find(parent_path)
    if parent is not None:
        set_timestamp(parent, record["parent_ts"])


def _replay_remove_node(database, record):
    from repro.core.evolution import remove_idable_child

    path = _path_from(record["path"])
    if database.find(path) is not None:
        remove_idable_child(database, path)
    parent = database.find(path[:-1])
    if parent is not None:
        set_timestamp(parent, record["parent_ts"])


def _replay_rename_field(database, record):
    from repro.core.evolution import rename_field

    path = _path_from(record["path"])
    element = database.find(path)
    if element is None:
        return
    old = element.child(record["old"])
    if old is not None and old.id is None:
        rename_field(database, path, record["old"], record["new"])
    set_timestamp(element, record["ts"])


_REPLAYERS = {
    "update": _replay_update,
    "fragment": _replay_fragment,
    "evict": _replay_evict,
    "evict_all": _replay_evict_all,
    "mark_owned": _replay_mark_owned,
    "release_ownership": _replay_release_ownership,
    "add_node": _replay_add_node,
    "remove_node": _replay_remove_node,
    "rename_field": _replay_rename_field,
}


#: Attribute on the database tracking the highest LSN applied to it.
#: Idempotence is enforced here, at the log level, not per record
#: kind: a state-dependent mutation such as ``rename_field`` cannot
#: tell "already replayed" apart from "legitimately journalled again"
#: once later records have recreated the old field name, but the LSN
#: watermark can.
_APPLIED_LSN = "_durability_applied_lsn"


def apply_record(database, record):
    """Apply one WAL record to *database*, at most once per LSN.

    Records whose ``lsn`` is at or below the database's applied-LSN
    watermark are skipped (returns ``False``), so re-running a replay
    -- a recovery restarted after a second crash, or an operator
    replaying a log by hand -- never double-applies a mutation.
    Unknown kinds raise -- a log written by a newer build must fail
    loudly rather than silently skip mutations.
    """
    try:
        replay = _REPLAYERS[record["kind"]]
    except KeyError:
        raise DurabilityError(
            f"unknown WAL record kind {record.get('kind')!r} "
            f"(lsn {record.get('lsn')})") from None
    lsn = record.get("lsn")
    if lsn is not None:
        if lsn <= getattr(database, _APPLIED_LSN, -1):
            return False
        setattr(database, _APPLIED_LSN, lsn)
    replay(database, record)
    return True


class DurabilityManager:
    """One site's journal, checkpointer and recovery path.

    The agent takes it as a constructor argument -- it supplies the
    recovered database before the agent exists -- and then registers it
    like any subsystem (:mod:`repro.net.subsystem`): ``flush`` /
    ``close`` / ``abort`` / ``metrics`` are its hooks.
    """

    name = "durability"

    def __init__(self, config, site_id, clock=None):
        self.config = config
        self.site_id = site_id
        self.clock = clock or time.time
        self.directory = config.site_directory(site_id)
        self.database = None
        self._lock = threading.RLock()
        self._records_since_checkpoint = 0
        self.stats = {
            "records_appended": 0,
            "checkpoints_written": 0,
            "auto_checkpoints": 0,
            "recoveries": 0,
            "records_replayed": 0,
            "replay_skipped": 0,
            "torn_bytes_dropped": 0,
            "checkpoints_skipped": 0,
            "cache_entries_checked": 0,
            "cache_entries_expired": 0,
            "last_recovery_seconds": 0.0,
            "last_recovery_replayed": 0,
        }
        checkpoint_lsn, _root, _skipped = latest_checkpoint(self.directory)
        self._wal = WriteAheadLog(
            os.path.join(self.directory, "wal.log"),
            sync_every=config.sync_every,
            start_lsn=checkpoint_lsn,
        )
        self.stats["torn_bytes_dropped"] += \
            self._wal.stats["torn_bytes_dropped"]

    # ------------------------------------------------------------------
    # The journal hook (called by the database on every mutation)
    # ------------------------------------------------------------------
    def attach(self, database):
        """Start journalling *database*'s mutations into the WAL.

        A site attaching for the first time (no checkpoint on disk yet)
        snapshots its initial partition immediately: recovery always
        starts from a checkpoint, so the base state must be on disk
        before the first journalled mutation.
        """
        with self._lock:
            self.database = database
            database.journal = self.record
            if latest_checkpoint(self.directory)[1] is None:
                self._checkpoint_locked()

    def record(self, record):
        """Append one mutation record; auto-checkpoint on schedule."""
        with self._lock:
            self._wal.append(record)
            self.stats["records_appended"] += 1
            self._records_since_checkpoint += 1
            interval = self.config.checkpoint_interval
            if interval and self._records_since_checkpoint >= interval:
                self._checkpoint_locked()
                self.stats["auto_checkpoints"] += 1

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Snapshot the attached database and rotate the log."""
        with self._lock:
            if self.database is None:
                raise DurabilityError(
                    f"site {self.site_id!r}: no database attached")
            return self._checkpoint_locked()

    def _checkpoint_locked(self):
        lsn = self._wal.last_lsn
        with TRACER.span("durability-checkpoint", site=self.site_id,
                         tags={"lsn": lsn}):
            self._wal.flush(sync=True)
            path = write_checkpoint(self.directory, self.database.root,
                                    lsn, site_id=self.site_id,
                                    when=self.clock())
            self._wal.reset()
            prune_checkpoints(self.directory, KEEP_CHECKPOINTS)
        self._records_since_checkpoint = 0
        self.stats["checkpoints_written"] += 1
        return path

    def flush(self, sync=True):
        """Drain the WAL to disk (the graceful-shutdown step)."""
        with self._lock:
            self._wal.flush(sync=sync)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def has_state(self):
        """Whether this site left anything behind to recover from."""
        has_checkpoint = latest_checkpoint(self.directory)[1] is not None
        return has_checkpoint or bool(self._wal.recovered_records) or \
            self._wal.stats["appends"] > 0

    def recover(self, clock=None, site_id=None):
        """Rebuild the site database from checkpoint + log replay.

        Returns a fresh :class:`~repro.core.database.SensorDatabase`
        (not yet attached -- callers attach after recovery so replay
        itself is never re-journalled).
        """
        from repro.core.database import SensorDatabase

        started = time.perf_counter()
        site = site_id if site_id is not None else self.site_id
        with self._lock, TRACER.span("durability-recover", site=site):
            checkpoint_lsn, root, skipped = latest_checkpoint(self.directory)
            self.stats["checkpoints_skipped"] += skipped
            if root is None and not self._wal.recovered_records:
                raise DurabilityError(
                    f"site {site!r}: nothing to recover "
                    f"(no checkpoint, empty log)")
            if root is None:
                raise DurabilityError(
                    f"site {site!r}: log records without any checkpoint; "
                    "the initial partition snapshot is missing")
            database = SensorDatabase(root, clock=clock or self.clock,
                                      site_id=site)
            setattr(database, _APPLIED_LSN, checkpoint_lsn)
            replayed = skipped_records = 0
            with TRACER.span("durability-replay", site=site,
                             tags={"records":
                                   len(self._wal.recovered_records)}):
                for record in self._wal.recovered_records:
                    if record.lsn <= checkpoint_lsn:
                        skipped_records += 1
                        continue
                    apply_record(database, record)
                    replayed += 1
            expired = self._revalidate_cache(database)
            self.stats["recoveries"] += 1
            self.stats["records_replayed"] += replayed
            self.stats["replay_skipped"] += skipped_records
            self.stats["cache_entries_expired"] += expired
            self.stats["last_recovery_replayed"] = replayed
            self.stats["last_recovery_seconds"] = \
                time.perf_counter() - started
            self._records_since_checkpoint = len(
                [r for r in self._wal.recovered_records
                 if r.lsn > checkpoint_lsn])
            return database

    def _revalidate_cache(self, database):
        """Demote cached entries that aged past the freshness bound.

        A site that was dead for an hour must not present cache
        contents cached an hour ago as if they were fresh; with a
        configured ``revalidate_max_age`` every ``complete`` (cached,
        non-owned) node older than the bound is evicted back to a
        stub, exactly as the cache-consistency machinery would have
        done for a query with that freshness requirement.
        """
        max_age = self.config.revalidate_max_age
        if max_age is None:
            return 0
        now = (database.clock or self.clock)()
        stale = []
        for element in list(database.iter_idable()):
            if get_status(element) is not Status.COMPLETE:
                continue
            self.stats["cache_entries_checked"] += 1
            timestamp = get_timestamp(element)
            if timestamp is None or now - timestamp > max_age:
                stale.append(tuple(id_path_of(element)))
        expired = 0
        for path in stale:
            element = database.find(path)
            if element is None or \
                    get_status(element) is not Status.COMPLETE:
                continue  # evicted along with an ancestor already
            try:
                database.evict(path)
                expired += 1
            except (CacheError, CoreError):
                continue  # protects an owned descendant; keep it
        return expired

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, final_checkpoint=False):
        """Graceful shutdown: optional snapshot, then drain and close."""
        with self._lock:
            if final_checkpoint and self.database is not None and \
                    not self._wal.closed:
                self._checkpoint_locked()
            self._wal.close(sync=True)
            if self.database is not None and \
                    self.database.journal == self.record:
                self.database.journal = None

    def abort(self):
        """Crash-style teardown: no flush decisions, no checkpoint.

        What already reached the OS survives (every append is flushed),
        which is exactly the state a killed process leaves behind.
        """
        with self._lock:
            self._wal.close(sync=False)
            if self.database is not None and \
                    self.database.journal == self.record:
                self.database.journal = None
            self.database = None

    def metrics(self):
        """Snapshot for the metrics registry."""
        with self._lock:
            out = dict(self.stats)
            out["wal_bytes"] = self._wal.size_bytes() \
                if not self._wal.closed else 0
            out["wal_last_lsn"] = self._wal.last_lsn
            for key in ("flushes", "fsyncs"):
                out[f"wal_{key}"] = self._wal.stats[key]
            return out

    def __repr__(self):
        return (f"DurabilityManager(site={self.site_id!r}, "
                f"dir={self.directory!r}, "
                f"last_lsn={self._wal.last_lsn})")
