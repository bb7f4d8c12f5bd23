"""Durable, content-addressed result store for crash-safe sweeps.

A multi-hour sweep interrupted at spec 9,999 of 10,000 should not restart
from zero.  :class:`ResultStore` is the one result cache of
:class:`~repro.runner.batch.BatchRunner` (``store=``): every computed result
is committed as it arrives, and ``resume=True`` serves stored specs without
running them.  It sits on the smallest durable substrate the standard
library ships: **sqlite** (``":memory:"``, with ``resume=True``, for a cache
that lives as long as the process).

Design points:

* **Content addressing** — results key by :func:`store_key`, the full sha256
  of ``repr(spec)``.  Specs are frozen dataclasses with value-repr semantics,
  so the key is stable across processes, interpreters and machines; equal
  specs always map to the same row, which is what makes ``--resume``
  bit-identical by construction (the stored bytes *are* the result).
* **Atomic write-then-commit** — every :meth:`put` runs in its own
  transaction on a WAL-mode connection.  A SIGKILL between two puts loses at
  most the in-flight result, never corrupts the committed ones; readers (a
  ``store status`` in another terminal) never block the writer.
* **Schema versioning** — the ``meta`` table records ``schema_version``; a
  store written by any other layout raises :class:`StoreVersionError` instead
  of silently misreading rows or missing them.  v2 keys specs that no longer
  carry engine settings, so every v1 key differs: a v1 store would miss every
  row on resume.
* **Quarantine ledger** — specs the supervisor gives up on are recorded with
  their failure count and last traceback.  Quarantine rows are forensic, not
  authoritative: a later successful ``put`` of the same spec clears them, and
  resumed sweeps re-attempt quarantined specs (the fault may have been
  environmental).
* **Introspection** — :meth:`status` summarizes the store for the CLI
  (``store status``); :meth:`gc` prunes by age and clears quarantine rows
  (``store gc``), reclaiming space with ``VACUUM``.  :meth:`status` decodes
  every payload to count the corrupt ones, so only ``store status`` calls
  it; a sweep's closing line reads row counts alone (``len(store)`` and
  :meth:`quarantined`).

Payloads are pickled :class:`~repro.analysis.experiments.ScenarioResult`
objects, the same bytes a pool worker sends back over its pipe, so anything
a pool can run, the store can hold.  A traced result pickles as flat columns
rather than one object state per event: the trace's event log as four
columns, each correction history as its breakpoint arrays plus event
columns (see :mod:`repro.sim.trace`).  Compatibility is one way.  This build
reads payloads that earlier builds pickled with the default slot state
(``tests/data/slot_state_payload.pickle`` pins one), but an earlier build
cannot find the column reconstructors: it counts a corrupt read and re-runs
the spec.

A corrupt payload (torn disk, partial copy) reads as a *miss* — the spec
simply re-runs — but never a silent one: each is counted on
:attr:`ResultStore.corrupt_reads` and the ``resilient.store.corrupt``
telemetry counter, and ``store status`` reports the store-wide total
(:meth:`ResultStore.scan_corrupt`), so rot is distinguishable from a cold
cache.

Chaos: a :class:`~repro.runner.chaos.ChaosSchedule` with scheduled
``store_full_writes`` makes :meth:`put` raise ``OSError(ENOSPC)`` on exactly
those write indices — the deterministic stand-in for a disk filling up
mid-sweep (the runner treats it as non-fatal; the result still reaches the
caller and the spec re-runs on resume).
"""

from __future__ import annotations

import errno
import hashlib
import os
import pickle
import sqlite3
import time
from typing import Any, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .chaos import ChaosSchedule
    from .spec import RunSpec

__all__ = ["ResultStore", "StoreError", "StoreVersionError", "store_key",
           "SCHEMA_VERSION"]

#: the store layout this build reads and writes.  v2: store keys hash a
#: spec repr without engine fields (engine choice left the spec).
SCHEMA_VERSION = 2

#: tries at opening a store another process is creating at the same time.
_OPEN_ATTEMPTS = 50


class StoreError(RuntimeError):
    """A result-store operation failed (missing file, bad schema, ...)."""


class StoreVersionError(StoreError):
    """The store was written by a schema other than this build's."""


def store_key(spec: "RunSpec") -> str:
    """The full sha256 content hash of a spec (cross-process stable).

    The short manifest hash (:func:`repro.telemetry.spec_hash`) is this
    digest truncated to 16 characters, so manifest lines and store rows
    cross-reference by prefix.
    """
    return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()


class ResultStore:
    """A durable spec-hash -> ScenarioResult store on a single sqlite file.

    One writer (the sweep process) plus any number of concurrent readers.
    ``chaos`` (a :class:`~repro.runner.chaos.ChaosSchedule`) injects
    deterministic disk-full failures into :meth:`put` for the fault-injection
    tests; ``create=False`` refuses to conjure an empty store when the path
    does not exist (the CLI inspection commands want a loud miss).
    """

    def __init__(self, path: str, chaos: Optional["ChaosSchedule"] = None,
                 create: bool = True):
        self.path = str(path)
        self.chaos = chaos
        self._writes = 0
        self.corrupt_reads = 0
        if not create and self.path != ":memory:" \
                and not os.path.exists(self.path):
            raise StoreError(f"no result store at {self.path}")
        self._conn = sqlite3.connect(self.path)
        # Two processes opening a new store at once (a sweep, and a `store
        # status` beside it) race to switch it to WAL, and sqlite answers
        # the loser "database is locked" without waiting: retry briefly.
        for attempt in range(_OPEN_ATTEMPTS):
            try:
                self._init_schema()
                break
            except sqlite3.OperationalError as err:
                if "locked" not in str(err) or attempt + 1 == _OPEN_ATTEMPTS:
                    raise
                time.sleep(0.01)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _init_schema(self) -> None:
        # WAL keeps readers (status/monitoring) non-blocking and makes each
        # commit atomic under SIGKILL; NORMAL sync is durable to application
        # crash (the OS may lose the last commit on *power* loss, which a
        # resumable sweep tolerates by construction: the spec re-runs).
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " spec_hash TEXT PRIMARY KEY,"
                " spec TEXT NOT NULL,"
                " kind TEXT NOT NULL,"
                " n INTEGER NOT NULL,"
                " seed INTEGER NOT NULL,"
                " rounds INTEGER NOT NULL,"
                " created_at REAL NOT NULL,"
                " payload BLOB NOT NULL)")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS quarantine ("
                " spec_hash TEXT PRIMARY KEY,"
                " spec TEXT NOT NULL,"
                " failures INTEGER NOT NULL,"
                " last_error TEXT NOT NULL,"
                " traceback TEXT NOT NULL,"
                " updated_at REAL NOT NULL)")
            # OR IGNORE: an earlier or a concurrent opener may have written it.
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)))
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if int(row[0]) > SCHEMA_VERSION:
                raise StoreVersionError(
                    f"{self.path} uses store schema v{row[0]}; this build "
                    f"reads up to v{SCHEMA_VERSION} — upgrade the code, not "
                    f"the store")
            elif int(row[0]) < SCHEMA_VERSION:
                raise StoreVersionError(
                    f"{self.path} uses store schema v{row[0]}, whose keys "
                    f"this build (v{SCHEMA_VERSION}) cannot match, so a "
                    f"resume would re-run every spec; start a fresh store "
                    f"(a new --store path, without --resume)")

    @property
    def schema_version(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
        return int(row[0]) if row is not None else SCHEMA_VERSION

    # -- core operations -----------------------------------------------------
    def put(self, spec: "RunSpec", result: Any) -> str:
        """Durably store one result; atomic write-then-commit. Returns the key.

        A successful put clears any quarantine row for the spec (it evidently
        runs now).  With a chaos schedule, scheduled write indices raise
        ``OSError(ENOSPC)`` *before* touching the database — the sweep layer
        treats that as a degraded, non-fatal condition.
        """
        write_index = self._writes
        self._writes += 1
        if self.chaos is not None and self.chaos.disk_full(write_index):
            raise OSError(errno.ENOSPC,
                          f"chaos: simulated disk-full on store write "
                          f"{write_index}")
        key = store_key(spec)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO results "
                "(spec_hash, spec, kind, n, seed, rounds, created_at, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (key, spec.describe(), spec.kind, spec.params.n, spec.seed,
                 spec.rounds, time.time(), sqlite3.Binary(payload)))
            self._conn.execute("DELETE FROM quarantine WHERE spec_hash = ?",
                               (key,))
        return key

    def get(self, spec: "RunSpec") -> Optional[Any]:
        """The stored result for this spec, or ``None`` (misses include
        corrupt payloads — those specs simply re-run).

        A corrupt payload is still a miss, but a *counted* one: it bumps
        :attr:`corrupt_reads` and the ``resilient.store.corrupt`` telemetry
        counter, so a store rotting on disk is distinguishable from a cold
        one (which would otherwise look identical — all misses).
        """
        row = self._conn.execute(
            "SELECT payload FROM results WHERE spec_hash = ?",
            (store_key(spec),)).fetchone()
        if row is None:
            return None
        try:
            return pickle.loads(row[0])
        except Exception:
            self.corrupt_reads += 1
            from ..telemetry import get_active
            telemetry = get_active()
            if telemetry is not None:
                telemetry.registry.counter("resilient.store.corrupt").inc()
            return None

    def contains(self, spec: "RunSpec") -> bool:
        """Whether a result for this spec is stored (no payload decode)."""
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE spec_hash = ?",
            (store_key(spec),)).fetchone()
        return row is not None

    __contains__ = contains

    def __len__(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM results").fetchone()[0]

    def keys(self) -> List[str]:
        """Every stored spec hash, in insertion-time order."""
        return [row[0] for row in self._conn.execute(
            "SELECT spec_hash FROM results ORDER BY created_at")]

    # -- quarantine ledger ---------------------------------------------------
    def quarantine(self, spec: "RunSpec", failures: int, last_error: str,
                   traceback_text: str = "") -> None:
        """Record (upsert) a spec the supervisor gave up on."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO quarantine "
                "(spec_hash, spec, failures, last_error, traceback,"
                " updated_at) VALUES (?, ?, ?, ?, ?, ?)",
                (store_key(spec), spec.describe(), int(failures),
                 str(last_error), traceback_text, time.time()))

    def quarantined(self) -> List[Dict[str, Any]]:
        """Every quarantine record, most recent first."""
        rows = self._conn.execute(
            "SELECT spec_hash, spec, failures, last_error, traceback,"
            " updated_at FROM quarantine ORDER BY updated_at DESC")
        return [{"spec_hash": r[0], "spec": r[1], "failures": r[2],
                 "last_error": r[3], "traceback": r[4], "updated_at": r[5]}
                for r in rows]

    # -- introspection and maintenance ---------------------------------------
    def scan_corrupt(self) -> int:
        """Decode every stored payload; the number that fail to unpickle.

        This is the forensic complement of the per-``get`` counter: ``status``
        calls it so ``store status`` reports rot even in a process that never
        read the damaged rows (a monitoring terminal, say).
        """
        corrupt = 0
        for (payload,) in self._conn.execute("SELECT payload FROM results"):
            try:
                pickle.loads(payload)
            except Exception:
                corrupt += 1
        return corrupt

    def status(self) -> Dict[str, Any]:
        """A summary of the store: counts, kinds, size — `store status` data."""
        by_kind = dict(self._conn.execute(
            "SELECT kind, COUNT(*) FROM results GROUP BY kind ORDER BY kind"))
        span = self._conn.execute(
            "SELECT MIN(created_at), MAX(created_at) FROM results").fetchone()
        page_count = self._conn.execute("PRAGMA page_count").fetchone()[0]
        page_size = self._conn.execute("PRAGMA page_size").fetchone()[0]
        return {
            "path": self.path,
            "schema_version": self.schema_version,
            "results": len(self),
            "corrupt_payloads": self.scan_corrupt(),
            "quarantined": self._conn.execute(
                "SELECT COUNT(*) FROM quarantine").fetchone()[0],
            "by_kind": by_kind,
            "size_bytes": page_count * page_size,
            "oldest_created_at": span[0],
            "newest_created_at": span[1],
        }

    def gc(self, older_than: Optional[float] = None,
           clear_quarantine: bool = False, vacuum: bool = True) -> Dict[str, int]:
        """Prune the store; returns removal counts — `store gc` data.

        ``older_than`` removes results committed more than that many seconds
        ago; ``clear_quarantine`` drops the quarantine ledger (the specs will
        be re-attempted by the next resumed sweep either way); ``vacuum``
        compacts the file afterwards.
        """
        removed_results = 0
        removed_quarantine = 0
        with self._conn:
            if older_than is not None:
                if older_than < 0:
                    raise ValueError(f"older_than must be >= 0, "
                                     f"got {older_than}")
                cutoff = time.time() - older_than
                removed_results = self._conn.execute(
                    "DELETE FROM results WHERE created_at < ?",
                    (cutoff,)).rowcount
            if clear_quarantine:
                removed_quarantine = self._conn.execute(
                    "DELETE FROM quarantine").rowcount
        if vacuum:
            self._conn.execute("VACUUM")
        return {"removed_results": removed_results,
                "removed_quarantine": removed_quarantine}
