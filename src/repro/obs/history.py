"""Persistent run-history archive: every completed run, queryable forever.

The paper's claims are *comparative* (COMA vs hcoma vs NUMA, 6.25 % vs
87.5 % memory pressure), yet a metrics snapshot used to die with its
process.  This module is the seed of ROADMAP item 3's columnar result
store: an append-only, schema-versioned archive of every completed
:class:`~repro.experiments.runner.RunSpec` — counters, the
metrics-registry snapshot, span/phase attribution totals and the full
provenance manifest — keyed on ``RunSpec.key()`` and backed by stdlib
``sqlite3`` (one file, multi-writer safe, readable after a SIGKILL
mid-append thanks to sqlite's journal).

Write semantics (the PR 4 publication discipline, adapted to a table):

* appends run inside ``BEGIN IMMEDIATE`` transactions, so concurrent
  writers — parallel sweep workers, two CLI invocations, the serve
  layer — serialize instead of corrupting;
* re-recording a ``(key, content)`` pair already present is a **dedup**:
  the newcomer's metadata wins (last-writer-wins) but attribution blobs
  are kept via COALESCE, and no second row appears;
* the same key with *different* deterministic content (a changed
  simulator producing a new result under an unchanged CACHE_VERSION
  would be a bug, but the archive must not hide it) is preserved as a
  new **revision** of that key.

Connections are opened per call and closed immediately: the archive
object itself holds no file handle, so it is safe to share across
``fork()`` into sweep workers and across service executor threads.

This module is part of the deterministic core (DET lint): it never reads
the wall clock — ``recorded_at`` timestamps are passed in by the
unrestricted caller (the experiment runner's ``HistoryRecorder``), the
manifest pattern exactly.

Archives written before the bench rows were retired still carry a
``benches`` table.  It is neither read nor dropped, and the schema
number did not change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from contextlib import closing
from pathlib import Path
from typing import Optional, Union

#: Bump when the table layout changes; old archives refuse politely.
HISTORY_SCHEMA = 1

#: Default archive location (a directory, holding one sqlite file).
DEFAULT_HISTORY_DIR = ".repro_history"

#: Seconds a writer waits on a locked database before giving up.
_BUSY_TIMEOUT_S = 10.0

_RUN_COLUMNS = (
    "id", "key", "rev", "content_hash", "batch", "source", "cache",
    "recorded_at", "workload", "machine", "memory_pressure",
    "procs_per_node", "scale", "seed", "cache_version", "git_rev",
    "wall_time_s", "elapsed_ns",
)

_RUN_BLOBS = (
    "spec_json", "result_json", "metrics_json", "phases_json",
    "histograms_json", "top_spans_json", "manifest_json",
)

_SCHEMA_SQL = (
    """CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY, value TEXT NOT NULL)""",
    """CREATE TABLE IF NOT EXISTS runs (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        key TEXT NOT NULL,
        rev INTEGER NOT NULL DEFAULT 0,
        content_hash TEXT NOT NULL,
        batch TEXT,
        source TEXT NOT NULL DEFAULT 'run',
        cache TEXT NOT NULL DEFAULT 'miss',
        recorded_at TEXT,
        workload TEXT NOT NULL,
        machine TEXT NOT NULL,
        memory_pressure REAL NOT NULL,
        procs_per_node INTEGER NOT NULL,
        scale REAL NOT NULL,
        seed INTEGER NOT NULL,
        cache_version INTEGER,
        git_rev TEXT,
        wall_time_s REAL,
        elapsed_ns INTEGER NOT NULL,
        spec_json TEXT NOT NULL,
        result_json TEXT NOT NULL,
        metrics_json TEXT,
        phases_json TEXT,
        histograms_json TEXT,
        top_spans_json TEXT,
        manifest_json TEXT,
        UNIQUE (key, content_hash))""",
    """CREATE INDEX IF NOT EXISTS runs_by_key ON runs (key)""",
    """CREATE INDEX IF NOT EXISTS runs_by_batch ON runs (batch)""",
)


class HistoryArchiveError(Exception):
    """The archive is unreadable, locked beyond patience, or newer than
    this code's HISTORY_SCHEMA."""


def default_history_path() -> Path:
    """Archive file location: ``$REPRO_HISTORY_DIR/history.sqlite``
    (default ``.repro_history/``), resolved absolute so a later chdir
    cannot silently fork the history."""
    root = os.environ.get("REPRO_HISTORY_DIR", DEFAULT_HISTORY_DIR)
    return Path(root).absolute() / "history.sqlite"


def history_disabled() -> bool:
    """True when ``REPRO_NO_HISTORY`` disables default-path recording."""
    return bool(os.environ.get("REPRO_NO_HISTORY", ""))


def content_hash(spec: dict, result: dict) -> str:
    """Hash of the *deterministic* payload only — spec plus simulated
    result, never timestamps, wall times or attribution blobs — so a
    cache hit re-recorded later dedups against the original row."""
    payload = json.dumps({"result": result, "spec": spec}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def phase_totals(attribution) -> dict[str, int]:
    """Flatten a :class:`~repro.obs.spans.StallAttribution`'s
    proc -> op -> phase nanoseconds into archive-row phase totals."""
    totals: dict[str, int] = {}
    for by_op in attribution.phase_ns.values():
        for phases in by_op.values():
            for name, ns in phases.items():
                totals[name] = totals.get(name, 0) + ns
    return dict(sorted(totals.items()))


def _dump(obj) -> Optional[str]:
    return None if obj is None else json.dumps(obj, sort_keys=True)


def _load(text):
    return None if text is None else json.loads(text)


class HistoryArchive:
    """One sqlite-backed run archive (see the module docstring)."""

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.path = Path(path) if path is not None else default_history_path()

    # -- connection / schema -------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        con = sqlite3.connect(str(self.path), timeout=_BUSY_TIMEOUT_S)
        try:
            for stmt in _SCHEMA_SQL:
                con.execute(stmt)
            row = con.execute(
                "SELECT value FROM meta WHERE key = 'schema'").fetchone()
            if row is None:
                con.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES "
                    "('schema', ?)", (str(HISTORY_SCHEMA),))
                con.commit()
            elif int(row[0]) > HISTORY_SCHEMA:
                raise HistoryArchiveError(
                    f"{self.path} has schema {row[0]}; this code reads "
                    f"up to {HISTORY_SCHEMA}")
        except sqlite3.DatabaseError as exc:
            con.close()
            raise HistoryArchiveError(
                f"cannot open archive {self.path}: {exc}") from exc
        except Exception:
            con.close()
            raise
        return con

    # -- appends --------------------------------------------------------

    def record_run(
        self,
        *,
        key: str,
        spec: dict,
        result: dict,
        recorded_at: Optional[str] = None,
        source: str = "run",
        cache: str = "miss",
        batch: Optional[str] = None,
        cache_version: Optional[int] = None,
        git_rev: Optional[str] = None,
        wall_time_s: Optional[float] = None,
        metrics: Optional[dict] = None,
        phases: Optional[dict] = None,
        histograms: Optional[dict] = None,
        top_spans: Optional[list] = None,
        manifest: Optional[dict] = None,
    ) -> str:
        """Append one completed run; returns the outcome.

        ``"inserted"`` — first row for this key; ``"deduped"`` — a row
        with identical deterministic content already existed (its
        metadata is refreshed, blobs backfilled, no new row);
        ``"revision"`` — same key, different content: preserved as a new
        revision rather than silently overwritten.
        """
        chash = content_hash(spec, result)
        blobs = (_dump(metrics), _dump(phases), _dump(histograms),
                 _dump(top_spans), _dump(manifest))
        with closing(self._connect()) as con:
            try:
                con.execute("BEGIN IMMEDIATE")
                row = con.execute(
                    "SELECT id FROM runs WHERE key = ? AND content_hash = ?",
                    (key, chash)).fetchone()
                if row is not None:
                    con.execute(
                        "UPDATE runs SET "
                        "recorded_at = COALESCE(?, recorded_at), "
                        "source = ?, cache = ?, "
                        "batch = COALESCE(?, batch), "
                        "git_rev = COALESCE(?, git_rev), "
                        "wall_time_s = COALESCE(?, wall_time_s), "
                        "metrics_json = COALESCE(?, metrics_json), "
                        "phases_json = COALESCE(?, phases_json), "
                        "histograms_json = COALESCE(?, histograms_json), "
                        "top_spans_json = COALESCE(?, top_spans_json), "
                        "manifest_json = COALESCE(?, manifest_json) "
                        "WHERE id = ?",
                        (recorded_at, source, cache, batch, git_rev,
                         wall_time_s, *blobs, row[0]))
                    con.commit()
                    return "deduped"
                rev = con.execute(
                    "SELECT COALESCE(MAX(rev) + 1, 0) FROM runs "
                    "WHERE key = ?", (key,)).fetchone()[0]
                con.execute(
                    "INSERT INTO runs (key, rev, content_hash, batch, "
                    "source, cache, recorded_at, workload, machine, "
                    "memory_pressure, procs_per_node, scale, seed, "
                    "cache_version, git_rev, wall_time_s, elapsed_ns, "
                    "spec_json, result_json, metrics_json, phases_json, "
                    "histograms_json, top_spans_json, manifest_json) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
                    "?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (key, rev, chash, batch, source, cache, recorded_at,
                     str(spec.get("workload", "?")),
                     str(spec.get("machine", "coma")),
                     float(spec.get("memory_pressure", 0.0)),
                     int(spec.get("procs_per_node", 1)),
                     float(spec.get("scale", 1.0)),
                     int(spec.get("seed", 0)),
                     cache_version, git_rev, wall_time_s,
                     int(result.get("elapsed_ns", 0)),
                     json.dumps(spec, sort_keys=True),
                     json.dumps(result, sort_keys=True),
                     *blobs))
                con.commit()
                return "inserted" if rev == 0 else "revision"
            except sqlite3.IntegrityError:
                # Lost a (key, content) race despite BEGIN IMMEDIATE
                # (e.g. a retried transaction): the winner's row stands.
                con.rollback()
                return "deduped"
            except sqlite3.DatabaseError as exc:
                con.rollback()
                raise HistoryArchiveError(
                    f"append to {self.path} failed: {exc}") from exc

    # -- queries --------------------------------------------------------

    def _row_dict(self, row, with_blobs: bool) -> dict:
        d = dict(zip(_RUN_COLUMNS, row[:len(_RUN_COLUMNS)]))
        if with_blobs:
            blobs = row[len(_RUN_COLUMNS):]
            d["spec"] = _load(blobs[0])
            d["result"] = _load(blobs[1])
            d["metrics"] = _load(blobs[2])
            d["phases"] = _load(blobs[3])
            d["histograms"] = _load(blobs[4])
            d["top_spans"] = _load(blobs[5])
            d["manifest"] = _load(blobs[6])
        return d

    def list_runs(
        self,
        workload: Optional[str] = None,
        key: Optional[str] = None,
        batch: Optional[str] = None,
        limit: int = 50,
    ) -> list[dict]:
        """Newest-first run rows (metadata only, no JSON blobs)."""
        where, params = [], []
        if workload is not None:
            where.append("workload = ?")
            params.append(workload)
        if key is not None:
            where.append("key LIKE ?")
            params.append(key + "%")
        if batch is not None:
            where.append("batch = ?")
            params.append(batch)
        sql = f"SELECT {', '.join(_RUN_COLUMNS)} FROM runs"
        if where:
            sql += " WHERE " + " AND ".join(where)
        sql += " ORDER BY id DESC LIMIT ?"
        params.append(int(limit))
        with closing(self._connect()) as con:
            rows = con.execute(sql, params).fetchall()
        return [self._row_dict(r, with_blobs=False) for r in rows]

    def get_run(self, key: str, rev: Optional[int] = None) -> Optional[dict]:
        """One full row (blobs decoded) by key or unique key prefix.

        Without ``rev``, the newest revision of the key is returned.
        """
        sql = (
            f"SELECT {', '.join(_RUN_COLUMNS)}, {', '.join(_RUN_BLOBS)} "
            "FROM runs WHERE key LIKE ?"
        )
        params: list = [key + "%"]
        if rev is not None:
            sql += " AND rev = ?"
            params.append(int(rev))
        sql += " ORDER BY rev DESC, id DESC LIMIT 1"
        with closing(self._connect()) as con:
            row = con.execute(sql, params).fetchone()
        return None if row is None else self._row_dict(row, with_blobs=True)

    def run_count(self) -> int:
        with closing(self._connect()) as con:
            return con.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    # -- retention ------------------------------------------------------

    def gc(self, keep_revisions: int = 1, dry_run: bool = False) -> dict:
        """Trim superseded revisions, keeping the newest
        ``keep_revisions`` per key.  Returns the deletion count."""
        with closing(self._connect()) as con:
            con.execute("BEGIN IMMEDIATE")
            doomed = con.execute(
                "SELECT id FROM runs r WHERE (SELECT COUNT(*) FROM runs n "
                "WHERE n.key = r.key AND (n.rev > r.rev OR "
                "(n.rev = r.rev AND n.id > r.id))) >= ?",
                (max(1, int(keep_revisions)),)).fetchall()
            if not dry_run and doomed:
                con.executemany("DELETE FROM runs WHERE id = ?", doomed)
            con.commit()
            if not dry_run and doomed:
                con.execute("VACUUM")
        return {"runs_deleted": len(doomed), "dry_run": dry_run}

def format_history(rows: list[dict]) -> str:
    """Human table for ``coma-sim history list``."""
    out = [
        f"  {'key':<24} {'rev':>3} {'workload':<16} {'machine':<6} "
        f"{'mp':>6} {'elapsed_ns':>14} {'cache':>10}  {'source':<6} "
        f"recorded_at"
    ]
    for r in rows:
        out.append(
            f"  {r['key']:<24} {r['rev']:>3} {r['workload']:<16} "
            f"{r['machine']:<6} {r['memory_pressure']:>6.4g} "
            f"{r['elapsed_ns']:>14} {r['cache']:>10}  {r['source']:<6} "
            f"{r['recorded_at'] or '-'}"
        )
    return "\n".join(out)
