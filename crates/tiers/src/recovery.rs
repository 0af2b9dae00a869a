//! The C-JDBC recovery log (paper §4.1).
//!
//! "This recovery log is implemented as a particular database whose
//! purpose is to keep track of all the requests that affect the state of
//! the database. Basically, all write requests are logged and indexed as
//! strings in this recovery log. When a new server is inserted in the
//! clustered database … the recovery log enables us to know the exact set
//! of write requests to replay on this server to make it up-to-date. …
//! Symmetrically, removing a database replica is realized by keeping trace
//! of the state of this replica … stored as the index value … of the last
//! write request that it has executed before being disabled."
//!
//! Two refinements over the literal model:
//!
//! * an entry is the [`WriteDelta`] the primary captured when it executed
//!   the write — the written *state*, not a second copy of the statement —
//!   so replay applies physical effects instead of re-evaluating
//!   statements, and the string form is rendered from the delta only when
//!   diagnostics ask for it (never on the hot append path). A write that
//!   failed on the primary is logged as a no-effect entry: every storage
//!   error is raised before any mutation, so it failed identically on
//!   every replica;
//! * every [`RecoveryLog::snapshot_interval`] writes the log accepts a
//!   copy-on-write checkpoint [`Snapshot`] of the cluster state, so a
//!   joining backend receives {nearest snapshot, delta tail} — O(delta) —
//!   instead of replaying the entire history. The *simulated* resync
//!   latency still follows the full entry backlog ([`SyncPlan::backlog`]),
//!   keeping virtual-time trajectories identical to the full-replay
//!   implementation (the digest-neutral contract).

use crate::sql::{ColId, Schema, Statement};
use crate::storage::{Snapshot, WriteDelta};
use jade_sim::id_u16;
use std::sync::Arc;

/// A logged write: its global index and the physical delta the primary
/// captured. The delta holds its row image by `Arc`, shared with every
/// replica's slot, so logging a write allocates no row of its own.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Global write index (0-based, dense).
    pub index: u64,
    /// The primary's captured physical effect ([`WriteDelta::Noop`] when
    /// the write changed nothing, including a write that failed).
    pub delta: WriteDelta,
}

impl LogEntry {
    /// The rendered string form of the written state, produced on demand
    /// — the hot write path never renders. An update renders its full
    /// post-image (non-`NULL` columns); a no-effect entry renders as an
    /// SQL comment.
    pub fn render(&self, schema: &Schema) -> String {
        let stmt = match &self.delta {
            WriteDelta::CreateTable { table } => Statement::CreateTable { table: *table },
            WriteDelta::Insert { table, row, .. } => Statement::Insert {
                table: *table,
                row: row.to_vec(),
            },
            WriteDelta::Update { table, key, row } => Statement::Update {
                table: *table,
                key: *key,
                set: row
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_null())
                    .map(|(ci, v)| (ColId(id_u16(ci)), v.clone()))
                    .collect(),
            },
            WriteDelta::Delete { table, key } => Statement::Delete {
                table: *table,
                key: *key,
            },
            WriteDelta::Noop => return "-- no effect".to_owned(),
        };
        stmt.render(schema)
    }
}

/// What [`crate::cjdbc::CjdbcController::begin_enable`] hands a joining
/// backend: either the delta tail alone (applied onto the backend's
/// retained state) or the nearest checkpoint snapshot plus the shorter
/// tail past it.
#[derive(Debug, Clone, Default)]
pub struct SyncPlan {
    /// `(position, snapshot)`: replace the backend's state with the
    /// snapshot covering log entries `< position`, then apply `entries`.
    /// `None`: the backend's own state is current up to its checkpoint —
    /// apply `entries` directly.
    pub snapshot: Option<(u64, Snapshot)>,
    /// Delta tail to apply, in log order.
    pub entries: Vec<LogEntry>,
    /// The full entry count the literal statement-replay model would have
    /// transferred (`head - checkpoint`). The simulated resync latency is
    /// modeled on this, not on `entries.len()`, so switching a backend to
    /// the snapshot path never shifts virtual time.
    pub backlog: u64,
}

impl SyncPlan {
    /// True when the plan carries no state to transfer at all.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.entries.is_empty()
    }
}

/// How many writes the log accepts between checkpoint snapshots.
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 1024;

/// Append-only log of all writes accepted by the clustered database.
#[derive(Debug, Clone)]
pub struct RecoveryLog {
    schema: Arc<Schema>,
    entries: Vec<LogEntry>,
    /// Checkpoint snapshots at ascending log positions (a snapshot at
    /// position `p` covers entries `< p`).
    snapshots: Vec<(u64, Snapshot)>,
    snapshot_interval: u64,
}

impl RecoveryLog {
    /// Creates an empty log rendering against `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        RecoveryLog {
            schema,
            entries: Vec::new(),
            snapshots: Vec::new(),
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
        }
    }

    /// Appends a write's captured delta, returning its index.
    // jade-audit: allow(unbounded-growth): the recovery log intentionally
    // retains every write of the run — it is the replay source that
    // brings checkpointed replicas back in sync (paper's RAIDb-1
    // recovery); truncating it would break resync.
    pub fn append(&mut self, delta: WriteDelta) -> u64 {
        let index = self.entries.len() as u64;
        self.entries.push(LogEntry { index, delta });
        index
    }

    /// Index one past the last logged write (== number of writes).
    pub fn head(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Entries with `index >= from` in order — "the exact set of write
    /// requests to replay" on a stale replica whose checkpoint is `from`.
    pub fn entries_from(&self, from: u64) -> &[LogEntry] {
        let start = (from as usize).min(self.entries.len());
        &self.entries[start..]
    }

    /// Number of writes a replica checkpointed at `from` is missing.
    pub fn backlog(&self, from: u64) -> u64 {
        self.head().saturating_sub(from)
    }

    /// All rendered statements (diagnostics / persistence emulation),
    /// produced lazily — nothing is rendered until the iterator is
    /// consumed.
    pub fn rendered(&self) -> impl Iterator<Item = String> + '_ {
        self.entries.iter().map(|e| e.render(&self.schema))
    }

    // ------------------------------------------------------------------
    // Checkpoint snapshots
    // ------------------------------------------------------------------

    /// Writes between checkpoint snapshots.
    pub fn snapshot_interval(&self) -> u64 {
        self.snapshot_interval
    }

    /// Reconfigures the checkpoint cadence (tests and benches).
    pub fn set_snapshot_interval(&mut self, every: u64) {
        self.snapshot_interval = every.max(1);
    }

    /// True when enough writes accumulated since the last checkpoint that
    /// the caller should capture and [`RecoveryLog::install_snapshot`] a
    /// fresh one (the log itself holds no database state).
    pub fn snapshot_due(&self) -> bool {
        let last = self.snapshots.last().map(|(p, _)| *p).unwrap_or(0);
        self.head() >= last + self.snapshot_interval
    }

    /// Records a checkpoint snapshot of the cluster state at the current
    /// head (the snapshot must reflect every logged write).
    pub fn install_snapshot(&mut self, snapshot: Snapshot) {
        let pos = self.head();
        debug_assert!(self.snapshots.last().is_none_or(|(p, _)| *p <= pos));
        self.snapshots.push((pos, snapshot));
    }

    /// Number of checkpoint snapshots retained.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// The most advanced snapshot strictly past `from`, if any (a
    /// snapshot at or before `from` adds nothing over the backend's own
    /// retained state).
    pub fn nearest_snapshot(&self, from: u64) -> Option<&(u64, Snapshot)> {
        self.snapshots.iter().rev().find(|(p, _)| *p > from)
    }

    /// Builds the cheapest reconciliation plan for a backend checkpointed
    /// at `from`: nearest snapshot + delta tail when a snapshot would
    /// skip work, the plain tail otherwise. `backlog` always reflects the
    /// full `head - from` (see [`SyncPlan::backlog`]).
    pub fn sync_plan(&self, from: u64) -> SyncPlan {
        let backlog = self.backlog(from);
        match self.nearest_snapshot(from) {
            Some((pos, snap)) => SyncPlan {
                snapshot: Some((*pos, snap.clone())),
                entries: self.entries_from(*pos).to_vec(),
                backlog,
            },
            None => SyncPlan {
                snapshot: None,
                entries: self.entries_from(from).to_vec(),
                backlog,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::Value;
    use crate::storage::Database;

    fn schema() -> Arc<Schema> {
        Schema::builder().table("t", &["a", "b"]).build()
    }

    /// A database with `t` created, and the log of that create.
    fn setup() -> (Database, RecoveryLog) {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        let mut log = RecoveryLog::new(Arc::clone(&schema));
        log.append(capture(&mut db, &schema.create_table("t")));
        (db, log)
    }

    fn capture(db: &mut Database, stmt: &Statement) -> WriteDelta {
        db.execute_capture(stmt)
            .map_or(WriteDelta::Noop, |(_, d)| d)
    }

    fn w(i: i64) -> Statement {
        schema().insert("t", &[("a", Value::Int(i))])
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        let mut log = RecoveryLog::new(schema());
        assert_eq!(log.append(WriteDelta::Noop), 0);
        assert_eq!(log.append(WriteDelta::Noop), 1);
        assert_eq!(log.head(), 2);
        let tail = log.entries_from(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].index, 1);
        assert_eq!(log.backlog(0), 2);
        assert_eq!(log.backlog(2), 0);
        assert_eq!(log.backlog(99), 0);
    }

    #[test]
    fn entries_render_the_written_state() {
        let schema = schema();
        let (mut db, mut log) = setup();
        log.append(capture(&mut db, &w(7)));
        log.append(capture(
            &mut db,
            &schema.update("t", 0, &[("b", Value::Int(3))]),
        ));
        log.append(capture(
            &mut db,
            &schema.update("t", 9, &[("b", Value::Int(3))]),
        ));
        log.append(capture(
            &mut db,
            &Statement::Delete {
                table: schema.must_table("t"),
                key: 0,
            },
        ));
        let rendered: Vec<String> = log.rendered().collect();
        assert_eq!(
            rendered,
            [
                "CREATE TABLE t",
                "INSERT INTO t SET a=7",
                // The post-image, not the statement: `a` is state too.
                "UPDATE t SET a=7, b=3 WHERE id=0",
                "-- no effect",
                "DELETE FROM t WHERE id=0",
            ]
        );
    }

    #[test]
    fn snapshot_cadence_and_nearest_lookup() {
        let (mut db, mut log) = setup();
        log.set_snapshot_interval(4);
        for i in 0..9 {
            log.append(capture(&mut db, &w(i)));
            if log.snapshot_due() {
                log.install_snapshot(db.snapshot());
            }
        }
        // 10 entries (create + 9 inserts): snapshots at positions 4 and 8.
        assert_eq!(log.snapshot_count(), 2);
        assert_eq!(log.nearest_snapshot(0).map(|(p, _)| *p), Some(8));
        assert_eq!(log.nearest_snapshot(7).map(|(p, _)| *p), Some(8));
        assert_eq!(log.nearest_snapshot(8).map(|(p, _)| *p), None);
        assert_eq!(log.nearest_snapshot(99).map(|(p, _)| *p), None);
    }

    #[test]
    fn sync_plan_prefers_snapshot_but_reports_full_backlog() {
        let (mut db, mut log) = setup();
        log.set_snapshot_interval(4);
        for i in 0..5 {
            log.append(capture(&mut db, &w(i)));
            if log.snapshot_due() {
                log.install_snapshot(db.snapshot());
            }
        }
        // Fresh joiner (checkpoint 0): snapshot at 4 + tail of 2, but the
        // latency model still sees all 6 entries.
        let plan = log.sync_plan(0);
        assert_eq!(plan.snapshot.as_ref().map(|(p, _)| *p), Some(4));
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.backlog, 6);
        // Snapshot + tail reproduces the primary.
        let (_, snap) = plan.snapshot.as_ref().unwrap();
        let mut joiner = Database::from_snapshot(snap);
        for e in &plan.entries {
            joiner.apply_delta(&e.delta).unwrap();
        }
        assert_eq!(joiner.digest(), db.digest());
        // A backend checkpointed past the snapshot gets the plain tail.
        let plan = log.sync_plan(5);
        assert!(plan.snapshot.is_none());
        assert_eq!(plan.entries.len(), 1);
        assert_eq!(plan.backlog, 1);
        // Fully current: empty plan.
        assert!(log.sync_plan(6).is_empty());
    }
}
