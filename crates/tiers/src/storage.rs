//! The MySQL storage engine: fixed-layout keyed rows executing the
//! interned mini-SQL dialect of [`crate::sql`].
//!
//! Each database replica holds "a full copy of the whole database (full
//! mirroring)" (paper §4.1), so the engine exposes a content digest used
//! by the consistency tests to prove that a late-joining replica converges
//! to the same state after recovery-log replay.
//!
//! Performance shape (the request hot path of every simulated RUBiS
//! interaction):
//!
//! * statements arrive pre-interned — no name hashing or lookup per
//!   request, table and column references are direct indices;
//! * rows are dense: keys are assigned monotonically and never reused, so
//!   a table is a `Vec<Option<SharedRow>>` indexed by key — `SelectByKey`
//!   is one bounds check;
//! * equality-filter columns declared in the [`crate::sql::Schema`] carry
//!   secondary hash indexes with key-sorted posting lists, making
//!   `SelectWhere` O(matches) while preserving the key-ordered,
//!   limit-truncated result the naive full scan produced;
//! * `Count` reads a maintained live-row counter;
//! * results share rows by `Arc` — no row contents are cloned; updates
//!   copy-on-write only when a result still holds the row.
//!
//! [`Database::digest`] reproduces the replaced name-keyed engine's digest
//! byte for byte (tables in name order, columns in name order, `Null`s
//! skipped), which is what lets `tests/storage_prop.rs` prove digest
//! parity against `jade_bench::NaiveDatabase`.
//!
//! Replication support (RAIDb-1 execute-once): a write executed through
//! [`Database::execute_capture`] additionally emits a [`WriteDelta`] — the
//! physical effect of the statement with its row image `Arc`-shared — and
//! [`Database::apply_delta`] replays that effect on a mirrored replica
//! without re-evaluating the statement, so the whole cluster performs one
//! row allocation per write. Tables are themselves `Arc`'d copy-on-write:
//! [`Database::snapshot`] is an O(#tables) checkpoint and
//! [`Database::from_snapshot`] an O(#tables) restore; a restored replica
//! deep-copies a table only when a later write actually touches it.

use crate::plan::{CompiledPlan, PlanStep, StepOp};
use crate::sql::{
    ColId, ExecSummary, QueryResult, Schema, SharedRow, SqlError, Statement, TableId, Value,
};
use jade_sim::{id_u16, DetHashMap};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One secondary index: filter value → keys of matching rows, kept
/// sorted ascending (keys are assigned monotonically, so insertion is an
/// O(1) push; only update/delete need a binary-searched removal). Uses
/// the workspace-wide deterministic fx hasher ([`jade_sim::det`]) — no
/// per-process random state, a few ns per value instead of SipHash's
/// tens. Posting lists are `Arc`'d so a copy-on-write table unshare
/// (first write after [`Database::snapshot`]) clones the map skeleton
/// but shares every posting allocation; only postings actually mutated
/// afterwards are copied.
type Index = DetHashMap<Value, Arc<Vec<u64>>>;

/// Rows per [`RowStore`] chunk. Small enough that unsharing one chunk
/// after a snapshot is cheap, large enough that the per-chunk `Arc`
/// overhead stays invisible next to the row allocations themselves.
const ROW_CHUNK: usize = 256;

/// Dense primary-key row storage in fixed-size `Arc`'d chunks.
///
/// Slot `k` holds the row with key `k`; deleted rows leave a hole (keys
/// are never reused, so the total slot count is the next key). Chunking
/// makes the store copy-on-write at chunk granularity: cloning it (the
/// first write to a table after [`Database::snapshot`]) copies
/// O(#chunks) pointers, and only chunks actually written afterwards are
/// deep-copied. A replica catching up from a checkpoint therefore does
/// work proportional to the delta tail it applies, not to table size.
#[derive(Debug, Clone, Default, PartialEq)]
struct RowStore {
    chunks: Vec<Arc<Vec<Option<SharedRow>>>>,
    /// Total slots across all chunks (== the next key).
    slots: usize,
}

impl RowStore {
    /// Appends a row at the next key.
    fn push(&mut self, row: SharedRow) {
        if self.slots.is_multiple_of(ROW_CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(ROW_CHUNK)));
        }
        let chunk = self.chunks.last_mut().expect("chunk just ensured");
        Arc::make_mut(chunk).push(Some(row));
        self.slots += 1;
    }

    /// The row at `key`, if present.
    fn get(&self, key: u64) -> Option<&SharedRow> {
        let k = key as usize;
        if k >= self.slots {
            return None;
        }
        self.chunks[k / ROW_CHUNK][k % ROW_CHUNK].as_ref()
    }

    /// Removes and returns the row at `key`. Checks occupancy through a
    /// shared reference first so a miss never unshares the chunk.
    // jade-audit: allow(hot-panic): chunk index k / ROW_CHUNK is in
    // bounds because the guard on the previous line rejects k >= slots,
    // and slots never exceeds chunks.len() * ROW_CHUNK.
    fn take(&mut self, key: u64) -> Option<SharedRow> {
        let k = key as usize;
        if k >= self.slots || self.chunks[k / ROW_CHUNK][k % ROW_CHUNK].is_none() {
            return None;
        }
        Arc::make_mut(&mut self.chunks[k / ROW_CHUNK])[k % ROW_CHUNK].take()
    }

    /// Stores `row` at `key` (slot must already exist).
    fn set(&mut self, key: u64, row: SharedRow) {
        let k = key as usize;
        Arc::make_mut(&mut self.chunks[k / ROW_CHUNK])[k % ROW_CHUNK] = Some(row);
    }

    /// Iterates `(key, row)` pairs in key order.
    fn iter(&self) -> impl Iterator<Item = (u64, &SharedRow)> {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .filter_map(move |(i, r)| r.as_ref().map(|r| ((c * ROW_CHUNK + i) as u64, r)))
        })
    }
}

/// One table: dense rows indexed directly by primary key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    created: bool,
    rows: RowStore,
    live: usize,
    /// Parallel to the schema's column list; `Some` for indexed columns.
    indexes: Vec<Option<Index>>,
}

impl Table {
    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates `(key, row)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SharedRow)> {
        self.rows.iter()
    }

    fn next_key(&self) -> u64 {
        self.rows.slots as u64
    }

    fn index_insert(&mut self, col: ColId, value: &Value, key: u64) {
        if value.is_null() {
            return;
        }
        if let Some(Some(idx)) = self.indexes.get_mut(col.0 as usize) {
            let posting = Arc::make_mut(idx.entry(value.clone()).or_default());
            debug_assert!(posting.last().is_none_or(|&last| last < key));
            posting.push(key);
        }
    }

    /// Inserts `key` into the posting list of `value`, preserving sort
    /// order (updates can introduce keys below the current maximum).
    fn index_insert_sorted(&mut self, col: ColId, value: &Value, key: u64) {
        if value.is_null() {
            return;
        }
        if let Some(Some(idx)) = self.indexes.get_mut(col.0 as usize) {
            let posting = Arc::make_mut(idx.entry(value.clone()).or_default());
            if let Err(pos) = posting.binary_search(&key) {
                posting.insert(pos, key);
            }
        }
    }

    fn index_remove(&mut self, col: ColId, value: &Value, key: u64) {
        if value.is_null() {
            return;
        }
        if let Some(Some(idx)) = self.indexes.get_mut(col.0 as usize) {
            if let Some(posting) = idx.get_mut(value) {
                let posting = Arc::make_mut(posting);
                if let Ok(pos) = posting.binary_search(&key) {
                    posting.remove(pos);
                }
                if posting.is_empty() {
                    idx.remove(value);
                }
            }
        }
    }
}

/// The physical effect of one write statement, captured by the replica
/// that executed it ([`Database::execute_capture`]) and applied verbatim
/// everywhere else ([`Database::apply_delta`]). Row images are
/// [`SharedRow`]s: broadcasting a delta to N mirrored replicas shares one
/// allocation cluster-wide instead of re-constructing the row N times.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteDelta {
    /// `CREATE TABLE` (idempotent, like the statement).
    CreateTable {
        /// Table created.
        table: TableId,
    },
    /// A row was inserted at `key` (always the table's next dense key).
    Insert {
        /// Table inserted into.
        table: TableId,
        /// Key the primary assigned (deterministic per-table counter).
        key: u64,
        /// The inserted row image, shared with the primary's slot.
        row: SharedRow,
    },
    /// The row at `key` was replaced by `row`. The index entries to move
    /// are found by comparing the applying replica's pre-image (identical
    /// to the primary's) with this post-image, so the delta carries no
    /// column list and cloning it is one row-`Arc` bump.
    Update {
        /// Table updated.
        table: TableId,
        /// Key of the updated row.
        key: u64,
        /// The full post-update row image, shared with the primary.
        row: SharedRow,
    },
    /// The row at `key` was removed.
    Delete {
        /// Table deleted from.
        table: TableId,
        /// Key of the removed row.
        key: u64,
    },
    /// The write affected nothing: an update/delete of a missing key, or
    /// a write that failed on the primary. Every storage error is raised
    /// before any mutation, so a failed write changed no replica either.
    Noop,
}

/// A copy-on-write checkpoint of a database's full contents: cloning,
/// taking and restoring are all O(#tables) reference bumps. A restored
/// replica shares every table with the snapshot until a write touches it
/// (`Arc::make_mut` then deep-copies just that table).
#[derive(Debug, Clone)]
pub struct Snapshot {
    schema: Arc<Schema>,
    tables: Vec<Arc<Table>>,
}

/// An in-memory relational database over an interned [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Database {
    schema: Arc<Schema>,
    /// Parallel to `schema`'s table list. Each table is `Arc`'d so
    /// snapshots and base-image restores share structure; the write path
    /// pays one pointer check (`Arc::make_mut`) per statement and a deep
    /// copy only on the first write after a snapshot was taken.
    tables: Vec<Arc<Table>>,
}

impl Database {
    /// Creates an empty database over `schema` (tables exist in the
    /// catalog but are not *created* until a `CREATE TABLE` executes).
    pub fn new(schema: Arc<Schema>) -> Self {
        let tables = (0..schema.len())
            .map(|_| Arc::new(Table::default()))
            .collect();
        Database { schema, tables }
    }

    /// Takes a copy-on-write checkpoint of the current contents.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            schema: Arc::clone(&self.schema),
            tables: self.tables.clone(),
        }
    }

    /// Materializes a database from a checkpoint (O(#tables); table
    /// contents stay shared with the snapshot until written).
    pub fn from_snapshot(snap: &Snapshot) -> Database {
        Database {
            schema: Arc::clone(&snap.schema),
            tables: snap.tables.clone(),
        }
    }

    /// The schema this database executes against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    #[cold]
    fn no_such_table(&self, table: TableId) -> SqlError {
        SqlError::NoSuchTable(self.schema.table_name(table).to_owned())
    }

    fn table_ref(&self, id: TableId) -> Result<&Table, SqlError> {
        match self.tables.get(id.0 as usize) {
            Some(t) if t.created => Ok(t),
            _ => Err(self.no_such_table(id)),
        }
    }

    /// Mutable access to a created table (copy-on-write: deep-copies the
    /// table only when a snapshot or base image still shares it).
    // jade-audit: allow(hot-panic): every caller validates the TableId
    // through table_ref on the preceding line; ids come from compiled
    // plans resolved against this same catalog.
    fn table_mut(&mut self, id: TableId) -> &mut Table {
        Arc::make_mut(&mut self.tables[id.0 as usize])
    }

    /// Executes a statement, materializing a [`QueryResult`] (row contents
    /// stay `Arc`-shared with the table).
    ///
    /// Key assignment is deterministic (per-table counter), so executing
    /// the same statement sequence on two replicas yields identical
    /// databases — the invariant C-JDBC's full-mirroring replication
    /// depends on.
    pub fn execute(&mut self, stmt: &Statement) -> Result<QueryResult, SqlError> {
        let mut rows = Vec::new();
        let summary = self.execute_into(stmt, &mut rows)?;
        Ok(match summary {
            ExecSummary::Ack {
                inserted_key,
                affected,
            } => QueryResult::Ack {
                inserted_key,
                affected,
            },
            ExecSummary::Rows(_) => QueryResult::Rows(rows),
            ExecSummary::Count(n) => QueryResult::Count(n),
        })
    }

    /// Executes a statement into a caller-owned row buffer (cleared
    /// first) — the allocation-free hot path each MySQL server drives
    /// with its reused scratch buffer.
    pub fn execute_into(
        &mut self,
        stmt: &Statement,
        out: &mut Vec<(u64, SharedRow)>,
    ) -> Result<ExecSummary, SqlError> {
        out.clear();
        match stmt {
            Statement::CreateTable { table } => {
                self.create_table(*table)?;
                Ok(ExecSummary::Ack {
                    inserted_key: None,
                    affected: 0,
                })
            }
            Statement::Insert { table, row } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                debug_assert_eq!(
                    row.len(),
                    t.indexes.len(),
                    "insert row width must match the table layout"
                );
                let key = t.next_key();
                for (ci, v) in row.iter().enumerate() {
                    t.index_insert(ColId(id_u16(ci)), v, key);
                }
                t.rows.push(Arc::new(row.clone()));
                t.live += 1;
                Ok(ExecSummary::Ack {
                    inserted_key: Some(key),
                    affected: 1,
                })
            }
            Statement::Update { table, key, set } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                // Take the row out of its slot so the table's reference
                // doesn't count against copy-on-write: `make_mut` clones
                // contents only when a query result still shares the row.
                let affected = match t.rows.take(*key) {
                    Some(mut shared) => {
                        for (col, v) in set {
                            let old = &shared[col.0 as usize];
                            if *old == *v {
                                continue;
                            }
                            let old = old.clone();
                            t.index_remove(*col, &old, *key);
                            t.index_insert_sorted(*col, v, *key);
                            Arc::make_mut(&mut shared)[col.0 as usize] = v.clone();
                        }
                        t.rows.set(*key, shared);
                        1
                    }
                    None => 0,
                };
                Ok(ExecSummary::Ack {
                    inserted_key: None,
                    affected,
                })
            }
            Statement::Delete { table, key } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                let removed = t.rows.take(*key);
                let affected = match removed {
                    Some(row) => {
                        t.live -= 1;
                        for (ci, v) in row.iter().enumerate() {
                            t.index_remove(ColId(id_u16(ci)), v, *key);
                        }
                        1
                    }
                    None => 0,
                };
                Ok(ExecSummary::Ack {
                    inserted_key: None,
                    affected,
                })
            }
            Statement::SelectByKey { table, key } => {
                let t = self.table_ref(*table)?;
                if let Some(row) = t.rows.get(*key) {
                    out.push((*key, Arc::clone(row)));
                }
                Ok(ExecSummary::Rows(out.len()))
            }
            Statement::SelectWhere {
                table,
                column,
                value,
                limit,
            } => {
                let t = self.table_ref(*table)?;
                // A NULL filter matches nothing (absent columns are not
                // equal to an explicit NULL — the historical engine never
                // stored them at all).
                if value.is_null() {
                    return Ok(ExecSummary::Rows(0));
                }
                match t.indexes.get(column.0 as usize) {
                    Some(Some(idx)) => {
                        if let Some(posting) = idx.get(value) {
                            for &key in posting.iter().take(*limit) {
                                let row = t.rows.get(key).expect("indexed row");
                                out.push((key, Arc::clone(row)));
                            }
                        }
                    }
                    _ => {
                        // Unindexed column: key-ordered scan, identical
                        // result order to the index path.
                        for (key, row) in t.iter() {
                            if out.len() >= *limit {
                                break;
                            }
                            if row[column.0 as usize] == *value {
                                out.push((key, Arc::clone(row)));
                            }
                        }
                    }
                }
                Ok(ExecSummary::Rows(out.len()))
            }
            Statement::Count { table } => {
                Ok(ExecSummary::Count(self.table_ref(*table)?.live as u64))
            }
        }
    }

    /// Executes one compiled-plan step into a caller-owned row buffer
    /// (cleared first) — the opcode counterpart of
    /// [`Database::execute_into`], with identical semantics per operation
    /// (the differential property suite proves result-for-result,
    /// error-for-error and digest-for-digest parity). The step's operands
    /// resolve against `params`, the request's typed parameter buffer.
    // jade-audit: allow(hot-panic, hot-alloc): column offsets come from
    // compiled plans resolved against this catalog, and index postings
    // only hold live row keys (the expect); the Arc::new/collect is the
    // one materialization of an inserted row, which downstream tiers and
    // replicas then share by reference.
    pub fn execute_step_into(
        &mut self,
        step: &PlanStep,
        params: &[Value],
        out: &mut Vec<(u64, SharedRow)>,
    ) -> Result<ExecSummary, SqlError> {
        out.clear();
        match &step.op {
            StepOp::ReadKey { table, key } => {
                let t = self.table_ref(*table)?;
                let k = key.resolve(params).as_key();
                if let Some(row) = t.rows.get(k) {
                    out.push((k, Arc::clone(row)));
                }
                Ok(ExecSummary::Rows(out.len()))
            }
            StepOp::Scan {
                table,
                column,
                value,
                limit,
            } => {
                let t = self.table_ref(*table)?;
                let value = value.resolve(params);
                // A NULL filter matches nothing (same rule as the
                // interpreted `SelectWhere`).
                if value.is_null() {
                    return Ok(ExecSummary::Rows(0));
                }
                match t.indexes.get(column.0 as usize) {
                    Some(Some(idx)) => {
                        if let Some(posting) = idx.get(value) {
                            for &key in posting.iter().take(*limit) {
                                let row = t.rows.get(key).expect("indexed row");
                                out.push((key, Arc::clone(row)));
                            }
                        }
                    }
                    _ => {
                        for (key, row) in t.iter() {
                            if out.len() >= *limit {
                                break;
                            }
                            if row[column.0 as usize] == *value {
                                out.push((key, Arc::clone(row)));
                            }
                        }
                    }
                }
                Ok(ExecSummary::Rows(out.len()))
            }
            StepOp::Count { table } => Ok(ExecSummary::Count(self.table_ref(*table)?.live as u64)),
            StepOp::Insert { table, row } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                debug_assert_eq!(
                    row.len(),
                    t.indexes.len(),
                    "insert row template width must match the table layout"
                );
                // The row materializes straight from template + params —
                // one allocation, no intermediate statement row.
                let shared: SharedRow =
                    Arc::new(row.iter().map(|o| o.resolve(params).clone()).collect());
                let key = t.next_key();
                for (ci, v) in shared.iter().enumerate() {
                    t.index_insert(ColId(id_u16(ci)), v, key);
                }
                t.rows.push(shared);
                t.live += 1;
                Ok(ExecSummary::Ack {
                    inserted_key: Some(key),
                    affected: 1,
                })
            }
            StepOp::Update { table, key, set } => {
                self.table_ref(*table)?;
                let k = key.resolve(params).as_key();
                let t = self.table_mut(*table);
                let affected = match t.rows.take(k) {
                    Some(mut shared) => {
                        for (col, operand) in set {
                            let v = operand.resolve(params);
                            let old = &shared[col.0 as usize];
                            if *old == *v {
                                continue;
                            }
                            let old = old.clone();
                            t.index_remove(*col, &old, k);
                            t.index_insert_sorted(*col, v, k);
                            Arc::make_mut(&mut shared)[col.0 as usize] = v.clone();
                        }
                        t.rows.set(k, shared);
                        1
                    }
                    None => 0,
                };
                Ok(ExecSummary::Ack {
                    inserted_key: None,
                    affected,
                })
            }
        }
    }

    /// Executes a compiled *write* step once, capturing its physical
    /// effect as a [`WriteDelta`] — the opcode counterpart of
    /// [`Database::execute_capture`], feeding the same execute-once
    /// broadcast path (primary captures, replicas apply).
    pub fn execute_step_capture(
        &mut self,
        step: &PlanStep,
        params: &[Value],
    ) -> Result<(ExecSummary, WriteDelta), SqlError> {
        debug_assert!(step.is_write(), "execute_step_capture is for writes only");
        match &step.op {
            StepOp::Insert { table, row } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                debug_assert_eq!(
                    row.len(),
                    t.indexes.len(),
                    "insert row template width must match the table layout"
                );
                let shared: SharedRow =
                    Arc::new(row.iter().map(|o| o.resolve(params).clone()).collect());
                let key = t.next_key();
                for (ci, v) in shared.iter().enumerate() {
                    t.index_insert(ColId(id_u16(ci)), v, key);
                }
                t.rows.push(Arc::clone(&shared));
                t.live += 1;
                Ok((
                    ExecSummary::Ack {
                        inserted_key: Some(key),
                        affected: 1,
                    },
                    WriteDelta::Insert {
                        table: *table,
                        key,
                        row: shared,
                    },
                ))
            }
            StepOp::Update { table, key, set } => {
                self.table_ref(*table)?;
                let k = key.resolve(params).as_key();
                let t = self.table_mut(*table);
                match t.rows.take(k) {
                    Some(mut shared) => {
                        for (col, operand) in set {
                            let v = operand.resolve(params);
                            let old = &shared[col.0 as usize];
                            if *old == *v {
                                continue;
                            }
                            let old = old.clone();
                            t.index_remove(*col, &old, k);
                            t.index_insert_sorted(*col, v, k);
                            Arc::make_mut(&mut shared)[col.0 as usize] = v.clone();
                        }
                        let image = Arc::clone(&shared);
                        t.rows.set(k, shared);
                        Ok((
                            ExecSummary::Ack {
                                inserted_key: None,
                                affected: 1,
                            },
                            WriteDelta::Update {
                                table: *table,
                                key: k,
                                row: image,
                            },
                        ))
                    }
                    None => Ok((
                        ExecSummary::Ack {
                            inserted_key: None,
                            affected: 0,
                        },
                        WriteDelta::Noop,
                    )),
                }
            }
            _ => unreachable!("execute_step_capture is for writes only"),
        }
    }

    /// Executes a *read* step as a pure count probe, without materializing
    /// any rows. Plan compilation proves the consumer discards row bodies
    /// (the RUBiS workload only ever observes the [`ExecSummary`] — demand
    /// accounting and outcome digests are summary-derived), so key reads
    /// reduce to a presence check and indexed scans to a posting-length
    /// probe: every posting entry maps to a live row (the materializing
    /// path `expect`s exactly that), hence the cardinality is
    /// `min(posting.len(), limit)`. The interpreter cannot perform this
    /// dead-value elimination on opaque `Statement` trees because its row
    /// buffer is part of the statement-level API contract. Summary parity
    /// with [`Database::execute_step_into`] is enforced by the
    /// differential property suite.
    // jade-audit: allow(hot-panic): column offsets come from compiled
    // plans resolved against this catalog, so row[column] is within the
    // table's fixed width.
    pub fn read_step_summary(
        &self,
        step: &PlanStep,
        params: &[Value],
    ) -> Result<ExecSummary, SqlError> {
        match &step.op {
            StepOp::ReadKey { table, key } => {
                let t = self.table_ref(*table)?;
                let k = key.resolve(params).as_key();
                Ok(ExecSummary::Rows(usize::from(t.rows.get(k).is_some())))
            }
            StepOp::Scan {
                table,
                column,
                value,
                limit,
            } => {
                let t = self.table_ref(*table)?;
                let value = value.resolve(params);
                if value.is_null() {
                    return Ok(ExecSummary::Rows(0));
                }
                let n = match t.indexes.get(column.0 as usize) {
                    Some(Some(idx)) => idx
                        .get(value)
                        .map_or(0, |posting| posting.len().min(*limit)),
                    _ => {
                        let mut n = 0usize;
                        for (_, row) in t.iter() {
                            if n >= *limit {
                                break;
                            }
                            if row[column.0 as usize] == *value {
                                n += 1;
                            }
                        }
                        n
                    }
                };
                Ok(ExecSummary::Rows(n))
            }
            StepOp::Count { table } => Ok(ExecSummary::Count(self.table_ref(*table)?.live as u64)),
            StepOp::Insert { .. } | StepOp::Update { .. } => {
                unreachable!("read_step_summary is for reads only")
            }
        }
    }

    /// Runs a whole compiled program in one call against this replica:
    /// write steps execute through the opcode write path, read steps run
    /// as count-only probes ([`Database::read_step_summary`]) since the
    /// program's consumers never observe row bodies; returns the
    /// accumulated result cardinality (a cheap checksum for benches and
    /// tests). Individual step errors are tolerated exactly like the
    /// dispatch path tolerates statement errors — the failed step
    /// contributes nothing.
    pub fn execute_plan(
        &mut self,
        plan: &CompiledPlan,
        params: &[Value],
        scratch: &mut Vec<(u64, SharedRow)>,
    ) -> u64 {
        let mut acc = 0u64;
        for step in &plan.steps {
            let summary = if step.is_write() {
                self.execute_step_into(step, params, scratch)
            } else {
                self.read_step_summary(step, params)
            };
            if let Ok(summary) = summary {
                acc += summary.cardinality();
            }
        }
        acc
    }

    /// Marks a catalog table created, building its secondary indexes
    /// (idempotent — shared by the statement and delta paths).
    #[cold]
    fn create_table(&mut self, table: TableId) -> Result<(), SqlError> {
        let t = self
            .tables
            .get_mut(table.0 as usize)
            .ok_or(SqlError::NoSuchTable("?".to_owned()))?;
        let t = Arc::make_mut(t);
        if !t.created {
            t.created = true;
            let def = self.schema.table(table).expect("table in catalog");
            t.indexes = vec![None; def.width()];
            for &col in def.indexed() {
                t.indexes[col.0 as usize] = Some(Index::default());
            }
        }
        Ok(())
    }

    /// Executes a *write* statement once, additionally capturing its
    /// physical effect as a [`WriteDelta`] for broadcast: the RAIDb-1
    /// primary runs this, every other replica runs
    /// [`Database::apply_delta`] on the result. The row image inside the
    /// delta is the same `Arc` installed in this database's slot.
    pub fn execute_capture(
        &mut self,
        stmt: &Statement,
    ) -> Result<(ExecSummary, WriteDelta), SqlError> {
        debug_assert!(stmt.is_write(), "execute_capture is for writes only");
        match stmt {
            Statement::CreateTable { table } => {
                self.create_table(*table)?;
                Ok((
                    ExecSummary::Ack {
                        inserted_key: None,
                        affected: 0,
                    },
                    WriteDelta::CreateTable { table: *table },
                ))
            }
            Statement::Insert { table, row } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                debug_assert_eq!(
                    row.len(),
                    t.indexes.len(),
                    "insert row width must match the table layout"
                );
                let key = t.next_key();
                for (ci, v) in row.iter().enumerate() {
                    t.index_insert(ColId(id_u16(ci)), v, key);
                }
                let shared: SharedRow = Arc::new(row.clone());
                t.rows.push(Arc::clone(&shared));
                t.live += 1;
                Ok((
                    ExecSummary::Ack {
                        inserted_key: Some(key),
                        affected: 1,
                    },
                    WriteDelta::Insert {
                        table: *table,
                        key,
                        row: shared,
                    },
                ))
            }
            Statement::Update { table, key, set } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                match t.rows.take(*key) {
                    Some(mut shared) => {
                        for (col, v) in set {
                            let old = &shared[col.0 as usize];
                            if *old == *v {
                                continue;
                            }
                            let old = old.clone();
                            t.index_remove(*col, &old, *key);
                            t.index_insert_sorted(*col, v, *key);
                            Arc::make_mut(&mut shared)[col.0 as usize] = v.clone();
                        }
                        let image = Arc::clone(&shared);
                        t.rows.set(*key, shared);
                        Ok((
                            ExecSummary::Ack {
                                inserted_key: None,
                                affected: 1,
                            },
                            WriteDelta::Update {
                                table: *table,
                                key: *key,
                                row: image,
                            },
                        ))
                    }
                    None => Ok((
                        ExecSummary::Ack {
                            inserted_key: None,
                            affected: 0,
                        },
                        WriteDelta::Noop,
                    )),
                }
            }
            Statement::Delete { table, key } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                match t.rows.take(*key) {
                    Some(row) => {
                        t.live -= 1;
                        for (ci, v) in row.iter().enumerate() {
                            t.index_remove(ColId(id_u16(ci)), v, *key);
                        }
                        Ok((
                            ExecSummary::Ack {
                                inserted_key: None,
                                affected: 1,
                            },
                            WriteDelta::Delete {
                                table: *table,
                                key: *key,
                            },
                        ))
                    }
                    None => Ok((
                        ExecSummary::Ack {
                            inserted_key: None,
                            affected: 0,
                        },
                        WriteDelta::Noop,
                    )),
                }
            }
            _ => unreachable!("execute_capture is for writes only"),
        }
    }

    /// Applies a captured [`WriteDelta`] to this replica without
    /// re-evaluating the originating statement. Deltas must be applied in
    /// log order onto a replica whose state matches the primary's at
    /// capture time (the RAIDb-1 full-mirroring invariant); row images are
    /// installed by reference, so the whole cluster shares one allocation
    /// per row.
    // jade-audit: allow(hot-panic): the delta was produced by the primary
    // against the same schema, so its column offsets are within the
    // replica's identical table widths.
    pub fn apply_delta(&mut self, delta: &WriteDelta) -> Result<(), SqlError> {
        match delta {
            WriteDelta::CreateTable { table } => self.create_table(*table),
            WriteDelta::Insert { table, key, row } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                debug_assert_eq!(*key, t.next_key(), "deltas apply in log order");
                for (ci, v) in row.iter().enumerate() {
                    t.index_insert(ColId(id_u16(ci)), v, *key);
                }
                t.rows.push(Arc::clone(row));
                t.live += 1;
                Ok(())
            }
            WriteDelta::Update { table, key, row } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                if let Some(old) = t.rows.take(*key) {
                    // The replica's pre-image equals the primary's, so the
                    // index entries to move are exactly the indexed columns
                    // whose value differs between pre- and post-image.
                    for ci in 0..t.indexes.len() {
                        if t.indexes[ci].is_some() && old[ci] != row[ci] {
                            let col = ColId(id_u16(ci));
                            t.index_remove(col, &old[ci], *key);
                            t.index_insert_sorted(col, &row[ci], *key);
                        }
                    }
                    t.rows.set(*key, Arc::clone(row));
                }
                Ok(())
            }
            WriteDelta::Delete { table, key } => {
                self.table_ref(*table)?;
                let t = self.table_mut(*table);
                if let Some(row) = t.rows.take(*key) {
                    t.live -= 1;
                    for (ci, v) in row.iter().enumerate() {
                        t.index_remove(ColId(id_u16(ci)), v, *key);
                    }
                }
                Ok(())
            }
            WriteDelta::Noop => Ok(()),
        }
    }

    /// Created-table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.schema
            .sorted_tables()
            .iter()
            .filter(|&&ti| self.tables[ti as usize].created)
            .map(|&ti| self.schema.table(TableId(ti)).expect("in catalog").name())
            .collect()
    }

    /// Looks up a created table by name.
    pub fn get_table(&self, name: &str) -> Option<&Table> {
        let id = self.schema.table_id(name)?;
        let t = &self.tables[id.0 as usize];
        t.created.then_some(t)
    }

    /// Total number of live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Content digest: equal digests ⇔ equal contents (up to hash
    /// collisions). Used to check replica convergence. Iteration order is
    /// stable over interned ids (tables and columns in name order, `Null`
    /// columns skipped), reproducing the replaced name-keyed engine's
    /// digest byte for byte.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for &ti in self.schema.sorted_tables() {
            let table = &self.tables[ti as usize];
            if !table.created {
                continue;
            }
            let def = self.schema.table(TableId(ti)).expect("in catalog");
            def.name().hash(&mut h);
            table.next_key().hash(&mut h);
            for (key, row) in table.iter() {
                key.hash(&mut h);
                for &ci in def.sorted_cols() {
                    match &row[ci as usize] {
                        Value::Null => {}
                        Value::Int(i) => {
                            def.column(ColId(ci)).hash(&mut h);
                            i.hash(&mut h);
                        }
                        Value::Text(s) => {
                            def.column(ColId(ci)).hash(&mut h);
                            s.hash(&mut h);
                        }
                    }
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::Value;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .table("users", &["name"])
            .table("t", &["a", "b"])
            .table("x", &["v"])
            .index("t", "a")
            .build()
    }

    fn db() -> Database {
        Database::new(schema())
    }

    #[test]
    fn crud_roundtrip() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("users")).unwrap();
        let r = db
            .execute(&schema.insert("users", &[("name", "alice".into())]))
            .unwrap();
        let key = match r {
            QueryResult::Ack {
                inserted_key: Some(k),
                ..
            } => k,
            other => panic!("unexpected {other:?}"),
        };
        // Read it back.
        let rows = db.execute(&schema.select_by_key("users", key)).unwrap();
        assert_eq!(rows.cardinality(), 1);
        // Update and verify.
        db.execute(&schema.update("users", key, &[("name", "bob".into())]))
            .unwrap();
        if let QueryResult::Rows(rows) = db
            .execute(&schema.select_where("users", "name", "bob".into(), 10))
            .unwrap()
        {
            assert_eq!(rows.len(), 1);
        } else {
            panic!("expected rows");
        }
        // Delete.
        db.execute(&schema.delete("users", key)).unwrap();
        assert_eq!(
            db.execute(&schema.count("users")).unwrap(),
            QueryResult::Count(0)
        );
    }

    #[test]
    fn missing_table_is_an_error() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        // "x" is in the catalog but was never created.
        assert_eq!(
            db.execute(&schema.count("x")),
            Err(SqlError::NoSuchTable("x".into()))
        );
    }

    #[test]
    fn create_table_is_idempotent() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        db.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        db.execute(&schema.create_table("t")).unwrap();
        assert_eq!(db.total_rows(), 1, "re-create must not wipe the table");
    }

    #[test]
    fn update_missing_row_affects_zero() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        let r = db
            .execute(&schema.update("t", 99, &[("a", Value::Int(1))]))
            .unwrap();
        assert_eq!(
            r,
            QueryResult::Ack {
                inserted_key: None,
                affected: 0
            }
        );
    }

    #[test]
    fn identical_statement_sequences_yield_identical_digests() {
        let schema = schema();
        let ins = |v: i64| schema.insert("t", &[("a", Value::Int(v))]);
        let stmts = vec![
            schema.create_table("t"),
            ins(1),
            ins(2),
            schema.delete("t", 0),
            ins(3),
        ];
        let mut a = db();
        let mut b = db();
        for s in &stmts {
            a.execute(s).unwrap();
            b.execute(s).unwrap();
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
        // Divergence is detected.
        b.execute(&ins(9)).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn keys_are_not_reused_after_delete() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        db.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        db.execute(&schema.delete("t", 0)).unwrap();
        let r = db
            .execute(&schema.insert("t", &[("a", Value::Int(2))]))
            .unwrap();
        assert_eq!(
            r,
            QueryResult::Ack {
                inserted_key: Some(1),
                affected: 1
            }
        );
    }

    #[test]
    fn indexed_and_scanned_selects_agree() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        for i in 0..20i64 {
            db.execute(&schema.insert("t", &[("a", Value::Int(i % 3)), ("b", Value::Int(i % 3))]))
                .unwrap();
        }
        // Column "a" is indexed, "b" is not; both hold i % 3, so the
        // index path and the scan path must return identical rows.
        let via_index = db
            .execute(&schema.select_where("t", "a", Value::Int(1), 4))
            .unwrap();
        let via_scan = db
            .execute(&schema.select_where("t", "b", Value::Int(1), 4))
            .unwrap();
        assert_eq!(via_index, via_scan);
        assert_eq!(via_index.cardinality(), 4);
        if let QueryResult::Rows(rows) = &via_index {
            let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec![1, 4, 7, 10], "key order with limit");
        }
    }

    #[test]
    fn index_tracks_updates_and_deletes() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        for _ in 0..3 {
            db.execute(&schema.insert("t", &[("a", Value::Int(7))]))
                .unwrap();
        }
        db.execute(&schema.update("t", 1, &[("a", Value::Int(8))]))
            .unwrap();
        db.execute(&schema.delete("t", 0)).unwrap();
        let hits = db
            .execute(&schema.select_where("t", "a", Value::Int(7), 10))
            .unwrap();
        assert_eq!(
            hits.cardinality(),
            1,
            "one row moved to 8, one deleted, one remains"
        );
        let moved = db
            .execute(&schema.select_where("t", "a", Value::Int(8), 10))
            .unwrap();
        assert_eq!(moved.cardinality(), 1);
    }

    #[test]
    fn null_filters_match_nothing() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        // Row with "b" absent (Null in the fixed layout).
        db.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        for col in ["a", "b"] {
            let r = db
                .execute(&schema.select_where("t", col, Value::Null, 10))
                .unwrap();
            assert_eq!(r.cardinality(), 0, "NULL filter on {col}");
        }
    }

    /// Runs `stmts` through a primary with `execute_capture`, mirroring
    /// each delta onto `replica`; returns the primary.
    fn mirror(stmts: &[Statement], replica: &mut Database) -> Database {
        let mut primary = db();
        for s in stmts {
            match primary.execute_capture(s) {
                Ok((_, delta)) => replica.apply_delta(&delta).unwrap(),
                Err(e) => {
                    // The replica re-derives the same error.
                    assert_eq!(replica.execute(s).unwrap_err(), e);
                }
            }
        }
        primary
    }

    #[test]
    fn delta_applied_replica_matches_reexecution() {
        let schema = schema();
        let stmts = vec![
            schema.create_table("t"),
            schema.insert("t", &[("a", Value::Int(1)), ("b", "x".into())]),
            schema.insert("t", &[("a", Value::Int(2))]),
            schema.update("t", 0, &[("a", Value::Int(2)), ("b", Value::Null)]),
            // No-op column set: the delta must not move index entries.
            schema.update("t", 1, &[("a", Value::Int(2))]),
            schema.delete("t", 0),
            // Missing-key update/delete capture as Noop.
            schema.update("t", 99, &[("a", Value::Int(5))]),
            schema.delete("t", 42),
            schema.insert("t", &[("a", Value::Int(3))]),
        ];
        let mut via_delta = db();
        let primary = mirror(&stmts, &mut via_delta);
        let mut reexecuted = db();
        for s in &stmts {
            let _ = reexecuted.execute(s);
        }
        assert_eq!(primary.digest(), reexecuted.digest());
        assert_eq!(via_delta.digest(), reexecuted.digest());
        assert_eq!(via_delta, reexecuted);
        // Index maintenance carried over: the indexed lookup agrees.
        let q = schema.select_where("t", "a", Value::Int(2), 10);
        assert_eq!(via_delta.execute(&q), reexecuted.execute(&q));
    }

    #[test]
    fn capture_shares_one_row_allocation_with_replicas() {
        let schema = schema();
        let mut primary = db();
        let mut r1 = db();
        let mut r2 = db();
        let (_, delta) = primary.execute_capture(&schema.create_table("t")).unwrap();
        r1.apply_delta(&delta).unwrap();
        r2.apply_delta(&delta).unwrap();
        let (_, delta) = primary
            .execute_capture(&schema.insert("t", &[("a", Value::Int(7))]))
            .unwrap();
        let row = match &delta {
            WriteDelta::Insert { row, .. } => Arc::clone(row),
            other => panic!("unexpected {other:?}"),
        };
        r1.apply_delta(&delta).unwrap();
        r2.apply_delta(&delta).unwrap();
        drop(delta);
        // primary + r1 + r2 + our probe hold the single allocation.
        assert_eq!(Arc::strong_count(&row), 4);
    }

    #[test]
    fn snapshot_restore_and_tail_converges() {
        let schema = schema();
        let mut primary = db();
        primary.execute(&schema.create_table("t")).unwrap();
        for i in 0..50i64 {
            primary
                .execute(&schema.insert("t", &[("a", Value::Int(i % 5))]))
                .unwrap();
        }
        let snap = primary.snapshot();
        // Writes after the checkpoint, captured as deltas.
        let mut tail = Vec::new();
        for i in 0..10i64 {
            let (_, d) = primary
                .execute_capture(&schema.insert("t", &[("a", Value::Int(100 + i))]))
                .unwrap();
            tail.push(d);
        }
        let (_, d) = primary.execute_capture(&schema.delete("t", 3)).unwrap();
        tail.push(d);
        // Joiner: restore + tail.
        let mut joiner = Database::from_snapshot(&snap);
        for d in &tail {
            joiner.apply_delta(d).unwrap();
        }
        assert_eq!(joiner.digest(), primary.digest());
        // The snapshot itself is unperturbed by both the primary's and
        // the joiner's post-checkpoint writes (copy-on-write).
        let frozen = Database::from_snapshot(&snap);
        assert_eq!(frozen.total_rows(), 50);
    }

    #[test]
    fn snapshot_is_cheap_and_isolated_from_later_writes() {
        let schema = schema();
        let mut a = db();
        a.execute(&schema.create_table("t")).unwrap();
        a.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        let snap = a.snapshot();
        let before = Database::from_snapshot(&snap).digest();
        a.execute(&schema.update("t", 0, &[("a", Value::Int(9))]))
            .unwrap();
        a.execute(&schema.insert("t", &[("a", Value::Int(2))]))
            .unwrap();
        assert_eq!(Database::from_snapshot(&snap).digest(), before);
        assert_ne!(a.digest(), before);
    }

    #[test]
    fn selects_share_rows_without_cloning_contents() {
        let schema = schema();
        let mut db = Database::new(Arc::clone(&schema));
        db.execute(&schema.create_table("t")).unwrap();
        db.execute(&schema.insert("t", &[("a", Value::Int(1))]))
            .unwrap();
        let held = match db.execute(&schema.select_by_key("t", 0)).unwrap() {
            QueryResult::Rows(rows) => rows[0].1.clone(),
            other => panic!("unexpected {other:?}"),
        };
        // An update while a result holds the row copies-on-write: the
        // held row keeps its old contents.
        db.execute(&schema.update("t", 0, &[("a", Value::Int(2))]))
            .unwrap();
        assert_eq!(held[0], Value::Int(1));
        let now = match db.execute(&schema.select_by_key("t", 0)).unwrap() {
            QueryResult::Rows(rows) => rows[0].1.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(now[0], Value::Int(2));
    }
}
