//! Database catalog: tables, indexes, columnstores, and the shared storage
//! services (buffer pool, WAL, lock manager, latches).
//!
//! A [`Database`] is shared among simulated tasks via `Rc<RefCell<_>>`;
//! the discrete-event kernel serializes all execution, so no finer locking
//! is needed.

use crate::cost::EngineCost;
use dbsens_storage::btree::{BTree, RowId};
use dbsens_storage::bufferpool::BufferPool;
use dbsens_storage::columnstore::ColumnStore;
use dbsens_storage::heap::HeapTable;
use dbsens_storage::lock::TxnId;
use dbsens_storage::lock::{LatchTable, LockManager};
use dbsens_storage::physical::{ColumnstoreLayout, IndexLayout, ModelSpace, TableLayout};
use dbsens_storage::schema::Schema;
use dbsens_storage::value::{Key, Row, Value};
use dbsens_storage::wal::{ClrAction, Lsn, Wal, WalRecord};

/// Identifier of a table within a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub usize);

/// A secondary B-tree index.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name.
    pub name: String,
    /// Key column positions in the base table.
    pub key_cols: Vec<usize>,
    /// The logical tree.
    pub btree: BTree,
    /// Paper-scale physical layout.
    pub layout: IndexLayout,
}

impl Index {
    /// Extracts this index's key from a base-table row.
    pub fn key_of(&self, row: &Row) -> Key {
        Key::from_values(self.key_cols.iter().map(|&c| row[c].clone()).collect())
    }
}

/// A columnstore index over a table.
#[derive(Debug, Clone)]
pub struct ColumnStoreIndex {
    /// The logical store.
    pub store: ColumnStore,
    /// Paper-scale physical layout.
    pub layout: ColumnstoreLayout,
}

/// A table: logical heap plus paper-scale layout and secondary structures.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table id (used in lock keys).
    pub id: u32,
    /// Table name.
    pub name: String,
    /// Logical rows.
    pub heap: HeapTable,
    /// Paper-scale layout of the base heap/clustered index.
    pub layout: TableLayout,
    /// Secondary B-tree indexes.
    pub indexes: Vec<Index>,
    /// Optional (non-clustered) columnstore index.
    pub columnstore: Option<ColumnStoreIndex>,
}

impl Table {
    /// Finds an index by name.
    ///
    /// # Panics
    ///
    /// Panics if no such index exists (catalog lookups are static).
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, name: &str) -> &Index {
        self.indexes
            .iter()
            .find(|i| i.name == name)
            .unwrap_or_else(|| panic!("no index {name} on {}", self.name))
    }

    /// Index position by name.
    pub fn index_pos(&self, name: &str) -> usize {
        self.indexes
            .iter()
            .position(|i| i.name == name)
            .unwrap_or_else(|| panic!("no index {name} on {}", self.name))
    }
}

/// One undoable operation on a transaction's in-memory undo chain (the
/// active-transaction table keeps these so rollback and the recovery undo
/// pass can reverse losers without re-reading the log).
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// An insert; undone by removing the row.
    Insert {
        /// Table the row went into.
        table: TableId,
        /// Row id the insert produced.
        rid: RowId,
    },
    /// An update; undone by restoring the before image.
    Update {
        /// Table of the row.
        table: TableId,
        /// Row id.
        rid: RowId,
        /// Row image before the update.
        before: Row,
    },
    /// A delete; undone by reinserting the row at its original id.
    Delete {
        /// Table the row came from.
        table: TableId,
        /// Row id it occupied.
        rid: RowId,
        /// The deleted row.
        row: Row,
    },
}

/// The database: catalog plus shared storage services.
///
/// # Examples
///
/// ```
/// use dbsens_engine::db::Database;
/// use dbsens_storage::schema::{ColType, Schema};
/// use dbsens_storage::value::Value;
///
/// let mut db = Database::new(1000.0, 1 << 30);
/// let schema = Schema::new(&[("id", ColType::Int), ("v", ColType::Int)]);
/// let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int(i), Value::Int(i * 2)]).collect();
/// let t = db.create_table("demo", schema, rows);
/// db.create_index(t, "pk", &[0]);
/// assert_eq!(db.table(t).heap.len(), 100);
/// // Paper-scale footprint: 100 logical rows model 100k rows.
/// assert_eq!(db.table(t).layout.modeled_rows(), 100_000);
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    /// Modeled rows per logical row (uniform across tables so intermediate
    /// cardinalities scale consistently).
    pub row_scale: f64,
    tables: Vec<Table>,
    /// Modeled page/region allocator.
    pub space: ModelSpace,
    /// Page residency tracker.
    pub bufferpool: BufferPool,
    /// Write-ahead log.
    pub wal: Wal,
    /// Row/key lock manager.
    pub locks: LockManager,
    /// Short-term latch table.
    pub latches: LatchTable,
    /// Cost calibration.
    pub cost: EngineCost,
    next_txn: u64,
    dirty_pages: dbsens_hwsim::fx::FxHashSet<u64>,
    session_region: dbsens_hwsim::mem::Region,
    batch_region: dbsens_hwsim::mem::Region,
    /// Transactions whose owning task is stuck in fault recovery while
    /// holding locks (candidates for deadlock victimization).
    stalled_txns: dbsens_hwsim::fx::FxHashSet<dbsens_storage::lock::TxnId>,
    /// Transactions the lock monitor has chosen as deadlock victims; their
    /// owning task must abort instead of continuing.
    victim_txns: dbsens_hwsim::fx::FxHashSet<dbsens_storage::lock::TxnId>,
    /// Active-transaction table (crash-consistency mode only): per live
    /// transaction, the LSN-stamped undo chain of its data operations.
    att: std::collections::BTreeMap<TxnId, Vec<(Lsn, UndoOp)>>,
    /// Dirty page table (crash-consistency mode only): modeled page →
    /// recLSN, the LSN that first dirtied it since its last write-back.
    dirty_page_lsns: std::collections::BTreeMap<u64, u64>,
    /// Checkpoint snapshots (crash-consistency mode only): the persisted
    /// table state at each checkpoint record, keyed by that record's LSN.
    /// Index 0 is the initial state (LSN 0). Snapshots model the on-disk
    /// pages a durable checkpoint guarantees; recovery redoes forward from
    /// the newest snapshot whose checkpoint record survives in the durable
    /// log. They hold no log bytes and no volatile state (see
    /// [`Database::checkpoint_snapshot`]).
    snapshots: Vec<(u64, Box<Database>)>,
    /// Reusable buffer for snapshotting index key columns in
    /// [`Database::update_row`].
    keycol_scratch: Vec<Value>,
}

impl Database {
    /// Creates an empty database with the given logical-to-modeled row
    /// scale and buffer pool capacity in bytes.
    pub fn new(row_scale: f64, bufferpool_bytes: u64) -> Self {
        let mut space = ModelSpace::new();
        let session_region = space.alloc_region();
        let batch_region = space.alloc_region();
        Database {
            row_scale,
            tables: Vec::new(),
            space,
            bufferpool: BufferPool::new(bufferpool_bytes),
            wal: Wal::new(),
            locks: LockManager::new(),
            latches: LatchTable::new(),
            cost: EngineCost::default(),
            next_txn: 0,
            dirty_pages: dbsens_hwsim::fx::fx_set(),
            session_region,
            batch_region,
            stalled_txns: dbsens_hwsim::fx::fx_set(),
            victim_txns: dbsens_hwsim::fx::fx_set(),
            att: std::collections::BTreeMap::new(),
            dirty_page_lsns: std::collections::BTreeMap::new(),
            snapshots: Vec::new(),
            keycol_scratch: Vec::new(),
        }
    }

    /// Turns on crash-consistency mode: the WAL captures typed logical
    /// records, DML goes through the `*_logged` variants, checkpoints become
    /// fuzzy ARIES checkpoints, and the initial state is snapshotted as the
    /// recovery base. Must be called before any logged work.
    pub fn enable_crash_consistency(&mut self) {
        self.wal.enable_capture();
        if self.snapshots.is_empty() {
            self.snapshots
                .push((0, Box::new(self.checkpoint_snapshot())));
        }
    }

    /// Whether crash-consistency (logical logging) mode is on.
    pub fn crash_consistency(&self) -> bool {
        self.wal.capture_enabled()
    }

    /// The persisted state a checkpoint snapshots: tables, page layout,
    /// buffer pool and catalog counters. The log is not copied — it lives
    /// once, in this database's [`Wal`], and recovery installs the durable
    /// log over the snapshot — so the snapshot gets an empty log with
    /// capture on ([`Database::crash_consistency`] holds, and deletes keep
    /// ghost slots). Locks, latches, stall/victim marks, the ATT and the
    /// dirty page table are volatile ([`Database::clear_recovery_state`]
    /// wipes them at restart) and start empty, as do nested snapshots.
    fn checkpoint_snapshot(&self) -> Database {
        let mut wal = Wal::new();
        wal.enable_capture();
        Database {
            row_scale: self.row_scale,
            tables: self.tables.clone(),
            space: self.space.clone(),
            bufferpool: self.bufferpool.clone(),
            wal,
            locks: LockManager::new(),
            latches: LatchTable::new(),
            cost: self.cost.clone(),
            next_txn: self.next_txn,
            dirty_pages: dbsens_hwsim::fx::fx_set(),
            session_region: self.session_region,
            batch_region: self.batch_region,
            stalled_txns: dbsens_hwsim::fx::fx_set(),
            victim_txns: dbsens_hwsim::fx::fx_set(),
            att: std::collections::BTreeMap::new(),
            dirty_page_lsns: std::collections::BTreeMap::new(),
            snapshots: Vec::new(),
            keycol_scratch: Vec::new(),
        }
    }

    /// Marks `txn` as stalled in fault recovery (e.g. retrying a failed
    /// commit-log write while holding its locks).
    pub fn mark_stalled(&mut self, txn: dbsens_storage::lock::TxnId) {
        self.stalled_txns.insert(txn);
    }

    /// Clears `txn`'s stalled mark (recovery succeeded or the txn ended).
    pub fn clear_stalled(&mut self, txn: dbsens_storage::lock::TxnId) {
        self.stalled_txns.remove(&txn);
    }

    /// Currently stalled transactions, in id order.
    pub fn stalled_txns(&self) -> Vec<dbsens_storage::lock::TxnId> {
        let mut v: Vec<_> = self.stalled_txns.iter().copied().collect();
        v.sort();
        v
    }

    /// Marks `txn` as a deadlock victim; its owning task observes this via
    /// [`Database::take_victim`] and aborts.
    pub fn mark_victim(&mut self, txn: dbsens_storage::lock::TxnId) {
        self.victim_txns.insert(txn);
    }

    /// Consumes a victim mark for `txn`, returning `true` if it was set.
    pub fn take_victim(&mut self, txn: dbsens_storage::lock::TxnId) -> bool {
        self.victim_txns.remove(&txn)
    }

    /// Cache region of shared session state / plan cache structures.
    pub fn session_region(&self) -> dbsens_hwsim::mem::Region {
        self.session_region
    }

    /// Cache region of columnstore batch buffers and dictionaries.
    pub fn batch_region(&self) -> dbsens_hwsim::mem::Region {
        self.batch_region
    }

    /// Pre-loads the buffer pool the way a freshly loaded (or long-running)
    /// server would be warm: every table's data pages, B-tree leaves, and
    /// columnstore segments are touched in catalog order, then small
    /// structures are re-referenced so the clock policy favours keeping
    /// them when the database exceeds memory. The paper measures warmed
    /// systems (databases are loaded before each run).
    pub fn warm_bufferpool(&mut self) {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        let mut small_runs: Vec<(u64, u64)> = Vec::new();
        for t in &self.tables {
            let (start, pages) = t.layout.scan_run();
            runs.push((start, pages));
            if pages * dbsens_storage::bufferpool::PAGE_BYTES < (1 << 30) {
                small_runs.push((start, pages));
            }
            for idx in &t.indexes {
                let (s2, p2) = idx.layout.leaf_scan_run(0.0, 1.0);
                runs.push((s2, p2));
                small_runs.push((s2, p2));
            }
            if let Some(cs) = &t.columnstore {
                for c in 0..t.heap.schema().len() {
                    let (s3, p3) = cs.layout.column_scan_run(c, 1.0);
                    runs.push((s3, p3));
                }
            }
        }
        for (start, pages) in runs {
            self.bufferpool.access(start, pages, false);
        }
        // Re-reference hot/small structures so they survive.
        for (start, pages) in small_runs {
            self.bufferpool.access(start, pages, false);
        }
    }

    /// Records a modeled page as dirtied since the last checkpoint. In
    /// crash-consistency mode the page also enters the dirty page table
    /// with the next LSN as its recLSN (the first record that could have
    /// dirtied it is the one about to be written).
    pub fn mark_dirty(&mut self, page: u64) {
        self.dirty_pages.insert(page);
        if self.crash_consistency() {
            let rec_lsn = self.wal.next_lsn().0;
            self.dirty_page_lsns.entry(page).or_insert(rec_lsn);
        }
    }

    /// Takes the set of distinct dirty pages for the checkpoint writer.
    pub fn take_dirty_pages(&mut self) -> usize {
        let n = self.dirty_pages.len();
        self.dirty_pages.clear();
        n
    }

    /// Creates a table from initial logical rows; its modeled size is
    /// `rows.len() * row_scale`.
    pub fn create_table(&mut self, name: &str, schema: Schema, rows: Vec<Row>) -> TableId {
        let modeled_rows = ((rows.len() as f64) * self.row_scale).ceil() as u64;
        let row_bytes = schema.avg_row_bytes();
        let layout = TableLayout::new(&mut self.space, modeled_rows.max(1), row_bytes);
        let mut heap = HeapTable::new(schema);
        for row in rows {
            heap.insert(row);
        }
        let id = self.tables.len();
        self.tables.push(Table {
            id: id as u32,
            name: name.to_owned(),
            heap,
            layout,
            indexes: Vec::new(),
            columnstore: None,
        });
        TableId(id)
    }

    /// Builds a B-tree index over the given key columns.
    pub fn create_index(&mut self, table: TableId, name: &str, key_cols: &[usize]) {
        let t = &self.tables[table.0];
        let key_bytes: u64 = key_cols
            .iter()
            .map(|&c| t.heap.schema().columns()[c].ty.avg_bytes())
            .sum();
        let modeled_entries = t.layout.modeled_rows();
        let layout = IndexLayout::new(&mut self.space, modeled_entries, key_bytes.max(4));
        let mut btree = BTree::new();
        for (rid, row) in t.heap.iter() {
            let key = Key::from_values(key_cols.iter().map(|&c| row[c].clone()).collect());
            btree.insert(key, rid);
        }
        self.tables[table.0].indexes.push(Index {
            name: name.to_owned(),
            key_cols: key_cols.to_vec(),
            btree,
            layout,
        });
    }

    /// Builds an updateable non-clustered columnstore index over the whole
    /// table (the HTAP configuration) or a clustered columnstore (the DW
    /// configuration — same model, the base heap is then unused by
    /// queries).
    pub fn create_columnstore(&mut self, table: TableId, rowgroup_rows: usize) {
        let t = &self.tables[table.0];
        let rows: Vec<Row> = t.heap.iter().map(|(_, r)| r.clone()).collect();
        let store = ColumnStore::build(t.heap.schema().clone(), &rows, rowgroup_rows);
        let layout = ColumnstoreLayout::from_logical(&mut self.space, &store, self.row_scale);
        self.tables[table.0].columnstore = Some(ColumnStoreIndex { store, layout });
    }

    /// Table by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0]
    }

    /// Mutable table by id.
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id.0]
    }

    /// Table id by name.
    ///
    /// # Panics
    ///
    /// Panics if no such table exists.
    pub fn table_id(&self, name: &str) -> TableId {
        TableId(
            self.tables
                .iter()
                .position(|t| t.name == name)
                .unwrap_or_else(|| panic!("no table named {name}")),
        )
    }

    /// All tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Allocates a fresh transaction id.
    pub fn begin_txn(&mut self) -> dbsens_storage::lock::TxnId {
        self.next_txn += 1;
        dbsens_storage::lock::TxnId(self.next_txn)
    }

    /// Inserts a row, maintaining all indexes and the columnstore delta.
    pub fn insert_row(&mut self, table: TableId, row: Row) -> RowId {
        let t = &mut self.tables[table.0];
        let rid = t.heap.insert(row.clone());
        for idx in &mut t.indexes {
            let key = Key::from_values(idx.key_cols.iter().map(|&c| row[c].clone()).collect());
            idx.btree.insert(key, rid);
        }
        if let Some(cs) = &mut t.columnstore {
            cs.store.insert(rid, row);
        }
        rid
    }

    /// Deletes a row, maintaining all indexes and the columnstore.
    /// Returns the old row if it existed.
    pub fn delete_row(&mut self, table: TableId, rid: RowId) -> Option<Row> {
        let capture = self.crash_consistency();
        let t = &mut self.tables[table.0];
        // In crash-consistency mode the slot stays reserved (ghost record):
        // an undo must be able to reinsert the row at its original id, so
        // the id must not be reused by a concurrent insert.
        let row = if capture {
            t.heap.delete_keep_slot(rid)?
        } else {
            t.heap.delete(rid)?
        };
        for idx in &mut t.indexes {
            let key = Key::from_values(idx.key_cols.iter().map(|&c| row[c].clone()).collect());
            idx.btree.remove(&key, rid);
        }
        if let Some(cs) = &mut t.columnstore {
            cs.store.delete(rid);
        }
        Some(row)
    }

    /// Updates a row in place via `mutate`, maintaining indexes whose keys
    /// change and the columnstore.
    ///
    /// The common case — a mutation that leaves every index key column
    /// untouched — must not allocate: only the key-column values are
    /// snapshotted (into a recycled scratch buffer), and full `Key`s are
    /// materialized only for an index whose columns actually changed.
    pub fn update_row(
        &mut self,
        table: TableId,
        rid: RowId,
        mutate: impl FnOnce(&mut Row),
    ) -> bool {
        let mut snap = std::mem::take(&mut self.keycol_scratch);
        snap.clear();
        let t = &mut self.tables[table.0];
        let Some(row) = t.heap.get_mut(rid) else {
            self.keycol_scratch = snap;
            return false;
        };
        for idx in &t.indexes {
            for &c in &idx.key_cols {
                snap.push(row[c].clone());
            }
        }
        mutate(row);
        let mut off = 0;
        for idx in &mut t.indexes {
            let k = idx.key_cols.len();
            let before = &snap[off..off + k];
            let changed = idx
                .key_cols
                .iter()
                .zip(before)
                .any(|(&c, old)| row[c] != *old);
            if changed {
                let old_key = Key::from_values(before.to_vec());
                let new_key =
                    Key::from_values(idx.key_cols.iter().map(|&c| row[c].clone()).collect());
                idx.btree.remove(&old_key, rid);
                idx.btree.insert(new_key, rid);
            }
            off += k;
        }
        if let Some(cs) = &mut t.columnstore {
            let new = row.clone();
            cs.store.update(rid, new);
        }
        self.keycol_scratch = snap;
        true
    }

    /// Total modeled bytes of primary data plus indexes (columnstore
    /// tables count their compressed segments instead of the unused heap),
    /// used by the optimizer's buffer-residency heuristic.
    pub fn primary_data_bytes(&self) -> u64 {
        self.tables
            .iter()
            .map(|t| {
                let data = match &t.columnstore {
                    Some(cs) => cs.layout.data_bytes(),
                    None => t.layout.data_bytes(),
                };
                data + t
                    .indexes
                    .iter()
                    .map(|i| i.layout.index_bytes())
                    .sum::<u64>()
            })
            .sum()
    }

    /// Modeled (paper-scale) row position of a logical row id, used for
    /// lock keys and page ids so contention scales with the modeled
    /// database size.
    pub fn modeled_row(&self, table: TableId, rid: RowId) -> u64 {
        let t = &self.tables[table.0];
        let modeled = (rid.0 as f64 * self.row_scale) as u64;
        modeled.min(t.layout.modeled_rows().saturating_sub(1))
    }

    // --- crash-consistency mode: logged DML, rollback, checkpoints -------

    /// Logs `Begin` for a transaction (crash-consistency mode).
    pub fn begin_txn_logged(&mut self, txn: TxnId) {
        self.wal.append_record(&WalRecord::Begin { txn: txn.0 }, 0);
        self.att.insert(txn, Vec::new());
    }

    /// Inserts a row under `txn`, writing an `Insert` record with the full
    /// row image and threading the undo chain.
    pub fn insert_row_logged(&mut self, txn: TxnId, table: TableId, row: Row) -> RowId {
        let rid = self.insert_row(table, row.clone());
        let bytes = self.cost.log_bytes_per_row;
        let lsn = self.wal.append_record(
            &WalRecord::Insert {
                txn: txn.0,
                table: table.0 as u32,
                rid: rid.0,
                row,
            },
            bytes,
        );
        self.att
            .entry(txn)
            .or_default()
            .push((lsn, UndoOp::Insert { table, rid }));
        rid
    }

    /// Updates a row under `txn`, writing an `Update` record with before
    /// and after images.
    pub fn update_row_logged(
        &mut self,
        txn: TxnId,
        table: TableId,
        rid: RowId,
        mutate: impl FnOnce(&mut Row),
    ) -> bool {
        let Some(before) = self.tables[table.0].heap.get(rid).cloned() else {
            return false;
        };
        self.update_row(table, rid, mutate);
        let after = self.tables[table.0]
            .heap
            .get(rid)
            .cloned()
            .expect("row vanished");
        let bytes = self.cost.log_bytes_per_row;
        let lsn = self.wal.append_record(
            &WalRecord::Update {
                txn: txn.0,
                table: table.0 as u32,
                rid: rid.0,
                before: before.clone(),
                after,
            },
            bytes,
        );
        self.att
            .entry(txn)
            .or_default()
            .push((lsn, UndoOp::Update { table, rid, before }));
        true
    }

    /// Deletes a row under `txn`, writing a `Delete` record with the old
    /// row image.
    pub fn delete_row_logged(&mut self, txn: TxnId, table: TableId, rid: RowId) -> Option<Row> {
        let row = self.delete_row(table, rid)?;
        let bytes = self.cost.log_bytes_per_row;
        let lsn = self.wal.append_record(
            &WalRecord::Delete {
                txn: txn.0,
                table: table.0 as u32,
                rid: rid.0,
                row: row.clone(),
            },
            bytes,
        );
        self.att.entry(txn).or_default().push((
            lsn,
            UndoOp::Delete {
                table,
                rid,
                row: row.clone(),
            },
        ));
        Some(row)
    }

    /// Logs `Commit` and retires the transaction from the ATT. The commit
    /// is durable once the enclosing group-commit flush completes.
    pub fn commit_txn_logged(&mut self, txn: TxnId) {
        self.wal.append_record(&WalRecord::Commit { txn: txn.0 }, 0);
        self.att.remove(&txn);
    }

    /// Force-logs a two-phase-commit `Prepare` vote: the YES vote may only
    /// leave the node once this returns. The transaction stays in the ATT
    /// with its undo chain — a commit decision retires it with
    /// [`Database::commit_txn_logged`], an abort decision rolls it back
    /// with [`Database::rollback_txn`].
    pub fn prepare_txn_logged(&mut self, txn: TxnId, coordinator: u32) {
        self.wal.append_record(
            &WalRecord::Prepare {
                txn: txn.0,
                coordinator,
            },
            0,
        );
        self.wal.force_durable();
    }

    /// Force-logs the coordinator's commit decision for a distributed
    /// transaction; COMMIT messages may only be sent once this returns.
    pub fn log_coord_commit(&mut self, txn: u64, participants: Vec<u32>) {
        self.wal
            .append_record(&WalRecord::CoordCommit { txn, participants }, 0);
        self.wal.force_durable();
    }

    /// Lazily logs the coordinator's forget record once every participant
    /// acknowledged the outcome; never forced.
    pub fn log_coord_end(&mut self, txn: u64) {
        self.wal.append_record(&WalRecord::CoordEnd { txn }, 0);
    }

    /// Rolls back a live transaction: reverses its undo chain newest-first,
    /// writing a CLR per reversed operation, then logs `Abort`. Mirrors the
    /// recovery undo pass so an abort is indistinguishable from a loser
    /// undone at restart.
    pub fn rollback_txn(&mut self, txn: TxnId) {
        // A transaction past its commit point (Commit record already
        // logged) is no longer in the ATT and must not be rolled back.
        let Some(chain) = self.att.remove(&txn) else {
            return;
        };
        for (lsn, op) in chain.into_iter().rev() {
            self.apply_undo(txn.0, lsn.0, &op);
        }
        self.wal.append_record(&WalRecord::Abort { txn: txn.0 }, 0);
    }

    /// Reverses one operation and writes its CLR. Shared by live rollback
    /// and recovery's undo-losers pass.
    pub fn apply_undo(&mut self, txn: u64, undo_of: u64, op: &UndoOp) {
        let bytes = self.cost.log_bytes_per_row;
        let (table, rid, action) = match op {
            UndoOp::Insert { table, rid } => {
                self.delete_row(*table, *rid);
                (*table, *rid, ClrAction::Remove)
            }
            UndoOp::Update { table, rid, before } => {
                let image = before.clone();
                self.update_row(*table, *rid, |r| *r = image);
                (
                    *table,
                    *rid,
                    ClrAction::SetTo {
                        row: before.clone(),
                    },
                )
            }
            UndoOp::Delete { table, rid, row } => {
                self.restore_row(*table, *rid, row.clone());
                (*table, *rid, ClrAction::Reinsert { row: row.clone() })
            }
        };
        self.wal.append_record(
            &WalRecord::Clr {
                txn,
                undo_of,
                table: table.0 as u32,
                rid: rid.0,
                action,
            },
            bytes,
        );
    }

    /// Reinserts a row at a specific id (undo of a delete / redo of a
    /// reinsert CLR), maintaining indexes and the columnstore.
    pub fn restore_row(&mut self, table: TableId, rid: RowId, row: Row) -> bool {
        let t = &mut self.tables[table.0];
        if !t.heap.insert_at(rid, row.clone()) {
            return false;
        }
        for idx in &mut t.indexes {
            let key = Key::from_values(idx.key_cols.iter().map(|&c| row[c].clone()).collect());
            idx.btree.insert(key, rid);
        }
        if let Some(cs) = &mut t.columnstore {
            cs.store.insert(rid, row);
        }
        true
    }

    /// Writes a fuzzy ARIES checkpoint: a `Checkpoint` record carrying the
    /// ATT and dirty page table, plus a state snapshot keyed by its LSN.
    /// Dirty pages whose recLSN is already durable are written back (their
    /// count is returned for the checkpoint writer's I/O demand); pages
    /// dirtied by not-yet-durable records stay in the DPT — the WAL rule
    /// forbids flushing them ahead of their log.
    pub fn log_checkpoint(&mut self) -> u64 {
        let active_txns: Vec<u64> = self.att.keys().map(|t| t.0).collect();
        let dirty_pages: Vec<(u64, u64)> =
            self.dirty_page_lsns.iter().map(|(&p, &l)| (p, l)).collect();
        let lsn = self.wal.append_record(
            &WalRecord::Checkpoint {
                active_txns,
                dirty_pages,
            },
            0,
        );
        let snap = Box::new(self.checkpoint_snapshot());
        self.snapshots.push((lsn.0, snap));
        // Keep the initial snapshot plus the last few checkpoints; older
        // intermediates can never win the recovery-base search.
        while self.snapshots.len() > 5 {
            self.snapshots.remove(1);
        }
        let durable = self.wal.durable_lsn().0;
        let flushable: Vec<u64> = self
            .dirty_page_lsns
            .iter()
            .filter(|&(_, &rec_lsn)| rec_lsn <= durable)
            .map(|(&p, _)| p)
            .collect();
        for p in &flushable {
            self.dirty_page_lsns.remove(p);
            self.dirty_pages.remove(p);
        }
        flushable.len() as u64
    }

    /// Live transactions in the ATT (crash-consistency mode).
    pub fn active_logged_txns(&self) -> Vec<TxnId> {
        self.att.keys().copied().collect()
    }

    /// Takes the checkpoint snapshots out of the database (used when
    /// rendering a crash image — the snapshots model already-persisted
    /// pages, so they survive the crash alongside the durable log).
    pub fn take_snapshots(&mut self) -> Vec<(u64, Box<Database>)> {
        std::mem::take(&mut self.snapshots)
    }

    /// Reinstalls checkpoint snapshots (recovery hands them back so the
    /// recovered database can crash and recover again).
    pub fn set_snapshots(&mut self, snapshots: Vec<(u64, Box<Database>)>) {
        self.snapshots = snapshots;
    }

    /// Resets all volatile transactional state after a crash: locks,
    /// latches, stall/victim bookkeeping, the ATT, and the dirty page
    /// table. Recovery rebuilds what the log says; nothing volatile
    /// survives a power loss.
    pub fn clear_recovery_state(&mut self) {
        self.locks = LockManager::new();
        self.latches = LatchTable::new();
        self.stalled_txns.clear();
        self.victim_txns.clear();
        self.att.clear();
        self.dirty_pages.clear();
        self.dirty_page_lsns.clear();
    }

    /// Closes a fully-undone loser with an `Abort` record (recovery's
    /// counterpart of the tail of [`Database::rollback_txn`]).
    pub fn finish_abort(&mut self, txn: u64) {
        self.att.remove(&TxnId(txn));
        self.wal.append_record(&WalRecord::Abort { txn }, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsens_storage::schema::ColType;
    use dbsens_storage::value::Value;

    fn setup() -> (Database, TableId) {
        let mut db = Database::new(100.0, 1 << 30);
        let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Int)]);
        let rows: Vec<Row> = (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
            .collect();
        let t = db.create_table("t", schema, rows);
        db.create_index(t, "pk", &[0]);
        db.create_index(t, "by_grp", &[1]);
        (db, t)
    }

    #[test]
    fn catalog_lookups() {
        let (db, t) = setup();
        assert_eq!(db.table_id("t"), t);
        assert_eq!(db.table(t).index("pk").key_cols, vec![0]);
        assert_eq!(db.table(t).index_pos("by_grp"), 1);
        assert_eq!(db.table(t).layout.modeled_rows(), 5000);
    }

    #[test]
    #[should_panic(expected = "no table named")]
    fn missing_table_panics() {
        let (db, _) = setup();
        db.table_id("nope");
    }

    #[test]
    fn insert_maintains_indexes() {
        let (mut db, t) = setup();
        let rid = db.insert_row(t, vec![Value::Int(100), Value::Int(3)]);
        let found: Vec<_> = db.table(t).index("pk").btree.get(&Key::int(100)).collect();
        assert_eq!(found, vec![rid]);
        // Secondary index sees it too.
        assert!(db.table(t).index("by_grp").btree.get(&Key::int(3)).count() >= 11);
    }

    #[test]
    fn delete_maintains_indexes() {
        let (mut db, t) = setup();
        let rid = db
            .table(t)
            .index("pk")
            .btree
            .get(&Key::int(7))
            .next()
            .unwrap();
        let old = db.delete_row(t, rid).unwrap();
        assert_eq!(old[0].as_int(), 7);
        assert!(db
            .table(t)
            .index("pk")
            .btree
            .get(&Key::int(7))
            .next()
            .is_none());
        assert!(db.delete_row(t, rid).is_none());
    }

    #[test]
    fn update_rekeys_only_changed_indexes() {
        let (mut db, t) = setup();
        let rid = db
            .table(t)
            .index("pk")
            .btree
            .get(&Key::int(7))
            .next()
            .unwrap();
        assert!(db.update_row(t, rid, |r| r[1] = Value::Int(99)));
        assert!(db
            .table(t)
            .index("by_grp")
            .btree
            .get(&Key::int(99))
            .any(|r| r == rid));
        assert!(db
            .table(t)
            .index("pk")
            .btree
            .get(&Key::int(7))
            .any(|r| r == rid));
    }

    #[test]
    fn columnstore_maintenance_on_dml() {
        let (mut db, t) = setup();
        db.create_columnstore(t, 16);
        db.insert_row(t, vec![Value::Int(500), Value::Int(1)]);
        let cs = &db.table(t).columnstore.as_ref().unwrap().store;
        assert_eq!(cs.delta_rows(), 1);
        assert_eq!(cs.total_rows(), 51);
    }

    #[test]
    fn modeled_row_scales_and_clamps() {
        let (db, t) = setup();
        assert_eq!(db.modeled_row(t, RowId(10)), 1000);
        assert_eq!(db.modeled_row(t, RowId(10_000)), 4999);
    }

    #[test]
    fn checkpoint_snapshots_hold_no_log_bytes() {
        let mut db = Database::new(100.0, 1 << 30);
        let schema = Schema::new(&[("id", ColType::Int), ("pad", ColType::Str(1000))]);
        let rows: Vec<Row> = (0..20)
            .map(|i| vec![Value::Int(i), Value::Str("".into())])
            .collect();
        let t = db.create_table("t", schema, rows);
        db.create_index(t, "pk", &[0]);
        db.enable_crash_consistency();
        let mut checkpoints = 0;
        while db.wal.image().len() < 4 << 20 {
            let tx = db.begin_txn();
            db.begin_txn_logged(tx);
            for i in 0..20 {
                let pad = Value::Str(format!("{checkpoints:>1000}").into());
                db.update_row_logged(tx, t, RowId(i), |r| r[1] = pad);
            }
            db.commit_txn_logged(tx);
            db.wal.flush_for_commit();
            db.wal.flush_durable();
            // An open transaction at the checkpoint lands in its record,
            // never in the snapshot.
            let open = db.begin_txn();
            db.begin_txn_logged(open);
            db.log_checkpoint();
            db.rollback_txn(open);
            checkpoints += 1;
        }
        assert!(checkpoints > 5, "only {checkpoints} checkpoints");
        let snaps = db.take_snapshots();
        assert_eq!(snaps.len(), 5, "initial snapshot plus the last four");
        for (lsn, snap) in &snaps {
            assert!(snap.wal.image().is_empty(), "snapshot at {lsn} holds log");
            assert!(snap.crash_consistency());
            assert!(snap.active_logged_txns().is_empty());
            assert!(snap.snapshots.is_empty());
        }
        let newest = &snaps.last().unwrap().1;
        assert_eq!(
            newest.table(t).heap.get(RowId(0)),
            db.table(t).heap.get(RowId(0)),
            "the newest snapshot holds the checkpointed table state"
        );
    }

    #[test]
    fn txn_ids_are_unique() {
        let (mut db, _) = setup();
        let a = db.begin_txn();
        let b = db.begin_txn();
        assert_ne!(a, b);
    }
}
