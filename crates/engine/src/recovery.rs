//! ARIES-lite crash recovery.
//!
//! After a simulated power loss, what survives is a [`CrashImage`]: the
//! durable prefix of the WAL (possibly with a torn tail) plus the state
//! snapshots that durable checkpoints persisted. [`recover`] rebuilds a
//! consistent database from it in the classic three passes:
//!
//! 1. **Analysis** — scan the durable log, classify every transaction as
//!    committed, aborted, or a *loser* (in flight at the crash), and collect
//!    the set of operations already compensated by durable CLRs.
//! 2. **Redo** — restart from the newest snapshot whose checkpoint record is
//!    durable (or the initial state) and repeat history: every logged
//!    operation after that point is re-applied, winners and losers alike,
//!    CLRs included.
//! 3. **Undo** — walk losers' uncompensated operations in descending LSN
//!    order, reversing each and writing a CLR, then close each loser with an
//!    `Abort` record. CLRs are forced to the log synchronously, so a crash
//!    *during* recovery leaves a log from which the next recovery continues
//!    exactly where this one stopped — recovery is idempotent.
//!
//! The undo pass accepts an optional budget of actions so the crash verifier
//! can kill recovery itself partway through and restart it.

use crate::db::{Database, TableId, UndoOp};
use dbsens_storage::btree::RowId;
use dbsens_storage::wal::{scan_log, ClrAction, Wal, WalRecord};
use std::collections::{BTreeMap, BTreeSet};

/// What survives a crash: the durable WAL image (after torn-tail rendering)
/// and the checkpoint snapshots, which model pages already written back.
#[derive(Debug)]
pub struct CrashImage {
    /// Checkpoint snapshots by checkpoint-record LSN; index 0 is the
    /// initial state at LSN 0.
    pub snapshots: Vec<(u64, Box<Database>)>,
    /// The surviving log bytes.
    pub wal_image: Vec<u8>,
}

impl CrashImage {
    /// Renders the crash image of a halted database: every durable log
    /// byte, a torn tail of the oldest in-flight flush chosen by
    /// `keep_sectors`, and the checkpoint snapshots.
    ///
    /// Both move out of `db` rather than being copied
    /// ([`Wal::take_crash_image`]): the halted database is dead, and the
    /// caller must not read its log or snapshots afterwards (its log
    /// counters survive).
    pub fn extract(db: &mut Database, keep_sectors: impl FnOnce(u64) -> u64) -> CrashImage {
        CrashImage {
            snapshots: db.take_snapshots(),
            wal_image: db.wal.take_crash_image(keep_sectors),
        }
    }
}

/// What recovery did, for durability reports and modeled recovery time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Committed transactions whose effects the log guarantees.
    pub committed_txns: u64,
    /// Loser transactions rolled back by the undo pass.
    pub losers_undone: u64,
    /// Log records re-applied by the redo pass.
    pub redo_records: u64,
    /// Operations reversed (CLRs written) by the undo pass.
    pub undo_records: u64,
    /// LSN of the checkpoint the redo pass started from (0 = initial state).
    pub checkpoint_lsn: u64,
    /// Durable log bytes scanned.
    pub log_bytes: u64,
    /// Whether the log ended in a torn or corrupt frame (expected when the
    /// crash cut a flush mid-write; the chain checksum truncates it).
    pub torn_tail: bool,
    /// `false` if the undo budget ran out (a mid-recovery crash): the
    /// returned database needs another [`recover`] round.
    pub completed: bool,
    /// Two-phase-commit transactions that were prepared but had no durable
    /// decision at the crash. Their effects are kept (not undone) and the
    /// node must ask each coordinator for the outcome — presumed abort: no
    /// durable `CoordCommit` there means abort. Resolve each with
    /// [`resolve_indoubt`].
    pub in_doubt: Vec<InDoubt>,
}

/// One in-doubt transaction surfaced by the analysis pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InDoubt {
    /// The prepared transaction.
    pub txn: u64,
    /// Node id of the coordinator to consult.
    pub coordinator: u32,
}

impl RecoveryReport {
    /// Modeled wall-clock recovery time: one sequential log read plus
    /// per-record replay work.
    pub fn modeled_secs(&self, read_mbps: f64) -> f64 {
        let scan = self.log_bytes as f64 / (read_mbps.max(1.0) * 1e6);
        let replay = (self.redo_records + self.undo_records) as f64 * 2e-6;
        scan + replay
    }
}

/// The undo image of a data record, taken by value so the row images move
/// into the [`UndoOp`].
fn undo_op_of(rec: WalRecord) -> Option<(u64, UndoOp)> {
    match rec {
        WalRecord::Insert {
            txn, table, rid, ..
        } => Some((
            txn,
            UndoOp::Insert {
                table: TableId(table as usize),
                rid: RowId(rid),
            },
        )),
        WalRecord::Update {
            txn,
            table,
            rid,
            before,
            ..
        } => Some((
            txn,
            UndoOp::Update {
                table: TableId(table as usize),
                rid: RowId(rid),
                before,
            },
        )),
        WalRecord::Delete {
            txn,
            table,
            rid,
            row,
        } => Some((
            txn,
            UndoOp::Delete {
                table: TableId(table as usize),
                rid: RowId(rid),
                row,
            },
        )),
        _ => None,
    }
}

/// Repeats one record's history on `db`; returns whether it was a data or
/// compensation record. The redo images (an insert's row, an update's
/// after image, a CLR's row) are moved out of `rec` — the undo pass needs
/// only an update's before image and a delete's row, which stay.
fn redo_record(db: &mut Database, lsn: u64, rec: &mut WalRecord) -> bool {
    match rec {
        WalRecord::Insert {
            table, rid, row, ..
        } => {
            let row = std::mem::take(row);
            let ok = db.restore_row(TableId(*table as usize), RowId(*rid), row);
            assert!(ok, "redo insert landed on an occupied slot (lsn {lsn})");
        }
        WalRecord::Update {
            table, rid, after, ..
        } => {
            let image = std::mem::take(after);
            let ok = db.update_row(TableId(*table as usize), RowId(*rid), |r| *r = image);
            assert!(ok, "redo update targets a missing row (lsn {lsn})");
        }
        WalRecord::Delete { table, rid, .. } => {
            let old = db.delete_row(TableId(*table as usize), RowId(*rid));
            assert!(
                old.is_some(),
                "redo delete targets a missing row (lsn {lsn})"
            );
        }
        WalRecord::Clr {
            table, rid, action, ..
        } => {
            let table = TableId(*table as usize);
            let rid = RowId(*rid);
            match action {
                ClrAction::Remove => {
                    db.delete_row(table, rid);
                }
                ClrAction::Reinsert { row } => {
                    let ok = db.restore_row(table, rid, std::mem::take(row));
                    assert!(
                        ok,
                        "redo CLR reinsert landed on an occupied slot (lsn {lsn})"
                    );
                }
                ClrAction::SetTo { row } => {
                    let image = std::mem::take(row);
                    db.update_row(table, rid, |r| *r = image);
                }
            }
        }
        _ => return false,
    }
    true
}

/// Recovers a database from a crash image.
///
/// `undo_budget` bounds how many undo actions this round may perform
/// (`None` = unbounded). When the budget runs out the report's `completed`
/// is `false`; extract a fresh [`CrashImage`] from the returned database
/// and call [`recover`] again to continue — the CLRs written so far are
/// durable, so no work is repeated.
///
/// # Panics
///
/// Panics if the image has no snapshots (every capture-mode database starts
/// with the initial LSN-0 snapshot) or if a redo record contradicts the
/// snapshot state (both indicate a harness bug, not a simulated failure).
pub fn recover(image: CrashImage, undo_budget: Option<usize>) -> (Database, RecoveryReport) {
    let scan = scan_log(&image.wal_image);
    let mut report = RecoveryReport {
        torn_tail: scan.torn,
        log_bytes: scan.valid_bytes as u64,
        completed: true,
        ..RecoveryReport::default()
    };

    // --- analysis ---------------------------------------------------------
    let mut committed: BTreeSet<u64> = BTreeSet::new();
    let mut aborted: BTreeSet<u64> = BTreeSet::new();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut compensated: BTreeSet<u64> = BTreeSet::new();
    let mut checkpoint_lsns: BTreeSet<u64> = BTreeSet::new();
    let mut prepared: BTreeMap<u64, u32> = BTreeMap::new();
    for (lsn, rec) in &scan.records {
        if let Some(txn) = rec.txn() {
            seen.insert(txn);
        }
        match rec {
            WalRecord::Commit { txn } => {
                committed.insert(*txn);
            }
            WalRecord::Abort { txn } => {
                aborted.insert(*txn);
            }
            WalRecord::Clr { undo_of, .. } => {
                compensated.insert(*undo_of);
            }
            WalRecord::Checkpoint { .. } => {
                checkpoint_lsns.insert(lsn.0);
            }
            WalRecord::Prepare { txn, coordinator } => {
                prepared.insert(*txn, *coordinator);
            }
            WalRecord::CoordCommit { txn, .. } => {
                // The coordinator's own branch commits with the decision
                // record: forcing `CoordCommit` is its commit point even if
                // the crash cut the local `Commit` record that follows.
                committed.insert(*txn);
            }
            _ => {}
        }
    }
    report.committed_txns = committed.len() as u64;
    report.in_doubt = prepared
        .iter()
        .filter(|(t, _)| !committed.contains(t) && !aborted.contains(t))
        .map(|(&txn, &coordinator)| InDoubt { txn, coordinator })
        .collect();

    // --- pick the redo base ----------------------------------------------
    // The newest snapshot whose checkpoint record survived in the durable
    // log (the initial LSN-0 snapshot always qualifies). Snapshots hold no
    // log: the durable image moves in as the recovered log, rebuilt from
    // this one scan.
    let base_idx = image
        .snapshots
        .iter()
        .rposition(|(lsn, _)| *lsn == 0 || checkpoint_lsns.contains(lsn))
        .expect("crash image holds at least the initial snapshot");
    report.checkpoint_lsn = image.snapshots[base_idx].0;
    let mut db = *image.snapshots[base_idx].1.clone();
    db.wal = Wal::from_scanned(image.wal_image, &scan);
    db.clear_recovery_state();
    db.set_snapshots(image.snapshots);

    // --- redo: repeat history after the checkpoint ------------------------
    // One consuming pass over the scan: redo moves out the images it
    // applies, and each loser's uncompensated data operations keep their
    // undo images for the undo pass. A loser appeared in the log but
    // neither committed nor finished aborting. Prepared-but-undecided
    // transactions are NOT losers: their effects stay applied until
    // in-doubt resolution.
    let losers: BTreeSet<u64> = seen
        .iter()
        .copied()
        .filter(|t| !committed.contains(t) && !aborted.contains(t) && !prepared.contains_key(t))
        .collect();
    let mut to_undo: Vec<(u64, u64, UndoOp)> = Vec::new(); // (lsn, txn, op)
    let mut remaining: BTreeMap<u64, usize> = BTreeMap::new();
    for (lsn, mut rec) in scan.records {
        if lsn.0 > report.checkpoint_lsn && redo_record(&mut db, lsn.0, &mut rec) {
            report.redo_records += 1;
        }
        let Some((txn, op)) = undo_op_of(rec) else {
            continue;
        };
        if losers.contains(&txn) && !compensated.contains(&lsn.0) {
            to_undo.push((lsn.0, txn, op));
            *remaining.entry(txn).or_insert(0) += 1;
        }
    }

    // --- undo losers ------------------------------------------------------
    // Losers' uncompensated data operations are reversed newest-first (one
    // global descending-LSN pass), each writing a CLR; a finished loser is
    // closed with `Abort`.
    report.losers_undone = losers.len() as u64;
    let mut budget = undo_budget.unwrap_or(usize::MAX);
    to_undo.sort_by_key(|e| std::cmp::Reverse(e.0));
    for (lsn, txn, op) in to_undo {
        if budget == 0 {
            report.completed = false;
            break;
        }
        budget -= 1;
        db.apply_undo(txn, lsn, &op);
        report.undo_records += 1;
        let left = remaining.get_mut(&txn).expect("undo bookkeeping");
        *left -= 1;
        if *left == 0 {
            db.finish_abort(txn);
        }
        // Recovery writes are synchronous: each CLR is durable before the
        // next undo action, which is what makes a mid-recovery crash safe.
        db.wal.force_durable();
    }
    if report.completed {
        // Losers with no data records still need closing Abort records.
        for txn in &losers {
            if !remaining.contains_key(txn) {
                db.finish_abort(*txn);
            }
        }
        db.wal.force_durable();
    }
    (db, report)
}

/// Resolves one in-doubt transaction once the coordinator's verdict is
/// known. `commit = true` writes the missing `Commit` record (the prepared
/// effects are already applied); `commit = false` reverses the
/// transaction's uncompensated operations newest-first with CLRs and
/// closes it with `Abort` — exactly what the undo pass would have done had
/// the transaction never prepared. Every record is forced durable, so a
/// crash mid-resolution leaves the transaction either still in doubt or
/// fully decided, never half-resolved.
pub fn resolve_indoubt(db: &mut Database, txn: u64, commit: bool) {
    if commit {
        db.wal.append_record(&WalRecord::Commit { txn }, 0);
        db.wal.force_durable();
        return;
    }
    let scan = scan_log(db.wal.image());
    let mut compensated: BTreeSet<u64> = BTreeSet::new();
    let mut to_undo: Vec<(u64, UndoOp)> = Vec::new();
    for (lsn, rec) in scan.records {
        if let WalRecord::Clr { undo_of, .. } = rec {
            compensated.insert(undo_of);
        }
        if let Some((t, op)) = undo_op_of(rec) {
            if t == txn {
                to_undo.push((lsn.0, op));
            }
        }
    }
    to_undo.retain(|(lsn, _)| !compensated.contains(lsn));
    to_undo.sort_by_key(|e| std::cmp::Reverse(e.0));
    for (lsn, op) in to_undo {
        db.apply_undo(txn, lsn, &op);
        db.wal.force_durable();
    }
    db.finish_abort(txn);
    db.wal.force_durable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsens_storage::schema::{ColType, Schema};
    use dbsens_storage::value::{Key, Value};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new(100.0, 1 << 30);
        let schema = Schema::new(&[("id", ColType::Int), ("v", ColType::Int)]);
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(0)])
            .collect();
        let t = db.create_table("t", schema, rows);
        db.create_index(t, "pk", &[0]);
        db.enable_crash_consistency();
        (db, t)
    }

    fn values(db: &Database, t: TableId) -> Vec<(i64, i64)> {
        let mut v: Vec<(i64, i64)> = db
            .table(t)
            .heap
            .iter()
            .map(|(_, r)| (r[0].as_int(), r[1].as_int()))
            .collect();
        v.sort_unstable();
        v
    }

    fn txn(db: &mut Database) -> dbsens_storage::lock::TxnId {
        let id = db.begin_txn();
        db.begin_txn_logged(id);
        id
    }

    #[test]
    fn committed_flushed_txn_survives_a_crash() {
        let (mut db, t) = setup();
        let tx = txn(&mut db);
        db.update_row_logged(tx, t, RowId(3), |r| r[1] = Value::Int(77));
        db.commit_txn_logged(tx);
        db.wal.flush_for_commit();
        db.wal.flush_durable(); // flush acked before the crash

        let expect = values(&db, t);
        let image = CrashImage::extract(&mut db, |_| 0);
        let (rec, report) = recover(image, None);
        assert!(report.completed);
        assert_eq!(report.committed_txns, 1);
        assert_eq!(values(&rec, t), expect);
        assert_eq!(rec.table(t).heap.get(RowId(3)).unwrap()[1].as_int(), 77);
    }

    #[test]
    fn unflushed_commit_is_lost_and_rolled_back() {
        let (mut db, t) = setup();
        let tx = txn(&mut db);
        db.update_row_logged(tx, t, RowId(3), |r| r[1] = Value::Int(77));
        db.commit_txn_logged(tx);
        db.wal.flush_for_commit();
        // Crash with the whole flush in flight and zero sectors persisted:
        // the Commit record never reached the device.
        let image = CrashImage::extract(&mut db, |_| 0);
        let (rec, report) = recover(image, None);
        assert!(report.completed);
        assert_eq!(report.committed_txns, 0);
        assert_eq!(rec.table(t).heap.get(RowId(3)).unwrap()[1].as_int(), 0);
    }

    #[test]
    fn loser_insert_and_delete_are_undone() {
        let (mut db, t) = setup();
        // A committed txn first, so there is something to keep.
        let tx = txn(&mut db);
        db.update_row_logged(tx, t, RowId(0), |r| r[1] = Value::Int(5));
        db.commit_txn_logged(tx);
        db.wal.flush_for_commit();
        db.wal.flush_durable();

        // The loser inserts a row and deletes another, then the crash hits
        // with its records durable but no Commit.
        let loser = txn(&mut db);
        db.insert_row_logged(loser, t, vec![Value::Int(100), Value::Int(1)]);
        db.delete_row_logged(loser, t, RowId(7));
        db.wal.flush_for_commit();
        db.wal.flush_durable();

        let image = CrashImage::extract(&mut db, |_| 0);
        let (rec, report) = recover(image, None);
        assert!(report.completed);
        assert_eq!(report.losers_undone, 1);
        assert_eq!(report.undo_records, 2);
        let vals = values(&rec, t);
        assert!(vals.contains(&(7, 0)), "deleted row must be reinserted");
        assert!(
            !vals.iter().any(|&(id, _)| id == 100),
            "loser insert must be removed"
        );
        assert_eq!(rec.table(t).heap.get(RowId(0)).unwrap()[1].as_int(), 5);
        // The reinserted row is findable through the index again.
        let pk = &rec.table(t).indexes[0];
        assert!(pk
            .btree
            .get(&Key::from_values(vec![Value::Int(7)]))
            .next()
            .is_some());
    }

    #[test]
    fn recovery_restarts_from_a_durable_checkpoint() {
        let (mut db, t) = setup();
        let tx = txn(&mut db);
        db.update_row_logged(tx, t, RowId(1), |r| r[1] = Value::Int(11));
        db.commit_txn_logged(tx);
        db.wal.flush_for_commit();
        db.wal.flush_durable();
        db.log_checkpoint();
        db.wal.force_durable();

        let tx2 = txn(&mut db);
        db.update_row_logged(tx2, t, RowId(2), |r| r[1] = Value::Int(22));
        db.commit_txn_logged(tx2);
        db.wal.flush_for_commit();
        db.wal.flush_durable();

        let image = CrashImage::extract(&mut db, |_| 0);
        let (rec, report) = recover(image, None);
        assert!(
            report.checkpoint_lsn > 0,
            "redo must start from the checkpoint"
        );
        assert_eq!(rec.table(t).heap.get(RowId(1)).unwrap()[1].as_int(), 11);
        assert_eq!(rec.table(t).heap.get(RowId(2)).unwrap()[1].as_int(), 22);
    }

    #[test]
    fn budgeted_recovery_resumes_after_a_mid_recovery_crash() {
        let (mut db, t) = setup();
        let loser = txn(&mut db);
        for i in 0..5 {
            db.update_row_logged(loser, t, RowId(i), |r| r[1] = Value::Int(99));
        }
        db.wal.flush_for_commit();
        db.wal.flush_durable();

        let image = CrashImage::extract(&mut db, |_| 0);
        // First recovery round dies after two undo actions.
        let (mut half, report) = recover(image, Some(2));
        assert!(!report.completed);
        assert_eq!(report.undo_records, 2);
        // Re-crash the half-recovered database and recover again.
        let image2 = CrashImage::extract(&mut half, |_| 0);
        let (rec, report2) = recover(image2, None);
        assert!(report2.completed);
        assert_eq!(
            report2.undo_records, 3,
            "CLRs from round one must not be redone"
        );
        for i in 0..5 {
            assert_eq!(rec.table(t).heap.get(RowId(i)).unwrap()[1].as_int(), 0);
        }
    }

    #[test]
    fn double_crash_during_recovery_is_idempotent() {
        let (mut db, t) = setup();
        let loser = txn(&mut db);
        for i in 0..6 {
            db.update_row_logged(loser, t, RowId(i), |r| r[1] = Value::Int(42));
        }
        db.wal.flush_for_commit();
        db.wal.flush_durable();
        let image = CrashImage::extract(&mut db, |_| 0);
        // Crash recovery twice, one undo action at a time, then finish.
        let (mut d1, r1) = recover(image, Some(1));
        assert!(!r1.completed);
        let (mut d2, r2) = recover(CrashImage::extract(&mut d1, |_| 0), Some(1));
        assert!(!r2.completed);
        let (rec, r3) = recover(CrashImage::extract(&mut d2, |_| 0), None);
        assert!(r3.completed);
        assert_eq!(r1.undo_records + r2.undo_records + r3.undo_records, 6);
        for i in 0..6 {
            assert_eq!(rec.table(t).heap.get(RowId(i)).unwrap()[1].as_int(), 0);
        }
    }

    #[test]
    fn prepared_txn_survives_recovery_in_doubt() {
        let (mut db, t) = setup();
        let tx = txn(&mut db);
        db.update_row_logged(tx, t, RowId(3), |r| r[1] = Value::Int(77));
        db.prepare_txn_logged(tx, 1);
        // Crash after the vote but before any decision arrived.
        let image = CrashImage::extract(&mut db, |_| 0);
        let (rec, report) = recover(image, None);
        assert!(report.completed);
        assert_eq!(
            report.in_doubt,
            vec![InDoubt {
                txn: tx.0,
                coordinator: 1
            }]
        );
        assert_eq!(report.losers_undone, 0, "in-doubt txns are not losers");
        assert_eq!(
            rec.table(t).heap.get(RowId(3)).unwrap()[1].as_int(),
            77,
            "prepared effects stay applied until resolution"
        );
    }

    #[test]
    fn indoubt_commit_resolution_is_durable() {
        let (mut db, t) = setup();
        let tx = txn(&mut db);
        db.update_row_logged(tx, t, RowId(4), |r| r[1] = Value::Int(44));
        db.prepare_txn_logged(tx, 0);
        let image = CrashImage::extract(&mut db, |_| 0);
        let (mut rec, report) = recover(image, None);
        assert_eq!(report.in_doubt.len(), 1);
        resolve_indoubt(&mut rec, tx.0, true);
        // Crash again: the commit decision must survive.
        let image2 = CrashImage::extract(&mut rec, |_| 0);
        let (rec2, report2) = recover(image2, None);
        assert_eq!(report2.committed_txns, 1);
        assert!(report2.in_doubt.is_empty());
        assert_eq!(rec2.table(t).heap.get(RowId(4)).unwrap()[1].as_int(), 44);
    }

    #[test]
    fn indoubt_abort_resolution_reverses_effects() {
        let (mut db, t) = setup();
        let tx = txn(&mut db);
        db.insert_row_logged(tx, t, vec![Value::Int(200), Value::Int(9)]);
        db.update_row_logged(tx, t, RowId(5), |r| r[1] = Value::Int(55));
        db.prepare_txn_logged(tx, 2);
        let image = CrashImage::extract(&mut db, |_| 0);
        let (mut rec, report) = recover(image, None);
        assert_eq!(report.in_doubt.len(), 1);
        resolve_indoubt(&mut rec, tx.0, false);
        assert_eq!(rec.table(t).heap.get(RowId(5)).unwrap()[1].as_int(), 0);
        assert!(!values(&rec, t).iter().any(|&(id, _)| id == 200));
        // Crash again: the abort is durable and nothing is in doubt.
        let image2 = CrashImage::extract(&mut rec, |_| 0);
        let (rec2, report2) = recover(image2, None);
        assert!(report2.in_doubt.is_empty());
        assert_eq!(rec2.table(t).heap.get(RowId(5)).unwrap()[1].as_int(), 0);
        assert!(!values(&rec2, t).iter().any(|&(id, _)| id == 200));
    }

    /// Runs a seeded mix of logged work for `steps` steps on three clients
    /// with disjoint rows, then halts: commits whose flushes complete
    /// later (several may be in flight at the halt), rollbacks,
    /// checkpoints, and open transactions.
    fn halted_after(steps: u64) -> (Database, TableId) {
        let (mut db, t) = setup();
        let mut rng = 0x2545_F491_4F6C_DD1Du64 ^ steps;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        // Per client: open txn, rows as last committed, rows as of now.
        let mut clients: Vec<(Option<dbsens_storage::lock::TxnId>, Vec<RowId>, Vec<RowId>)> = (0
            ..3)
            .map(|c| {
                let rows: Vec<RowId> = (0..10).filter(|i| i % 3 == c).map(RowId).collect();
                (None, rows.clone(), rows)
            })
            .collect();
        for step in 0..steps {
            let c = next(3) as usize;
            let (open, committed, working) = &mut clients[c];
            let tx = *open.get_or_insert_with(|| txn(&mut db));
            match next(10) {
                0..=3 if !working.is_empty() => {
                    let rid = working[next(working.len() as u64) as usize];
                    db.update_row_logged(tx, t, rid, |r| r[1] = Value::Int(step as i64));
                }
                4 if working.len() > 1 => {
                    let rid = working.swap_remove(next(working.len() as u64) as usize);
                    db.delete_row_logged(tx, t, rid);
                }
                5 => {
                    let row = vec![Value::Int(1000 + step as i64), Value::Int(1)];
                    working.push(db.insert_row_logged(tx, t, row));
                }
                6 => {
                    db.commit_txn_logged(tx);
                    db.wal.flush_for_commit();
                    *open = None;
                    *committed = working.clone();
                }
                7 => {
                    db.rollback_txn(tx);
                    *open = None;
                    *working = committed.clone();
                }
                8 => {
                    db.log_checkpoint();
                }
                _ => db.wal.flush_durable(),
            }
        }
        (db, t)
    }

    /// Recovers in rounds of `budgets` (then unbounded), re-crashing
    /// between rounds with `crash`; returns every round's report.
    fn recover_rounds(
        mut image: CrashImage,
        budgets: &[usize],
        mut crash: impl FnMut(&mut Database) -> CrashImage,
    ) -> (Database, Vec<RecoveryReport>) {
        let mut reports = Vec::new();
        loop {
            let (mut db, report) = recover(image, budgets.get(reports.len()).copied());
            let done = report.completed;
            reports.push(report);
            if done {
                return (db, reports);
            }
            image = crash(&mut db);
        }
    }

    #[test]
    fn moved_crash_image_recovers_like_a_copied_one() {
        /// The pre-move extraction: copies the surviving log.
        fn copied(db: &mut Database, keep: impl FnOnce(u64) -> u64) -> CrashImage {
            CrashImage {
                snapshots: db.take_snapshots(),
                wal_image: db.wal.crash_image(keep),
            }
        }
        let (mut undone, mut recrashed, mut torn) = (0, 0, false);
        for (i, steps) in [7u64, 23, 60, 111, 190, 333].into_iter().enumerate() {
            let budgets: &[usize] = if i % 2 == 1 { &[1, 2, 1] } else { &[] };
            // Half, all or none of the oldest in-flight flush persists.
            let keep = move |n: u64| [n / 2, n, 0][i % 3];
            let (mut halted, t) = halted_after(steps);
            let mut reference = halted.clone();

            let image = CrashImage::extract(&mut halted, keep);
            assert!(halted.wal.image().is_empty(), "extract moves the log out");
            let (got, got_reports) =
                recover_rounds(image, budgets, |d| CrashImage::extract(d, |_| 0));
            let image = copied(&mut reference, keep);
            let (want, want_reports) = recover_rounds(image, budgets, |d| copied(d, |_| 0));

            assert_eq!(got_reports, want_reports, "kill after {steps} steps");
            assert_eq!(
                values(&got, t),
                values(&want, t),
                "kill after {steps} steps"
            );
            assert_eq!(
                got.wal.image(),
                want.wal.image(),
                "kill after {steps} steps"
            );
            undone += want_reports.iter().map(|r| r.undo_records).sum::<u64>();
            recrashed += usize::from(want_reports.len() > 1);
            torn |= want_reports[0].torn_tail;
        }
        assert!(undone > 0, "the kill points must leave losers to undo");
        assert!(recrashed >= 2, "budgeted recovery must be killed mid-undo");
        assert!(torn, "one kill point must tear an in-flight flush");
    }

    #[test]
    fn torn_tail_truncates_to_last_whole_flush() {
        let (mut db, t) = setup();
        let tx = txn(&mut db);
        db.update_row_logged(tx, t, RowId(4), |r| r[1] = Value::Int(4));
        db.commit_txn_logged(tx);
        db.wal.flush_for_commit();
        db.wal.flush_durable();

        let tx2 = txn(&mut db);
        for pass in 0..2 {
            for i in 5..10 {
                db.update_row_logged(tx2, t, RowId(i), |r| r[1] = Value::Int(50 + pass));
            }
        }
        db.commit_txn_logged(tx2);
        db.wal.flush_for_commit();
        // Crash mid-flush: the in-flight range spans several sectors and
        // only the first persists, so the trailing Commit record is torn
        // off and tx2 must be rolled back.
        let image = CrashImage::extract(&mut db, |sectors| {
            assert!(sectors > 1, "test needs a multi-sector flush");
            1
        });
        let (rec, report) = recover(image, None);
        assert!(report.completed);
        assert!(report.torn_tail, "a mid-flush crash leaves a torn tail");
        assert_eq!(rec.table(t).heap.get(RowId(4)).unwrap()[1].as_int(), 4);
        for i in 5..10 {
            assert_eq!(rec.table(t).heap.get(RowId(i)).unwrap()[1].as_int(), 0);
        }
    }
}
