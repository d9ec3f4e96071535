//! Property-based tests for WAL crash semantics.
//!
//! Random transactional histories (begin / write / delete / commit /
//! abort / flush-completion) drive the logical log, then a crash keeps an
//! arbitrary sector prefix of the oldest in-flight flush. An ARIES-style
//! replay of the surviving log must agree with a committed-transactions-only
//! oracle: no committed record is ever lost, no aborted record is ever
//! resurrected, and the checksum chain rejects any corrupted sector.

use dbsens_storage::value::{Row, Value};
use dbsens_storage::wal::{scan_log, ClrAction, Lsn, Wal, WalRecord};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum WalOp {
    /// Open a transaction on a client connection (no-op if one is open).
    Begin(u8),
    /// Upsert `client`'s slot to a value (implicitly begins).
    Write(u8, u8, i64),
    /// Delete `client`'s slot if present (implicitly begins).
    Delete(u8, u8),
    /// Commit: append the commit record and submit a group-commit flush.
    Commit(u8),
    /// Abort: append CLRs in reverse order, then the abort record.
    Abort(u8),
    /// The device completes the oldest in-flight flush.
    FlushComplete,
}

fn wal_ops() -> impl Strategy<Value = Vec<WalOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..3).prop_map(WalOp::Begin),
            ((0u8..3), (0u8..4), -100i64..100).prop_map(|(c, s, v)| WalOp::Write(c, s, v)),
            ((0u8..3), (0u8..4), -100i64..100).prop_map(|(c, s, v)| WalOp::Write(c, s, v)),
            ((0u8..3), (0u8..4)).prop_map(|(c, s)| WalOp::Delete(c, s)),
            (0u8..3).prop_map(WalOp::Commit),
            (0u8..3).prop_map(WalOp::Abort),
            Just(WalOp::FlushComplete),
        ],
        1..80,
    )
}

/// One undoable operation of an open transaction.
#[derive(Debug, Clone)]
enum Undo {
    /// Undo an insert: remove the row again.
    Remove { lsn: u64, rid: u64 },
    /// Undo an update or delete: restore the before image.
    Put {
        lsn: u64,
        rid: u64,
        before: Row,
        was_delete: bool,
    },
}

/// Drives a captured [`Wal`] through a history. Each client owns a
/// disjoint rid range (rid = client * 16 + slot), mirroring the engine's
/// exact-row locking under capture: one writer per logical row at a time.
struct Harness {
    wal: Wal,
    /// Live table state as the workload saw it (rid -> row).
    table: BTreeMap<u64, Row>,
    /// Open transaction per client, with its undo chain.
    active: BTreeMap<u8, (u64, Vec<Undo>)>,
    next_txn: u64,
    /// Every record appended, in LSN order.
    appended: Vec<(Lsn, WalRecord)>,
}

impl Harness {
    fn new() -> Self {
        let mut wal = Wal::new();
        wal.enable_capture();
        Harness {
            wal,
            table: BTreeMap::new(),
            active: BTreeMap::new(),
            next_txn: 0,
            appended: Vec::new(),
        }
    }

    fn append(&mut self, rec: WalRecord) -> u64 {
        let lsn = self.wal.append_record(&rec, 100);
        self.appended.push((lsn, rec));
        lsn.0
    }

    fn begin(&mut self, client: u8) -> u64 {
        if let Some((txn, _)) = self.active.get(&client) {
            return *txn;
        }
        self.next_txn += 1;
        let txn = self.next_txn;
        self.active.insert(client, (txn, Vec::new()));
        self.append(WalRecord::Begin { txn });
        txn
    }

    fn apply(&mut self, op: &WalOp) {
        match *op {
            WalOp::Begin(c) => {
                self.begin(c);
            }
            WalOp::Write(c, s, v) => {
                let txn = self.begin(c);
                let rid = c as u64 * 16 + s as u64;
                let row = vec![Value::Int(v)];
                let lsn = match self.table.get(&rid).cloned() {
                    Some(before) => {
                        let lsn = self.append(WalRecord::Update {
                            txn,
                            table: 0,
                            rid,
                            before: before.clone(),
                            after: row.clone(),
                        });
                        self.active.get_mut(&c).unwrap().1.push(Undo::Put {
                            lsn,
                            rid,
                            before,
                            was_delete: false,
                        });
                        lsn
                    }
                    None => {
                        let lsn = self.append(WalRecord::Insert {
                            txn,
                            table: 0,
                            rid,
                            row: row.clone(),
                        });
                        self.active
                            .get_mut(&c)
                            .unwrap()
                            .1
                            .push(Undo::Remove { lsn, rid });
                        lsn
                    }
                };
                let _ = lsn;
                self.table.insert(rid, row);
            }
            WalOp::Delete(c, s) => {
                let rid = c as u64 * 16 + s as u64;
                let Some(before) = self.table.get(&rid).cloned() else {
                    return;
                };
                let txn = self.begin(c);
                let lsn = self.append(WalRecord::Delete {
                    txn,
                    table: 0,
                    rid,
                    row: before.clone(),
                });
                self.active.get_mut(&c).unwrap().1.push(Undo::Put {
                    lsn,
                    rid,
                    before,
                    was_delete: true,
                });
                self.table.remove(&rid);
            }
            WalOp::Commit(c) => {
                let Some((txn, _)) = self.active.remove(&c) else {
                    return;
                };
                self.append(WalRecord::Commit { txn });
                self.wal.flush_for_commit();
            }
            WalOp::Abort(c) => {
                let Some((txn, undo)) = self.active.remove(&c) else {
                    return;
                };
                for u in undo.into_iter().rev() {
                    match u {
                        Undo::Remove { lsn, rid } => {
                            self.table.remove(&rid);
                            self.append(WalRecord::Clr {
                                txn,
                                undo_of: lsn,
                                table: 0,
                                rid,
                                action: ClrAction::Remove,
                            });
                        }
                        Undo::Put {
                            lsn,
                            rid,
                            before,
                            was_delete,
                        } => {
                            self.table.insert(rid, before.clone());
                            let action = if was_delete {
                                ClrAction::Reinsert { row: before }
                            } else {
                                ClrAction::SetTo { row: before }
                            };
                            self.append(WalRecord::Clr {
                                txn,
                                undo_of: lsn,
                                table: 0,
                                rid,
                                action,
                            });
                        }
                    }
                }
                self.append(WalRecord::Abort { txn });
            }
            WalOp::FlushComplete => self.wal.flush_durable(),
        }
    }
}

/// ARIES-style recovery over a scanned log: repeat history (redo every
/// record, CLRs included), then undo losers from their own before images,
/// skipping operations a surviving CLR already compensated.
fn recover(records: &[(Lsn, WalRecord)]) -> BTreeMap<u64, Row> {
    let mut state = BTreeMap::new();
    let mut finished = BTreeSet::new();
    let mut seen = BTreeSet::new();
    let mut compensated = BTreeSet::new();
    for (_, rec) in records {
        if let Some(txn) = rec.txn() {
            seen.insert(txn);
        }
        match rec {
            WalRecord::Insert { rid, row, .. } => {
                state.insert(*rid, row.clone());
            }
            WalRecord::Update { rid, after, .. } => {
                state.insert(*rid, after.clone());
            }
            WalRecord::Delete { rid, .. } => {
                state.remove(rid);
            }
            WalRecord::Clr {
                undo_of,
                rid,
                action,
                ..
            } => {
                compensated.insert(*undo_of);
                match action {
                    ClrAction::Remove => {
                        state.remove(rid);
                    }
                    ClrAction::Reinsert { row } | ClrAction::SetTo { row } => {
                        state.insert(*rid, row.clone());
                    }
                }
            }
            WalRecord::Commit { txn } | WalRecord::Abort { txn } => {
                finished.insert(*txn);
            }
            WalRecord::Begin { .. }
            | WalRecord::Checkpoint { .. }
            | WalRecord::Prepare { .. }
            | WalRecord::CoordCommit { .. }
            | WalRecord::CoordEnd { .. } => {}
        }
    }
    // Undo losers, newest operation first.
    for (lsn, rec) in records.iter().rev() {
        let Some(txn) = rec.txn() else { continue };
        if finished.contains(&txn) || compensated.contains(&lsn.0) {
            continue;
        }
        match rec {
            WalRecord::Insert { rid, .. } => {
                state.remove(rid);
            }
            WalRecord::Update { rid, before, .. } => {
                state.insert(*rid, before.clone());
            }
            WalRecord::Delete { rid, row, .. } => {
                state.insert(*rid, row.clone());
            }
            _ => {}
        }
    }
    let _ = seen;
    state
}

/// The oracle: replay only committed transactions' forward operations.
fn committed_oracle(records: &[(Lsn, WalRecord)]) -> BTreeMap<u64, Row> {
    let committed: BTreeSet<u64> = records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    let mut state = BTreeMap::new();
    for (_, rec) in records {
        if rec.txn().is_none_or(|t| !committed.contains(&t)) {
            continue;
        }
        match rec {
            WalRecord::Insert { rid, row, .. } => {
                state.insert(*rid, row.clone());
            }
            WalRecord::Update { rid, after, .. } => {
                state.insert(*rid, after.clone());
            }
            WalRecord::Delete { rid, .. } => {
                state.remove(rid);
            }
            _ => {}
        }
    }
    state
}

fn run_history(ops: &[WalOp]) -> Harness {
    let mut h = Harness::new();
    for op in ops {
        h.apply(op);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A crash image scans to an exact prefix of the appended records that
    /// covers at least everything durable; nothing is reordered, invented,
    /// or (below the durability horizon) lost.
    #[test]
    fn crash_scan_is_a_durable_covering_prefix(ops in wal_ops(), keep in any::<u64>()) {
        let h = run_history(&ops);
        let image = h.wal.crash_image(|sectors| keep % (sectors + 1));
        let scan = scan_log(&image);
        prop_assert_eq!(
            &scan.records[..],
            &h.appended[..scan.records.len()],
            "scanned records must be an exact prefix of what was appended"
        );
        let durable = h.wal.durable_lsn().0;
        let must_survive = h.appended.iter().filter(|(lsn, _)| lsn.0 <= durable).count();
        prop_assert!(
            scan.records.len() >= must_survive,
            "lost durable records: {} scanned < {} durable",
            scan.records.len(),
            must_survive
        );
    }

    /// Recovery from any crash prefix equals the committed-only oracle:
    /// every durably committed transaction's effects are present, and no
    /// aborted (or loser) transaction leaves any trace.
    #[test]
    fn recovery_keeps_committed_and_never_resurrects_aborted(
        ops in wal_ops(),
        keep in any::<u64>(),
    ) {
        let h = run_history(&ops);
        let image = h.wal.crash_image(|sectors| keep % (sectors + 1));
        let scan = scan_log(&image);

        // Durably committed transactions must be committed in the scan.
        let durable = h.wal.durable_lsn().0;
        let scanned_commits: BTreeSet<u64> = scan
            .records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        for (lsn, rec) in &h.appended {
            if let WalRecord::Commit { txn } = rec {
                if lsn.0 <= durable {
                    prop_assert!(
                        scanned_commits.contains(txn),
                        "durably committed txn {} missing from the scan",
                        txn
                    );
                }
            }
        }

        let recovered = recover(&scan.records);
        let oracle = committed_oracle(&scan.records);
        prop_assert_eq!(recovered, oracle);
    }

    /// Moving the crash image out of a dead log yields the same bytes as
    /// copying it, for every torn-tail choice of the oldest in-flight flush
    /// (none, each sector count, and more than it has), with later flush
    /// ranges still in flight; the move keeps the log's capacity and
    /// leaves the dead log empty, and a log rebuilt from the moved image
    /// and its scan continues exactly like one rebuilt from the copy.
    #[test]
    fn moved_crash_image_equals_the_copy(ops in wal_ops()) {
        let h = run_history(&ops);
        let mut sectors = 0;
        h.wal.crash_image(|n| {
            sectors = n;
            0
        });
        for keep in 0..=sectors + 1 {
            let copy = h.wal.crash_image(|_| keep);
            let mut dead = h.wal.clone();
            let moved = dead.take_crash_image(|_| keep);
            prop_assert_eq!(&moved, &copy, "keep {} of {} sectors", keep, sectors);
            prop_assert!(moved.capacity() >= h.wal.image().len());
            prop_assert!(dead.image().is_empty());
            prop_assert!(!dead.has_inflight_flush());
            prop_assert_eq!(dead.appends(), h.wal.appends());

            let scan = scan_log(&moved);
            let mut from_copy = Wal::from_image(copy);
            let mut from_scan = Wal::from_scanned(moved, &scan);
            prop_assert_eq!(from_scan.next_lsn(), from_copy.next_lsn());
            for wal in [&mut from_copy, &mut from_scan] {
                wal.append_record(&WalRecord::Abort { txn: 99 }, 0);
                wal.force_durable();
            }
            prop_assert_eq!(from_scan.image(), from_copy.image());
        }
    }

    /// Flipping any byte of a fully durable log makes the scan stop early
    /// (torn) without ever yielding a record that was not appended: the
    /// checksum chain detects the corrupted sector.
    #[test]
    fn corrupted_sector_is_detected_by_the_checksum_chain(
        ops in wal_ops(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut h = run_history(&ops);
        h.wal.force_durable();
        let clean = h.wal.image().to_vec();
        prop_assert!(!clean.is_empty(), "force_durable pads to at least one sector");
        let clean_scan = scan_log(&clean);
        prop_assert!(!clean_scan.torn, "a fully durable log must scan cleanly");
        prop_assert_eq!(clean_scan.records.len(), h.appended.len());

        let mut corrupted = clean.clone();
        let at = at % corrupted.len();
        corrupted[at] ^= mask;
        let scan = scan_log(&corrupted);
        prop_assert!(scan.torn, "corruption at byte {} must be detected", at);
        prop_assert_eq!(
            &scan.records[..],
            &h.appended[..scan.records.len()],
            "corruption must never produce a record that was not appended"
        );
    }
}
