//! Property-based tests for WAL record encoding.
//!
//! The hot path serializes every record through one reusable buffer per
//! log ([`dbsens_storage::wal::encode_record_into`]); these properties pin
//! that reuse to byte identity with the fresh-allocation reference
//! encoding, across arbitrary record sequences — including sequences where
//! a large record leaves a grown, dirty buffer behind for a small one —
//! and check that framed images built through the reused path still scan
//! back to the exact records appended. String values, shared `Arc<str>`
//! in memory, must encode and serialize byte for byte as owned strings.

use dbsens_storage::value::{Row, Value};
use dbsens_storage::wal::{encode_record, encode_record_into, scan_log, ClrAction, Wal, WalRecord};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// `Value` as it was with owned strings: the JSON reference.
#[derive(Debug, Serialize, Deserialize)]
enum OwnedValue {
    Int(i64),
    Float(f64),
    Str(String),
    Null,
}

fn value_strat() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-z]{0,12}".prop_map(Value::from),
        Just(Value::Null),
    ]
}

fn row_strat() -> impl Strategy<Value = Row> {
    prop::collection::vec(value_strat(), 0..5)
}

fn record_strat() -> impl Strategy<Value = WalRecord> {
    let clr_action = prop_oneof![
        Just(ClrAction::Remove),
        row_strat().prop_map(|row| ClrAction::Reinsert { row }),
        row_strat().prop_map(|row| ClrAction::SetTo { row }),
    ];
    prop_oneof![
        any::<u64>().prop_map(|txn| WalRecord::Begin { txn }),
        (any::<u64>(), any::<u32>(), any::<u64>(), row_strat()).prop_map(
            |(txn, table, rid, row)| WalRecord::Insert {
                txn,
                table,
                rid,
                row
            }
        ),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            row_strat(),
            row_strat()
        )
            .prop_map(|(txn, table, rid, before, after)| WalRecord::Update {
                txn,
                table,
                rid,
                before,
                after
            }),
        (any::<u64>(), any::<u32>(), any::<u64>(), row_strat()).prop_map(
            |(txn, table, rid, row)| WalRecord::Delete {
                txn,
                table,
                rid,
                row
            }
        ),
        any::<u64>().prop_map(|txn| WalRecord::Commit { txn }),
        any::<u64>().prop_map(|txn| WalRecord::Abort { txn }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            clr_action
        )
            .prop_map(|(txn, undo_of, table, rid, action)| WalRecord::Clr {
                txn,
                undo_of,
                table,
                rid,
                action
            }),
        (
            prop::collection::vec(any::<u64>(), 0..4),
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        )
            .prop_map(|(active_txns, dirty_pages)| WalRecord::Checkpoint {
                active_txns,
                dirty_pages
            }),
    ]
}

proptest! {
    /// Encoding through a reused (possibly grown, previously dirty) buffer
    /// must produce exactly the bytes of a fresh per-record allocation.
    #[test]
    fn reused_buffer_matches_fresh_encoding(recs in prop::collection::vec(record_strat(), 1..24)) {
        let mut buf = Vec::new();
        for rec in &recs {
            let fresh = encode_record(rec);
            encode_record_into(rec, &mut buf);
            prop_assert_eq!(&fresh, &buf, "reused-buffer encoding diverged for {:?}", rec);
        }
    }

    /// Frames appended through the reused buffer scan back to the exact
    /// records, in order, with the checksum chain intact.
    #[test]
    fn framed_image_roundtrips(recs in prop::collection::vec(record_strat(), 1..24)) {
        let mut wal = Wal::new();
        wal.enable_capture();
        for rec in &recs {
            wal.append_record(rec, 64);
        }
        wal.force_durable();
        let scan = scan_log(wal.image());
        prop_assert_eq!(scan.records.len(), recs.len());
        for ((_, got), want) in scan.records.iter().zip(recs.iter()) {
            prop_assert_eq!(got, want);
        }
    }

    /// A string value's WAL bytes are its owned bytes behind tag 2 and a
    /// length, decode back to an equal value, and re-encode identically;
    /// its JSON is the owned-string JSON and parses back to the same value.
    #[test]
    fn string_values_encode_like_owned_strings(s in "[a-z\\\"\u{e9}\u{1F600} ]{0,24}") {
        let row: Row = vec![Value::from(s.as_str())];
        let rec = WalRecord::Insert { txn: 1, table: 2, rid: 3, row: row.clone() };
        let bytes = encode_record(&rec);
        let mut tail = vec![1, 0, 0, 0, 2];
        tail.extend_from_slice(&(s.len() as u32).to_le_bytes());
        tail.extend_from_slice(s.as_bytes());
        prop_assert!(bytes.ends_with(&tail));
        let mut wal = Wal::new();
        wal.enable_capture();
        wal.append_record(&rec, 64);
        wal.force_durable();
        let scan = scan_log(wal.image());
        prop_assert_eq!(&scan.records[0].1, &rec);
        prop_assert_eq!(encode_record(&scan.records[0].1), bytes);

        let json = serde_json::to_string(&row[0]).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&OwnedValue::Str(s.clone())).unwrap());
        let back: Value = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, row[0].clone());
    }
}
