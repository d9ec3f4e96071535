//! Property-based tests for the storage substrates.

use dbsens_storage::btree::{BTree, RowId};
use dbsens_storage::bufferpool::{BufferPool, EXTENT_BYTES};
use dbsens_storage::columnstore::ColumnSegment;
use dbsens_storage::value::{cmp_values, Key, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(i64),
    Remove(i64),
}

fn tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    prop::collection::vec(
        prop_oneof![
            (0i64..200).prop_map(TreeOp::Insert),
            (0i64..200).prop_map(TreeOp::Remove),
        ],
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The B+ tree behaves exactly like a reference BTreeMap under any
    /// interleaving of inserts and removes, and its structural invariants
    /// hold throughout.
    #[test]
    fn btree_matches_reference_model(ops in tree_ops()) {
        let mut tree = BTree::new();
        let mut model: BTreeMap<i64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k) => {
                    let inserted_tree = tree.insert(Key::int(k), RowId(k as u64));
                    let inserted_model = model.insert(k, k as u64).is_none();
                    prop_assert_eq!(inserted_tree, inserted_model);
                }
                TreeOp::Remove(k) => {
                    let removed_tree = tree.remove(&Key::int(k), RowId(k as u64));
                    let removed_model = model.remove(&k).is_some();
                    prop_assert_eq!(removed_tree, removed_model);
                }
            }
        }
        tree.check_invariants();
        prop_assert_eq!(tree.len(), model.len());
        let tree_keys: Vec<i64> = tree.iter().map(|(k, _)| k.values()[0].as_int()).collect();
        let model_keys: Vec<i64> = model.keys().copied().collect();
        prop_assert_eq!(tree_keys, model_keys);
    }

    /// Range queries agree with the reference model.
    #[test]
    fn btree_range_matches_reference(
        keys in prop::collection::btree_set(0i64..500, 0..100),
        lo in 0i64..500,
        len in 0i64..100,
    ) {
        let mut tree = BTree::new();
        for &k in &keys {
            tree.insert(Key::int(k), RowId(k as u64));
        }
        let hi = lo + len;
        let klo = Key::int(lo);
        let khi = Key::int(hi);
        let got: Vec<i64> = tree.range(&klo, &khi).map(|(k, _)| k.values()[0].as_int()).collect();
        let expected: Vec<i64> = keys.iter().copied().filter(|k| (lo..hi).contains(k)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Column segments decode to exactly what was encoded, whatever the
    /// value mix.
    #[test]
    fn columnsegment_roundtrip(values in prop::collection::vec(
        prop_oneof![
            (-1000i64..1000).prop_map(Value::Int),
            (0u8..20).prop_map(|v| Value::Str(format!("s{v}").into())),
            (-100i64..100).prop_map(|v| Value::Float(v as f64 * 0.5)),
        ],
        1..300,
    )) {
        let seg = ColumnSegment::compress(&values);
        prop_assert_eq!(seg.decode(), values.clone());
        prop_assert_eq!(seg.rows(), values.len());
        // min/max bound every value.
        for v in &values {
            prop_assert_ne!(cmp_values(v, seg.min()), std::cmp::Ordering::Less);
            prop_assert_ne!(cmp_values(v, seg.max()), std::cmp::Ordering::Greater);
        }
    }

    /// Buffer pool accounting: hits + misses always equals the pages
    /// requested, and residency never exceeds capacity.
    #[test]
    fn bufferpool_accounting_invariants(
        capacity_extents in 1u64..16,
        accesses in prop::collection::vec((0u64..2000, 1u64..200, any::<bool>()), 1..60),
    ) {
        let mut pool = BufferPool::new(capacity_extents * EXTENT_BYTES);
        for (start, pages, write) in accesses {
            let out = pool.access(start, pages, write);
            prop_assert_eq!(out.hit_pages + out.miss_pages, pages);
            prop_assert!(pool.resident_bytes() <= pool.capacity_bytes());
        }
        let s = pool.stats();
        prop_assert_eq!(
            s.hit_pages + s.miss_pages >= s.evicted_dirty_pages,
            true,
            "cannot write back more pages than were ever touched"
        );
    }

    /// Key comparison is a total order: antisymmetric and transitive over
    /// arbitrary composite keys.
    #[test]
    fn key_ordering_is_total(
        a in prop::collection::vec(-50i64..50, 1..4),
        b in prop::collection::vec(-50i64..50, 1..4),
        c in prop::collection::vec(-50i64..50, 1..4),
    ) {
        let ka = Key::from_values(a.into_iter().map(Value::Int).collect());
        let kb = Key::from_values(b.into_iter().map(Value::Int).collect());
        let kc = Key::from_values(c.into_iter().map(Value::Int).collect());
        // Antisymmetry.
        prop_assert_eq!(ka.cmp(&kb), kb.cmp(&ka).reverse());
        // Transitivity.
        if ka <= kb && kb <= kc {
            prop_assert!(ka <= kc);
        }
        // Reflexivity.
        prop_assert_eq!(ka.cmp(&ka), std::cmp::Ordering::Equal);
    }
}
