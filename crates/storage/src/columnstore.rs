//! Columnstore: compressed column segments with a delta store.
//!
//! Models SQL Server's columnstore indexes: rows are organized into **row
//! groups**, each column of a row group compressed into a **segment**
//! (dictionary or run-length encoding, whichever is smaller) with min/max
//! metadata for segment elimination. An updateable non-clustered columnstore
//! index (the HTAP configuration) additionally maintains a **delta store**
//! of recently inserted rows and a deleted-row bitmap; a tuple-mover
//! compresses the delta store into new row groups.

use crate::btree::RowId;
use crate::schema::Schema;
use crate::value::{cmp_values, Row, Value};
use dbsens_hwsim::fx::FxHashMap;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

/// Rows per row group. SQL Server uses ~1M rows; the logical store is
/// scaled down, so the default group is smaller but the *modeled* group
/// size used for sizing stays at paper scale in [`crate::physical`].
pub const DEFAULT_ROWGROUP_ROWS: usize = 4096;

#[derive(Debug, Clone)]
enum Encoding {
    /// Distinct values plus per-row codes (bit-packed in the byte model).
    Dict { dict: Vec<Value>, codes: Vec<u32> },
    /// Run-length encoded `(value, run_length)` pairs.
    Rle { runs: Vec<(Value, u32)> },
}

/// Dictionary identity of a value: two values share a code exactly when
/// their `{:?}` renderings are equal. `Int(1)` and `Float(1.0)` stay
/// apart, as do `0.0` and `-0.0`; every NaN is one entry (Debug prints
/// them all as `NaN`).
#[derive(Debug, PartialEq, Eq, Hash)]
enum DictKey {
    Int(i64),
    Float(u64),
    Str(Arc<str>),
    Null,
}

impl DictKey {
    fn of(v: &Value) -> Self {
        match v {
            Value::Int(i) => DictKey::Int(*i),
            Value::Float(f) if f.is_nan() => DictKey::Float(f64::NAN.to_bits()),
            Value::Float(f) => DictKey::Float(f.to_bits()),
            Value::Str(s) => DictKey::Str(s.clone()),
            Value::Null => DictKey::Null,
        }
    }
}

/// One column of one row group, compressed.
#[derive(Debug, Clone)]
pub struct ColumnSegment {
    encoding: Encoding,
    rows: usize,
    min: Value,
    max: Value,
    compressed_bytes: u64,
}

impl ColumnSegment {
    /// Compresses a column slice, choosing the smaller encoding.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty (row groups are never empty).
    pub fn compress(values: &[Value]) -> Self {
        assert!(!values.is_empty(), "empty segment");
        // Build RLE runs.
        let mut runs: Vec<(Value, u32)> = Vec::new();
        for v in values {
            match runs.last_mut() {
                Some((rv, n)) if rv == v => *n += 1,
                _ => runs.push((v.clone(), 1)),
            }
        }
        // Build a dictionary.
        let mut dict: Vec<Value> = Vec::new();
        let mut dict_pos: FxHashMap<DictKey, u32> = FxHashMap::default();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let code = *dict_pos.entry(DictKey::of(v)).or_insert_with(|| {
                dict.push(v.clone());
                dict.len() as u32 - 1
            });
            codes.push(code);
        }
        let value_bytes = |v: &Value| v.byte_size();
        let rle_bytes: u64 = runs.iter().map(|(v, _)| value_bytes(v) + 4).sum();
        let code_bits = (usize::BITS - (dict.len().max(2) - 1).leading_zeros()) as u64;
        let dict_bytes: u64 = dict.iter().map(value_bytes).sum::<u64>()
            + (values.len() as u64 * code_bits).div_ceil(8);

        let (min, max) =
            values
                .iter()
                .fold((values[0].clone(), values[0].clone()), |(mn, mx), v| {
                    let mn = if cmp_values(v, &mn) == Ordering::Less {
                        v.clone()
                    } else {
                        mn
                    };
                    let mx = if cmp_values(v, &mx) == Ordering::Greater {
                        v.clone()
                    } else {
                        mx
                    };
                    (mn, mx)
                });

        let rows = values.len();
        if rle_bytes <= dict_bytes {
            ColumnSegment {
                encoding: Encoding::Rle { runs },
                rows,
                min,
                max,
                compressed_bytes: rle_bytes,
            }
        } else {
            ColumnSegment {
                encoding: Encoding::Dict { dict, codes },
                rows,
                min,
                max,
                compressed_bytes: dict_bytes,
            }
        }
    }

    /// Number of rows in the segment.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Estimated compressed size in bytes (drives scan I/O volume).
    pub fn compressed_bytes(&self) -> u64 {
        self.compressed_bytes
    }

    /// Segment minimum value.
    pub fn min(&self) -> &Value {
        &self.min
    }

    /// Segment maximum value.
    pub fn max(&self) -> &Value {
        &self.max
    }

    /// Decodes the segment back into values.
    pub fn decode(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.rows);
        self.for_each(|v| out.push(v.clone()));
        out
    }

    /// Calls `f` with every row's value in row order, without building a
    /// vector.
    pub fn for_each(&self, mut f: impl FnMut(&Value)) {
        match &self.encoding {
            Encoding::Dict { dict, codes } => {
                for &c in codes {
                    f(&dict[c as usize]);
                }
            }
            Encoding::Rle { runs } => {
                for (v, n) in runs {
                    for _ in 0..*n {
                        f(v);
                    }
                }
            }
        }
    }

    /// Could any row in this segment satisfy `lo <= v <= hi`? Drives
    /// segment elimination.
    pub fn overlaps(&self, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        if let Some(lo) = lo {
            if cmp_values(&self.max, lo) == Ordering::Less {
                return false;
            }
        }
        if let Some(hi) = hi {
            if cmp_values(&self.min, hi) == Ordering::Greater {
                return false;
            }
        }
        true
    }
}

/// One compressed row group: one segment per column.
#[derive(Debug, Clone)]
pub struct RowGroup {
    segments: Vec<ColumnSegment>,
    rows: usize,
}

impl RowGroup {
    /// Compresses `rows` (column-major conversion happens internally).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn compress(schema: &Schema, rows: &[Row]) -> Self {
        assert!(!rows.is_empty(), "empty row group");
        let segments = (0..schema.len())
            .map(|c| {
                let col: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                ColumnSegment::compress(&col)
            })
            .collect();
        RowGroup {
            segments,
            rows: rows.len(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The segment for column `c`.
    pub fn segment(&self, c: usize) -> &ColumnSegment {
        &self.segments[c]
    }

    /// Total compressed bytes across all columns.
    pub fn compressed_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(ColumnSegment::compressed_bytes)
            .sum()
    }
}

/// A (non-clustered, updateable) columnstore over a table.
///
/// # Examples
///
/// ```
/// use dbsens_storage::columnstore::ColumnStore;
/// use dbsens_storage::schema::{ColType, Schema};
/// use dbsens_storage::value::Value;
///
/// let schema = Schema::new(&[("id", ColType::Int), ("qty", ColType::Int)]);
/// let rows: Vec<Vec<Value>> =
///     (0..100).map(|i| vec![Value::Int(i), Value::Int(i % 5)]).collect();
/// let mut cs = ColumnStore::build(schema, &rows, 32);
/// assert_eq!(cs.total_rows(), 100);
/// cs.insert(dbsens_storage::btree::RowId(1000), vec![Value::Int(1000), Value::Int(3)]);
/// assert_eq!(cs.delta_rows(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ColumnStore {
    schema: Schema,
    groups: Vec<RowGroup>,
    rowgroup_rows: usize,
    delta: Vec<(RowId, Row)>,
    deleted: HashSet<RowId>,
    /// Row ids stored per compressed group, for delete lookups.
    group_rids: Vec<Vec<RowId>>,
}

impl ColumnStore {
    /// Builds a columnstore over initial rows. Row ids for the initial load
    /// are assigned sequentially from 0.
    pub fn build(schema: Schema, rows: &[Row], rowgroup_rows: usize) -> Self {
        let rowgroup_rows = rowgroup_rows.max(1);
        let mut cs = ColumnStore {
            schema,
            groups: Vec::new(),
            rowgroup_rows,
            delta: Vec::new(),
            deleted: HashSet::new(),
            group_rids: Vec::new(),
        };
        for (start, chunk) in rows.chunks(rowgroup_rows).enumerate() {
            cs.groups.push(RowGroup::compress(&cs.schema, chunk));
            cs.group_rids.push(
                (0..chunk.len())
                    .map(|i| RowId((start * rowgroup_rows + i) as u64))
                    .collect(),
            );
        }
        cs
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Inserts a row into the delta store.
    pub fn insert(&mut self, rid: RowId, row: Row) {
        debug_assert!(self.schema.check_row(&row));
        self.delta.push((rid, row));
    }

    /// Deletes a row: delta-store rows are removed physically; compressed
    /// rows are marked in the deleted bitmap (the NCCI maintenance model).
    pub fn delete(&mut self, rid: RowId) {
        if let Some(pos) = self.delta.iter().position(|(r, _)| *r == rid) {
            self.delta.remove(pos);
        } else {
            self.deleted.insert(rid);
        }
    }

    /// Updates = delete + insert, per the NCCI maintenance model.
    pub fn update(&mut self, rid: RowId, new_row: Row) {
        self.delete(rid);
        self.insert(rid, new_row);
    }

    /// Rows currently in the (uncompressed) delta store.
    pub fn delta_rows(&self) -> usize {
        self.delta.len()
    }

    /// Live rows across compressed groups and delta.
    pub fn total_rows(&self) -> usize {
        let compressed: usize = self
            .group_rids
            .iter()
            .map(|rids| rids.iter().filter(|r| !self.deleted.contains(r)).count())
            .sum();
        compressed + self.delta_rows()
    }

    /// The compressed row groups.
    pub fn groups(&self) -> &[RowGroup] {
        &self.groups
    }

    /// Total compressed bytes (the scan footprint).
    pub fn compressed_bytes(&self) -> u64 {
        self.groups.iter().map(RowGroup::compressed_bytes).sum()
    }

    /// Scans column `c`, applying segment elimination against the optional
    /// `[lo, hi]` bound on that column, and including delta rows. Returns
    /// `(values, groups_scanned, groups_eliminated)`.
    pub fn scan_column(
        &self,
        c: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> (Vec<Value>, usize, usize) {
        let mut out = Vec::new();
        let mut scanned = 0;
        let mut eliminated = 0;
        for (g, group) in self.groups.iter().enumerate() {
            if !group.segment(c).overlaps(lo, hi) {
                eliminated += 1;
                continue;
            }
            scanned += 1;
            let values = group.segment(c).decode();
            for (i, v) in values.into_iter().enumerate() {
                if !self.deleted.contains(&self.group_rids[g][i]) {
                    out.push(v);
                }
            }
        }
        for (_, row) in &self.delta {
            out.push(row[c].clone());
        }
        (out, scanned, eliminated)
    }

    /// Scans whole rows (all columns), applying segment elimination on
    /// column `elim_col` if bounds are given.
    pub fn scan_rows(&self, elim_col: Option<(usize, Option<&Value>, Option<&Value>)>) -> Vec<Row> {
        let mut out = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            if let Some((c, lo, hi)) = elim_col {
                if !group.segment(c).overlaps(lo, hi) {
                    continue;
                }
            }
            // Rows are assembled by *moving* values out of the decoded
            // columns (one decode clone per value, not two) — string-heavy
            // schemas would otherwise double their allocation traffic here.
            let mut cols: Vec<std::vec::IntoIter<Value>> = (0..self.schema.len())
                .map(|c| group.segment(c).decode().into_iter())
                .collect();
            for i in 0..group.rows() {
                let row: Row = cols
                    .iter_mut()
                    .map(|col| col.next().expect("segment rows match group rows"))
                    .collect();
                if !self.deleted.contains(&self.group_rids[g][i]) {
                    out.push(row);
                }
            }
        }
        for (_, row) in &self.delta {
            out.push(row.clone());
        }
        out
    }

    /// Plans a column-at-a-time scan of the rows [`scan_rows`] returns, in
    /// the same order: surviving row groups (segment elimination on
    /// `elim_col`) minus deleted rows, then the delta store.
    ///
    /// [`scan_rows`]: ColumnStore::scan_rows
    pub fn live_scan(
        &self,
        elim_col: Option<(usize, Option<&Value>, Option<&Value>)>,
    ) -> LiveScan<'_> {
        let mut groups = Vec::new();
        let mut rows = self.delta.len();
        for (g, group) in self.groups.iter().enumerate() {
            if let Some((c, lo, hi)) = elim_col {
                if !group.segment(c).overlaps(lo, hi) {
                    continue;
                }
            }
            let live: Option<Vec<bool>> = if self.deleted.is_empty() {
                None
            } else {
                let live: Vec<bool> = self.group_rids[g]
                    .iter()
                    .map(|r| !self.deleted.contains(r))
                    .collect();
                live.contains(&false).then_some(live)
            };
            rows += live
                .as_ref()
                .map_or(group.rows(), |l| l.iter().filter(|&&b| b).count());
            groups.push((group, live));
        }
        LiveScan {
            groups,
            delta: &self.delta,
            rows,
        }
    }

    /// Runs the tuple mover: compresses full delta-store chunks into new
    /// row groups. Returns the number of rows compressed.
    pub fn move_tuples(&mut self) -> usize {
        let live: Vec<(RowId, Row)> = self.delta.drain(..).collect();
        let moved = live.len();
        for chunk in live.chunks(self.rowgroup_rows) {
            let rows: Vec<Row> = chunk.iter().map(|(_, r)| r.clone()).collect();
            self.groups.push(RowGroup::compress(&self.schema, &rows));
            self.group_rids
                .push(chunk.iter().map(|(rid, _)| *rid).collect());
        }
        moved
    }
}

/// A planned columnstore scan (see [`ColumnStore::live_scan`]): decodes
/// one column at a time straight from the segments.
#[derive(Debug)]
pub struct LiveScan<'a> {
    /// Surviving groups, each with its live-row flags when any row of the
    /// group is deleted.
    groups: Vec<(&'a RowGroup, Option<Vec<bool>>)>,
    delta: &'a [(RowId, Row)],
    rows: usize,
}

impl LiveScan<'_> {
    /// Number of rows the scan yields.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Calls `f` with column `c` of every scanned row, in scan order.
    pub fn for_each(&self, c: usize, mut f: impl FnMut(&Value)) {
        for (group, live) in &self.groups {
            match live {
                None => group.segment(c).for_each(&mut f),
                Some(live) => {
                    let mut i = 0;
                    group.segment(c).for_each(|v| {
                        if live[i] {
                            f(v);
                        }
                        i += 1;
                    });
                }
            }
        }
        for (_, row) in self.delta {
            f(&row[c]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColType;

    fn schema() -> Schema {
        Schema::new(&[
            ("id", ColType::Int),
            ("status", ColType::Str(1)),
            ("qty", ColType::Int),
        ])
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(if i % 2 == 0 { "A".into() } else { "B".into() }),
                    Value::Int(i % 10),
                ]
            })
            .collect()
    }

    #[test]
    fn segment_roundtrip_dict_and_rle() {
        // Low-cardinality column favours one of the encodings; either way
        // decode must be exact.
        let vals: Vec<Value> = (0..500).map(|i| Value::Int(i % 3)).collect();
        let seg = ColumnSegment::compress(&vals);
        assert_eq!(seg.decode(), vals);
        assert_eq!(seg.min(), &Value::Int(0));
        assert_eq!(seg.max(), &Value::Int(2));
        // Compression beats the raw 8 bytes/value by a wide margin.
        assert!(
            seg.compressed_bytes() < 500 * 8 / 4,
            "bytes={}",
            seg.compressed_bytes()
        );
    }

    #[test]
    fn rle_wins_on_sorted_runs() {
        let vals: Vec<Value> = (0..1000).map(|i| Value::Int(i / 100)).collect();
        let seg = ColumnSegment::compress(&vals);
        assert!(seg.compressed_bytes() <= 10 * 12);
        assert_eq!(seg.decode(), vals);
    }

    #[test]
    fn segment_elimination_bounds() {
        let vals: Vec<Value> = (100..200).map(Value::Int).collect();
        let seg = ColumnSegment::compress(&vals);
        assert!(!seg.overlaps(Some(&Value::Int(500)), None));
        assert!(!seg.overlaps(None, Some(&Value::Int(50))));
        assert!(seg.overlaps(Some(&Value::Int(150)), Some(&Value::Int(160))));
        assert!(seg.overlaps(None, None));
    }

    #[test]
    fn build_and_scan_column() {
        let cs = ColumnStore::build(schema(), &rows(100), 32);
        assert_eq!(cs.groups().len(), 4); // 32+32+32+4
        let (vals, scanned, eliminated) = cs.scan_column(0, None, None);
        assert_eq!(vals.len(), 100);
        assert_eq!(scanned, 4);
        assert_eq!(eliminated, 0);
    }

    #[test]
    fn scan_with_elimination_skips_groups() {
        // id column is sorted, so range predicates eliminate groups.
        let cs = ColumnStore::build(schema(), &rows(100), 25);
        let lo = Value::Int(80);
        let (vals, scanned, eliminated) = cs.scan_column(0, Some(&lo), None);
        // Elimination is per-group: the surviving group contributes all of
        // its 25 values (value-level filtering happens in the operator).
        assert_eq!(vals.len(), 25);
        assert_eq!(scanned, 1);
        assert_eq!(eliminated, 3);
    }

    #[test]
    fn delta_store_and_deletes() {
        let mut cs = ColumnStore::build(schema(), &rows(50), 25);
        cs.insert(
            RowId(1000),
            vec![Value::Int(1000), Value::Str("C".into()), Value::Int(5)],
        );
        cs.insert(
            RowId(1001),
            vec![Value::Int(1001), Value::Str("C".into()), Value::Int(5)],
        );
        assert_eq!(cs.delta_rows(), 2);
        assert_eq!(cs.total_rows(), 52);
        // Delete one compressed row and one delta row.
        cs.delete(RowId(10));
        cs.delete(RowId(1001));
        assert_eq!(cs.total_rows(), 50);
        let (vals, _, _) = cs.scan_column(0, None, None);
        assert!(!vals.contains(&Value::Int(10)));
        assert!(vals.contains(&Value::Int(1000)));
        assert!(!vals.contains(&Value::Int(1001)));
    }

    #[test]
    fn update_is_delete_plus_insert() {
        let mut cs = ColumnStore::build(schema(), &rows(10), 5);
        cs.update(
            RowId(3),
            vec![Value::Int(333), Value::Str("Z".into()), Value::Int(9)],
        );
        let (vals, _, _) = cs.scan_column(0, None, None);
        assert!(!vals.contains(&Value::Int(3)));
        assert!(vals.contains(&Value::Int(333)));
        assert_eq!(cs.total_rows(), 10);
    }

    #[test]
    fn tuple_mover_compresses_delta() {
        let mut cs = ColumnStore::build(schema(), &rows(10), 8);
        for i in 100..120 {
            cs.insert(
                RowId(i),
                vec![Value::Int(i as i64), Value::Str("D".into()), Value::Int(1)],
            );
        }
        let groups_before = cs.groups().len();
        let moved = cs.move_tuples();
        assert_eq!(moved, 20);
        assert_eq!(cs.delta_rows(), 0);
        assert!(cs.groups().len() > groups_before);
        assert_eq!(cs.total_rows(), 30);
    }

    #[test]
    fn scan_rows_reconstructs_rows() {
        let cs = ColumnStore::build(schema(), &rows(30), 10);
        let all = cs.scan_rows(None);
        assert_eq!(all.len(), 30);
        assert_eq!(all[7][0].as_int(), 7);
        assert_eq!(all[7][2].as_int(), 7);
    }

    /// The typed dictionary key gives the codes, dictionary order and
    /// byte size of the `{:?}` fingerprint dictionary it replaced.
    #[test]
    fn typed_dictionary_matches_debug_fingerprints() {
        let distinct = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Str("1".into()),
            Value::Str("Int(1)".into()),
            Value::Str("".into()),
            Value::Null,
            Value::Int(-7),
        ];
        let values: Vec<Value> = (0..300)
            .map(|i| distinct[(i * 7 + i / 13) % distinct.len()].clone())
            .collect();
        let mut pos: std::collections::HashMap<String, u32> = Default::default();
        let (mut dict, mut codes) = (Vec::new(), Vec::new());
        for v in &values {
            codes.push(*pos.entry(format!("{v:?}")).or_insert_with(|| {
                dict.push(v.clone());
                dict.len() as u32 - 1
            }));
        }
        let code_bits = (usize::BITS - (dict.len().max(2) - 1).leading_zeros()) as u64;
        let dict_bytes = dict.iter().map(Value::byte_size).sum::<u64>()
            + (values.len() as u64 * code_bits).div_ceil(8);
        let seg = ColumnSegment::compress(&values);
        match &seg.encoding {
            Encoding::Dict { dict: d, codes: c } => {
                assert_eq!(c, &codes);
                assert_eq!(format!("{d:?}"), format!("{dict:?}"));
            }
            Encoding::Rle { .. } => panic!("the dictionary should win on unsorted values"),
        }
        assert_eq!(seg.compressed_bytes(), dict_bytes);
        assert_eq!(format!("{:?}", seg.decode()), format!("{values:?}"));
    }

    /// A column-at-a-time live scan yields exactly `scan_rows`' rows, in
    /// order, under deletes, delta rows and segment elimination.
    #[test]
    fn live_scan_matches_scan_rows() {
        let mut cs = ColumnStore::build(schema(), &rows(100), 16);
        for rid in [3, 17, 18, 40, 99] {
            cs.delete(RowId(rid));
        }
        for i in 200..206 {
            cs.insert(
                RowId(i),
                vec![Value::Int(i as i64), Value::Str("D".into()), Value::Null],
            );
        }
        cs.delete(RowId(202));
        let (lo, hi) = (Value::Int(30), Value::Int(70));
        for elim in [
            None,
            Some((0, Some(&lo), Some(&hi))),
            Some((0, None, Some(&lo))),
        ] {
            let scan = cs.live_scan(elim);
            let mut got: Vec<Row> = vec![Vec::new(); scan.rows()];
            for c in 0..3 {
                let mut i = 0;
                scan.for_each(c, |v| {
                    got[i].push(v.clone());
                    i += 1;
                });
                assert_eq!(i, scan.rows());
            }
            assert_eq!(got, cs.scan_rows(elim));
        }
    }
}
