//! Columnar batches for the push-based executor.
//!
//! A [`Batch`] is a fixed-size morsel of rows transposed into typed
//! [`ColumnVector`]s plus an optional selection mask. Sources
//! ([`crate::pushexec`]'s scan stage) emit batches; operators consume and
//! produce them through the [`crate::pushexec::PhysicalOperator`] trait;
//! [`crate::vexpr::PhysicalExpr`] evaluates expressions column-at-a-time
//! over them. Columns whose values share one type get a dense typed vector
//! (`Int`/`Float`/`Str`); mixed or nullable columns fall back to
//! [`ColumnVector::Mixed`], preserving the row engine's exact `Value`
//! semantics.

use dbsens_storage::value::{Row, Value};
use std::sync::Arc;

/// One column of a batch, stored as a typed dense vector when the column
/// is uniformly typed and as boxed values otherwise.
#[derive(Debug, Clone)]
pub enum ColumnVector {
    /// All values are `Value::Int`.
    Int(Vec<i64>),
    /// All values are `Value::Float`.
    Float(Vec<f64>),
    /// All values are `Value::Str`.
    Str(Vec<Arc<str>>),
    /// Mixed types or NULLs present.
    Mixed(Vec<Value>),
}

impl ColumnVector {
    /// Number of entries (including unselected ones).
    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Int(v) => v.len(),
            ColumnVector::Float(v) => v.len(),
            ColumnVector::Str(v) => v.len(),
            ColumnVector::Mixed(v) => v.len(),
        }
    }

    /// Returns `true` if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `i` as an owned [`Value`].
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnVector::Int(v) => Value::Int(v[i]),
            ColumnVector::Float(v) => Value::Float(v[i]),
            ColumnVector::Str(v) => Value::Str(v[i].clone()),
            ColumnVector::Mixed(v) => v[i].clone(),
        }
    }

    /// Builds a vector from owned values, choosing a dense typed layout
    /// when every value shares one non-null type.
    pub fn from_values(vals: Vec<Value>) -> Self {
        let mut b = ColumnBuilder::with_capacity(vals.len());
        for v in vals {
            b.push(v);
        }
        b.finish()
    }

    /// The entries at physical indices `idx`, in order, in the same layout.
    pub(crate) fn gather(&self, idx: &[u32]) -> ColumnVector {
        match self {
            ColumnVector::Int(v) => ColumnVector::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnVector::Float(v) => {
                ColumnVector::Float(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnVector::Str(v) => {
                ColumnVector::Str(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
            ColumnVector::Mixed(v) => {
                ColumnVector::Mixed(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }
}

/// Builds a [`ColumnVector`] one value at a time, ending in the layout
/// [`ColumnVector::from_values`] picks for the same values: dense and typed
/// while every value shares one non-null type, boxed once one does not.
#[derive(Debug)]
pub(crate) struct ColumnBuilder {
    cap: usize,
    col: Option<ColumnVector>,
}

impl ColumnBuilder {
    /// A builder that reserves room for `cap` values on the first push.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        ColumnBuilder { cap, col: None }
    }

    /// Appends one value.
    pub(crate) fn push(&mut self, v: Value) {
        match (&mut self.col, v) {
            (Some(ColumnVector::Int(c)), Value::Int(i)) => c.push(i),
            (Some(ColumnVector::Float(c)), Value::Float(f)) => c.push(f),
            (Some(ColumnVector::Str(c)), Value::Str(s)) => c.push(s),
            (Some(ColumnVector::Mixed(c)), v) => c.push(v),
            (None, v) => {
                let cap = self.cap;
                self.col = Some(match v {
                    Value::Int(i) => ColumnVector::Int(with_first(cap, i)),
                    Value::Float(f) => ColumnVector::Float(with_first(cap, f)),
                    Value::Str(s) => ColumnVector::Str(with_first(cap, s)),
                    Value::Null => ColumnVector::Mixed(with_first(cap, Value::Null)),
                });
            }
            (Some(typed), v) => {
                // A second type or a NULL: fall back to boxed values.
                let mut vals = Vec::with_capacity(self.cap.max(typed.len() + 1));
                vals.extend((0..typed.len()).map(|i| typed.get(i)));
                vals.push(v);
                *typed = ColumnVector::Mixed(vals);
            }
        }
    }

    /// The finished vector (`Mixed` and empty when nothing was pushed).
    pub(crate) fn finish(self) -> ColumnVector {
        self.col.unwrap_or(ColumnVector::Mixed(Vec::new()))
    }
}

fn with_first<T>(cap: usize, first: T) -> Vec<T> {
    let mut v = Vec::with_capacity(cap.max(1));
    v.push(first);
    v
}

/// A morsel of rows in columnar form: one [`ColumnVector`] per column plus
/// an optional selection mask listing the live row indices in order.
///
/// When `sel` is `None` every row is live. Filters narrow batches by
/// replacing the mask rather than compacting the columns, so upstream
/// vectors are shared untouched until an operator materializes rows.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Columns, all of equal length.
    pub cols: Vec<ColumnVector>,
    /// Live row indices in increasing order; `None` means all rows.
    pub sel: Option<Vec<u32>>,
    len: usize,
}

impl Batch {
    /// An empty batch with no columns.
    pub fn empty() -> Self {
        Batch::default()
    }

    /// Transposes owned rows into a columnar batch. All rows must share
    /// the arity of the first.
    pub fn from_rows(rows: Vec<Row>) -> Self {
        let (len, arity) = (rows.len(), rows.first().map_or(0, Row::len));
        Batch::from_row_iter(rows, len, arity)
    }

    /// Transposes `len` rows of `arity` values each into a columnar batch,
    /// column layouts as [`ColumnVector::from_values`] picks them. With no
    /// rows the batch has no columns, like `from_rows(vec![])`.
    pub(crate) fn from_row_iter<R: IntoIterator<Item = Value>>(
        rows: impl IntoIterator<Item = R>,
        len: usize,
        arity: usize,
    ) -> Self {
        if len == 0 {
            return Batch::empty();
        }
        let mut cols: Vec<ColumnBuilder> = (0..arity)
            .map(|_| ColumnBuilder::with_capacity(len))
            .collect();
        let mut seen = 0;
        for row in rows {
            let mut width = 0;
            for (b, v) in cols.iter_mut().zip(row) {
                b.push(v);
                width += 1;
            }
            debug_assert_eq!(width, arity, "ragged row in batch");
            seen += 1;
        }
        debug_assert_eq!(seen, len, "row count");
        Batch {
            cols: cols.into_iter().map(ColumnBuilder::finish).collect(),
            sel: None,
            len,
        }
    }

    /// Number of live rows (the selection mask length, or the column
    /// length when no mask is set).
    pub fn num_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.len,
        }
    }

    /// Physical row count before selection.
    pub fn capacity_rows(&self) -> usize {
        self.len
    }

    /// The physical index of the `i`-th live row.
    pub fn live_index(&self, i: usize) -> usize {
        match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    /// Materializes the `i`-th live row as owned values.
    pub fn row(&self, i: usize) -> Row {
        let phys = self.live_index(i);
        self.cols.iter().map(|c| c.get(phys)).collect()
    }

    /// Materializes all live rows in order.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.num_rows()).map(|i| self.row(i)).collect()
    }

    /// Restricts the batch to the live rows whose *live* positions are in
    /// `keep` (increasing), composing with any existing mask.
    pub fn select(&mut self, keep: Vec<u32>) {
        let composed = match &self.sel {
            Some(old) => keep.into_iter().map(|i| old[i as usize]).collect(),
            None => keep,
        };
        self.sel = Some(composed);
    }

    /// A batch containing only the named columns (by physical index),
    /// sharing the selection mask.
    pub fn project(&self, cols: &[usize]) -> Batch {
        Batch {
            cols: cols.iter().map(|&c| self.cols[c].clone()).collect(),
            sel: self.sel.clone(),
            len: self.len,
        }
    }

    /// Replaces the columns with `cols` (all pre-selected to live rows:
    /// the new batch has no mask and `cols[0].len()` rows).
    pub fn from_columns(cols: Vec<ColumnVector>) -> Batch {
        let len = cols.first().map_or(0, ColumnVector::len);
        Batch {
            cols,
            sel: None,
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn transpose_round_trips() {
        let rows = vec![
            vec![v(1), Value::Str("a".into()), Value::Float(0.5)],
            vec![v(2), Value::Str("b".into()), Value::Float(1.5)],
        ];
        let b = Batch::from_rows(rows.clone());
        assert_eq!(b.num_rows(), 2);
        assert!(matches!(b.cols[0], ColumnVector::Int(_)));
        assert!(matches!(b.cols[1], ColumnVector::Str(_)));
        assert!(matches!(b.cols[2], ColumnVector::Float(_)));
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn nulls_fall_back_to_mixed() {
        let rows = vec![vec![v(1)], vec![Value::Null]];
        let b = Batch::from_rows(rows.clone());
        assert!(matches!(b.cols[0], ColumnVector::Mixed(_)));
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn selection_composes() {
        let rows: Vec<Row> = (0..6).map(|i| vec![v(i)]).collect();
        let mut b = Batch::from_rows(rows);
        b.select(vec![1, 3, 5]); // live = 1,3,5
        assert_eq!(b.num_rows(), 3);
        b.select(vec![0, 2]); // of those, keep first and last
        assert_eq!(b.to_rows(), vec![vec![v(1)], vec![v(5)]]);
    }

    #[test]
    fn projection_keeps_mask() {
        let rows: Vec<Row> = (0..4).map(|i| vec![v(i), v(i * 10)]).collect();
        let mut b = Batch::from_rows(rows);
        b.select(vec![0, 2]);
        let p = b.project(&[1]);
        assert_eq!(p.to_rows(), vec![vec![v(0)], vec![v(20)]]);
    }
}
