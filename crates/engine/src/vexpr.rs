//! Vectorized expression evaluation over columnar batches.
//!
//! [`PhysicalExpr`] is the compiled, batch-at-a-time counterpart of the
//! row-at-a-time [`Expr::eval`]: [`compile`] lowers an expression tree
//! into physical nodes whose [`PhysicalExpr::eval`] produces an
//! [`Operand`] of results for the *live* rows of a [`Batch`]. Column
//! references to an unmasked batch borrow the column and literals stay
//! scalar, so evaluation copies no input column and never broadcasts.
//!
//! Semantics are kept bit-identical to the row engine by reusing its
//! scalar kernels (`numeric`, `truthy`, [`cmp_values`]) elementwise; a
//! typed fast path covers the common integer-comparison case. The row
//! engine short-circuits `AND`/`OR` while this module evaluates both
//! sides; expression evaluation is side-effect-free, so results agree.

use crate::batch::{Batch, ColumnVector};
use crate::expr::{numeric, numeric_of, truthy, CmpOp, Expr};
use dbsens_storage::value::{cmp_values, Value};
use std::cmp::Ordering;
use std::fmt;

/// A compiled expression evaluated column-at-a-time over a batch.
pub trait PhysicalExpr: fmt::Debug {
    /// Evaluates the expression for every live row of `batch`, in
    /// live-row order, borrowing from the batch where it can.
    fn eval<'b>(&'b self, batch: &'b Batch) -> Operand<'b>;

    /// Like [`eval`](PhysicalExpr::eval), materialized as a dense owned
    /// vector of `batch.num_rows()` results.
    fn evaluate(&self, batch: &Batch) -> ColumnVector {
        self.eval(batch).into_column(batch.num_rows())
    }
}

/// The results of an expression over a batch's live rows.
#[derive(Debug)]
pub enum Operand<'b> {
    /// A column of an unmasked batch, used in place.
    Borrowed(&'b ColumnVector),
    /// A freshly computed dense column.
    Owned(ColumnVector),
    /// One value for every live row (a literal, never broadcast).
    Scalar(&'b Value),
}

impl Operand<'_> {
    /// The dense column, or `None` for a scalar.
    pub fn column(&self) -> Option<&ColumnVector> {
        match self {
            Operand::Borrowed(c) => Some(c),
            Operand::Owned(c) => Some(c),
            Operand::Scalar(_) => None,
        }
    }

    /// The result for live row `i`.
    pub fn get(&self, i: usize) -> Value {
        match self {
            Operand::Scalar(v) => (*v).clone(),
            col => col.column().expect("not a scalar").get(i),
        }
    }

    /// An owned dense vector of `n` results (scalars are broadcast here).
    pub fn into_column(self, n: usize) -> ColumnVector {
        match self {
            Operand::Borrowed(c) => c.clone(),
            Operand::Owned(c) => c,
            Operand::Scalar(Value::Int(i)) => ColumnVector::Int(vec![*i; n]),
            Operand::Scalar(Value::Float(f)) => ColumnVector::Float(vec![*f; n]),
            Operand::Scalar(Value::Str(s)) => ColumnVector::Str(vec![s.clone(); n]),
            Operand::Scalar(Value::Null) => ColumnVector::Mixed(vec![Value::Null; n]),
        }
    }
}

/// Compiles an expression tree into a physical evaluator.
pub fn compile(e: &Expr) -> Box<dyn PhysicalExpr> {
    match e {
        Expr::Col(i) => Box::new(ColumnRef { col: *i }),
        Expr::Lit(v) => Box::new(Literal { value: v.clone() }),
        Expr::Add(a, b) => bin(BinKind::Add, a, b),
        Expr::Sub(a, b) => bin(BinKind::Sub, a, b),
        Expr::Mul(a, b) => bin(BinKind::Mul, a, b),
        Expr::Div(a, b) => bin(BinKind::Div, a, b),
        Expr::IntDiv(a, b) => bin(BinKind::IntDiv, a, b),
        Expr::Cmp(op, a, b) => bin(BinKind::Cmp(*op), a, b),
        Expr::And(a, b) => bin(BinKind::And, a, b),
        Expr::Or(a, b) => bin(BinKind::Or, a, b),
        Expr::Not(a) => Box::new(UnaryExpr {
            kind: UnKind::Not,
            input: compile(a),
        }),
        Expr::IsNull(a) => Box::new(UnaryExpr {
            kind: UnKind::IsNull,
            input: compile(a),
        }),
        Expr::StartsWith(a, p) => Box::new(UnaryExpr {
            kind: UnKind::StartsWith(p.clone()),
            input: compile(a),
        }),
        Expr::Contains(a, p) => Box::new(UnaryExpr {
            kind: UnKind::Contains(p.clone()),
            input: compile(a),
        }),
        Expr::InList(a, list) => Box::new(UnaryExpr {
            kind: UnKind::InList(list.clone()),
            input: compile(a),
        }),
        Expr::Between(a, lo, hi) => Box::new(UnaryExpr {
            kind: UnKind::Between(lo.clone(), hi.clone()),
            input: compile(a),
        }),
    }
}

/// Evaluates a compiled predicate over a batch, returning the live-row
/// positions (not physical indices) where it holds.
pub fn filter_mask(pred: &dyn PhysicalExpr, batch: &Batch) -> Vec<u32> {
    let n = batch.num_rows() as u32;
    match pred.eval(batch) {
        Operand::Scalar(v) if truthy(v) => (0..n).collect(),
        Operand::Scalar(_) => Vec::new(),
        col => match col.column().expect("not a scalar") {
            // Boolean results are Int(0/1); the typed path avoids boxing.
            ColumnVector::Int(v) => (0..n).filter(|&i| v[i as usize] != 0).collect(),
            other => (0..n).filter(|&i| truthy(&other.get(i as usize))).collect(),
        },
    }
}

/// A boolean (`Int` 0/1) result column of `n` rows.
fn bools<'b>(n: usize, f: impl Fn(usize) -> bool) -> Operand<'b> {
    Operand::Owned(ColumnVector::Int((0..n).map(|i| f(i) as i64).collect()))
}

fn bin(kind: BinKind, a: &Expr, b: &Expr) -> Box<dyn PhysicalExpr> {
    Box::new(BinaryExpr {
        kind,
        left: compile(a),
        right: compile(b),
    })
}

/// Column reference: gathers the live rows of one input column.
#[derive(Debug)]
struct ColumnRef {
    col: usize,
}

impl PhysicalExpr for ColumnRef {
    fn eval<'b>(&'b self, batch: &'b Batch) -> Operand<'b> {
        let col = &batch.cols[self.col];
        match &batch.sel {
            // No mask: the column is already the dense live view.
            None => Operand::Borrowed(col),
            Some(sel) => Operand::Owned(col.gather(sel)),
        }
    }
}

/// Literal: one scalar for every row.
#[derive(Debug)]
struct Literal {
    value: Value,
}

impl PhysicalExpr for Literal {
    fn eval<'b>(&'b self, _batch: &'b Batch) -> Operand<'b> {
        Operand::Scalar(&self.value)
    }
}

#[derive(Debug, Clone, Copy)]
enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    IntDiv,
    Cmp(CmpOp),
    And,
    Or,
}

#[derive(Debug)]
struct BinaryExpr {
    kind: BinKind,
    left: Box<dyn PhysicalExpr>,
    right: Box<dyn PhysicalExpr>,
}

impl PhysicalExpr for BinaryExpr {
    fn eval<'b>(&'b self, batch: &'b Batch) -> Operand<'b> {
        let l = self.left.eval(batch);
        let r = self.right.eval(batch);
        // Typed fast paths on uniformly-typed operands; `cmp_values`
        // compares Int pairs as integers, Str pairs as strings and Float
        // pairs by `partial_cmp` (unordered = equal), so these are exact.
        match (&self.kind, l.column(), r.column(), &l, &r) {
            (BinKind::Cmp(op), Some(ColumnVector::Int(a)), Some(ColumnVector::Int(b)), ..) => {
                return bools(a.len(), |i| op.test(a[i].cmp(&b[i])));
            }
            (
                BinKind::Cmp(op),
                Some(ColumnVector::Int(a)),
                None,
                _,
                Operand::Scalar(Value::Int(y)),
            ) => {
                return bools(a.len(), |i| op.test(a[i].cmp(y)));
            }
            (
                BinKind::Cmp(op),
                None,
                Some(ColumnVector::Int(b)),
                Operand::Scalar(Value::Int(x)),
                _,
            ) => {
                return bools(b.len(), |i| op.test(x.cmp(&b[i])));
            }
            (
                BinKind::Cmp(op),
                Some(ColumnVector::Str(a)),
                None,
                _,
                Operand::Scalar(Value::Str(y)),
            ) => {
                return bools(a.len(), |i| op.test(a[i].cmp(y)));
            }
            (
                BinKind::Cmp(op),
                Some(ColumnVector::Float(a)),
                None,
                _,
                Operand::Scalar(Value::Float(y)),
            ) => {
                return bools(a.len(), |i| {
                    op.test(a[i].partial_cmp(y).unwrap_or(Ordering::Equal))
                });
            }
            (BinKind::And, Some(ColumnVector::Int(a)), Some(ColumnVector::Int(b)), ..) => {
                return bools(a.len(), |i| a[i] != 0 && b[i] != 0);
            }
            (BinKind::Or, Some(ColumnVector::Int(a)), Some(ColumnVector::Int(b)), ..) => {
                return bools(a.len(), |i| a[i] != 0 || b[i] != 0);
            }
            _ => {}
        }
        let n = batch.num_rows();
        let vals = (0..n)
            .map(|i| {
                let (x, y) = (l.get(i), r.get(i));
                match self.kind {
                    BinKind::Add => numeric(x, y, |a, b| a + b),
                    BinKind::Sub => numeric(x, y, |a, b| a - b),
                    BinKind::Mul => numeric(x, y, |a, b| a * b),
                    BinKind::Div => match (numeric_of(&x), numeric_of(&y)) {
                        (Some(a), Some(b)) if b != 0.0 => Value::Float(a / b),
                        _ => Value::Null,
                    },
                    BinKind::IntDiv => match (numeric_of(&x), numeric_of(&y)) {
                        (Some(a), Some(b)) if b != 0.0 => Value::Int((a / b).floor() as i64),
                        _ => Value::Null,
                    },
                    BinKind::Cmp(op) => {
                        if x.is_null() || y.is_null() {
                            Value::Int(0)
                        } else {
                            Value::Int(op.test(cmp_values(&x, &y)) as i64)
                        }
                    }
                    BinKind::And => Value::Int((truthy(&x) && truthy(&y)) as i64),
                    BinKind::Or => Value::Int((truthy(&x) || truthy(&y)) as i64),
                }
            })
            .collect();
        Operand::Owned(ColumnVector::from_values(vals))
    }
}

#[derive(Debug)]
enum UnKind {
    Not,
    IsNull,
    StartsWith(String),
    Contains(String),
    InList(Vec<Value>),
    Between(Value, Value),
}

#[derive(Debug)]
struct UnaryExpr {
    kind: UnKind,
    input: Box<dyn PhysicalExpr>,
}

impl PhysicalExpr for UnaryExpr {
    fn eval<'b>(&'b self, batch: &'b Batch) -> Operand<'b> {
        let v = self.input.eval(batch);
        // String predicates on a typed Str vector skip per-value boxing.
        match (&self.kind, v.column()) {
            (UnKind::StartsWith(p), Some(ColumnVector::Str(s))) => {
                return bools(s.len(), |i| s[i].starts_with(p.as_str()));
            }
            (UnKind::Contains(p), Some(ColumnVector::Str(s))) => {
                return bools(s.len(), |i| s[i].contains(p.as_str()));
            }
            _ => {}
        }
        let out = (0..batch.num_rows())
            .map(|i| {
                let x = v.get(i);
                match &self.kind {
                    UnKind::Not => (!truthy(&x)) as i64,
                    UnKind::IsNull => x.is_null() as i64,
                    UnKind::StartsWith(p) => match x {
                        Value::Str(s) => s.starts_with(p.as_str()) as i64,
                        _ => 0,
                    },
                    UnKind::Contains(p) => match x {
                        Value::Str(s) => s.contains(p.as_str()) as i64,
                        _ => 0,
                    },
                    UnKind::InList(list) => {
                        list.iter().any(|l| cmp_values(l, &x) == Ordering::Equal) as i64
                    }
                    UnKind::Between(lo, hi) => {
                        if x.is_null() {
                            0
                        } else {
                            (cmp_values(&x, lo) != Ordering::Less
                                && cmp_values(&x, hi) != Ordering::Greater)
                                as i64
                        }
                    }
                }
            })
            .collect();
        Operand::Owned(ColumnVector::Int(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsens_storage::value::Row;

    /// Every compiled expression must agree with the row engine on every
    /// row — the invariant that makes push/volcano results interchangeable.
    fn assert_parity(e: &Expr, rows: &[Row]) {
        let batch = Batch::from_rows(rows.to_vec());
        let compiled = compile(e);
        let got = compiled.evaluate(&batch);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(got.get(i), e.eval(row), "row {i} of {e}");
        }
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            vec![Value::Int(4), Value::Float(2.5), Value::Str("alpha".into())],
            vec![Value::Int(-3), Value::Float(0.0), Value::Str("beta".into())],
            vec![Value::Int(0), Value::Null, Value::Str("".into())],
            vec![Value::Int(7), Value::Float(-1.5), Value::Str("alps".into())],
        ]
    }

    #[test]
    fn arithmetic_and_comparison_parity() {
        let rows = sample_rows();
        assert_parity(&Expr::Col(0).add(Expr::lit(2i64)), &rows);
        assert_parity(&Expr::Col(0).mul(Expr::Col(1)), &rows);
        assert_parity(&Expr::Col(1).div(Expr::Col(0)), &rows);
        assert_parity(
            &Expr::IntDiv(Box::new(Expr::Col(0)), Box::new(Expr::lit(2i64))),
            &rows,
        );
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_parity(&Expr::cmp(op, Expr::Col(0), Expr::lit(1i64)), &rows);
            assert_parity(&Expr::cmp(op, Expr::Col(1), Expr::lit(0.5f64)), &rows);
        }
    }

    #[test]
    fn boolean_and_string_parity() {
        let rows = sample_rows();
        let gt = Expr::cmp(CmpOp::Gt, Expr::Col(0), Expr::lit(0i64));
        let lt = Expr::cmp(CmpOp::Lt, Expr::Col(1), Expr::lit(2.0f64));
        assert_parity(&gt.clone().and(lt.clone()), &rows);
        assert_parity(&gt.clone().or(lt), &rows);
        assert_parity(&Expr::Not(Box::new(gt)), &rows);
        assert_parity(&Expr::IsNull(Box::new(Expr::Col(1))), &rows);
        assert_parity(
            &Expr::StartsWith(Box::new(Expr::Col(2)), "alp".into()),
            &rows,
        );
        assert_parity(&Expr::Contains(Box::new(Expr::Col(2)), "et".into()), &rows);
        assert_parity(
            &Expr::InList(Box::new(Expr::Col(0)), vec![Value::Int(4), Value::Int(0)]),
            &rows,
        );
        assert_parity(
            &Expr::Between(Box::new(Expr::Col(0)), Value::Int(0), Value::Int(5)),
            &rows,
        );
    }

    #[test]
    fn masked_batches_evaluate_live_rows_only() {
        let rows = sample_rows();
        let mut batch = Batch::from_rows(rows.clone());
        batch.select(vec![1, 3]);
        let e = Expr::Col(0).add(Expr::lit(1i64));
        let got = compile(&e).evaluate(&batch);
        assert_eq!(got.len(), 2);
        assert_eq!(got.get(0), e.eval(&rows[1]));
        assert_eq!(got.get(1), e.eval(&rows[3]));
    }

    #[test]
    fn filter_mask_matches_row_predicate() {
        let rows = sample_rows();
        let batch = Batch::from_rows(rows.clone());
        let pred = Expr::cmp(CmpOp::Gt, Expr::Col(0), Expr::lit(0i64));
        let mask = filter_mask(compile(&pred).as_ref(), &batch);
        let expect: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| pred.matches(r))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(mask, expect);
    }
}
