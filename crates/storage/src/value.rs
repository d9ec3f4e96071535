//! Values, rows, and composite keys.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single column value.
///
/// The engine is intentionally small: four scalar types cover every
/// benchmark schema in the workload suite (dates are day numbers, money is
/// fixed-point in cents stored as `Int`).
///
/// Strings are shared: cloning a `Str` bumps a reference count and copies
/// no bytes. `Arc<str>` hashes, orders, prints and serializes exactly like
/// `String`, so every digest is the same as with owned strings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit integer (also ids, day-number dates, fixed-point money).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Variable-length string, shared by reference count.
    Str(Arc<str>),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Returns the integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `Int`; engine-internal callers only use
    /// it on columns whose schema type is integer.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// Returns the float payload, widening integers.
    ///
    /// # Panics
    ///
    /// Panics on strings and NULLs.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            Value::Int(v) => *v as f64,
            other => panic!("expected numeric, got {other:?}"),
        }
    }

    /// Returns the string payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Str`.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, got {other:?}"),
        }
    }

    /// Returns `true` for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate in-page byte size used by the physical sizing model.
    pub fn byte_size(&self) -> u64 {
        match self {
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 2 + s.len() as u64,
            Value::Null => 1,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

/// Total order over values: NULL sorts first, numerics compare numerically
/// across `Int`/`Float`, and cross-type comparisons fall back to a stable
/// type rank (needed so composite keys are totally ordered).
pub fn cmp_values(a: &Value, b: &Value) -> Ordering {
    use Value::*;
    match (a, b) {
        (Null, Null) => Ordering::Equal,
        (Null, _) => Ordering::Less,
        (_, Null) => Ordering::Greater,
        (Int(x), Int(y)) => x.cmp(y),
        (Float(x), Float(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (Int(x), Float(y)) => (*x as f64).partial_cmp(y).unwrap_or(Ordering::Equal),
        (Float(x), Int(y)) => x.partial_cmp(&(*y as f64)).unwrap_or(Ordering::Equal),
        (Str(x), Str(y)) => x.cmp(y),
        (Str(_), _) => Ordering::Greater,
        (_, Str(_)) => Ordering::Less,
    }
}

/// A row: one value per schema column.
pub type Row = Vec<Value>;

/// A composite key over one or more values, ordered with [`cmp_values`].
///
/// # Examples
///
/// ```
/// use dbsens_storage::value::{Key, Value};
///
/// let a = Key::from_values(vec![Value::Int(1), Value::Str("x".into())]);
/// let b = Key::from_values(vec![Value::Int(2)]);
/// assert!(a < b);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Key(Vec<Value>);

impl Key {
    /// Builds a key from its component values.
    pub fn from_values(values: Vec<Value>) -> Self {
        Key(values)
    }

    /// Single-integer key shorthand.
    pub fn int(v: i64) -> Self {
        Key(vec![Value::Int(v)])
    }

    /// Two-integer key shorthand.
    pub fn int2(a: i64, b: i64) -> Self {
        Key(vec![Value::Int(a), Value::Int(b)])
    }

    /// The component values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Consumes the key, returning its value buffer (for storage reuse).
    pub fn into_values(self) -> Vec<Value> {
        self.0
    }

    /// Approximate key byte size for physical sizing.
    pub fn byte_size(&self) -> u64 {
        self.0.iter().map(Value::byte_size).sum()
    }
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            match cmp_values(a, b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(5).as_int(), 5);
        assert_eq!(Value::Int(5).as_f64(), 5.0);
        assert_eq!(Value::Float(2.5).as_f64(), 2.5);
        assert_eq!(Value::Str("hi".into()).as_str(), "hi");
        assert!(Value::Null.is_null());
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn as_int_panics_on_str() {
        let _ = Value::Str("x".into()).as_int();
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(
            cmp_values(&Value::Null, &Value::Int(i64::MIN)),
            Ordering::Less
        );
        assert_eq!(cmp_values(&Value::Int(0), &Value::Null), Ordering::Greater);
        assert_eq!(cmp_values(&Value::Null, &Value::Null), Ordering::Equal);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(
            cmp_values(&Value::Int(2), &Value::Float(2.5)),
            Ordering::Less
        );
        assert_eq!(
            cmp_values(&Value::Float(3.0), &Value::Int(3)),
            Ordering::Equal
        );
    }

    #[test]
    fn composite_key_ordering_is_lexicographic() {
        let k1 = Key::int2(1, 9);
        let k2 = Key::int2(2, 0);
        assert!(k1 < k2);
        // Prefix keys sort before their extensions.
        let short = Key::int(1);
        let long = Key::int2(1, 0);
        assert!(short < long);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
    }

    #[test]
    fn values_are_small_and_string_clones_share() {
        assert!(std::mem::size_of::<Value>() <= 24);
        let a = Value::from("shared");
        let b = a.clone();
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!("both are strings"),
        }
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int(1).byte_size(), 8);
        assert_eq!(Value::Str("abc".into()).byte_size(), 5);
        assert_eq!(Key::int2(1, 2).byte_size(), 16);
    }
}
