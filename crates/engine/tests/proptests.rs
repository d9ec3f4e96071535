//! Property-based tests for engine components: expressions, plan
//! invariants, and the grant manager.

use dbsens_engine::expr::{CmpOp, Expr};
use dbsens_engine::grant::GrantManager;
use dbsens_hwsim::task::TaskId;
use dbsens_storage::value::{Row, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (-100i64..100).prop_map(|v| Value::Float(v as f64 * 0.25)),
        "[a-z]{0,6}".prop_map(Value::from),
        Just(Value::Null),
    ]
}

fn arb_expr(cols: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..cols).prop_map(Expr::Col),
        arb_value().prop_map(Expr::Lit),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.div(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::cmp(CmpOp::Lt, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| Expr::Not(Box::new(a))),
            inner.clone().prop_map(|a| Expr::IsNull(Box::new(a))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::IntDiv(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Expression evaluation is total over arbitrary well-arity rows (no
    /// panics), and deterministic.
    #[test]
    fn expr_eval_is_total_and_deterministic(
        expr in arb_expr(4),
        row in prop::collection::vec(arb_value(), 4),
    ) {
        let a = expr.eval(&row);
        let b = expr.eval(&row);
        prop_assert_eq!(a, b);
        let _ = expr.matches(&row);
        prop_assert!(expr.node_count() >= 1);
    }

    /// `shift_cols` is exactly "evaluate against a row with `k` columns
    /// prepended".
    #[test]
    fn shift_cols_matches_padded_row(
        expr in arb_expr(3),
        row in prop::collection::vec(arb_value(), 3),
        pad in prop::collection::vec(arb_value(), 0..4),
    ) {
        let shifted = expr.shift_cols(pad.len());
        let mut padded: Row = pad.clone();
        padded.extend(row.iter().cloned());
        prop_assert_eq!(expr.eval(&row), shifted.eval(&padded));
    }

    /// Grant manager conservation: available never exceeds total, grants
    /// never overlap beyond capacity, and FIFO wakes hold their grants.
    #[test]
    fn grant_manager_conserves_capacity(
        total in 1u64..10_000,
        requests in prop::collection::vec(1u64..4_000, 1..40),
    ) {
        let mut gm = GrantManager::new(total);
        let mut held: Vec<u64> = Vec::new();
        let mut queued: std::collections::VecDeque<u64> = Default::default();
        for (i, want) in requests.iter().enumerate() {
            let clamped = (*want).min(total);
            if gm.try_acquire(TaskId(i), *want) {
                held.push(clamped);
            } else {
                queued.push_back(clamped);
            }
            prop_assert!(held.iter().sum::<u64>() <= total);
            prop_assert_eq!(gm.available(), total - held.iter().sum::<u64>());
        }
        // Drain: releasing everything wakes queued requests in FIFO order,
        // never exceeding capacity.
        while let Some(bytes) = held.pop() {
            let woken = gm.release(bytes);
            for _ in woken {
                let w = queued.pop_front().expect("woken task must have been queued");
                held.push(w);
            }
            prop_assert!(held.iter().sum::<u64>() <= total);
        }
        prop_assert!(queued.is_empty(), "all queued grants must eventually be served");
        prop_assert_eq!(gm.available(), total);
    }
}
