//! Property tests for the SQL frontend: the optimizer must never change
//! query results on either executor path, and the parser must reject
//! arbitrary garbage with positioned errors instead of panicking.

use dbsens_engine::db::Database;
use dbsens_engine::exec::{execute, rows_digest};
use dbsens_engine::governor::Governor;
use dbsens_engine::optimizer::optimize as engine_optimize;
use dbsens_engine::pushexec::execute_push;
use dbsens_sql::{bind, lower, optimize, BoundStatement};
use dbsens_storage::schema::{ColType, Schema};
use dbsens_storage::value::Value;
use proptest::prelude::*;

/// Two joinable tables with enough value variety to exercise filters,
/// group keys, and NULL handling.
fn db() -> Database {
    let mut db = Database::new(100.0, 1 << 30);
    db.create_table(
        "t",
        Schema::new(&[
            ("a", ColType::Int),
            ("b", ColType::Int),
            ("s", ColType::Str(8)),
        ]),
        (0..60)
            .map(|i| {
                vec![
                    Value::Int(i % 10),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i * 3 % 17)
                    },
                    Value::Str(format!("s{}", i % 5).into()),
                ]
            })
            .collect(),
    );
    db.create_table(
        "u",
        Schema::new(&[("a", ColType::Int), ("w", ColType::Int)]),
        (0..15)
            .map(|i| vec![Value::Int(i % 12), Value::Int(i * i % 23)])
            .collect(),
    );
    db
}

fn arb_pred() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        (0..20i64).prop_map(|k| format!("t.a < {k}")),
        (0..20i64).prop_map(|k| format!("t.b > {k}")),
        (0..20i64).prop_map(|k| format!("t.b = {k}")),
        (0..5i64).prop_map(|k| format!("t.s = 's{k}'")),
        Just("t.b IS NULL".to_string()),
        Just("t.b IS NOT NULL".to_string()),
        Just("t.s LIKE 's%'".to_string()),
        (0..10i64, 0..10i64)
            .prop_map(|(x, y)| { format!("t.a BETWEEN {} AND {}", x.min(y), x.max(y)) }),
        Just("t.a IN (1, 3, 5, 7)".to_string()),
    ];
    atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} AND {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} OR {b})")),
            inner.prop_map(|a| format!("NOT {a}")),
        ]
    })
}

/// Random queries over t (optionally joined with u), with optional
/// grouping — always with a deterministic ORDER BY so row order is
/// well-defined for digest comparison.
fn arb_query() -> impl Strategy<Value = String> {
    (
        arb_pred(),
        any::<bool>(),
        any::<bool>(),
        1usize..40,
        any::<bool>(),
    )
        .prop_map(|(pred, join, group, limit, use_limit)| {
            let from = if join { "t JOIN u ON t.a = u.a" } else { "t" };
            let limit_clause = if use_limit {
                format!(" LIMIT {limit}")
            } else {
                String::new()
            };
            if group {
                format!(
                    "SELECT t.a, COUNT(*) AS n, SUM(t.b) AS s FROM {from} \
                     WHERE {pred} GROUP BY t.a ORDER BY t.a{limit_clause}"
                )
            } else if join {
                format!(
                    "SELECT t.a, t.b, u.w FROM {from} WHERE {pred} \
                     ORDER BY t.a, t.b, u.w{limit_clause}"
                )
            } else {
                format!(
                    "SELECT t.a, t.b, t.s FROM t WHERE {pred} \
                     ORDER BY t.a, t.b, t.s{limit_clause}"
                )
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For generated queries, the frontend optimizer and both executor
    /// paths agree on the exact result rows (byte-identical digests).
    #[test]
    fn optimizer_and_executors_preserve_results(sql in arb_query()) {
        let db = db();
        let stmts = dbsens_sql::parse(&sql).unwrap();
        let BoundStatement::Select(plan) = bind(&db, &stmts[0]).unwrap() else {
            unreachable!()
        };
        let mut digests = Vec::new();
        for plan in [plan.clone(), optimize(&db, &plan)] {
            let logical = lower(&db, &plan).unwrap();
            let ctx = Governor::paper_default(4).plan_context(&db);
            let phys = engine_optimize(&db, &logical, &ctx);
            let volcano = rows_digest(&execute(&db, &phys).rows);
            let morsel = execute_push(&db, &phys)
                .map(|r| rows_digest(&r.rows))
                .unwrap_or(volcano);
            prop_assert_eq!(volcano, morsel, "executors diverged: {}", sql);
            digests.push(volcano);
        }
        prop_assert_eq!(digests[0], digests[1], "optimizer changed results: {}", sql);
    }

    /// The parser never panics on arbitrary input, and every error is
    /// annotated with a 1-based position.
    #[test]
    fn parser_is_total_on_arbitrary_input(input in "\\PC{0,120}") {
        if let Err(e) = dbsens_sql::parse(&input) {
            prop_assert!(e.line >= 1, "unpositioned error {:?} for {:?}", e, input);
            prop_assert!(e.col >= 1, "unpositioned error {:?} for {:?}", e, input);
            prop_assert!(!e.msg.is_empty());
        }
    }

    /// SQL-looking garbage (keywords, idents, and punctuation shuffled
    /// together) also never panics the parser or the binder.
    #[test]
    fn binder_is_total_on_sql_shaped_garbage(
        words in prop::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("FROM"), Just("WHERE"), Just("GROUP"),
                Just("BY"), Just("JOIN"), Just("ON"), Just("ORDER"),
                Just("LIMIT"), Just("t"), Just("u"), Just("a"), Just("b"),
                Just("("), Just(")"), Just(","), Just("="), Just("<"),
                Just("*"), Just("1"), Just("'x'"), Just("AND"), Just("COUNT"),
            ],
            0..24,
        ),
    ) {
        let sql = words.join(" ");
        if let Ok(stmts) = dbsens_sql::parse(&sql) {
            let db = db();
            for stmt in &stmts {
                let _ = bind(&db, stmt); // must not panic
            }
        }
    }
}
