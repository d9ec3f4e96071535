//! Prints before/after optimizer plans for the docs' worked examples.
//! Regenerate the `docs/SQL.md` rule-catalog snippets with:
//! `cargo run -p dbsens-sql --example render_demo`

use dbsens_engine::db::Database;
use dbsens_sql::{bind, optimize, BoundStatement};
use dbsens_storage::schema::{ColType, Schema};
use dbsens_storage::value::Value;

fn main() {
    let mut db = Database::new(100.0, 1 << 30);
    db.create_table(
        "customers",
        Schema::new(&[
            ("ckey", ColType::Int),
            ("name", ColType::Str(16)),
            ("tier", ColType::Int),
        ]),
        (0..20)
            .map(|c| {
                vec![
                    Value::Int(c),
                    Value::Str(format!("cust{c}").into()),
                    Value::Int(c % 3),
                ]
            })
            .collect(),
    );
    db.create_table(
        "orders",
        Schema::new(&[
            ("okey", ColType::Int),
            ("ckey", ColType::Int),
            ("total", ColType::Int),
            ("region", ColType::Str(8)),
        ]),
        (0..200)
            .map(|o| {
                vec![
                    Value::Int(o),
                    Value::Int(o % 20),
                    Value::Int((o * 7) % 100),
                    Value::Str(if o % 2 == 0 { "east" } else { "west" }.into()),
                ]
            })
            .collect(),
    );
    let queries = [
        ("pushdown + pruning", "SELECT c.name FROM customers c JOIN orders o ON c.ckey = o.ckey WHERE o.total > 90 AND c.tier = 1"),
        ("decorrelation", "SELECT o.okey FROM orders o WHERE o.total > (SELECT AVG(i.total) FROM orders i WHERE i.ckey = o.ckey)"),
        ("join reordering", "SELECT c.name, o.total FROM customers c JOIN orders o ON c.ckey = o.ckey WHERE o.region = 'east'"),
    ];
    for (label, sql) in queries {
        let stmts = dbsens_sql::parse(sql).unwrap();
        let BoundStatement::Select(plan) = bind(&db, &stmts[0]).unwrap() else {
            unreachable!();
        };
        println!(
            "=== {label}\n--- sql\n{sql}\n--- before\n{}--- after\n{}",
            plan.render(),
            optimize(&db, &plan).render()
        );
    }
}
