//! ASDB analog: the Azure SQL Database Benchmark's synthetic CRUD
//! workload.
//!
//! Per the benchmark's description (paper §2.1), the database has
//! fixed-size tables (constant rows), scaling tables (cardinality
//! proportional to scale factor), and a growing table whose cardinality
//! changes as the benchmark inserts and deletes rows. The transaction mix
//! is a CRUD blend over these tables; rows are wide (multi-KB) so the
//! database reaches Table 2's data volume with modest row counts.

use crate::scale::ScaleCfg;
use dbsens_engine::db::{Database, TableId};
use dbsens_engine::governor::Governor;
use dbsens_engine::txn::{LockSpec, MutOp, Mutation, ProgramPool, TxOp, TxnGenerator, TxnProgram};
use dbsens_hwsim::rng::SimRng;
use dbsens_storage::schema::{ColType, Schema};
use dbsens_storage::value::{Row, Value};
use std::sync::Arc;

/// Real rows per scale-factor unit in the scaling table.
const SCALING_ROWS_PER_SF: f64 = 6_000.0;
/// Real rows per scale-factor unit initially in the growing table.
const GROWING_ROWS_PER_SF: f64 = 600.0;
/// Rows in each fixed table.
const FIXED_ROWS: usize = 1_000;

/// Built ASDB database.
#[derive(Debug)]
pub struct AsdbDb {
    /// The database.
    pub db: Database,
    /// Scale factor.
    pub sf: f64,
    /// Fixed-size table.
    pub fixed: TableId,
    /// Scaling table.
    pub scaling: TableId,
    /// Growing table.
    pub growing: TableId,
    /// Logical scaling-table rows.
    pub scaling_n: usize,
    /// Logical initial growing-table rows.
    pub growing_n: usize,
}

/// Builds the ASDB analog at scale factor `sf`.
pub fn build(sf: f64, scale: &ScaleCfg) -> AsdbDb {
    let mut rng = SimRng::new(scale.seed ^ 0xa5db);
    let mut db = Database::new(scale.oltp_row_scale, Governor::bufferpool_bytes());

    let fixed_rows: Vec<Row> = (0..FIXED_ROWS.min(scale.logical_oltp(FIXED_ROWS as f64) * 8))
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.next_below(100) as i64),
                Value::Str("config".into()),
            ]
        })
        .collect();
    let fixed = db.create_table(
        "asdb_fixed",
        Schema::new(&[
            ("f_id", ColType::Int),
            ("f_value", ColType::Int),
            ("f_data", ColType::Str(100)),
        ]),
        fixed_rows,
    );

    let scaling_n = scale.logical_oltp(SCALING_ROWS_PER_SF * sf);
    let scaling_rows: Vec<Row> = (0..scaling_n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.next_below(1000) as i64),
                Value::Float(rng.next_below(100_000) as f64 / 100.0),
                Value::Str("srow".into()),
            ]
        })
        .collect();
    let scaling = db.create_table(
        "asdb_scaling",
        Schema::new(&[
            ("s_id", ColType::Int),
            ("s_k", ColType::Int),
            ("s_v", ColType::Float),
            // Wide payload: ~4 KB rows, so data volume matches Table 2.
            ("s_pad", ColType::Str(3_800)),
        ]),
        scaling_rows,
    );

    let growing_n = scale.logical_oltp(GROWING_ROWS_PER_SF * sf);
    let growing_rows: Vec<Row> = (0..growing_n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(0),
                Value::Str("grow".into()),
            ]
        })
        .collect();
    let growing = db.create_table(
        "asdb_growing",
        Schema::new(&[
            ("g_id", ColType::Int),
            ("g_v", ColType::Int),
            ("g_pad", ColType::Str(1_000)),
        ]),
        growing_rows,
    );

    db.create_index(fixed, "pk", &[0]);
    db.create_index(scaling, "pk", &[0]);
    db.create_index(growing, "pk", &[0]);

    AsdbDb {
        db,
        sf,
        fixed,
        scaling,
        growing,
        scaling_n,
        growing_n,
    }
}

/// Paper Table 2 sizing: (data GB, index GB).
pub fn sizing(asdb: &AsdbDb) -> (f64, f64) {
    let mut data = 0u64;
    let mut index = 0u64;
    for t in asdb.db.tables() {
        data += t.layout.data_bytes();
        for idx in &t.indexes {
            index += idx.layout.index_bytes();
        }
    }
    (
        data as f64 / (1u64 << 30) as f64,
        index as f64 / (1u64 << 30) as f64,
    )
}

/// ASDB CRUD transaction generator.
#[derive(Debug)]
pub struct AsdbGenerator {
    fixed: TableId,
    scaling: TableId,
    growing: TableId,
    scaling_n: u64,
    /// This client's stripe of the growing-table key space.
    next_insert: i64,
    next_delete: i64,
    delete_end: i64,
    /// Recycled program parts; spent programs are dismantled back into it.
    pool: ProgramPool,
    /// The inserted rows' payload string, built once and shared by clone.
    grow: Arc<str>,
}

impl AsdbGenerator {
    /// Creates a generator for one of `clients` clients.
    pub fn new(db: &AsdbDb, client_id: usize, clients: usize) -> Self {
        let stripe = (db.growing_n / clients.max(1)).max(1) as i64;
        let start = client_id as i64 * stripe;
        AsdbGenerator {
            fixed: db.fixed,
            scaling: db.scaling,
            growing: db.growing,
            scaling_n: db.scaling_n as u64,
            next_insert: 2_000_000_000 + (client_id as i64) * 10_000_000,
            next_delete: start,
            delete_end: start + stripe,
            pool: ProgramPool::new(),
            grow: "grow".into(),
        }
    }

    fn program<const N: usize>(&mut self, name: &'static str, ops: [TxOp; N]) -> TxnProgram {
        let mut v = self.pool.ops();
        v.extend(ops);
        TxnProgram { name, ops: v }
    }
}

impl TxnGenerator for AsdbGenerator {
    fn next_txn(&mut self, rng: &mut SimRng) -> TxnProgram {
        let p = rng.next_below(100);
        match p {
            // 30%: point read on the scaling table.
            0..=29 => {
                let k = rng.next_below(self.scaling_n) as i64;
                let ops = [TxOp::Read {
                    table: self.scaling,
                    index: 0,
                    key: self.pool.key1(k),
                    lock: LockSpec::Diffuse,
                    for_update: false,
                }];
                self.program("PointRead", ops)
            }
            // 15%: small range read.
            30..=44 => {
                let k = rng.next_below(self.scaling_n) as i64;
                let ops = [TxOp::ReadRange {
                    table: self.scaling,
                    index: 0,
                    lo: self.pool.key1(k),
                    hi: self.pool.key1(k + 2),
                    limit: 2,
                    model_rows: 50,
                }];
                self.program("RangeRead", ops)
            }
            // 25%: read-modify-write on the scaling table.
            45..=69 => {
                let k = rng.next_below(self.scaling_n) as i64;
                let mut muts = self.pool.muts();
                muts.push(Mutation {
                    col: 2,
                    op: MutOp::AddFloat(1.0),
                });
                let ops = [
                    TxOp::Read {
                        table: self.scaling,
                        index: 0,
                        key: self.pool.key1(k),
                        lock: LockSpec::Diffuse,
                        for_update: true,
                    },
                    TxOp::Update {
                        table: self.scaling,
                        index: 0,
                        key: self.pool.key1(k),
                        muts,
                        lock: LockSpec::Diffuse,
                    },
                ];
                self.program("Update", ops)
            }
            // 15%: insert into the growing table (tail-page hotspot).
            70..=84 => {
                let id = self.next_insert;
                self.next_insert += 1;
                let mut row = self.pool.values();
                row.extend([Value::Int(id), Value::Int(1), Value::Str(self.grow.clone())]);
                let ops = [TxOp::Insert {
                    table: self.growing,
                    row,
                }];
                self.program("Insert", ops)
            }
            // 10%: delete from the growing table.
            85..=94 => {
                let key = if self.next_delete < self.delete_end {
                    let k = self.next_delete;
                    self.next_delete += 1;
                    k
                } else {
                    // Stripe exhausted: delete this client's own inserts.
                    self.next_insert - 1
                };
                let ops = [TxOp::Delete {
                    table: self.growing,
                    index: 0,
                    key: self.pool.key1(key),
                    lock: LockSpec::Diffuse,
                }];
                self.program("Delete", ops)
            }
            // 5%: read a genuinely hot row of a fixed table.
            _ => {
                let k = rng.next_below(64) as i64;
                let ops = [TxOp::Read {
                    table: self.fixed,
                    index: 0,
                    key: self.pool.key1(k),
                    lock: LockSpec::ExactRow,
                    for_update: false,
                }];
                self.program("FixedRead", ops)
            }
        }
    }

    fn next_txn_reusing(&mut self, rng: &mut SimRng, spent: TxnProgram) -> TxnProgram {
        self.pool.reclaim(spent);
        self.next_txn(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AsdbDb {
        build(
            100.0,
            &ScaleCfg {
                row_scale: 100_000.0,
                oltp_row_scale: 1_000.0,
                seed: 3,
            },
        )
    }

    #[test]
    fn builds_three_table_classes() {
        let a = small();
        assert!(a.db.table(a.scaling).heap.len() > a.db.table(a.growing).heap.len());
        assert_eq!(a.scaling_n, a.db.table(a.scaling).heap.len());
    }

    #[test]
    fn sizing_matches_table2_at_sf2000() {
        // Paper: ASDB SF=2000 is 51.13 GB data / 0.21 GB index.
        let a = build(
            2000.0,
            &ScaleCfg {
                row_scale: 100_000.0,
                oltp_row_scale: 10_000.0,
                seed: 3,
            },
        );
        let (data, index) = sizing(&a);
        assert!((35.0..70.0).contains(&data), "data = {data} GB");
        assert!(index < 1.5, "index = {index} GB");
    }

    #[test]
    fn generator_covers_all_types() {
        let a = small();
        let mut g = AsdbGenerator::new(&a, 0, 4);
        let mut rng = SimRng::new(1);
        let mut names = std::collections::HashSet::new();
        for _ in 0..1000 {
            names.insert(g.next_txn(&mut rng).name);
        }
        assert_eq!(names.len(), 6, "saw {names:?}");
    }

    #[test]
    fn delete_stripes_do_not_overlap() {
        let a = small();
        let g0 = AsdbGenerator::new(&a, 0, 4);
        let g1 = AsdbGenerator::new(&a, 1, 4);
        assert!(g0.delete_end <= g1.next_delete);
    }
}
