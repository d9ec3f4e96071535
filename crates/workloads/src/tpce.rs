//! TPC-E analog: brokerage-firm transactional workload.
//!
//! The schema and transaction mix model the shape of TPC-E (the paper's
//! primary OLTP benchmark): a handful of narrow hot tables (`last_trade`,
//! one row per security, updated by Market-Feed and read by nearly
//! everything), a large fast-growing `trade` table with its history, and
//! per-customer holdings. Row counts per scale factor (SF = customers) are
//! chosen so Table 2's data/index sizes land in the right place.
//!
//! Lock discipline (deadlock freedom): every transaction touches tables in
//! the fixed order customer → account → security/last_trade → trade →
//! trade_history → holding, and takes `U` locks on first touch of any row
//! it will update.

use crate::scale::ScaleCfg;
use dbsens_engine::db::{Database, TableId};
use dbsens_engine::governor::Governor;
use dbsens_engine::txn::{LockSpec, MutOp, Mutation, ProgramPool, TxOp, TxnGenerator, TxnProgram};
use dbsens_hwsim::rng::SimRng;
use dbsens_storage::schema::{ColType, Schema};
use dbsens_storage::value::{Row, Value};
use std::sync::Arc;

/// Real (paper-scale) rows per customer for each table.
mod per_customer {
    /// Accounts per customer.
    pub const ACCOUNTS: f64 = 5.0;
    /// Trades per customer (sized to hit Table 2's data volume).
    pub const TRADES: f64 = 17_280.0;
    /// Holdings per customer.
    pub const HOLDINGS: f64 = 8_000.0;
    /// Securities per 1000 customers (TPC-E: 685).
    pub const SECURITIES_PER_1000: f64 = 685.0;
}

/// Built TPC-E database plus id-space metadata for the generator.
#[derive(Debug)]
pub struct TpceDb {
    /// The database.
    pub db: Database,
    /// Scale factor (number of customers).
    pub sf: f64,
    /// Table ids.
    pub t: Tables,
    /// Logical row counts.
    pub n: Counts,
    /// Real (paper-scale) entity counts.
    pub real: RealCounts,
}

/// Table ids.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct Tables {
    pub customer: TableId,
    pub account: TableId,
    pub security: TableId,
    pub last_trade: TableId,
    pub trade: TableId,
    pub trade_history: TableId,
    pub holding: TableId,
}

/// Logical row counts.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct Counts {
    pub customer: usize,
    pub account: usize,
    pub security: usize,
    pub trade: usize,
    pub holding: usize,
}

/// Real (paper-scale) entity counts, used to sample hot resources.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct RealCounts {
    pub customers: u64,
    pub accounts: u64,
    pub securities: u64,
    pub trades: u64,
}

/// Builds the TPC-E analog at scale factor `sf` (customers).
pub fn build(sf: f64, scale: &ScaleCfg) -> TpceDb {
    let mut rng = SimRng::new(scale.seed ^ 0xe7ce);
    let mut db = Database::new(scale.oltp_row_scale, Governor::bufferpool_bytes());

    let customer_n = scale.logical_oltp(sf);
    let account_n = scale.logical_oltp(sf * per_customer::ACCOUNTS);
    let security_n = scale.logical_oltp(sf * per_customer::SECURITIES_PER_1000 / 1000.0);
    let trade_n = scale.logical_oltp(sf * per_customer::TRADES);
    let holding_n = scale.logical_oltp(sf * per_customer::HOLDINGS);

    let customer_rows: Vec<Row> = (0..customer_n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(1 + rng.next_below(3) as i64),
                Value::from(format!("Customer#{i}")),
                Value::Str("cdata".into()),
            ]
        })
        .collect();
    let customer = db.create_table(
        "customer",
        Schema::new(&[
            ("c_id", ColType::Int),
            ("c_tier", ColType::Int),
            ("c_name", ColType::Str(30)),
            ("c_data", ColType::Str(520)),
        ]),
        customer_rows,
    );

    let account_rows: Vec<Row> = (0..account_n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int((i % customer_n.max(1)) as i64),
                Value::Float(10_000.0 + rng.next_below(90_000) as f64),
                Value::Str("adata".into()),
            ]
        })
        .collect();
    let account = db.create_table(
        "account",
        Schema::new(&[
            ("a_id", ColType::Int),
            ("a_c_id", ColType::Int),
            ("a_balance", ColType::Float),
            ("a_data", ColType::Str(150)),
        ]),
        account_rows,
    );

    const SECTORS: [&str; 12] = [
        "Energy",
        "Materials",
        "Industrials",
        "Discretionary",
        "Staples",
        "Health",
        "Financials",
        "Technology",
        "Telecom",
        "Utilities",
        "RealEstate",
        "Media",
    ];
    let security_rows: Vec<Row> = (0..security_n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::from(format!("SYM{i:05}")),
                Value::Str(SECTORS[i % 12].into()),
                Value::Str("sdata".into()),
            ]
        })
        .collect();
    let security = db.create_table(
        "security",
        Schema::new(&[
            ("s_id", ColType::Int),
            ("s_symbol", ColType::Str(8)),
            ("s_sector", ColType::Str(12)),
            ("s_data", ColType::Str(100)),
        ]),
        security_rows,
    );

    let last_trade_rows: Vec<Row> = (0..security_n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Float(20.0 + rng.next_below(200) as f64),
                Value::Int(0),
                Value::Int(0),
            ]
        })
        .collect();
    let last_trade = db.create_table(
        "last_trade",
        Schema::new(&[
            ("lt_s_id", ColType::Int),
            ("lt_price", ColType::Float),
            ("lt_volume", ColType::Int),
            ("lt_count", ColType::Int),
        ]),
        last_trade_rows,
    );

    let trade_rows: Vec<Row> = (0..trade_n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.next_below(account_n as u64) as i64),
                Value::Int(rng.next_below(security_n as u64) as i64),
                Value::Str(if rng.chance(0.5) { "BUY" } else { "SEL" }.into()),
                Value::Str("CMPT".into()),
                Value::Int(1 + rng.next_below(800) as i64),
                Value::Float(20.0 + rng.next_below(200) as f64),
                Value::Int(rng.next_below(2400) as i64),
                Value::Str("tdata".into()),
            ]
        })
        .collect();
    let trade = db.create_table(
        "trade",
        Schema::new(&[
            ("t_id", ColType::Int),
            ("t_a_id", ColType::Int),
            ("t_s_id", ColType::Int),
            ("t_type", ColType::Str(3)),
            ("t_status", ColType::Str(4)),
            ("t_qty", ColType::Int),
            ("t_price", ColType::Float),
            ("t_date", ColType::Int),
            ("t_data", ColType::Str(150)),
        ]),
        trade_rows,
    );

    let history_rows: Vec<Row> = (0..trade_n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Str("SBMT".into()),
                Value::Int(0),
            ]
        })
        .collect();
    let trade_history = db.create_table(
        "trade_history",
        Schema::new(&[
            ("th_t_id", ColType::Int),
            ("th_event", ColType::Str(30)),
            ("th_date", ColType::Int),
        ]),
        history_rows,
    );

    let holding_rows: Vec<Row> = (0..holding_n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.next_below(account_n as u64) as i64),
                Value::Int(rng.next_below(security_n as u64) as i64),
                Value::Int(1 + rng.next_below(500) as i64),
                Value::Float(20.0 + rng.next_below(200) as f64),
                Value::Str("hdata".into()),
            ]
        })
        .collect();
    let holding = db.create_table(
        "holding",
        Schema::new(&[
            ("h_id", ColType::Int),
            ("h_a_id", ColType::Int),
            ("h_s_id", ColType::Int),
            ("h_qty", ColType::Int),
            ("h_price", ColType::Float),
            ("h_data", ColType::Str(60)),
        ]),
        holding_rows,
    );

    // Indexes (index 0 is the one transactions use for point access).
    db.create_index(customer, "pk", &[0]);
    db.create_index(account, "pk", &[0]);
    db.create_index(account, "by_customer", &[1, 0]);
    db.create_index(security, "pk", &[0]);
    db.create_index(last_trade, "pk", &[0]);
    db.create_index(trade, "pk", &[0]);
    db.create_index(trade, "by_account", &[1, 0]);
    db.create_index(trade_history, "by_trade", &[0]);
    db.create_index(holding, "pk", &[0]);
    db.create_index(holding, "by_account", &[1, 0]);

    TpceDb {
        db,
        sf,
        t: Tables {
            customer,
            account,
            security,
            last_trade,
            trade,
            trade_history,
            holding,
        },
        n: Counts {
            customer: customer_n,
            account: account_n,
            security: security_n,
            trade: trade_n,
            holding: holding_n,
        },
        real: RealCounts {
            customers: sf as u64,
            accounts: (sf * per_customer::ACCOUNTS) as u64,
            securities: ((sf * per_customer::SECURITIES_PER_1000 / 1000.0) as u64).max(1),
            trades: (sf * per_customer::TRADES) as u64,
        },
    }
}

/// Paper Table 2 sizing: (data GB, index GB).
pub fn sizing(tpce: &TpceDb) -> (f64, f64) {
    let mut data = 0u64;
    let mut index = 0u64;
    for t in tpce.db.tables() {
        data += t.layout.data_bytes();
        for idx in &t.indexes {
            index += idx.layout.index_bytes();
        }
        if let Some(cs) = &t.columnstore {
            // An NCCI (HTAP configuration) counts as index space.
            index += cs.layout.data_bytes();
        }
    }
    (
        data as f64 / (1u64 << 30) as f64,
        index as f64 / (1u64 << 30) as f64,
    )
}

/// The TPC-E transaction mix generator (percentages follow the TPC-E
/// specification's mix).
#[derive(Debug)]
pub struct TpceGenerator {
    t: Tables,
    n: Counts,
    real: RealCounts,
    /// Next synthetic trade id for inserts, striped per client.
    next_trade_id: i64,
    /// Recycled program-part storage; steady-state generation is
    /// allocation-free once the pool is primed (see [`ProgramPool`]).
    pool: ProgramPool,
    /// Scratch for the multi-entity transactions' pick lists.
    picks: Vec<(u64, i64)>,
    /// Constant strings of the programs, built once and shared by clone.
    lit: Literals,
}

/// The string constants TPC-E programs write. Each is allocated once per
/// generator; cloning one into a row or a mutation bumps a refcount.
#[derive(Debug)]
struct Literals {
    buy: Arc<str>,
    sbmt: Arc<str>,
    tdata: Arc<str>,
    cmpt: Arc<str>,
    updated: Arc<str>,
}

impl Literals {
    fn new() -> Self {
        Literals {
            buy: "BUY".into(),
            sbmt: "SBMT".into(),
            tdata: "tdata".into(),
            cmpt: "CMPT".into(),
            updated: "updated".into(),
        }
    }
}

impl TpceGenerator {
    /// Creates a generator for one client; `client_id` stripes the insert
    /// key space so clients never collide.
    pub fn new(db: &TpceDb, client_id: usize) -> Self {
        TpceGenerator {
            t: db.t,
            n: db.n,
            real: db.real,
            next_trade_id: 1_000_000_000 + (client_id as i64) * 10_000_000,
            pool: ProgramPool::new(),
            picks: Vec::new(),
            lit: Literals::new(),
        }
    }

    /// Samples a hot entity: (real id for the lock resource, logical key
    /// for the data access). Trading activity is skewed: ~30% of all
    /// activity concentrates on the most-traded 5% of securities, so
    /// contention falls as the security population grows with SF.
    fn hot_entity(&self, rng: &mut SimRng, real_n: u64, logical_n: usize) -> (u64, i64) {
        let real_n = real_n.max(1);
        let hot_n = (real_n / 20).max(1);
        let real = if rng.chance(0.3) {
            rng.next_below(hot_n)
        } else {
            rng.next_below(real_n)
        };
        let logical = (real as u128 * logical_n as u128 / real_n as u128) as i64;
        (real, logical.min(logical_n as i64 - 1))
    }

    fn read(&mut self, table: TableId, key: i64) -> TxOp {
        TxOp::Read {
            table,
            index: 0,
            key: self.pool.key1(key),
            lock: LockSpec::Diffuse,
            for_update: false,
        }
    }

    fn read_hot(&mut self, table: TableId, real: u64, logical: i64, for_update: bool) -> TxOp {
        TxOp::Read {
            table,
            index: 0,
            key: self.pool.key1(logical),
            lock: LockSpec::Resource(real),
            for_update,
        }
    }

    /// A mutation list built from pooled storage.
    fn muts<const N: usize>(&mut self, muts: [Mutation; N]) -> Vec<Mutation> {
        let mut m = self.pool.muts();
        m.extend(muts);
        m
    }

    /// A program assembled from pooled op storage.
    fn program<const N: usize>(&mut self, name: &'static str, ops: [TxOp; N]) -> TxnProgram {
        let mut v = self.pool.ops();
        v.extend(ops);
        TxnProgram { name, ops: v }
    }

    fn trade_order(&mut self, rng: &mut SimRng) -> TxnProgram {
        let cust = rng.next_below(self.n.customer as u64) as i64;
        let acct = rng.next_below(self.n.account as u64) as i64;
        let (s_real, s_log) = self.hot_entity(rng, self.real.securities, self.n.security);
        let tid = self.next_trade_id;
        self.next_trade_id += 1;
        let trade_row = {
            let mut row = self.pool.values();
            row.extend([
                Value::Int(tid),
                Value::Int(acct),
                Value::Int(s_log),
                Value::Str(self.lit.buy.clone()),
                Value::Str(self.lit.sbmt.clone()),
                Value::Int(100),
                Value::Float(30.0),
                Value::Int(0),
                Value::Str(self.lit.tdata.clone()),
            ]);
            row
        };
        let hist_row = {
            let mut row = self.pool.values();
            row.extend([
                Value::Int(tid),
                Value::Str(self.lit.sbmt.clone()),
                Value::Int(0),
            ]);
            row
        };
        let ops = [
            self.read(self.t.customer, cust),
            self.read(self.t.account, acct),
            self.read(self.t.security, s_log),
            self.read_hot(self.t.last_trade, s_real, s_log, false),
            TxOp::Compute {
                instructions: 60_000,
            },
            TxOp::Insert {
                table: self.t.trade,
                row: trade_row,
            },
            TxOp::Insert {
                table: self.t.trade_history,
                row: hist_row,
            },
        ];
        self.program("TradeOrder", ops)
    }

    fn trade_result(&mut self, rng: &mut SimRng) -> TxnProgram {
        let acct = rng.next_below(self.n.account as u64) as i64;
        let trade = rng.next_below(self.n.trade as u64) as i64;
        let holding = rng.next_below(self.n.holding as u64) as i64;
        let (s_real, s_log) = self.hot_entity(rng, self.real.securities, self.n.security);
        let acct_muts = self.muts([Mutation {
            col: 2,
            op: MutOp::AddFloat(-31.4),
        }]);
        let lt_muts = self.muts([
            Mutation {
                col: 1,
                op: MutOp::AddFloat(0.01),
            },
            Mutation {
                col: 3,
                op: MutOp::AddInt(1),
            },
        ]);
        let cmpt = MutOp::SetStr(self.lit.cmpt.clone());
        let trade_muts = self.muts([Mutation { col: 4, op: cmpt }]);
        let hist_row = {
            let mut row = self.pool.values();
            row.extend([
                Value::Int(trade),
                Value::Str(self.lit.cmpt.clone()),
                Value::Int(0),
            ]);
            row
        };
        let holding_muts = self.muts([Mutation {
            col: 3,
            op: MutOp::AddInt(1),
        }]);
        let ops = [
            TxOp::Read {
                table: self.t.account,
                index: 0,
                key: self.pool.key1(acct),
                lock: LockSpec::Diffuse,
                for_update: true,
            },
            TxOp::Update {
                table: self.t.account,
                index: 0,
                key: self.pool.key1(acct),
                muts: acct_muts,
                lock: LockSpec::Diffuse,
            },
            // Completing the trade publishes the new last-trade price —
            // the hot-row write that contends with every reader.
            // (Canonical lock order: account < last_trade < trade.)
            TxOp::Update {
                table: self.t.last_trade,
                index: 0,
                key: self.pool.key1(s_log),
                muts: lt_muts,
                lock: LockSpec::Resource(s_real),
            },
            TxOp::Update {
                table: self.t.trade,
                index: 0,
                key: self.pool.key1(trade),
                muts: trade_muts,
                lock: LockSpec::Diffuse,
            },
            TxOp::Insert {
                table: self.t.trade_history,
                row: hist_row,
            },
            TxOp::Update {
                table: self.t.holding,
                index: 0,
                key: self.pool.key1(holding),
                muts: holding_muts,
                lock: LockSpec::Diffuse,
            },
            TxOp::Compute {
                instructions: 80_000,
            },
        ];
        self.program("TradeResult", ops)
    }

    fn trade_status(&mut self, rng: &mut SimRng) -> TxnProgram {
        let acct = rng.next_below(self.n.account as u64) as i64;
        let ops = [TxOp::ReadRange {
            table: self.t.trade,
            index: 1, // by_account
            lo: self.pool.key2(acct, 0),
            hi: self.pool.key2(acct + 1, 0),
            limit: 4,
            model_rows: 50,
        }];
        self.program("TradeStatus", ops)
    }

    fn customer_position(&mut self, rng: &mut SimRng) -> TxnProgram {
        let cust = rng.next_below(self.n.customer as u64) as i64;
        let acct = rng.next_below(self.n.account as u64) as i64;
        let (s_real, s_log) = self.hot_entity(rng, self.real.securities, self.n.security);
        let ops = [
            self.read(self.t.customer, cust),
            TxOp::ReadRange {
                table: self.t.account,
                index: 1,
                lo: self.pool.key2(cust, 0),
                hi: self.pool.key2(cust + 1, 0),
                limit: 4,
                model_rows: 5,
            },
            TxOp::ReadRange {
                table: self.t.holding,
                index: 1,
                lo: self.pool.key2(acct, 0),
                hi: self.pool.key2(acct + 1, 0),
                limit: 4,
                model_rows: 20,
            },
            self.read_hot(self.t.last_trade, s_real, s_log, false),
            TxOp::Compute {
                instructions: 40_000,
            },
        ];
        self.program("CustomerPosition", ops)
    }

    fn broker_volume(&mut self, rng: &mut SimRng) -> TxnProgram {
        let acct = rng.next_below(self.n.account as u64) as i64;
        let ops = [
            TxOp::ReadRange {
                table: self.t.trade,
                index: 1,
                lo: self.pool.key2(acct, 0),
                hi: self.pool.key2(acct + 3, 0),
                limit: 12,
                model_rows: 200,
            },
            TxOp::Compute {
                instructions: 100_000,
            },
        ];
        self.program("BrokerVolume", ops)
    }

    fn security_detail(&mut self, rng: &mut SimRng) -> TxnProgram {
        let (s_real, s_log) = self.hot_entity(rng, self.real.securities, self.n.security);
        let trade = rng.next_below(self.n.trade as u64) as i64;
        let ops = [
            self.read(self.t.security, s_log),
            self.read_hot(self.t.last_trade, s_real, s_log, false),
            TxOp::ReadRange {
                table: self.t.trade_history,
                index: 0,
                lo: self.pool.key1(trade),
                hi: self.pool.key1(trade + 4),
                limit: 4,
                model_rows: 20,
            },
        ];
        self.program("SecurityDetail", ops)
    }

    fn market_feed(&mut self, rng: &mut SimRng) -> TxnProgram {
        // Update the last-trade row of several securities: the hot-write
        // path that drives LOCK/PAGELATCH contention, shrinking as the
        // security population grows with SF.
        let mut picks = std::mem::take(&mut self.picks);
        picks.clear();
        picks.extend((0..8).map(|_| self.hot_entity(rng, self.real.securities, self.n.security)));
        // Canonical lock order (deadlock discipline).
        picks.sort_unstable();
        picks.dedup();
        let mut ops = self.pool.ops();
        for &(real, logical) in &picks {
            let muts = self.muts([
                Mutation {
                    col: 1,
                    op: MutOp::AddFloat(0.05),
                },
                Mutation {
                    col: 2,
                    op: MutOp::AddInt(100),
                },
                Mutation {
                    col: 3,
                    op: MutOp::AddInt(1),
                },
            ]);
            ops.push(TxOp::Update {
                table: self.t.last_trade,
                index: 0,
                key: self.pool.key1(logical),
                muts,
                lock: LockSpec::Resource(real),
            });
        }
        self.picks = picks;
        TxnProgram {
            name: "MarketFeed",
            ops,
        }
    }

    fn market_watch(&mut self, rng: &mut SimRng) -> TxnProgram {
        let mut picks = std::mem::take(&mut self.picks);
        picks.clear();
        picks.extend((0..10).map(|_| self.hot_entity(rng, self.real.securities, self.n.security)));
        picks.sort_unstable();
        picks.dedup();
        let mut ops = self.pool.ops();
        for &(real, logical) in &picks {
            let op = self.read_hot(self.t.last_trade, real, logical, false);
            ops.push(op);
        }
        ops.push(TxOp::Compute {
            instructions: 30_000,
        });
        self.picks = picks;
        TxnProgram {
            name: "MarketWatch",
            ops,
        }
    }

    fn trade_lookup(&mut self, rng: &mut SimRng) -> TxnProgram {
        let acct = rng.next_below(self.n.account as u64) as i64;
        let trade = rng.next_below(self.n.trade as u64) as i64;
        let ops = [
            TxOp::ReadRange {
                table: self.t.trade,
                index: 1,
                lo: self.pool.key2(acct, 0),
                hi: self.pool.key2(acct + 1, 0),
                limit: 4,
                model_rows: 20,
            },
            TxOp::ReadRange {
                table: self.t.trade_history,
                index: 0,
                lo: self.pool.key1(trade),
                hi: self.pool.key1(trade + 8),
                limit: 8,
                model_rows: 20,
            },
        ];
        self.program("TradeLookup", ops)
    }

    fn trade_update(&mut self, rng: &mut SimRng) -> TxnProgram {
        let mut picks = std::mem::take(&mut self.picks);
        picks.clear();
        picks.extend((0..3).map(|_| (rng.next_below(self.n.trade as u64), 0i64)));
        picks.sort_unstable();
        picks.dedup();
        let mut ops = self.pool.ops();
        ops.push(TxOp::ReadRange {
            table: self.t.trade,
            index: 1,
            lo: self.pool.key2(0, 0),
            hi: self.pool.key2(1, 0),
            limit: 4,
            model_rows: 20,
        });
        for &(t, _) in &picks {
            let k = t as i64;
            let upd = MutOp::SetStr(self.lit.updated.clone());
            let muts = self.muts([Mutation { col: 8, op: upd }]);
            ops.push(TxOp::Update {
                table: self.t.trade,
                index: 0,
                key: self.pool.key1(k),
                muts,
                lock: LockSpec::Diffuse,
            });
        }
        self.picks = picks;
        TxnProgram {
            name: "TradeUpdate",
            ops,
        }
    }
}

impl TxnGenerator for TpceGenerator {
    fn next_txn(&mut self, rng: &mut SimRng) -> TxnProgram {
        // TPC-E mix (CE transactions, percent).
        let p = rng.next_below(1000);
        match p {
            0..=100 => self.trade_order(rng),         // 10.1%
            101..=201 => self.trade_result(rng),      // 10.1%
            202..=391 => self.trade_status(rng),      // 19.0%
            392..=521 => self.customer_position(rng), // 13.0%
            522..=570 => self.broker_volume(rng),     // 4.9%
            571..=710 => self.security_detail(rng),   // 14.0%
            711..=720 => self.market_feed(rng),       // 1.0%
            721..=900 => self.market_watch(rng),      // 18.0%
            901..=980 => self.trade_lookup(rng),      // 8.0%
            _ => self.trade_update(rng),              // 2.0%
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

    fn small() -> TpceDb {
        build(
            500.0,
            &ScaleCfg {
                row_scale: 100_000.0,
                oltp_row_scale: 2_000.0,
                seed: 9,
            },
        )
    }

    #[test]
    fn schema_and_counts() {
        let t = small();
        assert_eq!(t.n.security, t.db.table(t.t.last_trade).heap.len());
        assert!(t.n.trade > t.n.holding);
        assert_eq!(t.db.table(t.t.trade).indexes.len(), 2);
        // Modeled trade rows at paper scale.
        let modeled = t.db.table(t.t.trade).layout.modeled_rows() as f64;
        let expected = 500.0 * per_customer::TRADES;
        assert!((modeled / expected - 1.0).abs() < 0.2, "modeled={modeled}");
    }

    #[test]
    fn sizing_lands_near_table2_shape() {
        // At SF=5000 the paper reports 31.99 GB data / 8.15 GB index.
        let t = build(
            5000.0,
            &ScaleCfg {
                row_scale: 100_000.0,
                oltp_row_scale: 20_000.0,
                seed: 9,
            },
        );
        let (data, index) = sizing(&t);
        assert!((20.0..48.0).contains(&data), "data = {data} GB");
        assert!((4.0..14.0).contains(&index), "index = {index} GB");
        assert!(data > index);
    }

    #[test]
    fn generator_produces_valid_mix() {
        let t = small();
        let mut g = TpceGenerator::new(&t, 0);
        let mut rng = SimRng::new(5);
        let mut names = std::collections::HashSet::new();
        for _ in 0..2000 {
            let txn = g.next_txn(&mut rng);
            assert!(!txn.ops.is_empty(), "{} empty", txn.name);
            names.insert(txn.name);
        }
        // All ten transaction types appear.
        assert_eq!(names.len(), 10, "saw {names:?}");
    }

    #[test]
    fn insert_ids_are_striped_per_client() {
        let t = small();
        let mut a = TpceGenerator::new(&t, 0);
        let mut b = TpceGenerator::new(&t, 1);
        let mut rng = SimRng::new(6);
        let mut ids_a = vec![];
        let mut ids_b = vec![];
        for _ in 0..200 {
            if let TxOp::Insert { row, .. } = &a.trade_order(&mut rng).ops[5] {
                ids_a.push(row[0].as_int());
            }
            if let TxOp::Insert { row, .. } = &b.trade_order(&mut rng).ops[5] {
                ids_b.push(row[0].as_int());
            }
        }
        assert!(ids_a.iter().all(|i| !ids_b.contains(i)));
    }

    #[test]
    fn hot_entity_mapping_is_consistent() {
        let t = small();
        let g = TpceGenerator::new(&t, 0);
        let mut rng = SimRng::new(7);
        for _ in 0..500 {
            let (real, logical) = g.hot_entity(&mut rng, t.real.securities, t.n.security);
            assert!(real < t.real.securities);
            assert!((logical as usize) < t.n.security);
        }
    }
}
