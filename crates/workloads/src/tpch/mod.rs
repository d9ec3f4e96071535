//! TPC-H analog: decision-support schema, data generator, and all 22
//! queries as logical plan builders.
//!
//! The database uses the paper's DW configuration (Table 1): fully columnar
//! storage (clustered columnstore on every table) with B-tree primary keys
//! kept on the dimension-ish tables (`part`, `supplier`, `customer`) so the
//! optimizer can choose index nested-loops plans (Figure 7).

pub mod queries;

use crate::dates::{date, order_date_hi, ORDER_DATE_LO};
use crate::scale::ScaleCfg;
use dbsens_engine::db::{Database, TableId};
use dbsens_engine::governor::Governor;
use dbsens_hwsim::rng::SimRng;
use dbsens_storage::schema::{ColType, Schema};
use dbsens_storage::value::{Row, Value};

/// Column positions, one module per table.
pub mod col {
    #![allow(missing_docs)]
    /// `lineitem` columns.
    pub mod li {
        pub const ORDERKEY: usize = 0;
        pub const PARTKEY: usize = 1;
        pub const SUPPKEY: usize = 2;
        pub const LINENUMBER: usize = 3;
        pub const QUANTITY: usize = 4;
        pub const EXTENDEDPRICE: usize = 5;
        pub const DISCOUNT: usize = 6;
        pub const TAX: usize = 7;
        pub const RETURNFLAG: usize = 8;
        pub const LINESTATUS: usize = 9;
        pub const SHIPDATE: usize = 10;
        pub const COMMITDATE: usize = 11;
        pub const RECEIPTDATE: usize = 12;
        pub const SHIPINSTRUCT: usize = 13;
        pub const SHIPMODE: usize = 14;
    }
    /// `orders` columns.
    pub mod ord {
        pub const ORDERKEY: usize = 0;
        pub const CUSTKEY: usize = 1;
        pub const ORDERSTATUS: usize = 2;
        pub const TOTALPRICE: usize = 3;
        pub const ORDERDATE: usize = 4;
        pub const ORDERPRIORITY: usize = 5;
        pub const SHIPPRIORITY: usize = 6;
        pub const COMMENT: usize = 7;
    }
    /// `customer` columns.
    pub mod cust {
        pub const CUSTKEY: usize = 0;
        pub const NAME: usize = 1;
        pub const NATIONKEY: usize = 2;
        pub const PHONE: usize = 3;
        pub const CNTRYCODE: usize = 4;
        pub const ACCTBAL: usize = 5;
        pub const MKTSEGMENT: usize = 6;
    }
    /// `part` columns.
    pub mod part {
        pub const PARTKEY: usize = 0;
        pub const NAME: usize = 1;
        pub const MFGR: usize = 2;
        pub const BRAND: usize = 3;
        pub const TYPE: usize = 4;
        pub const SIZE: usize = 5;
        pub const CONTAINER: usize = 6;
        pub const RETAILPRICE: usize = 7;
    }
    /// `partsupp` columns.
    pub mod ps {
        pub const PARTKEY: usize = 0;
        pub const SUPPKEY: usize = 1;
        pub const AVAILQTY: usize = 2;
        pub const SUPPLYCOST: usize = 3;
    }
    /// `supplier` columns.
    pub mod supp {
        pub const SUPPKEY: usize = 0;
        pub const NAME: usize = 1;
        pub const NATIONKEY: usize = 2;
        pub const ACCTBAL: usize = 3;
        pub const COMMENT: usize = 4;
    }
    /// `nation` columns.
    pub mod nat {
        pub const NATIONKEY: usize = 0;
        pub const NAME: usize = 1;
        pub const REGIONKEY: usize = 2;
    }
    /// `region` columns.
    pub mod reg {
        pub const REGIONKEY: usize = 0;
        pub const NAME: usize = 1;
    }
}

/// Part name colors (Q20's prefix predicate selects one of these).
pub const COLORS: [&str; 30] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cornsilk",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "lemon",
    "lace",
    "lavender",
];

const TYPE_SYL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINERS: [&str; 8] = ["SM", "MED", "LG", "JUMBO", "WRAP", "BOX", "BAG", "PKG"];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const INSTRUCTS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// The 25 TPC-H nations (name, region).
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// The 5 regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// A built TPC-H database plus the metadata query builders need.
#[derive(Debug)]
pub struct TpchDb {
    /// The database (caller wraps in `Rc<RefCell<_>>` for tasks).
    pub db: Database,
    /// Scale factor.
    pub sf: f64,
    /// Table ids.
    pub t: Tables,
    /// Logical row counts (for cardinality estimates).
    pub n: Counts,
}

/// Table ids of the TPC-H schema.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct Tables {
    pub lineitem: TableId,
    pub orders: TableId,
    pub customer: TableId,
    pub part: TableId,
    pub partsupp: TableId,
    pub supplier: TableId,
    pub nation: TableId,
    pub region: TableId,
}

/// Logical row counts.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct Counts {
    pub lineitem: usize,
    pub orders: usize,
    pub customer: usize,
    pub part: usize,
    pub partsupp: usize,
    pub supplier: usize,
}

/// Builds the TPC-H analog database at scale factor `sf`.
pub fn build(sf: f64, scale: &ScaleCfg) -> TpchDb {
    let mut rng = SimRng::new(scale.seed ^ 0x7c44);
    let mut db = Database::new(scale.row_scale, Governor::bufferpool_bytes());

    let customer_n = scale.logical(150_000.0 * sf);
    let part_n = scale.logical(200_000.0 * sf);
    let supplier_n = scale.logical(10_000.0 * sf).max(8);
    let orders_n = scale.logical(1_500_000.0 * sf);

    // region / nation (fixed).
    let region_rows: Vec<Row> = REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| vec![Value::Int(i as i64), Value::Str((*name).into())])
        .collect();
    let region = db.create_table(
        "region",
        Schema::new(&[("r_regionkey", ColType::Int), ("r_name", ColType::Str(10))]),
        region_rows,
    );
    let nation_rows: Vec<Row> = NATIONS
        .iter()
        .enumerate()
        .map(|(i, (name, reg))| {
            vec![
                Value::Int(i as i64),
                Value::Str((*name).into()),
                Value::Int(*reg),
            ]
        })
        .collect();
    let nation = db.create_table(
        "nation",
        Schema::new(&[
            ("n_nationkey", ColType::Int),
            ("n_name", ColType::Str(12)),
            ("n_regionkey", ColType::Int),
        ]),
        nation_rows,
    );

    // supplier.
    let supplier_rows: Vec<Row> = (0..supplier_n)
        .map(|i| {
            let complaint = rng.chance(0.003);
            vec![
                Value::Int(i as i64),
                Value::from(format!("Supplier#{i:09}")),
                Value::Int(rng.next_below(25) as i64),
                Value::Float(rng.next_below(20_000) as f64 / 2.0 - 1000.0),
                Value::Str(if complaint {
                    "wait customercomplaints slyly".into()
                } else {
                    format!("quiet deposits {i}").into()
                }),
            ]
        })
        .collect();
    let supplier = db.create_table(
        "supplier",
        Schema::new(&[
            ("s_suppkey", ColType::Int),
            ("s_name", ColType::Str(18)),
            ("s_nationkey", ColType::Int),
            ("s_acctbal", ColType::Float),
            ("s_comment", ColType::Str(62)),
        ]),
        supplier_rows,
    );

    // customer (with derived country code for Q22).
    let customer_rows: Vec<Row> = (0..customer_n)
        .map(|i| {
            let nat = rng.next_below(25) as i64;
            let cc = 10 + nat;
            vec![
                Value::Int(i as i64),
                Value::from(format!("Customer#{i:09}")),
                Value::Int(nat),
                Value::from(format!(
                    "{cc}-{:03}-{:04}",
                    rng.next_below(1000),
                    rng.next_below(10_000)
                )),
                Value::Int(cc),
                Value::Float(rng.next_below(11_000) as f64 - 999.0),
                Value::Str(SEGMENTS[rng.next_below(5) as usize].into()),
            ]
        })
        .collect();
    let customer = db.create_table(
        "customer",
        Schema::new(&[
            ("c_custkey", ColType::Int),
            ("c_name", ColType::Str(18)),
            ("c_nationkey", ColType::Int),
            ("c_phone", ColType::Str(15)),
            ("c_cntrycode", ColType::Int),
            ("c_acctbal", ColType::Float),
            ("c_mktsegment", ColType::Str(10)),
        ]),
        customer_rows,
    );

    // part.
    let part_rows: Vec<Row> = (0..part_n)
        .map(|i| {
            let c1 = COLORS[rng.next_below(30) as usize];
            let c2 = COLORS[rng.next_below(30) as usize];
            let ty = format!(
                "{} {} {}",
                TYPE_SYL1[rng.next_below(6) as usize],
                TYPE_SYL2[rng.next_below(5) as usize],
                TYPE_SYL3[rng.next_below(5) as usize]
            );
            vec![
                Value::Int(i as i64),
                Value::from(format!("{c1} {c2}")),
                Value::from(format!("Manufacturer#{}", 1 + rng.next_below(5))),
                Value::from(format!(
                    "Brand#{}{}",
                    1 + rng.next_below(5),
                    1 + rng.next_below(5)
                )),
                Value::from(ty),
                Value::Int(1 + rng.next_below(50) as i64),
                Value::from(format!(
                    "{} {}",
                    CONTAINERS[rng.next_below(8) as usize],
                    ["CASE", "BOX", "BAG", "JAR", "PACK"][rng.next_below(5) as usize]
                )),
                Value::Float(900.0 + (i % 1000) as f64),
            ]
        })
        .collect();
    let part = db.create_table(
        "part",
        Schema::new(&[
            ("p_partkey", ColType::Int),
            ("p_name", ColType::Str(18)),
            ("p_mfgr", ColType::Str(14)),
            ("p_brand", ColType::Str(8)),
            ("p_type", ColType::Str(22)),
            ("p_size", ColType::Int),
            ("p_container", ColType::Str(10)),
            ("p_retailprice", ColType::Float),
        ]),
        part_rows,
    );

    // partsupp: 4 suppliers per part.
    let partsupp_rows: Vec<Row> = (0..part_n)
        .flat_map(|p| {
            let mut rows = Vec::with_capacity(4);
            for s in 0..4usize {
                let supp = (p + s * (supplier_n / 4 + 1)) % supplier_n;
                rows.push(vec![
                    Value::Int(p as i64),
                    Value::Int(supp as i64),
                    Value::Int(1 + ((p * 7 + s * 13) % 9999) as i64),
                    Value::Float(1.0 + ((p * 31 + s * 17) % 1000) as f64 / 10.0),
                ]);
            }
            rows
        })
        .collect();
    let partsupp_n = partsupp_rows.len();
    let partsupp = db.create_table(
        "partsupp",
        Schema::new(&[
            ("ps_partkey", ColType::Int),
            ("ps_suppkey", ColType::Int),
            ("ps_availqty", ColType::Int),
            ("ps_supplycost", ColType::Float),
        ]),
        partsupp_rows,
    );

    // orders + lineitem.
    let date_span = order_date_hi() - ORDER_DATE_LO;
    let mut orders_rows = Vec::with_capacity(orders_n);
    let mut lineitem_rows = Vec::new();
    let cutoff = date(1995, 6, 17);
    for o in 0..orders_n {
        let orderdate = ORDER_DATE_LO + rng.next_below(date_span as u64 - 151) as i64;
        let n_lines = 1 + rng.next_below(7) as usize;
        let mut total = 0.0;
        let mut any_open = false;
        for l in 0..n_lines {
            let partkey = rng.next_below(part_n as u64) as i64;
            let supp_slot = rng.next_below(4) as usize;
            let suppkey =
                ((partkey as usize + supp_slot * (supplier_n / 4 + 1)) % supplier_n) as i64;
            let qty = 1 + rng.next_below(50) as i64;
            let price = qty as f64 * (900.0 + (partkey % 1000) as f64) / 10.0;
            let discount = rng.next_below(11) as f64 / 100.0;
            let tax = rng.next_below(9) as f64 / 100.0;
            let shipdate = orderdate + 1 + rng.next_below(121) as i64;
            let commitdate = orderdate + 30 + rng.next_below(61) as i64;
            let receiptdate = shipdate + 1 + rng.next_below(30) as i64;
            let returnflag = if receiptdate <= cutoff {
                if rng.chance(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            let linestatus = if shipdate > cutoff { "O" } else { "F" };
            any_open |= linestatus == "O";
            total += price * (1.0 - discount);
            lineitem_rows.push(vec![
                Value::Int(o as i64),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(l as i64 + 1),
                Value::Int(qty),
                Value::Float(price),
                Value::Float(discount),
                Value::Float(tax),
                Value::Str(returnflag.into()),
                Value::Str(linestatus.into()),
                Value::Int(shipdate),
                Value::Int(commitdate),
                Value::Int(receiptdate),
                Value::Str(INSTRUCTS[rng.next_below(4) as usize].into()),
                Value::Str(SHIPMODES[rng.next_below(7) as usize].into()),
            ]);
        }
        let status = if any_open { "O" } else { "F" };
        let comment = if rng.chance(0.01) {
            "handle specialrequests carefully".to_owned()
        } else {
            format!("regular deposits {o}")
        };
        orders_rows.push(vec![
            Value::Int(o as i64),
            // Per the TPC-H spec, a third of customers never place orders
            // (exercised by Q13's outer join and Q22's anti join).
            Value::Int(rng.next_below(((customer_n * 2) / 3).max(1) as u64) as i64),
            Value::Str(status.into()),
            Value::Float(total),
            Value::Int(orderdate),
            Value::Str(PRIORITIES[rng.next_below(5) as usize].into()),
            Value::Int(0),
            Value::from(comment),
        ]);
    }
    let lineitem_n = lineitem_rows.len();
    let orders = db.create_table(
        "orders",
        Schema::new(&[
            ("o_orderkey", ColType::Int),
            ("o_custkey", ColType::Int),
            ("o_orderstatus", ColType::Str(1)),
            ("o_totalprice", ColType::Float),
            ("o_orderdate", ColType::Int),
            ("o_orderpriority", ColType::Str(12)),
            ("o_shippriority", ColType::Int),
            ("o_comment", ColType::Str(48)),
        ]),
        orders_rows,
    );
    let lineitem = db.create_table(
        "lineitem",
        Schema::new(&[
            ("l_orderkey", ColType::Int),
            ("l_partkey", ColType::Int),
            ("l_suppkey", ColType::Int),
            ("l_linenumber", ColType::Int),
            ("l_quantity", ColType::Int),
            ("l_extendedprice", ColType::Float),
            ("l_discount", ColType::Float),
            ("l_tax", ColType::Float),
            ("l_returnflag", ColType::Str(1)),
            ("l_linestatus", ColType::Str(1)),
            ("l_shipdate", ColType::Int),
            ("l_commitdate", ColType::Int),
            ("l_receiptdate", ColType::Int),
            ("l_shipinstruct", ColType::Str(17)),
            ("l_shipmode", ColType::Str(7)),
        ]),
        lineitem_rows,
    );

    // DW configuration: clustered columnstore everywhere (paper Table 1),
    // B-tree PKs on the NL-join-eligible tables.
    for tid in [
        lineitem, orders, customer, part, partsupp, supplier, nation, region,
    ] {
        db.create_columnstore(tid, 4096);
    }
    db.create_index(part, "pk", &[col::part::PARTKEY]);
    db.create_index(supplier, "pk", &[col::supp::SUPPKEY]);
    db.create_index(customer, "pk", &[col::cust::CUSTKEY]);
    // The partsupp primary key enables the index nested-loops alternative
    // the paper's Figure 7b plan uses (it also grows Table 2's index
    // column beyond the paper's configuration; see EXPERIMENTS.md).
    db.create_index(partsupp, "pk", &[col::ps::PARTKEY]);

    TpchDb {
        db,
        sf,
        t: Tables {
            lineitem,
            orders,
            customer,
            part,
            partsupp,
            supplier,
            nation,
            region,
        },
        n: Counts {
            lineitem: lineitem_n,
            orders: orders_n,
            customer: customer_n,
            part: part_n,
            partsupp: partsupp_n,
            supplier: supplier_n,
        },
    }
}

/// Paper Table 2 sizing for TPC-H: data = compressed columnstore bytes,
/// index = B-tree bytes.
pub fn sizing(tpch: &TpchDb) -> (f64, f64) {
    let mut data = 0u64;
    let mut index = 0u64;
    for t in tpch.db.tables() {
        if let Some(cs) = &t.columnstore {
            data += cs.layout.data_bytes();
        } else {
            data += t.layout.data_bytes();
        }
        for idx in &t.indexes {
            index += idx.layout.index_bytes();
        }
    }
    (
        data as f64 / (1u64 << 30) as f64,
        index as f64 / (1u64 << 30) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_consistent_schema() {
        let t = build(
            1.0,
            &ScaleCfg {
                row_scale: 200_000.0,
                oltp_row_scale: 2_000.0,
                seed: 42,
            },
        );
        assert_eq!(t.db.table(t.t.nation).heap.len(), 25);
        assert_eq!(t.db.table(t.t.region).heap.len(), 5);
        assert_eq!(t.db.table(t.t.partsupp).heap.len(), t.n.part * 4);
        assert!(t.n.lineitem >= t.n.orders);
        // Every table is columnar.
        assert!(t.db.tables().iter().all(|tb| tb.columnstore.is_some()));
        // Modeled size ~ 6M lineitems at SF1 (wide tolerance: line counts
        // per order are random).
        let modeled = t.db.table(t.t.lineitem).layout.modeled_rows() as f64;
        assert!(modeled > 2e6 && modeled < 12e6, "modeled={modeled}");
    }

    #[test]
    fn foreign_keys_are_valid() {
        let t = build(1.0, &ScaleCfg::test());
        let db = &t.db;
        for (_, r) in db.table(t.t.lineitem).heap.iter() {
            let pk = r[col::li::PARTKEY].as_int() as usize;
            let sk = r[col::li::SUPPKEY].as_int() as usize;
            let ok = r[col::li::ORDERKEY].as_int() as usize;
            assert!(pk < t.n.part && sk < t.n.supplier && ok < t.n.orders);
            assert!(r[col::li::SHIPDATE].as_int() > 0);
        }
        for (_, r) in db.table(t.t.orders).heap.iter() {
            assert!((r[col::ord::CUSTKEY].as_int() as usize) < t.n.customer);
        }
    }

    #[test]
    fn sizing_tracks_scale_factor() {
        let s10 = sizing(&build(10.0, &ScaleCfg::test()));
        let s100 = sizing(&build(100.0, &ScaleCfg::test()));
        assert!(s100.0 > s10.0 * 5.0, "SF100 {s100:?} vs SF10 {s10:?}");
        assert!(s10.1 < s10.0, "index should be smaller than data");
    }
}
