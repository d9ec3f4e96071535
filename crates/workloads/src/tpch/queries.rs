//! The 22 TPC-H queries as logical plan builders.
//!
//! Queries are hand-lowered from the spec SQL: correlated subqueries are
//! decorrelated with standard aggregate-join rewrites (noted per query), and
//! scalar thresholds that the spec computes in subqueries (Q11, Q18, Q22)
//! are computed from the logical data at build time and embedded as
//! literals — the physical work of those subqueries is negligible next to
//! the main pipelines. Parameters use fixed representative values from the
//! spec's defaults. Column positions in concatenated join rows are tracked
//! in comments as `layout: ...`.

use super::col::{cust, li, nat, ord, part, ps, reg, supp};
use super::TpchDb;
use crate::dates::date;
use dbsens_engine::expr::{CmpOp, Expr};
use dbsens_engine::plan::{avg, count, max, min, sum, AggFunc, AggSpec, JoinKind, Logical};
use dbsens_storage::value::Value;

fn c(i: usize) -> Expr {
    Expr::Col(i)
}

fn lit_i(v: i64) -> Expr {
    Expr::lit(v)
}

fn lit_f(v: f64) -> Expr {
    Expr::lit(v)
}

fn lit_s(v: &str) -> Expr {
    Expr::lit(v)
}

fn eq(a: Expr, b: Expr) -> Expr {
    Expr::cmp(CmpOp::Eq, a, b)
}

fn ne(a: Expr, b: Expr) -> Expr {
    Expr::cmp(CmpOp::Ne, a, b)
}

fn lt(a: Expr, b: Expr) -> Expr {
    Expr::cmp(CmpOp::Lt, a, b)
}

fn le(a: Expr, b: Expr) -> Expr {
    Expr::cmp(CmpOp::Le, a, b)
}

fn gt(a: Expr, b: Expr) -> Expr {
    Expr::cmp(CmpOp::Gt, a, b)
}

fn ge(a: Expr, b: Expr) -> Expr {
    Expr::cmp(CmpOp::Ge, a, b)
}

fn between_i(col: usize, lo: i64, hi: i64) -> Expr {
    Expr::Between(Box::new(c(col)), Value::Int(lo), Value::Int(hi))
}

fn starts(col: usize, p: &str) -> Expr {
    Expr::StartsWith(Box::new(c(col)), p.to_owned())
}

fn contains(col: usize, p: &str) -> Expr {
    Expr::Contains(Box::new(c(col)), p.to_owned())
}

fn in_strs(col: usize, vals: &[&str]) -> Expr {
    Expr::InList(
        Box::new(c(col)),
        vals.iter().map(|&v| Value::from(v)).collect(),
    )
}

fn in_ints(col: usize, vals: &[i64]) -> Expr {
    Expr::InList(
        Box::new(c(col)),
        vals.iter().map(|v| Value::Int(*v)).collect(),
    )
}

fn sum_of(e: Expr) -> AggSpec {
    AggSpec {
        func: AggFunc::Sum,
        expr: e,
    }
}

/// `l_extendedprice * (1 - l_discount)` over columns at `price`/`disc`.
fn revenue(price: usize, disc: usize) -> Expr {
    c(price).mul(lit_f(1.0).sub(c(disc)))
}

/// Year of a day-number column (1992 + floor(day / 365.25)).
fn year_of_col(col: usize) -> Expr {
    Expr::IntDiv(Box::new(c(col)), Box::new(lit_f(365.25))).add(lit_i(1992))
}

impl TpchDb {
    /// Builds query `q` (1-22).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in 1..=22.
    pub fn query(&self, q: usize) -> Logical {
        match q {
            1 => self.q1(),
            2 => self.q2(),
            3 => self.q3(),
            4 => self.q4(),
            5 => self.q5(),
            6 => self.q6(),
            7 => self.q7(),
            8 => self.q8(),
            9 => self.q9(),
            10 => self.q10(),
            11 => self.q11(),
            12 => self.q12(),
            13 => self.q13(),
            14 => self.q14(),
            15 => self.q15(),
            16 => self.q16(),
            17 => self.q17(),
            18 => self.q18(),
            19 => self.q19(),
            20 => self.q20(),
            21 => self.q21(),
            22 => self.q22(),
            _ => panic!("TPC-H has queries 1-22, got {q}"),
        }
    }

    /// All 22 queries with their names.
    pub fn all_queries(&self) -> Vec<(String, Logical)> {
        (1..=22).map(|q| (format!("Q{q}"), self.query(q))).collect()
    }

    fn nli(&self) -> f64 {
        self.n.lineitem as f64
    }

    fn nord(&self) -> f64 {
        self.n.orders as f64
    }

    fn ncust(&self) -> f64 {
        self.n.customer as f64
    }

    fn npart(&self) -> f64 {
        self.n.part as f64
    }

    fn nps(&self) -> f64 {
        self.n.partsupp as f64
    }

    fn nsupp(&self) -> f64 {
        self.n.supplier as f64
    }

    /// Q1 Pricing Summary Report: full lineitem scan + 4-group aggregate.
    fn q1(&self) -> Logical {
        Logical::scan(
            self.t.lineitem,
            Some(le(c(li::SHIPDATE), lit_i(date(1998, 9, 2)))),
            self.nli() * 0.985,
        )
        .agg(
            vec![li::RETURNFLAG, li::LINESTATUS],
            vec![
                sum(li::QUANTITY),
                sum(li::EXTENDEDPRICE),
                sum_of(revenue(li::EXTENDEDPRICE, li::DISCOUNT)),
                sum_of(revenue(li::EXTENDEDPRICE, li::DISCOUNT).mul(lit_f(1.0).add(c(li::TAX)))),
                avg(li::QUANTITY),
                avg(li::EXTENDEDPRICE),
                avg(li::DISCOUNT),
                count(),
            ],
            4.0,
        )
        .sort(vec![(0, false), (1, false)])
    }

    /// Q2 Minimum Cost Supplier. Decorrelation: the `min(ps_supplycost)`
    /// subquery becomes a group-by on partkey joined back on
    /// `(partkey, supplycost)`.
    fn q2(&self) -> Logical {
        // layout nation(3) ++ region(2)
        let nat_eu = Logical::scan(self.t.nation, None, 25.0).join(
            Logical::scan(self.t.region, Some(eq(c(reg::NAME), lit_s("EUROPE"))), 1.0),
            vec![nat::REGIONKEY],
            vec![reg::REGIONKEY],
            JoinKind::Inner,
            5.0,
        );
        // layout supplier(5) ++ nation(3) ++ region(2) = 10 cols
        let supp_eu = Logical::scan(self.t.supplier, None, self.nsupp()).join(
            nat_eu,
            vec![supp::NATIONKEY],
            vec![nat::NATIONKEY],
            JoinKind::Inner,
            self.nsupp() / 5.0,
        );
        let part_f = Logical::scan(
            self.t.part,
            Some(eq(c(part::SIZE), lit_i(15)).and(contains(part::TYPE, "BRASS"))),
            self.npart() * 0.004,
        );
        // layout ps(4) ++ part(8) = 12
        let ps_part = Logical::scan(self.t.partsupp, None, self.nps()).join(
            part_f,
            vec![ps::PARTKEY],
            vec![part::PARTKEY],
            JoinKind::Inner,
            self.nps() * 0.004,
        );
        // layout ps(0-3) ++ part(4-11) ++ supp_eu(12-21) = 22
        let full = ps_part.join(
            supp_eu,
            vec![ps::SUPPKEY],
            vec![supp::SUPPKEY],
            JoinKind::Inner,
            self.nps() * 0.0008,
        );
        // (partkey, min supplycost)
        let mincost = full.clone().agg(
            vec![ps::PARTKEY],
            vec![min(ps::SUPPLYCOST)],
            self.npart() * 0.004,
        );
        // layout full(22) ++ mincost(2) = 24
        full.join(
            mincost,
            vec![ps::PARTKEY, ps::SUPPLYCOST],
            vec![0, 1],
            JoinKind::Inner,
            self.npart() * 0.004,
        )
        // s_acctbal=12+3=15 desc, n_name=12+5+1=18, s_name=13, p_partkey=4
        .sort(vec![(15, true), (18, false), (13, false), (4, false)])
        .top(100)
    }

    /// Q3 Shipping Priority.
    fn q3(&self) -> Logical {
        let cutoff = date(1995, 3, 15);
        let cust_f = Logical::scan(
            self.t.customer,
            Some(eq(c(cust::MKTSEGMENT), lit_s("BUILDING"))),
            self.ncust() / 5.0,
        );
        // layout orders(8) ++ customer(7) = 15
        let ord_cust = Logical::scan(
            self.t.orders,
            Some(lt(c(ord::ORDERDATE), lit_i(cutoff))),
            self.nord() * 0.48,
        )
        .join(
            cust_f,
            vec![ord::CUSTKEY],
            vec![cust::CUSTKEY],
            JoinKind::Inner,
            self.nord() * 0.096,
        );
        // layout lineitem(15) ++ ord_cust(15) = 30
        Logical::scan(
            self.t.lineitem,
            Some(gt(c(li::SHIPDATE), lit_i(cutoff))),
            self.nli() * 0.52,
        )
        .join(
            ord_cust,
            vec![li::ORDERKEY],
            vec![ord::ORDERKEY],
            JoinKind::Inner,
            self.nli() * 0.05,
        )
        // group by l_orderkey, o_orderdate(15+4=19), o_shippriority(15+6=21)
        .agg(
            vec![li::ORDERKEY, 19, 21],
            vec![sum_of(revenue(li::EXTENDEDPRICE, li::DISCOUNT))],
            self.nord() * 0.04,
        )
        .sort(vec![(3, true), (1, false)])
        .top(10)
    }

    /// Q4 Order Priority Checking. `EXISTS` becomes a semi join.
    fn q4(&self) -> Logical {
        let lo = date(1993, 7, 1);
        let hi = date(1993, 10, 1);
        Logical::scan(
            self.t.orders,
            Some(ge(c(ord::ORDERDATE), lit_i(lo)).and(lt(c(ord::ORDERDATE), lit_i(hi)))),
            self.nord() * (92.0 / 2406.0),
        )
        .join(
            Logical::scan(
                self.t.lineitem,
                Some(lt(c(li::COMMITDATE), c(li::RECEIPTDATE))),
                self.nli() * 0.6,
            ),
            vec![ord::ORDERKEY],
            vec![li::ORDERKEY],
            JoinKind::Semi,
            self.nord() * (92.0 / 2406.0) * 0.95,
        )
        .agg(vec![ord::ORDERPRIORITY], vec![count()], 5.0)
        .sort(vec![(0, false)])
    }

    /// Q5 Local Supplier Volume. The c_nationkey = s_nationkey condition
    /// becomes a post-join filter.
    fn q5(&self) -> Logical {
        let lo = date(1994, 1, 1);
        let hi = date(1995, 1, 1);
        // layout nation(3) ++ region(2) = 5
        let nat_asia = Logical::scan(self.t.nation, None, 25.0).join(
            Logical::scan(self.t.region, Some(eq(c(reg::NAME), lit_s("ASIA"))), 1.0),
            vec![nat::REGIONKEY],
            vec![reg::REGIONKEY],
            JoinKind::Inner,
            5.0,
        );
        // layout customer(7) ++ nat_asia(5) = 12
        let cust_asia = Logical::scan(self.t.customer, None, self.ncust()).join(
            nat_asia,
            vec![cust::NATIONKEY],
            vec![nat::NATIONKEY],
            JoinKind::Inner,
            self.ncust() / 5.0,
        );
        // layout orders(8) ++ cust_asia(12) = 20
        let ord_cust = Logical::scan(
            self.t.orders,
            Some(ge(c(ord::ORDERDATE), lit_i(lo)).and(lt(c(ord::ORDERDATE), lit_i(hi)))),
            self.nord() * (365.0 / 2406.0),
        )
        .join(
            cust_asia,
            vec![ord::CUSTKEY],
            vec![cust::CUSTKEY],
            JoinKind::Inner,
            self.nord() * 0.03,
        );
        // layout lineitem(15) ++ ord_cust(20) = 35
        let li_join = Logical::scan(self.t.lineitem, None, self.nli()).join(
            ord_cust,
            vec![li::ORDERKEY],
            vec![ord::ORDERKEY],
            JoinKind::Inner,
            self.nli() * 0.03,
        );
        // layout ++ supplier(5) = 40; s_nationkey = 35 + 2 = 37;
        // c_nationkey = 15 + 8 + 2 = 25; n_name = 15 + 8 + 7 + 1 = 31
        li_join
            .join(
                Logical::scan(self.t.supplier, None, self.nsupp()),
                vec![li::SUPPKEY],
                vec![supp::SUPPKEY],
                JoinKind::Inner,
                self.nli() * 0.03,
            )
            .filter(eq(c(25), c(37)), 1.0 / 25.0)
            .agg(
                vec![31],
                vec![sum_of(revenue(li::EXTENDEDPRICE, li::DISCOUNT))],
                5.0,
            )
            .sort(vec![(1, true)])
    }

    /// Q6 Forecasting Revenue Change: single-table scan + scalar agg.
    fn q6(&self) -> Logical {
        let lo = date(1994, 1, 1);
        let hi = date(1995, 1, 1);
        Logical::scan(
            self.t.lineitem,
            Some(
                ge(c(li::SHIPDATE), lit_i(lo))
                    .and(lt(c(li::SHIPDATE), lit_i(hi)))
                    .and(Expr::Between(
                        Box::new(c(li::DISCOUNT)),
                        Value::Float(0.05),
                        Value::Float(0.07),
                    ))
                    .and(lt(c(li::QUANTITY), lit_i(24))),
            ),
            self.nli() * 0.019,
        )
        .agg(
            vec![],
            vec![sum_of(c(li::EXTENDEDPRICE).mul(c(li::DISCOUNT)))],
            1.0,
        )
    }

    /// Q7 Volume Shipping between FRANCE and GERMANY.
    fn q7(&self) -> Logical {
        let lo = date(1995, 1, 1);
        let hi = date(1996, 12, 31);
        // layout supplier(5) ++ nation(3) = 8; n1_name = 6
        let supp_n1 = Logical::scan(self.t.supplier, None, self.nsupp()).join(
            Logical::scan(self.t.nation, None, 25.0),
            vec![supp::NATIONKEY],
            vec![nat::NATIONKEY],
            JoinKind::Inner,
            self.nsupp(),
        );
        // layout customer(7) ++ nation(3) = 10; n2_name = 8
        let cust_n2 = Logical::scan(self.t.customer, None, self.ncust()).join(
            Logical::scan(self.t.nation, None, 25.0),
            vec![cust::NATIONKEY],
            vec![nat::NATIONKEY],
            JoinKind::Inner,
            self.ncust(),
        );
        // layout lineitem(15) ++ supp_n1(8) = 23; n1_name = 21
        let j1 = Logical::scan(
            self.t.lineitem,
            Some(ge(c(li::SHIPDATE), lit_i(lo)).and(le(c(li::SHIPDATE), lit_i(hi)))),
            self.nli() * 0.3,
        )
        .join(
            supp_n1,
            vec![li::SUPPKEY],
            vec![supp::SUPPKEY],
            JoinKind::Inner,
            self.nli() * 0.3,
        );
        // layout ++ orders(8) = 31; o_custkey = 24
        let j2 = j1.join(
            Logical::scan(self.t.orders, None, self.nord()),
            vec![li::ORDERKEY],
            vec![ord::ORDERKEY],
            JoinKind::Inner,
            self.nli() * 0.3,
        );
        // layout ++ cust_n2(10) = 41; n2_name = 39
        j2.join(
            cust_n2,
            vec![24],
            vec![cust::CUSTKEY],
            JoinKind::Inner,
            self.nli() * 0.3,
        )
        .filter(
            eq(c(21), lit_s("FRANCE"))
                .and(eq(c(39), lit_s("GERMANY")))
                .or(eq(c(21), lit_s("GERMANY")).and(eq(c(39), lit_s("FRANCE")))),
            2.0 / 625.0,
        )
        // project n1, n2, year, volume
        .project(vec![
            c(21),
            c(39),
            year_of_col(li::SHIPDATE),
            revenue(li::EXTENDEDPRICE, li::DISCOUNT),
        ])
        .agg(vec![0, 1, 2], vec![sum(3)], 4.0)
        .sort(vec![(0, false), (1, false), (2, false)])
    }

    /// Q8 National Market Share: the CASE expression becomes an arithmetic
    /// mask (`volume * (nation = 'BRAZIL')`).
    fn q8(&self) -> Logical {
        let part_f = Logical::scan(
            self.t.part,
            Some(eq(c(part::TYPE), lit_s("ECONOMY ANODIZED STEEL"))),
            self.npart() / 150.0,
        );
        // layout lineitem(15) ++ part(8) = 23
        let j1 = Logical::scan(self.t.lineitem, None, self.nli()).join(
            part_f,
            vec![li::PARTKEY],
            vec![part::PARTKEY],
            JoinKind::Inner,
            self.nli() / 150.0,
        );
        // layout ++ orders(8) = 31; o_orderdate = 27, o_custkey = 24
        let j2 = j1.join(
            Logical::scan(
                self.t.orders,
                Some(between_i(
                    ord::ORDERDATE,
                    date(1995, 1, 1),
                    date(1996, 12, 31),
                )),
                self.nord() * 0.3,
            ),
            vec![li::ORDERKEY],
            vec![ord::ORDERKEY],
            JoinKind::Inner,
            self.nli() * 0.3 / 150.0,
        );
        // customer ++ nation ++ region(AMERICA): layout 7+3+2 = 12
        let cust_am = Logical::scan(self.t.customer, None, self.ncust())
            .join(
                Logical::scan(self.t.nation, None, 25.0),
                vec![cust::NATIONKEY],
                vec![nat::NATIONKEY],
                JoinKind::Inner,
                self.ncust(),
            )
            .join(
                Logical::scan(self.t.region, Some(eq(c(reg::NAME), lit_s("AMERICA"))), 1.0),
                vec![7 + nat::REGIONKEY],
                vec![reg::REGIONKEY],
                JoinKind::Inner,
                self.ncust() / 5.0,
            );
        // layout j2(31) ++ cust_am(12) = 43
        let j3 = j2.join(
            cust_am,
            vec![24],
            vec![cust::CUSTKEY],
            JoinKind::Inner,
            self.nli() * 0.012,
        );
        // supplier ++ nation: 5 + 3 = 8; n2_name at 43 + 6 = 49
        let supp_n = Logical::scan(self.t.supplier, None, self.nsupp()).join(
            Logical::scan(self.t.nation, None, 25.0),
            vec![supp::NATIONKEY],
            vec![nat::NATIONKEY],
            JoinKind::Inner,
            self.nsupp(),
        );
        j3.join(
            supp_n,
            vec![li::SUPPKEY],
            vec![supp::SUPPKEY],
            JoinKind::Inner,
            self.nli() * 0.012,
        )
        .project(vec![
            year_of_col(27),
            revenue(li::EXTENDEDPRICE, li::DISCOUNT),
            revenue(li::EXTENDEDPRICE, li::DISCOUNT).mul(eq(c(49), lit_s("BRAZIL"))),
        ])
        .agg(vec![0], vec![sum(2), sum(1)], 2.0)
        .project(vec![c(0), c(1).div(c(2))])
        .sort(vec![(0, false)])
    }

    /// Q9 Product Type Profit Measure.
    fn q9(&self) -> Logical {
        let part_f = Logical::scan(
            self.t.part,
            Some(contains(part::NAME, "green")),
            self.npart() * (2.0 / 30.0),
        );
        // layout lineitem(15) ++ part(8) = 23
        let j1 = Logical::scan(self.t.lineitem, None, self.nli()).join(
            part_f,
            vec![li::PARTKEY],
            vec![part::PARTKEY],
            JoinKind::Inner,
            self.nli() * (2.0 / 30.0),
        );
        // layout ++ supplier(5) = 28; s_nationkey = 25
        let j2 = j1.join(
            Logical::scan(self.t.supplier, None, self.nsupp()),
            vec![li::SUPPKEY],
            vec![supp::SUPPKEY],
            JoinKind::Inner,
            self.nli() * (2.0 / 30.0),
        );
        // layout ++ partsupp(4) = 32; ps_supplycost = 31
        let j3 = j2.join(
            Logical::scan(self.t.partsupp, None, self.nps()),
            vec![li::PARTKEY, li::SUPPKEY],
            vec![ps::PARTKEY, ps::SUPPKEY],
            JoinKind::Inner,
            self.nli() * (2.0 / 30.0),
        );
        // layout ++ orders(8) = 40; o_orderdate = 36
        let j4 = j3.join(
            Logical::scan(self.t.orders, None, self.nord()),
            vec![li::ORDERKEY],
            vec![ord::ORDERKEY],
            JoinKind::Inner,
            self.nli() * (2.0 / 30.0),
        );
        // layout ++ nation(3) = 43; n_name = 41
        j4.join(
            Logical::scan(self.t.nation, None, 25.0),
            vec![25],
            vec![nat::NATIONKEY],
            JoinKind::Inner,
            self.nli() * (2.0 / 30.0),
        )
        .project(vec![
            c(41),
            year_of_col(36),
            revenue(li::EXTENDEDPRICE, li::DISCOUNT).sub(c(31).mul(c(li::QUANTITY))),
        ])
        .agg(vec![0, 1], vec![sum(2)], 25.0 * 7.0)
        .sort(vec![(0, false), (1, true)])
    }

    /// Q10 Returned Item Reporting.
    fn q10(&self) -> Logical {
        let lo = date(1993, 10, 1);
        let hi = date(1994, 1, 1);
        // layout orders(8) ++ customer(7) = 15
        let ord_cust = Logical::scan(
            self.t.orders,
            Some(ge(c(ord::ORDERDATE), lit_i(lo)).and(lt(c(ord::ORDERDATE), lit_i(hi)))),
            self.nord() * (92.0 / 2406.0),
        )
        .join(
            Logical::scan(self.t.customer, None, self.ncust()),
            vec![ord::CUSTKEY],
            vec![cust::CUSTKEY],
            JoinKind::Inner,
            self.nord() * (92.0 / 2406.0),
        );
        // layout lineitem(15) ++ ord_cust(15) = 30; c_custkey = 23,
        // c_name = 24, c_nationkey = 25, c_phone = 26, c_acctbal = 28
        let j = Logical::scan(
            self.t.lineitem,
            Some(eq(c(li::RETURNFLAG), lit_s("R"))),
            self.nli() * 0.25,
        )
        .join(
            ord_cust,
            vec![li::ORDERKEY],
            vec![ord::ORDERKEY],
            JoinKind::Inner,
            self.nli() * 0.01,
        );
        // layout ++ nation(3) = 33; n_name = 31
        j.join(
            Logical::scan(self.t.nation, None, 25.0),
            vec![25],
            vec![nat::NATIONKEY],
            JoinKind::Inner,
            self.nli() * 0.01,
        )
        .agg(
            vec![23, 24, 28, 26, 31],
            vec![sum_of(revenue(li::EXTENDEDPRICE, li::DISCOUNT))],
            self.ncust() * 0.03,
        )
        .sort(vec![(5, true)])
        .top(20)
    }

    /// Q11 Important Stock Identification. The `HAVING sum > fraction *
    /// total` threshold is computed from the logical data at build time.
    fn q11(&self) -> Logical {
        // Compute the total German stock value logically for the threshold.
        let db = &self.db;
        let nation_de: i64 = super::NATIONS
            .iter()
            .position(|(n, _)| *n == "GERMANY")
            .unwrap() as i64;
        let german_suppliers: std::collections::HashSet<i64> = db
            .table(self.t.supplier)
            .heap
            .iter()
            .filter(|(_, r)| r[supp::NATIONKEY].as_int() == nation_de)
            .map(|(_, r)| r[supp::SUPPKEY].as_int())
            .collect();
        let total: f64 = db
            .table(self.t.partsupp)
            .heap
            .iter()
            .filter(|(_, r)| german_suppliers.contains(&r[ps::SUPPKEY].as_int()))
            .map(|(_, r)| r[ps::SUPPLYCOST].as_f64() * r[ps::AVAILQTY].as_int() as f64)
            .sum();
        // Spec: fraction = 0.0001 / SF. At reduced logical scale the same
        // fraction keeps result cardinality proportional.
        let threshold = total * 0.0001;

        // layout supplier(5) ++ nation(3) = 8
        let supp_de = Logical::scan(self.t.supplier, None, self.nsupp()).join(
            Logical::scan(self.t.nation, Some(eq(c(nat::NAME), lit_s("GERMANY"))), 1.0),
            vec![supp::NATIONKEY],
            vec![nat::NATIONKEY],
            JoinKind::Inner,
            self.nsupp() / 25.0,
        );
        // layout partsupp(4) ++ supp_de(8) = 12
        Logical::scan(self.t.partsupp, None, self.nps())
            .join(
                supp_de,
                vec![ps::SUPPKEY],
                vec![supp::SUPPKEY],
                JoinKind::Inner,
                self.nps() / 25.0,
            )
            .agg(
                vec![ps::PARTKEY],
                vec![sum_of(c(ps::SUPPLYCOST).mul(c(ps::AVAILQTY)))],
                self.npart() / 25.0,
            )
            .filter(gt(c(1), lit_f(threshold)), 0.1)
            .sort(vec![(1, true)])
    }

    /// Q12 Shipping Modes and Order Priority. The CASE counts become
    /// boolean-mask sums.
    fn q12(&self) -> Logical {
        let lo = date(1994, 1, 1);
        let hi = date(1995, 1, 1);
        // layout lineitem(15) ++ orders(8) = 23; o_orderpriority = 20
        Logical::scan(
            self.t.lineitem,
            Some(
                in_strs(li::SHIPMODE, &["MAIL", "SHIP"])
                    .and(lt(c(li::COMMITDATE), c(li::RECEIPTDATE)))
                    .and(lt(c(li::SHIPDATE), c(li::COMMITDATE)))
                    .and(ge(c(li::RECEIPTDATE), lit_i(lo)))
                    .and(lt(c(li::RECEIPTDATE), lit_i(hi))),
            ),
            self.nli() * 0.008,
        )
        .join(
            Logical::scan(self.t.orders, None, self.nord()),
            vec![li::ORDERKEY],
            vec![ord::ORDERKEY],
            JoinKind::Inner,
            self.nli() * 0.008,
        )
        .agg(
            vec![li::SHIPMODE],
            vec![
                sum_of(in_strs(20, &["1-URGENT", "2-HIGH"])),
                sum_of(Expr::Not(Box::new(in_strs(20, &["1-URGENT", "2-HIGH"])))),
            ],
            2.0,
        )
        .sort(vec![(0, false)])
    }

    /// Q13 Customer Distribution: outer join, then count non-null order
    /// keys per customer, then a histogram over the counts.
    fn q13(&self) -> Logical {
        let ord_f = Logical::scan(
            self.t.orders,
            Some(Expr::Not(Box::new(contains(
                ord::COMMENT,
                "specialrequests",
            )))),
            self.nord() * 0.99,
        );
        // layout customer(7) ++ orders(8) = 15; o_orderkey = 7
        Logical::scan(self.t.customer, None, self.ncust())
            .join(
                ord_f,
                vec![cust::CUSTKEY],
                vec![ord::CUSTKEY],
                JoinKind::LeftOuter,
                self.nord(),
            )
            .agg(
                vec![cust::CUSTKEY],
                vec![sum_of(Expr::Not(Box::new(Expr::IsNull(Box::new(c(7))))))],
                self.ncust(),
            )
            // (custkey, c_count) -> histogram over c_count
            .agg(vec![1], vec![count()], 40.0)
            .sort(vec![(1, true), (0, true)])
    }

    /// Q14 Promotion Effect.
    fn q14(&self) -> Logical {
        let lo = date(1995, 9, 1);
        let hi = date(1995, 10, 1);
        // layout lineitem(15) ++ part(8) = 23; p_type = 19
        Logical::scan(
            self.t.lineitem,
            Some(ge(c(li::SHIPDATE), lit_i(lo)).and(lt(c(li::SHIPDATE), lit_i(hi)))),
            self.nli() * (30.0 / 2406.0),
        )
        .join(
            Logical::scan(self.t.part, None, self.npart()),
            vec![li::PARTKEY],
            vec![part::PARTKEY],
            JoinKind::Inner,
            self.nli() * (30.0 / 2406.0),
        )
        .agg(
            vec![],
            vec![
                sum_of(revenue(li::EXTENDEDPRICE, li::DISCOUNT).mul(starts(19, "PROMO"))),
                sum_of(revenue(li::EXTENDEDPRICE, li::DISCOUNT)),
            ],
            1.0,
        )
        .project(vec![lit_f(100.0).mul(c(0)).div(c(1))])
    }

    /// Q15 Top Supplier. The max-revenue view becomes sort + top 1.
    fn q15(&self) -> Logical {
        let lo = date(1996, 1, 1);
        let hi = date(1996, 4, 1);
        // (suppkey, total_revenue)
        let revenue_view = Logical::scan(
            self.t.lineitem,
            Some(ge(c(li::SHIPDATE), lit_i(lo)).and(lt(c(li::SHIPDATE), lit_i(hi)))),
            self.nli() * (90.0 / 2406.0),
        )
        .agg(
            vec![li::SUPPKEY],
            vec![sum_of(revenue(li::EXTENDEDPRICE, li::DISCOUNT))],
            self.nsupp(),
        )
        .sort(vec![(1, true)])
        .top(1);
        // layout (suppkey, total) ++ supplier(5) = 7
        revenue_view
            .join(
                Logical::scan(self.t.supplier, None, self.nsupp()),
                vec![0],
                vec![supp::SUPPKEY],
                JoinKind::Inner,
                1.0,
            )
            .project(vec![c(0), c(3), c(1)])
    }

    /// Q16 Parts/Supplier Relationship. `NOT IN (complaint suppliers)`
    /// becomes an anti join; `count(distinct ps_suppkey)` is approximated
    /// by `count(*)` (each part has at most 4 distinct suppliers).
    fn q16(&self) -> Logical {
        let part_f = Logical::scan(
            self.t.part,
            Some(
                ne(c(part::BRAND), lit_s("Brand#45"))
                    .and(Expr::Not(Box::new(starts(part::TYPE, "MEDIUM POLISHED"))))
                    .and(in_ints(part::SIZE, &[49, 14, 23, 45, 19, 3, 36, 9])),
            ),
            self.npart() * 0.15,
        );
        // layout partsupp(4) ++ part(8) = 12; p_brand = 7, p_type = 8,
        // p_size = 9
        Logical::scan(self.t.partsupp, None, self.nps())
            .join(
                part_f,
                vec![ps::PARTKEY],
                vec![part::PARTKEY],
                JoinKind::Inner,
                self.nps() * 0.15,
            )
            .join(
                Logical::scan(
                    self.t.supplier,
                    Some(contains(supp::COMMENT, "customercomplaints")),
                    self.nsupp() * 0.003,
                ),
                vec![ps::SUPPKEY],
                vec![supp::SUPPKEY],
                JoinKind::Anti,
                self.nps() * 0.149,
            )
            .agg(vec![7, 8, 9], vec![count()], self.npart() * 0.1)
            .sort(vec![(3, true), (0, false), (1, false), (2, false)])
    }

    /// Q17 Small-Quantity-Order Revenue. Decorrelation: per-part average
    /// quantity becomes a group-by joined back on partkey.
    fn q17(&self) -> Logical {
        // (partkey, avg_qty)
        let avg_qty = Logical::scan(self.t.lineitem, None, self.nli()).agg(
            vec![li::PARTKEY],
            vec![avg(li::QUANTITY)],
            self.npart(),
        );
        let part_f = Logical::scan(
            self.t.part,
            Some(
                eq(c(part::BRAND), lit_s("Brand#23")).and(eq(c(part::CONTAINER), lit_s("MED BOX"))),
            ),
            self.npart() / 500.0,
        );
        // layout lineitem(15) ++ part(8) = 23
        Logical::scan(self.t.lineitem, None, self.nli())
            .join(
                part_f,
                vec![li::PARTKEY],
                vec![part::PARTKEY],
                JoinKind::Inner,
                self.nli() / 500.0,
            )
            // layout ++ (partkey, avg_qty) = 25; avg_qty = 24
            .join(
                avg_qty,
                vec![li::PARTKEY],
                vec![0],
                JoinKind::Inner,
                self.nli() / 500.0,
            )
            .filter(lt(c(li::QUANTITY), lit_f(0.2).mul(c(24))), 0.1)
            .agg(vec![], vec![sum(li::EXTENDEDPRICE)], 1.0)
            .project(vec![c(0).div(lit_f(7.0))])
    }

    /// Q18 Large Volume Customer. The `HAVING sum(l_quantity) > 300`
    /// threshold is replaced by the 99.5th percentile of per-order quantity
    /// computed from the logical data (same selectivity at any scale).
    fn q18(&self) -> Logical {
        // Compute the quantity threshold logically.
        let mut per_order: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
        for (_, r) in self.db.table(self.t.lineitem).heap.iter() {
            *per_order.entry(r[li::ORDERKEY].as_int()).or_insert(0) += r[li::QUANTITY].as_int();
        }
        let mut sums: Vec<i64> = per_order.values().copied().collect();
        sums.sort_unstable();
        let threshold = sums
            .get(sums.len().saturating_sub(1 + sums.len() / 200))
            .copied()
            .unwrap_or(200);

        // (orderkey, total_qty)
        let big_orders = Logical::scan(self.t.lineitem, None, self.nli())
            .agg(vec![li::ORDERKEY], vec![sum(li::QUANTITY)], self.nord())
            .filter(gt(c(1), lit_i(threshold)), 0.005);
        // layout (2) ++ orders(8) = 10; o_custkey = 3, o_totalprice = 5,
        // o_orderdate = 6
        big_orders
            .join(
                Logical::scan(self.t.orders, None, self.nord()),
                vec![0],
                vec![ord::ORDERKEY],
                JoinKind::Inner,
                self.nord() * 0.005,
            )
            // layout ++ customer(7) = 17; c_name = 11
            .join(
                Logical::scan(self.t.customer, None, self.ncust()),
                vec![3],
                vec![cust::CUSTKEY],
                JoinKind::Inner,
                self.nord() * 0.005,
            )
            .sort(vec![(5, true), (6, false)])
            .top(100)
            .project(vec![c(11), c(10), c(0), c(6), c(5), c(1)])
    }

    /// Q19 Discounted Revenue: disjunctive predicates over the join.
    fn q19(&self) -> Logical {
        // layout lineitem(15) ++ part(8) = 23; p_brand = 18,
        // p_container = 21, p_size = 20
        let branch = |brand: &str, containers: &[&str], qlo: i64, qhi: i64, smax: i64| {
            eq(c(18), lit_s(brand))
                .and(in_strs(21, containers))
                .and(between_i(li::QUANTITY, qlo, qhi))
                .and(between_i(20, 1, smax))
        };
        Logical::scan(self.t.lineitem, None, self.nli())
            .join(
                Logical::scan(self.t.part, None, self.npart()),
                vec![li::PARTKEY],
                vec![part::PARTKEY],
                JoinKind::Inner,
                self.nli(),
            )
            .filter(
                in_strs(li::SHIPMODE, &["AIR", "REG AIR"])
                    .and(eq(c(li::SHIPINSTRUCT), lit_s("DELIVER IN PERSON")))
                    .and(
                        branch("Brand#12", &["SM CASE", "SM BOX", "SM PACK"], 1, 11, 5)
                            .or(branch(
                                "Brand#23",
                                &["MED BAG", "MED BOX", "MED PACK"],
                                10,
                                20,
                                10,
                            ))
                            .or(branch(
                                "Brand#34",
                                &["LG CASE", "LG BOX", "LG PACK"],
                                20,
                                30,
                                15,
                            )),
                    ),
                0.002,
            )
            .agg(
                vec![],
                vec![sum_of(revenue(li::EXTENDEDPRICE, li::DISCOUNT))],
                1.0,
            )
    }

    /// Q20 Potential Part Promotion (Listing 1 / Figure 7). Decorrelation:
    /// the availqty-vs-half-shipped correlated subquery becomes a per
    /// (part, supplier) shipped-quantity aggregate joined to partsupp. The
    /// lemon-part filter drives the plan's first join — filtered `part`
    /// rows joining into `partsupp` — which is exactly the operator whose
    /// algorithm flips between a hash join (serial plan, Figure 7a) and an
    /// index nested-loops join (parallel plan, Figure 7b): random inner
    /// probes overlap across parallel workers, so their effective I/O cost
    /// falls with MAXDOP.
    fn q20(&self) -> Logical {
        let lo = date(1994, 1, 1);
        let hi = date(1995, 1, 1);
        // (partkey, suppkey, sum_qty)
        let shipped = Logical::scan(
            self.t.lineitem,
            Some(ge(c(li::SHIPDATE), lit_i(lo)).and(lt(c(li::SHIPDATE), lit_i(hi)))),
            self.nli() * (365.0 / 2406.0),
        )
        .agg(
            vec![li::PARTKEY, li::SUPPKEY],
            vec![sum(li::QUANTITY)],
            self.nps() * 0.12,
        );
        // Lemon parts joined to their partsupp rows: the Figure 7 join.
        // layout part(8) ++ partsupp(4) = 12; ps_partkey = 8, ps_suppkey = 9,
        // ps_availqty = 10
        let lemon_ps = Logical::scan(
            self.t.part,
            Some(starts(part::NAME, "lemon")),
            self.npart() / 30.0,
        )
        .join(
            Logical::scan(self.t.partsupp, None, self.nps()),
            vec![part::PARTKEY],
            vec![ps::PARTKEY],
            JoinKind::Inner,
            self.nps() / 30.0,
        );
        // layout ++ shipped(3) = 15; sum_qty = 14
        let qualified = lemon_ps
            .join(
                shipped,
                vec![8, 9],
                vec![0, 1],
                JoinKind::Inner,
                self.nps() * 0.12 / 30.0,
            )
            .filter(gt(c(10), lit_f(0.5).mul(c(14))), 0.5);
        // Suppliers in ALGERIA with a qualified partsupp row.
        // layout supplier(5) ++ nation(3) = 8
        Logical::scan(self.t.supplier, None, self.nsupp())
            .join(
                Logical::scan(self.t.nation, Some(eq(c(nat::NAME), lit_s("ALGERIA"))), 1.0),
                vec![supp::NATIONKEY],
                vec![nat::NATIONKEY],
                JoinKind::Inner,
                self.nsupp() / 25.0,
            )
            .join(
                qualified,
                vec![supp::SUPPKEY],
                vec![9],
                JoinKind::Semi,
                self.nsupp() / 50.0,
            )
            .project(vec![c(supp::SUPPKEY), c(supp::NAME)])
            .sort(vec![(1, false)])
    }

    /// Q21 Suppliers Who Kept Orders Waiting. The EXISTS/NOT EXISTS pair is
    /// rewritten with per-order min/max supplier aggregates: another
    /// supplier exists on the order iff `min != max` over all lineitems,
    /// and no *other* delinquent supplier exists iff `min == max` over the
    /// delinquent ones.
    fn q21(&self) -> Logical {
        let saudi = "SAUDI ARABIA";
        // (orderkey, min_supp, max_supp) over all lineitems
        let all_supps = Logical::scan(self.t.lineitem, None, self.nli()).agg(
            vec![li::ORDERKEY],
            vec![min(li::SUPPKEY), max(li::SUPPKEY)],
            self.nord(),
        );
        // same over delinquent lineitems (receipt > commit)
        let late_supps = Logical::scan(
            self.t.lineitem,
            Some(gt(c(li::RECEIPTDATE), c(li::COMMITDATE))),
            self.nli() * 0.4,
        )
        .agg(
            vec![li::ORDERKEY],
            vec![min(li::SUPPKEY), max(li::SUPPKEY)],
            self.nord() * 0.8,
        );

        // l1: delinquent lineitems of failed orders by Saudi suppliers.
        // layout lineitem(15) ++ orders(8) = 23
        let l1 = Logical::scan(
            self.t.lineitem,
            Some(gt(c(li::RECEIPTDATE), c(li::COMMITDATE))),
            self.nli() * 0.4,
        )
        .join(
            Logical::scan(
                self.t.orders,
                Some(eq(c(ord::ORDERSTATUS), lit_s("F"))),
                self.nord() * 0.4,
            ),
            vec![li::ORDERKEY],
            vec![ord::ORDERKEY],
            JoinKind::Inner,
            self.nli() * 0.16,
        )
        // layout ++ supplier(5) = 28; s_name = 24, s_nationkey = 25
        .join(
            Logical::scan(self.t.supplier, None, self.nsupp()),
            vec![li::SUPPKEY],
            vec![supp::SUPPKEY],
            JoinKind::Inner,
            self.nli() * 0.16,
        )
        // layout ++ nation(3) = 31
        .join(
            Logical::scan(self.t.nation, Some(eq(c(nat::NAME), lit_s(saudi))), 1.0),
            vec![25],
            vec![nat::NATIONKEY],
            JoinKind::Inner,
            self.nli() * 0.16 / 25.0,
        );
        // layout ++ all_supps(3) = 34: min = 32, max = 33
        l1.join(
            all_supps,
            vec![li::ORDERKEY],
            vec![0],
            JoinKind::Inner,
            self.nli() * 0.006,
        )
        .filter(ne(c(32), c(33)), 0.7)
        // layout ++ late_supps(3) = 37: lmin = 35, lmax = 36
        .join(
            late_supps,
            vec![li::ORDERKEY],
            vec![0],
            JoinKind::Inner,
            self.nli() * 0.004,
        )
        .filter(eq(c(35), c(36)), 0.4)
        .agg(vec![24], vec![count()], self.nsupp() / 25.0)
        .sort(vec![(1, true), (0, false)])
        .top(100)
    }

    /// Q22 Global Sales Opportunity. The average-balance scalar subquery is
    /// computed from the logical data at build time; `NOT EXISTS(orders)`
    /// becomes an anti join; the phone-prefix `substring` uses the derived
    /// country-code column.
    fn q22(&self) -> Logical {
        let codes: [i64; 7] = [13, 31, 23, 29, 30, 18, 17];
        let balances: Vec<f64> = self
            .db
            .table(self.t.customer)
            .heap
            .iter()
            .filter(|(_, r)| {
                r[cust::ACCTBAL].as_f64() > 0.0 && codes.contains(&r[cust::CNTRYCODE].as_int())
            })
            .map(|(_, r)| r[cust::ACCTBAL].as_f64())
            .collect();
        let avg_bal = if balances.is_empty() {
            0.0
        } else {
            balances.iter().sum::<f64>() / balances.len() as f64
        };

        Logical::scan(
            self.t.customer,
            Some(in_ints(cust::CNTRYCODE, &codes).and(gt(c(cust::ACCTBAL), lit_f(avg_bal)))),
            self.ncust() * (7.0 / 25.0) * 0.45,
        )
        .join(
            Logical::scan(self.t.orders, None, self.nord()),
            vec![cust::CUSTKEY],
            vec![ord::CUSTKEY],
            JoinKind::Anti,
            self.ncust() * (7.0 / 25.0) * 0.45 * 0.33,
        )
        .agg(
            vec![cust::CNTRYCODE],
            vec![count(), sum(cust::ACCTBAL)],
            7.0,
        )
        .sort(vec![(0, false)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ScaleCfg;
    use dbsens_engine::exec::execute;
    use dbsens_engine::governor::Governor;
    use dbsens_engine::optimizer::optimize;

    fn tpch() -> TpchDb {
        // Slightly finer than the test preset so joins produce rows.
        super::super::build(
            3.0,
            &ScaleCfg {
                row_scale: 200_000.0,
                oltp_row_scale: 2_000.0,
                seed: 7,
            },
        )
    }

    #[test]
    fn all_queries_build_optimize_and_execute() {
        let t = tpch();
        let gov = Governor::paper_default(4);
        let pctx = gov.plan_context(&t.db);
        for q in 1..=22 {
            let logical = t.query(q);
            let plan = optimize(&t.db, &logical, &pctx);
            let out = execute(&t.db, &plan);
            assert!(
                out.stages.iter().map(|s| s.total_items()).sum::<usize>() > 0,
                "Q{q} produced an empty trace"
            );
        }
    }

    #[test]
    fn q1_aggregates_look_right() {
        let t = tpch();
        let gov = Governor::paper_default(1);
        let plan = optimize(&t.db, &t.q1(), &gov.plan_context(&t.db));
        let out = execute(&t.db, &plan);
        // Up to 4 (returnflag, linestatus) combinations with data.
        assert!(
            (2..=4).contains(&out.rows.len()),
            "groups = {}",
            out.rows.len()
        );
        // count > 0 in every group and total equals filtered lineitems.
        let total: i64 = out.rows.iter().map(|r| r[9].as_int()).sum();
        assert!(total > 0 && total <= t.n.lineitem as i64);
    }

    #[test]
    fn q6_is_single_scalar() {
        let t = tpch();
        let gov = Governor::paper_default(1);
        let plan = optimize(&t.db, &t.q6(), &gov.plan_context(&t.db));
        let out = execute(&t.db, &plan);
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn q13_histogram_covers_all_customers() {
        let t = tpch();
        let gov = Governor::paper_default(1);
        let plan = optimize(&t.db, &t.q13(), &gov.plan_context(&t.db));
        let out = execute(&t.db, &plan);
        let total: i64 = out.rows.iter().map(|r| r[1].as_int()).sum();
        assert_eq!(
            total, t.n.customer as i64,
            "every customer lands in one bucket"
        );
        // Some customers have no orders (the spec's 1/3 rule).
        let zero_bucket = out
            .rows
            .iter()
            .find(|r| r[0].as_f64() == 0.0)
            .map(|r| r[1].as_int())
            .unwrap_or(0);
        assert!(zero_bucket > 0, "expected a zero-orders bucket");
    }

    #[test]
    fn q18_threshold_keeps_result_small() {
        let t = tpch();
        let gov = Governor::paper_default(1);
        let plan = optimize(&t.db, &t.q18(), &gov.plan_context(&t.db));
        let out = execute(&t.db, &plan);
        assert!(out.rows.len() <= 100);
        assert!(out.rows.len() < t.n.orders / 20, "threshold too loose");
    }

    #[test]
    fn q20_returns_algerian_suppliers_sorted() {
        let t = tpch();
        let gov = Governor::paper_default(1);
        let plan = optimize(&t.db, &t.q20(), &gov.plan_context(&t.db));
        let out = execute(&t.db, &plan);
        assert!(out.rows.len() < t.n.supplier);
        let names: Vec<&str> = out.rows.iter().map(|r| r[1].as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn q22_uses_anti_join_semantics() {
        let t = tpch();
        let gov = Governor::paper_default(1);
        let plan = optimize(&t.db, &t.q22(), &gov.plan_context(&t.db));
        let out = execute(&t.db, &plan);
        // At most 7 country-code groups.
        assert!(out.rows.len() <= 7);
        for r in &out.rows {
            assert!(r[1].as_int() >= 1);
        }
    }
}
