//! Name resolution: AST → typed [`SqlPlan`].
//!
//! The binder resolves table and column names against a
//! [`dbsens_engine::db::Database`] catalog, flattens the `FROM` clause into
//! a left-deep join tree in syntactic order (the optimizer reorders it
//! later), and turns aggregate queries into an explicit
//! [`SqlPlan::Agg`] + rebound select list. All errors carry source
//! positions.

use crate::ast::{self, BinOp, FromItem, JoinType, Query, SelectItem, Statement};
use crate::ir::{SqlAgg, SqlExpr, SqlPlan};
use crate::lexer::Pos;
use crate::SqlError;
use dbsens_engine::db::{Database, TableId};
use dbsens_engine::expr::CmpOp;
use dbsens_engine::plan::{AggFunc, JoinKind};
use dbsens_storage::schema::Schema;
use dbsens_storage::value::{Row, Value};

/// A fully bound statement, ready to optimize/lower (queries) or apply
/// directly to the heap (DML/DDL).
#[derive(Debug, Clone)]
pub enum BoundStatement {
    /// A `SELECT` query as a typed plan.
    Select(SqlPlan),
    /// `INSERT` with fully evaluated rows.
    Insert {
        /// Target table.
        table: TableId,
        /// Rows to append, already coerced to the schema.
        rows: Vec<Row>,
    },
    /// `UPDATE` with bound assignments.
    Update {
        /// Target table.
        table: TableId,
        /// `(column index, value expression over the base layout)`.
        sets: Vec<(usize, SqlExpr)>,
        /// Row predicate over the base layout.
        filter: Option<SqlExpr>,
    },
    /// `DELETE` with a bound predicate.
    Delete {
        /// Target table.
        table: TableId,
        /// Row predicate over the base layout.
        filter: Option<SqlExpr>,
    },
    /// `CREATE TABLE` with a resolved schema.
    CreateTable {
        /// New table name.
        table: String,
        /// Column definitions.
        schema: Schema,
    },
}

/// Binds one parsed statement against the database catalog.
pub fn bind(db: &Database, stmt: &Statement) -> Result<BoundStatement, SqlError> {
    match stmt {
        Statement::Select(q) => Ok(BoundStatement::Select(bind_query(db, q, None)?)),
        Statement::Insert { table, pos, rows } => bind_insert(db, table, *pos, rows),
        Statement::Update {
            table,
            pos,
            sets,
            filter,
        } => bind_update(db, table, *pos, sets, filter.as_ref()),
        Statement::Delete { table, pos, filter } => {
            let (tid, scope) = table_scope(db, table, *pos)?;
            let filter = filter
                .as_ref()
                .map(|e| BindCtx::scalar(db, &scope).bind(e))
                .transpose()?;
            Ok(BoundStatement::Delete { table: tid, filter })
        }
        Statement::CreateTable { table, pos, cols } => {
            if lookup_table(db, table).is_some() {
                return Err(pos.err(format!("table '{table}' already exists")));
            }
            let defs: Vec<(&str, dbsens_storage::schema::ColType)> =
                cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            Ok(BoundStatement::CreateTable {
                table: table.clone(),
                schema: Schema::new(&defs),
            })
        }
    }
}

fn lookup_table(db: &Database, name: &str) -> Option<TableId> {
    db.tables()
        .iter()
        .position(|t| t.name.eq_ignore_ascii_case(name))
        .map(TableId)
}

/// One visible table in a scope.
struct TableRef {
    /// Alias (or table name) in lowercase.
    alias: String,
    /// First column's offset in the row layout.
    offset: usize,
    /// Lowercased column names.
    cols: Vec<String>,
}

/// Name-resolution scope: the current query block's tables, plus an
/// optional enclosing block for correlated subqueries.
struct Scope<'a> {
    tables: Vec<TableRef>,
    outer: Option<&'a Scope<'a>>,
}

/// Where a column reference resolved.
enum Resolved {
    Local(usize),
    Outer(usize),
}

impl Scope<'_> {
    fn resolve(&self, qualifier: Option<&str>, name: &str, pos: Pos) -> Result<Resolved, SqlError> {
        let name_l = name.to_ascii_lowercase();
        let qual_l = qualifier.map(str::to_ascii_lowercase);
        let mut hit: Option<usize> = None;
        for t in &self.tables {
            if let Some(q) = &qual_l {
                if &t.alias != q {
                    continue;
                }
            }
            if let Some(ci) = t.cols.iter().position(|c| c == &name_l) {
                if hit.is_some() {
                    return Err(pos.err(format!("ambiguous column '{name}'")));
                }
                hit = Some(t.offset + ci);
            }
        }
        if let Some(abs) = hit {
            return Ok(Resolved::Local(abs));
        }
        if let Some(outer) = self.outer {
            return match outer.resolve(qualifier, name, pos)? {
                Resolved::Local(abs) => Ok(Resolved::Outer(abs)),
                Resolved::Outer(_) => {
                    Err(pos.err("only one level of subquery correlation is supported"))
                }
            };
        }
        match qualifier {
            Some(q) => Err(pos.err(format!("unknown column '{q}.{name}'"))),
            None => Err(pos.err(format!("unknown column '{name}'"))),
        }
    }
}

/// Binding mode for scalar expressions.
struct BindCtx<'a> {
    db: &'a Database,
    scope: &'a Scope<'a>,
    /// `Some` when binding over an aggregate's output: group-key columns
    /// (absolute input positions) and the bound aggregate list. A plain
    /// column must then be a group key, and `Agg` nodes map to output
    /// positions.
    agg: Option<&'a AggLayout>,
}

/// Output layout of an [`SqlPlan::Agg`] node during rebinding.
struct AggLayout {
    group_cols: Vec<usize>,
    aggs: Vec<SqlAgg>,
}

impl<'a> BindCtx<'a> {
    fn scalar(db: &'a Database, scope: &'a Scope<'a>) -> Self {
        BindCtx {
            db,
            scope,
            agg: None,
        }
    }

    fn bind(&self, e: &ast::Expr) -> Result<SqlExpr, SqlError> {
        match e {
            ast::Expr::Col { table, name, pos } => {
                let resolved = self.scope.resolve(table.as_deref(), name, *pos)?;
                match (resolved, &self.agg) {
                    (Resolved::Local(abs), None) => Ok(SqlExpr::Col(abs)),
                    (Resolved::Local(abs), Some(layout)) => {
                        match layout.group_cols.iter().position(|&g| g == abs) {
                            Some(k) => Ok(SqlExpr::Col(k)),
                            None => Err(pos.err(format!(
                                "column '{name}' must appear in GROUP BY or inside an aggregate"
                            ))),
                        }
                    }
                    (Resolved::Outer(abs), _) => Ok(SqlExpr::OuterCol(abs)),
                }
            }
            ast::Expr::Int(v) => Ok(SqlExpr::Lit(Value::Int(*v))),
            ast::Expr::Float(v) => Ok(SqlExpr::Lit(Value::Float(*v))),
            ast::Expr::Str(s) => Ok(SqlExpr::Lit(Value::from(s.as_str()))),
            ast::Expr::Null => Ok(SqlExpr::Lit(Value::Null)),
            ast::Expr::Bin(op, a, b) => {
                let (a, b) = (Box::new(self.bind(a)?), Box::new(self.bind(b)?));
                Ok(match op {
                    BinOp::Add => SqlExpr::Add(a, b),
                    BinOp::Sub => SqlExpr::Sub(a, b),
                    BinOp::Mul => SqlExpr::Mul(a, b),
                    BinOp::Div => SqlExpr::Div(a, b),
                })
            }
            ast::Expr::Cmp(op, a, b) => Ok(SqlExpr::Cmp(
                *op,
                Box::new(self.bind(a)?),
                Box::new(self.bind(b)?),
            )),
            ast::Expr::And(a, b) => Ok(SqlExpr::And(
                Box::new(self.bind(a)?),
                Box::new(self.bind(b)?),
            )),
            ast::Expr::Or(a, b) => Ok(SqlExpr::Or(
                Box::new(self.bind(a)?),
                Box::new(self.bind(b)?),
            )),
            ast::Expr::Not(a) => Ok(SqlExpr::Not(Box::new(self.bind(a)?))),
            ast::Expr::Like { expr, pattern, pos } => {
                let inner = Box::new(self.bind(expr)?);
                let stripped = pattern.trim_matches('%');
                if stripped.contains('%') {
                    return Err(pos.err(format!(
                        "unsupported LIKE pattern '{pattern}' (use 'prefix%', '%infix%', or an exact string)"
                    )));
                }
                if pattern.starts_with('%') && pattern.ends_with('%') && pattern.len() >= 2 {
                    Ok(SqlExpr::Contains(inner, stripped.to_owned()))
                } else if let Some(prefix) = pattern.strip_suffix('%') {
                    Ok(SqlExpr::StartsWith(inner, prefix.to_owned()))
                } else if pattern.starts_with('%') {
                    Err(pos.err(format!(
                        "unsupported LIKE pattern '{pattern}' (suffix matches are not supported)"
                    )))
                } else {
                    Ok(SqlExpr::Cmp(
                        CmpOp::Eq,
                        inner,
                        Box::new(SqlExpr::Lit(Value::from(pattern.as_str()))),
                    ))
                }
            }
            ast::Expr::InList(a, list) => {
                let inner = Box::new(self.bind(a)?);
                let mut values = Vec::with_capacity(list.len());
                for item in list {
                    values.push(self.constant(item)?);
                }
                Ok(SqlExpr::InList(inner, values))
            }
            ast::Expr::Between(a, lo, hi) => {
                let inner = self.bind(a)?;
                match (self.constant(lo), self.constant(hi)) {
                    (Ok(lo), Ok(hi)) => Ok(SqlExpr::Between(Box::new(inner), lo, hi)),
                    _ => {
                        // Non-literal bounds: expand to lo <= a AND a <= hi.
                        let lo = self.bind(lo)?;
                        let hi = self.bind(hi)?;
                        Ok(SqlExpr::And(
                            Box::new(SqlExpr::cmp(CmpOp::Ge, inner.clone(), lo)),
                            Box::new(SqlExpr::cmp(CmpOp::Le, inner, hi)),
                        ))
                    }
                }
            }
            ast::Expr::IsNull { expr, negated } => {
                let test = SqlExpr::IsNull(Box::new(self.bind(expr)?));
                Ok(if *negated {
                    SqlExpr::Not(Box::new(test))
                } else {
                    test
                })
            }
            ast::Expr::Agg { func, arg, pos } => match &self.agg {
                None => Err(pos.err("aggregate functions are not allowed here")),
                Some(layout) => {
                    let spec = bind_agg_spec(self.db, self.scope, *func, arg.as_deref(), *pos)?;
                    match layout.aggs.iter().position(|a| *a == spec) {
                        Some(k) => Ok(SqlExpr::Col(layout.group_cols.len() + k)),
                        None => Err(pos.err("aggregate was not collected during planning")),
                    }
                }
            },
            ast::Expr::Subquery { query, pos } => {
                let plan = bind_query(self.db, query, Some(self.scope))?;
                if plan.arity() != 1 {
                    return Err(pos.err(format!(
                        "scalar subquery must return exactly one column, got {}",
                        plan.arity()
                    )));
                }
                Ok(SqlExpr::Subquery(Box::new(plan)))
            }
        }
    }

    /// Binds an expression that must be a constant (no column references),
    /// folding it to a [`Value`].
    fn constant(&self, e: &ast::Expr) -> Result<Value, SqlError> {
        let bound = BindCtx::scalar(self.db, &EMPTY_SCOPE).bind(e)?;
        fold_constant(&bound).ok_or_else(|| {
            e.pos()
                .unwrap_or(Pos { line: 1, col: 1 })
                .err("expected a constant expression")
        })
    }
}

static EMPTY_SCOPE: Scope<'static> = Scope {
    tables: Vec::new(),
    outer: None,
};

/// Evaluates a column-free [`SqlExpr`] to a value via the engine's
/// expression evaluator.
fn fold_constant(e: &SqlExpr) -> Option<Value> {
    if e.has_subquery() {
        return None;
    }
    let mut has_col = false;
    e.for_each_col(&mut |_| has_col = true);
    e.for_each_outer(&mut |_| has_col = true);
    if has_col {
        return None;
    }
    let engine = crate::lower::to_engine_expr(e).ok()?;
    Some(engine.eval(&Vec::new()))
}

fn bind_agg_spec(
    db: &Database,
    scope: &Scope<'_>,
    func: AggFunc,
    arg: Option<&ast::Expr>,
    pos: Pos,
) -> Result<SqlAgg, SqlError> {
    let expr = match arg {
        // COUNT(*) counts rows; the engine ignores the expression.
        None => SqlExpr::Lit(Value::Int(1)),
        Some(a) => {
            if contains_agg(a) {
                return Err(pos.err("aggregates cannot be nested"));
            }
            BindCtx::scalar(db, scope).bind(a)?
        }
    };
    Ok(SqlAgg { func, expr })
}

/// Does the expression contain an aggregate call (not counting those
/// inside subqueries, which belong to the inner query block)?
fn contains_agg(e: &ast::Expr) -> bool {
    match e {
        ast::Expr::Agg { .. } => true,
        ast::Expr::Subquery { .. } => false,
        ast::Expr::Col { .. }
        | ast::Expr::Int(_)
        | ast::Expr::Float(_)
        | ast::Expr::Str(_)
        | ast::Expr::Null => false,
        ast::Expr::Bin(_, a, b) | ast::Expr::Cmp(_, a, b) => contains_agg(a) || contains_agg(b),
        ast::Expr::And(a, b) | ast::Expr::Or(a, b) => contains_agg(a) || contains_agg(b),
        ast::Expr::Not(a) => contains_agg(a),
        ast::Expr::Like { expr, .. } | ast::Expr::IsNull { expr, .. } => contains_agg(expr),
        ast::Expr::InList(a, list) => contains_agg(a) || list.iter().any(contains_agg),
        ast::Expr::Between(a, lo, hi) => contains_agg(a) || contains_agg(lo) || contains_agg(hi),
    }
}

/// Collects the distinct aggregate calls in `e` into `out`, in first-seen
/// order, binding their arguments over the pre-aggregation scope.
fn collect_aggs(
    db: &Database,
    scope: &Scope<'_>,
    e: &ast::Expr,
    out: &mut Vec<SqlAgg>,
) -> Result<(), SqlError> {
    match e {
        ast::Expr::Agg { func, arg, pos } => {
            let spec = bind_agg_spec(db, scope, *func, arg.as_deref(), *pos)?;
            if !out.contains(&spec) {
                out.push(spec);
            }
            Ok(())
        }
        ast::Expr::Subquery { .. } => Ok(()),
        ast::Expr::Col { .. }
        | ast::Expr::Int(_)
        | ast::Expr::Float(_)
        | ast::Expr::Str(_)
        | ast::Expr::Null => Ok(()),
        ast::Expr::Bin(_, a, b) | ast::Expr::Cmp(_, a, b) => {
            collect_aggs(db, scope, a, out)?;
            collect_aggs(db, scope, b, out)
        }
        ast::Expr::And(a, b) | ast::Expr::Or(a, b) => {
            collect_aggs(db, scope, a, out)?;
            collect_aggs(db, scope, b, out)
        }
        ast::Expr::Not(a) => collect_aggs(db, scope, a, out),
        ast::Expr::Like { expr, .. } | ast::Expr::IsNull { expr, .. } => {
            collect_aggs(db, scope, expr, out)
        }
        ast::Expr::InList(a, list) => {
            collect_aggs(db, scope, a, out)?;
            for item in list {
                collect_aggs(db, scope, item, out)?;
            }
            Ok(())
        }
        ast::Expr::Between(a, lo, hi) => {
            collect_aggs(db, scope, a, out)?;
            collect_aggs(db, scope, lo, out)?;
            collect_aggs(db, scope, hi, out)
        }
    }
}

/// Binds one query block to a plan, with `outer` set for subqueries.
fn bind_query(db: &Database, q: &Query, outer: Option<&Scope<'_>>) -> Result<SqlPlan, SqlError> {
    // FROM: build the scope and the left-deep join tree in syntactic order.
    let mut tables = Vec::new();
    for item in &q.from {
        let tid = lookup_table(db, &item.table)
            .ok_or_else(|| item.pos.err(format!("unknown table '{}'", item.table)))?;
        let schema = db.table(tid).heap.schema();
        let alias = item
            .alias
            .as_deref()
            .unwrap_or(&item.table)
            .to_ascii_lowercase();
        if tables.iter().any(|t: &TableRef| t.alias == alias) {
            return Err(item
                .pos
                .err(format!("duplicate table alias '{alias}' in FROM")));
        }
        let offset = tables
            .iter()
            .map(|t: &TableRef| t.cols.len())
            .sum::<usize>();
        tables.push(TableRef {
            alias,
            offset,
            cols: schema
                .columns()
                .iter()
                .map(|c| c.name.to_ascii_lowercase())
                .collect(),
        });
    }
    let scope = Scope { tables, outer };

    let mut plan = scan_of(db, &q.from[0])?;
    let mut left_arity = plan.arity();
    for item in q.from.iter().skip(1) {
        let mut right = scan_of(db, item)?;
        let right_arity = right.arity();
        let (join_type, on) = item
            .join
            .as_ref()
            .expect("parser attaches ON to every joined table");
        // Bind ON over the layout visible so far: joined tables 0..=idx.
        // Columns of later FROM entries are out of range here.
        let visible = left_arity + right_arity;
        let mut conjuncts = Vec::new();
        let bound_on = BindCtx::scalar(db, &scope).bind(on)?;
        let mut max_ref = 0usize;
        bound_on.for_each_col(&mut |c| max_ref = max_ref.max(c));
        if max_ref >= visible {
            return Err(item.pos.err(format!(
                "ON condition for '{}' references a table joined later",
                item.table
            )));
        }
        bound_on.split_conjuncts(&mut conjuncts);
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut right_filters = Vec::new();
        let mut post_filters = Vec::new();
        for conj in conjuncts {
            let (mut min_c, mut max_c, mut any) = (usize::MAX, 0, false);
            conj.for_each_col(&mut |c| {
                min_c = min_c.min(c);
                max_c = max_c.max(c);
                any = true;
            });
            if let SqlExpr::Cmp(CmpOp::Eq, a, b) = &conj {
                if let (SqlExpr::Col(x), SqlExpr::Col(y)) = (a.as_ref(), b.as_ref()) {
                    let (l, r) = if *x < *y { (*x, *y) } else { (*y, *x) };
                    if l < left_arity && r >= left_arity {
                        left_keys.push(l);
                        right_keys.push(r - left_arity);
                        continue;
                    }
                }
            }
            if any && min_c >= left_arity {
                // Right-only: filter the build side before the join
                // (identical semantics for inner and left joins).
                right_filters.push(conj.map_cols(&mut |c| c - left_arity));
            } else if *join_type == JoinType::Inner {
                post_filters.push(conj);
            } else {
                return Err(item.pos.err(
                    "LEFT JOIN ON supports equalities between the two sides \
                     plus conditions on the joined table only",
                ));
            }
        }
        if left_keys.is_empty() {
            return Err(item.pos.err(format!(
                "join with '{}' needs at least one equality between the two sides",
                item.table
            )));
        }
        if let Some(pred) = SqlExpr::conjoin(right_filters) {
            right = SqlPlan::Filter {
                input: Box::new(right),
                pred,
            };
        }
        plan = SqlPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            left_keys,
            right_keys,
            kind: match join_type {
                JoinType::Inner => JoinKind::Inner,
                JoinType::Left => JoinKind::LeftOuter,
            },
        };
        if let Some(pred) = SqlExpr::conjoin(post_filters) {
            plan = SqlPlan::Filter {
                input: Box::new(plan),
                pred,
            };
        }
        left_arity += right_arity;
    }

    // WHERE.
    if let Some(filter) = &q.filter {
        if contains_agg(filter) {
            return Err(filter
                .pos()
                .unwrap_or(Pos { line: 1, col: 1 })
                .err("aggregates are not allowed in WHERE (use HAVING)"));
        }
        let pred = BindCtx::scalar(db, &scope).bind(filter)?;
        plan = SqlPlan::Filter {
            input: Box::new(plan),
            pred,
        };
    }

    // Aggregation.
    let has_aggs = q.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => contains_agg(expr),
        SelectItem::Star => false,
    }) || q.having.as_ref().is_some_and(contains_agg)
        || q.order_by.iter().any(|(e, _)| contains_agg(e));
    let grouped = !q.group_by.is_empty() || has_aggs;

    let mut agg_layout = None;
    if grouped {
        let mut group_cols = Vec::new();
        for g in &q.group_by {
            match BindCtx::scalar(db, &scope).bind(g)? {
                SqlExpr::Col(i) => group_cols.push(i),
                _ => {
                    return Err(g
                        .pos()
                        .unwrap_or(Pos { line: 1, col: 1 })
                        .err("GROUP BY supports plain columns only"))
                }
            }
        }
        let mut aggs = Vec::new();
        for item in &q.items {
            match item {
                SelectItem::Star => {
                    return Err(Pos { line: 1, col: 1 }
                        .err("SELECT * cannot be combined with GROUP BY or aggregates"))
                }
                SelectItem::Expr { expr, .. } => collect_aggs(db, &scope, expr, &mut aggs)?,
            }
        }
        if let Some(h) = &q.having {
            collect_aggs(db, &scope, h, &mut aggs)?;
        }
        for (e, _) in &q.order_by {
            collect_aggs(db, &scope, e, &mut aggs)?;
        }
        if aggs.is_empty() {
            // Pure GROUP BY with no aggregates: count rows so the node is
            // well-formed; the count column is projected away below.
            aggs.push(SqlAgg {
                func: AggFunc::Count,
                expr: SqlExpr::Lit(Value::Int(1)),
            });
        }
        plan = SqlPlan::Agg {
            input: Box::new(plan),
            group_by: group_cols.clone(),
            aggs: aggs.clone(),
        };
        agg_layout = Some(AggLayout { group_cols, aggs });
    } else if let Some(h) = &q.having {
        return Err(h
            .pos()
            .unwrap_or(Pos { line: 1, col: 1 })
            .err("HAVING requires GROUP BY or aggregates"));
    }

    let ctx = BindCtx {
        db,
        scope: &scope,
        agg: agg_layout.as_ref(),
    };

    // HAVING runs over the aggregate output, before the select projection.
    if let Some(h) = &q.having {
        let pred = ctx.bind(h)?;
        plan = SqlPlan::Filter {
            input: Box::new(plan),
            pred,
        };
    }

    // Select list → projection (skipped for a lone `SELECT *`).
    let lone_star = matches!(q.items.as_slice(), [SelectItem::Star]);
    let mut out_exprs = Vec::new();
    let mut out_names: Vec<Option<String>> = Vec::new();
    if !lone_star {
        for item in &q.items {
            match item {
                SelectItem::Star => {
                    for (i, t) in scope.tables.iter().enumerate() {
                        let _ = i;
                        for (ci, name) in t.cols.iter().enumerate() {
                            out_exprs.push(SqlExpr::Col(t.offset + ci));
                            out_names.push(Some(name.clone()));
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    out_exprs.push(ctx.bind(expr)?);
                    let name = alias.clone().or_else(|| match expr {
                        ast::Expr::Col { name, .. } => Some(name.clone()),
                        _ => None,
                    });
                    out_names.push(name.map(|n| n.to_ascii_lowercase()));
                }
            }
        }
        plan = SqlPlan::Project {
            input: Box::new(plan),
            exprs: out_exprs.clone(),
        };
    }

    // ORDER BY binds over the projected output: by 1-based ordinal, alias,
    // or an expression equal to a select item.
    if !q.order_by.is_empty() {
        let out_arity = plan.arity();
        let mut keys = Vec::new();
        for (e, desc) in &q.order_by {
            let idx = match e {
                ast::Expr::Int(k) if *k >= 1 && (*k as usize) <= out_arity => *k as usize - 1,
                ast::Expr::Col {
                    table: None,
                    name,
                    pos,
                } if {
                    let n = name.to_ascii_lowercase();
                    out_names.iter().any(|o| o.as_deref() == Some(n.as_str()))
                } =>
                {
                    let n = name.to_ascii_lowercase();
                    let matches: Vec<usize> = out_names
                        .iter()
                        .enumerate()
                        .filter(|(_, o)| o.as_deref() == Some(n.as_str()))
                        .map(|(i, _)| i)
                        .collect();
                    if matches.len() > 1 {
                        return Err(pos.err(format!("ambiguous ORDER BY column '{name}'")));
                    }
                    matches[0]
                }
                _ => {
                    if lone_star {
                        match ctx.bind(e)? {
                            SqlExpr::Col(i) => i,
                            _ => {
                                return Err(e
                                    .pos()
                                    .unwrap_or(Pos { line: 1, col: 1 })
                                    .err("ORDER BY over SELECT * supports plain columns only"))
                            }
                        }
                    } else {
                        let bound = ctx.bind(e)?;
                        match out_exprs.iter().position(|o| *o == bound) {
                            Some(i) => i,
                            None => {
                                return Err(e.pos().unwrap_or(Pos { line: 1, col: 1 }).err(
                                    "ORDER BY expression must appear in the select list \
                                     (or use its alias or ordinal)",
                                ))
                            }
                        }
                    }
                }
            };
            keys.push((idx, *desc));
        }
        plan = SqlPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }

    if let Some(n) = q.limit {
        plan = SqlPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}

fn scan_of(db: &Database, item: &FromItem) -> Result<SqlPlan, SqlError> {
    let tid = lookup_table(db, &item.table)
        .ok_or_else(|| item.pos.err(format!("unknown table '{}'", item.table)))?;
    let table = db.table(tid);
    Ok(SqlPlan::Scan {
        table: tid,
        table_name: table.name.clone(),
        base_arity: table.heap.schema().len(),
        filter: None,
        project: None,
    })
}

fn table_scope(db: &Database, name: &str, pos: Pos) -> Result<(TableId, Scope<'static>), SqlError> {
    let tid = lookup_table(db, name).ok_or_else(|| pos.err(format!("unknown table '{name}'")))?;
    let table = db.table(tid);
    let scope = Scope {
        tables: vec![TableRef {
            alias: table.name.to_ascii_lowercase(),
            offset: 0,
            cols: table
                .heap
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.to_ascii_lowercase())
                .collect(),
        }],
        outer: None,
    };
    Ok((tid, scope))
}

fn bind_insert(
    db: &Database,
    table: &str,
    pos: Pos,
    rows: &[Vec<ast::Expr>],
) -> Result<BoundStatement, SqlError> {
    let tid = lookup_table(db, table).ok_or_else(|| pos.err(format!("unknown table '{table}'")))?;
    let schema = db.table(tid).heap.schema();
    let ctx = BindCtx::scalar(db, &EMPTY_SCOPE);
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != schema.len() {
            return Err(pos.err(format!(
                "INSERT row has {} values but table '{table}' has {} columns",
                row.len(),
                schema.len()
            )));
        }
        let mut values = Vec::with_capacity(row.len());
        for (e, col) in row.iter().zip(schema.columns()) {
            let v = ctx.constant(e)?;
            values.push(coerce(v, col.ty).map_err(|got| {
                e.pos().unwrap_or(pos).err(format!(
                    "value of type {got} does not fit column '{}' ({:?})",
                    col.name, col.ty
                ))
            })?);
        }
        out.push(values);
    }
    Ok(BoundStatement::Insert {
        table: tid,
        rows: out,
    })
}

fn bind_update(
    db: &Database,
    table: &str,
    pos: Pos,
    sets: &[(String, Pos, ast::Expr)],
    filter: Option<&ast::Expr>,
) -> Result<BoundStatement, SqlError> {
    let (tid, scope) = table_scope(db, table, pos)?;
    let schema = db.table(tid).heap.schema();
    let ctx = BindCtx::scalar(db, &scope);
    let mut bound_sets = Vec::with_capacity(sets.len());
    for (col, cpos, e) in sets {
        let col_l = col.to_ascii_lowercase();
        let idx = schema
            .columns()
            .iter()
            .position(|c| c.name.to_ascii_lowercase() == col_l)
            .ok_or_else(|| cpos.err(format!("unknown column '{col}' in table '{table}'")))?;
        bound_sets.push((idx, ctx.bind(e)?));
    }
    let filter = filter.map(|e| ctx.bind(e)).transpose()?;
    Ok(BoundStatement::Update {
        table: tid,
        sets: bound_sets,
        filter,
    })
}

/// Coerces `v` to a column type (Int widens to Float; NULL fits anything).
/// Returns the value's type name on mismatch.
fn coerce(v: Value, ty: dbsens_storage::schema::ColType) -> Result<Value, &'static str> {
    use dbsens_storage::schema::ColType;
    match (v, ty) {
        (Value::Null, _) => Ok(Value::Null),
        (Value::Int(x), ColType::Int) => Ok(Value::Int(x)),
        (Value::Int(x), ColType::Float) => Ok(Value::Float(x as f64)),
        (Value::Float(x), ColType::Float) => Ok(Value::Float(x)),
        (Value::Str(s), ColType::Str(_)) => Ok(Value::Str(s)),
        (Value::Float(_), _) => Err("FLOAT"),
        (Value::Int(_), _) => Err("INTEGER"),
        (Value::Str(_), _) => Err("TEXT"),
    }
}
