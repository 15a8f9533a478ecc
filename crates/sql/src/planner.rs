//! Name resolution, predicate classification and Selinger-style join
//! ordering.
//!
//! The planner turns a parsed [`Query`] into a physical [`PlanNode`]:
//!
//! 1. every column reference is resolved to exactly one FROM table;
//! 2. the WHERE conjunction is split into *table predicates* (pushed into
//!    scans), *equi-join edges* (`a.x = b.y`) and *residual predicates*
//!    (applied after the joins);
//! 3. join order is chosen by dynamic programming over left-deep plans
//!    (Selinger-style: the enumeration is exact for the connected,
//!    acyclic-ish query graphs of SSB/TPC-H, costed by estimated
//!    intermediate cardinalities from `robustq_engine::estimate`);
//! 4. projections are pushed down so scans only materialize columns used
//!    upstream;
//! 5. grouping/aggregation, final projection, ORDER BY and LIMIT wrap the
//!    join tree.

use crate::ast::{AggName, BinOp, OrderItem, Query, SelectItem, SqlExpr};
use crate::error::SqlError;
use robustq_engine::expr::Expr;
use robustq_engine::plan::{AggFunc, AggSpec, PlanNode, SortKey};
use robustq_engine::predicate::{CmpOp, Predicate};
use robustq_engine::estimate::{self, Estimate};
use robustq_storage::{Database, Value};
use std::collections::{HashMap, HashSet};

/// Plan `query` against `db`.
pub fn plan(query: &Query, db: &Database) -> Result<PlanNode, SqlError> {
    Planner::new(query, db)?.plan()
}

/// One equi-join edge `tables[a].left = tables[b].right`.
struct JoinEdge {
    a: usize,
    b: usize,
    a_col: String,
    b_col: String,
}

struct Planner<'a> {
    query: &'a Query,
    db: &'a Database,
    tables: Vec<String>,
    /// column name -> table index (unambiguous names only).
    column_owner: HashMap<String, usize>,
    table_preds: Vec<Vec<Predicate>>,
    edges: Vec<JoinEdge>,
    residual: Vec<Predicate>,
}

impl<'a> Planner<'a> {
    fn new(query: &'a Query, db: &'a Database) -> Result<Self, SqlError> {
        let tables = query.from.clone();
        let mut column_owner = HashMap::new();
        let mut seen_twice = HashSet::new();
        for (i, t) in tables.iter().enumerate() {
            let table = db
                .table(t)
                .ok_or_else(|| SqlError::Plan(format!("unknown table {t}")))?;
            for f in table.schema().fields() {
                if column_owner.insert(f.name.to_string(), i).is_some() {
                    seen_twice.insert(f.name.to_string());
                }
            }
        }
        for c in seen_twice {
            column_owner.remove(&c);
        }
        Ok(Planner {
            query,
            db,
            table_preds: vec![Vec::new(); tables.len()],
            tables,
            column_owner,
            edges: Vec::new(),
            residual: Vec::new(),
        })
    }

    /// Resolve a (possibly `table.column`) reference to (table index,
    /// bare column name).
    fn resolve(&self, name: &str) -> Result<(usize, String), SqlError> {
        if let Some((t, c)) = name.split_once('.') {
            let idx = self
                .tables
                .iter()
                .position(|x| x == t)
                .ok_or_else(|| SqlError::Plan(format!("table {t} not in FROM")))?;
            if self.db.column_id(t, c).is_none() {
                return Err(SqlError::Plan(format!("no column {c} in table {t}")));
            }
            return Ok((idx, c.to_owned()));
        }
        match self.column_owner.get(name) {
            Some(&i) => Ok((i, name.to_owned())),
            None => Err(SqlError::Plan(format!(
                "column {name} is unknown or ambiguous in FROM {:?}",
                self.tables
            ))),
        }
    }

    /// The set of FROM tables an expression touches.
    fn tables_of(&self, e: &SqlExpr) -> Result<HashSet<usize>, SqlError> {
        let mut out = HashSet::new();
        for c in e.referenced_columns() {
            out.insert(self.resolve(&c)?.0);
        }
        Ok(out)
    }

    fn plan(mut self) -> Result<PlanNode, SqlError> {
        if let Some(w) = &self.query.where_clause {
            let conjuncts = split_and(w);
            for c in conjuncts {
                self.classify(c)?;
            }
        }
        let needed = self.needed_output_columns()?;
        let mut plan = self.join_order(&needed)?;
        for p in std::mem::take(&mut self.residual) {
            plan = plan.select(p);
        }
        plan = self.apply_select(plan)?;
        plan = self.apply_order_limit(plan)?;
        Ok(plan)
    }

    /// Classify one WHERE conjunct.
    fn classify(&mut self, e: &SqlExpr) -> Result<(), SqlError> {
        // Equi-join edge?
        if let SqlExpr::Binary { left, op: BinOp::Eq, right } = e {
            if let (SqlExpr::Column(l), SqlExpr::Column(r)) = (&**left, &**right) {
                let (ta, ca) = self.resolve(l)?;
                let (tb, cb) = self.resolve(r)?;
                if ta != tb {
                    self.edges.push(JoinEdge { a: ta, b: tb, a_col: ca, b_col: cb });
                    return Ok(());
                }
            }
        }
        let tables = self.tables_of(e)?;
        let pred = to_predicate(e, self)?;
        if tables.len() <= 1 {
            let t = tables.into_iter().next().unwrap_or(0);
            self.table_preds[t].push(pred);
        } else {
            self.residual.push(pred);
        }
        Ok(())
    }

    /// Columns each table must *output* from its scan: everything used by
    /// joins, residuals, SELECT, GROUP BY and ORDER BY (not predicate-only
    /// columns — scans read but project those away).
    fn needed_output_columns(&self) -> Result<Vec<Vec<String>>, SqlError> {
        let mut needed: Vec<HashSet<String>> =
            vec![HashSet::new(); self.tables.len()];
        let add = |this: &Self, name: &str, needed: &mut Vec<HashSet<String>>| {
            if let Ok((t, c)) = this.resolve(name) {
                needed[t].insert(c);
            }
        };
        for e in &self.edges {
            needed[e.a].insert(e.a_col.clone());
            needed[e.b].insert(e.b_col.clone());
        }
        for p in &self.residual {
            for c in p.referenced_columns() {
                add(self, &c, &mut needed);
            }
        }
        for item in &self.query.select {
            match item {
                SelectItem::Star => {
                    for (i, t) in self.tables.iter().enumerate() {
                        let table = self.db.table(t).expect("validated in new()");
                        for f in table.schema().fields() {
                            needed[i].insert(f.name.to_string());
                        }
                    }
                }
                SelectItem::Expr { expr, .. } => {
                    for c in expr.referenced_columns() {
                        let (t, c) = self.resolve(&c)?;
                        needed[t].insert(c);
                    }
                }
                SelectItem::Agg { expr: Some(expr), .. } => {
                    for c in expr.referenced_columns() {
                        let (t, c) = self.resolve(&c)?;
                        needed[t].insert(c);
                    }
                }
                SelectItem::Agg { expr: None, .. } => {}
            }
        }
        for g in &self.query.group_by {
            let (t, c) = self.resolve(g)?;
            needed[t].insert(c);
        }
        for o in &self.query.order_by {
            // ORDER BY may reference an output alias; only base columns
            // contribute to scan outputs.
            if let Ok((t, c)) = self.resolve(&o.column) {
                needed[t].insert(c);
            }
        }
        Ok(needed
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let mut v: Vec<String> = s.into_iter().collect();
                v.sort();
                // A zero-column chunk cannot carry a row count (e.g.
                // `SELECT count(*)`): keep the narrowest column.
                if v.is_empty() {
                    let table = self.db.table(&self.tables[i]).expect("validated");
                    if let Some(f) = table
                        .schema()
                        .fields()
                        .iter()
                        .min_by_key(|f| f.data_type.byte_width())
                    {
                        v.push(f.name.to_string());
                    }
                }
                v
            })
            .collect())
    }

    /// Filtered scan of table `i`, outputting `columns`.
    fn scan_of(&self, i: usize, columns: &[String]) -> PlanNode {
        let mut scan = PlanNode::scan(self.tables[i].clone(), columns.to_vec());
        let preds = &self.table_preds[i];
        if !preds.is_empty() {
            scan = scan.filter(Predicate::and(preds.iter().cloned()));
        }
        scan
    }

    /// Left-deep Selinger DP over the equi-join graph.
    fn join_order(&self, needed: &[Vec<String>]) -> Result<PlanNode, SqlError> {
        let n = self.tables.len();
        if n == 0 {
            return Err(SqlError::Plan("empty FROM clause".into()));
        }
        if n == 1 {
            return Ok(self.scan_of(0, &needed[0]));
        }
        if n > 12 {
            return Err(SqlError::Plan(format!("too many tables ({n}) for DP")));
        }

        // An entry carries its root estimate, so a candidate is costed by
        // one node-local estimate per operator it adds, never re-estimated
        // from the leaves.
        #[derive(Clone)]
        struct Entry {
            plan: PlanNode,
            est: Estimate,
            cost: f64,
        }
        let full: usize = (1 << n) - 1;
        let mut best: Vec<Option<Entry>> = vec![None; full + 1];
        for i in 0..n {
            let plan = self.scan_of(i, &needed[i]);
            let est = estimate::node(plan.op(), &[], self.db);
            best[1 << i] = Some(Entry { plan, est, cost: est.rows });
        }

        for mask in 1..=full {
            let Some(base) = best[mask].clone() else {
                continue;
            };
            for t in 0..n {
                if mask & (1 << t) != 0 {
                    continue;
                }
                // Edges connecting t to the current set, t's column second.
                let mut connecting = self.edges.iter().filter_map(|e| {
                    if e.a == t && mask & (1 << e.b) != 0 {
                        Some((e.b_col.clone(), e.a_col.clone()))
                    } else if e.b == t && mask & (1 << e.a) != 0 {
                        Some((e.a_col.clone(), e.b_col.clone()))
                    } else {
                        None
                    }
                });
                let Some((probe_key, build_key)) = connecting.next() else {
                    continue;
                };
                let build = best[1 << t].as_ref().expect("every table has a scan entry");
                let mut candidate =
                    base.plan.clone().join(build.plan.clone(), probe_key, build_key);
                let mut est = estimate::node(candidate.op(), &[build.est, base.est], self.db);
                // Extra connecting edges become post-join filters.
                for (left, right) in connecting {
                    candidate = candidate.select(Predicate::ColCmp { left, op: CmpOp::Eq, right });
                    est = estimate::node(candidate.op(), &[est], self.db);
                }
                // Charge intermediates plus the hash-table build (builds
                // are ~2x a scan pass), so the DP prefers small dimension
                // tables on the build side.
                let cost = base.cost + est.rows + 2.0 * build.est.rows;
                let next = mask | (1 << t);
                if best[next].as_ref().is_none_or(|e| cost < e.cost) {
                    best[next] = Some(Entry { plan: candidate, est, cost });
                }
            }
        }
        best[full]
            .take()
            .map(|e| e.plan)
            .ok_or_else(|| {
                SqlError::Plan(
                    "query graph is disconnected (cross joins are unsupported)".into(),
                )
            })
    }

    /// Apply aggregation / final projection.
    fn apply_select(&self, plan: PlanNode) -> Result<PlanNode, SqlError> {
        let has_agg = self
            .query
            .select
            .iter()
            .any(|i| matches!(i, SelectItem::Agg { .. }));
        if !has_agg && self.query.group_by.is_empty() {
            // Pure projection.
            if matches!(self.query.select.as_slice(), [SelectItem::Star]) {
                return Ok(plan);
            }
            let mut exprs = Vec::new();
            for (i, item) in self.query.select.iter().enumerate() {
                match item {
                    SelectItem::Expr { expr, alias } => {
                        exprs.push((output_name(expr, alias, i), to_expr(expr, self)?));
                    }
                    SelectItem::Star => {
                        return Err(SqlError::Plan(
                            "mixing * with other select items is unsupported".into(),
                        ))
                    }
                    SelectItem::Agg { .. } => unreachable!("has_agg is false"),
                }
            }
            return Ok(plan.project(exprs));
        }

        // Aggregation path.
        let mut group_cols = Vec::new();
        for g in &self.query.group_by {
            group_cols.push(self.resolve(g)?.1);
        }
        let mut aggs = Vec::new();
        let mut select_order: Vec<String> = Vec::new();
        for (i, item) in self.query.select.iter().enumerate() {
            match item {
                SelectItem::Agg { func, expr, alias } => {
                    let name = match alias {
                        Some(a) => a.clone(),
                        None => format!("{}_{i}", agg_func(*func).name()),
                    };
                    let input = match expr {
                        Some(e) => to_expr(e, self)?,
                        None => Expr::lit(1.0),
                    };
                    aggs.push(AggSpec::new(agg_func(*func), input, name.clone()));
                    select_order.push(name);
                }
                SelectItem::Expr { expr, alias } => {
                    // Must be a group key (possibly aliased).
                    match expr {
                        SqlExpr::Column(c) => {
                            let (_, col) = self.resolve(c)?;
                            if !group_cols.contains(&col) {
                                return Err(SqlError::Plan(format!(
                                    "column {col} must appear in GROUP BY"
                                )));
                            }
                            let _ = alias;
                            select_order.push(col);
                        }
                        other => {
                            return Err(SqlError::Plan(format!(
                                "non-aggregate select expression {other:?} with GROUP BY"
                            )))
                        }
                    }
                }
                SelectItem::Star => {
                    return Err(SqlError::Plan("SELECT * with aggregates".into()))
                }
            }
        }
        let mut plan = plan.aggregate(group_cols.clone(), aggs);
        // Reorder to the SELECT order when it differs from
        // group-keys-then-aggregates.
        let natural: Vec<String> = group_cols
            .iter()
            .cloned()
            .chain(select_order.iter().filter(|n| !group_cols.contains(n)).cloned())
            .collect();
        if select_order != natural {
            let exprs: Vec<(String, Expr)> = select_order
                .into_iter()
                .map(|n| (n.clone(), Expr::col(n)))
                .collect();
            plan = plan.project(exprs);
        }
        Ok(plan)
    }

    fn apply_order_limit(&self, mut plan: PlanNode) -> Result<PlanNode, SqlError> {
        if !self.query.order_by.is_empty() {
            let keys: Vec<SortKey> = self
                .query
                .order_by
                .iter()
                .map(|OrderItem { column, desc }| {
                    // Try resolving to a base column, else use the name as
                    // an output alias.
                    let name = self
                        .resolve(column)
                        .map(|(_, c)| c)
                        .unwrap_or_else(|_| column.clone());
                    if *desc {
                        SortKey::desc(name)
                    } else {
                        SortKey::asc(name)
                    }
                })
                .collect();
            plan = match self.query.limit {
                Some(l) => plan.top_k(keys, l),
                None => plan.sort(keys),
            };
        } else if let Some(l) = self.query.limit {
            plan = plan.top_k(Vec::new(), l);
        }
        Ok(plan)
    }
}

/// Split a boolean expression into top-level conjuncts.
fn split_and(e: &SqlExpr) -> Vec<&SqlExpr> {
    match e {
        SqlExpr::And(a, b) => {
            let mut out = split_and(a);
            out.extend(split_and(b));
            out
        }
        other => vec![other],
    }
}

fn agg_func(f: AggName) -> AggFunc {
    match f {
        AggName::Sum => AggFunc::Sum,
        AggName::Count => AggFunc::Count,
        AggName::Min => AggFunc::Min,
        AggName::Max => AggFunc::Max,
        AggName::Avg => AggFunc::Avg,
    }
}

fn output_name(expr: &SqlExpr, alias: &Option<String>, i: usize) -> String {
    match (alias, expr) {
        (Some(a), _) => a.clone(),
        (None, SqlExpr::Column(c)) => {
            c.split_once('.').map(|(_, c)| c.to_owned()).unwrap_or_else(|| c.clone())
        }
        _ => format!("expr_{i}"),
    }
}

/// Fold a literal-only arithmetic expression to a constant.
fn eval_const(e: &SqlExpr) -> Option<f64> {
    match e {
        SqlExpr::Number(n) => Some(*n),
        SqlExpr::Binary { left, op, right } => {
            let (l, r) = (eval_const(left)?, eval_const(right)?);
            match op {
                BinOp::Add => Some(l + r),
                BinOp::Sub => Some(l - r),
                BinOp::Mul => Some(l * r),
                BinOp::Div => Some(l / r),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Literal SQL value → engine value.
fn to_value(e: &SqlExpr) -> Option<Value> {
    match e {
        SqlExpr::Str(s) => Some(Value::Str(s.clone())),
        other => eval_const(other).map(Value::Float64),
    }
}

/// Scalar SQL expression → engine expression (bare column names).
fn to_expr(e: &SqlExpr, p: &Planner) -> Result<Expr, SqlError> {
    match e {
        SqlExpr::Column(c) => Ok(Expr::col(p.resolve(c)?.1)),
        SqlExpr::Number(n) => Ok(Expr::lit(*n)),
        SqlExpr::Binary { left, op, right } => {
            let l = to_expr(left, p)?;
            let r = to_expr(right, p)?;
            match op {
                BinOp::Add => Ok(l + r),
                BinOp::Sub => Ok(l - r),
                BinOp::Mul => Ok(l * r),
                BinOp::Div => Ok(l / r),
                other => Err(SqlError::Plan(format!(
                    "comparison {other:?} in scalar context"
                ))),
            }
        }
        other => Err(SqlError::Plan(format!("unsupported scalar expression {other:?}"))),
    }
}

/// Boolean SQL expression → engine predicate (bare column names).
fn to_predicate(e: &SqlExpr, p: &Planner) -> Result<Predicate, SqlError> {
    match e {
        SqlExpr::And(a, b) => Ok(Predicate::and([
            to_predicate(a, p)?,
            to_predicate(b, p)?,
        ])),
        SqlExpr::Or(a, b) => Ok(Predicate::or([
            to_predicate(a, p)?,
            to_predicate(b, p)?,
        ])),
        SqlExpr::Not(inner) => Ok(Predicate::Not(Box::new(to_predicate(inner, p)?))),
        SqlExpr::Between { expr, lo, hi } => {
            let col = column_name(expr, p)?;
            let lo = to_value(lo)
                .ok_or_else(|| SqlError::Plan("BETWEEN bounds must be literals".into()))?;
            let hi = to_value(hi)
                .ok_or_else(|| SqlError::Plan("BETWEEN bounds must be literals".into()))?;
            Ok(Predicate::Between { column: col, lo, hi })
        }
        SqlExpr::InList { expr, list } => {
            let col = column_name(expr, p)?;
            let values: Option<Vec<Value>> = list.iter().map(to_value).collect();
            let values = values
                .ok_or_else(|| SqlError::Plan("IN list must contain literals".into()))?;
            Ok(Predicate::InList { column: col, values })
        }
        SqlExpr::Like { expr, pattern } => {
            let col = column_name(expr, p)?;
            let starts = pattern.starts_with('%');
            let ends = pattern.ends_with('%');
            let core = pattern.trim_matches('%').to_owned();
            match (starts, ends) {
                (true, false) => Ok(Predicate::StrSuffix { column: col, suffix: core }),
                (false, true) => Ok(Predicate::StrPrefix { column: col, prefix: core }),
                _ => Err(SqlError::Plan(format!(
                    "unsupported LIKE pattern {pattern:?} (use 'x%' or '%x')"
                ))),
            }
        }
        SqlExpr::Binary { left, op, right } if op.is_comparison() => {
            let cmp = match op {
                BinOp::Eq => CmpOp::Eq,
                BinOp::Ne => CmpOp::Ne,
                BinOp::Lt => CmpOp::Lt,
                BinOp::Le => CmpOp::Le,
                BinOp::Gt => CmpOp::Gt,
                BinOp::Ge => CmpOp::Ge,
                _ => unreachable!("comparison checked"),
            };
            match (&**left, &**right) {
                (SqlExpr::Column(l), SqlExpr::Column(r)) => Ok(Predicate::ColCmp {
                    left: p.resolve(l)?.1,
                    op: cmp,
                    right: p.resolve(r)?.1,
                }),
                (SqlExpr::Column(l), rhs) => {
                    let v = to_value(rhs).ok_or_else(|| {
                        SqlError::Plan(format!("unsupported comparison operand {rhs:?}"))
                    })?;
                    Ok(Predicate::Cmp { column: p.resolve(l)?.1, op: cmp, value: v })
                }
                (lhs, SqlExpr::Column(r)) => {
                    let v = to_value(lhs).ok_or_else(|| {
                        SqlError::Plan(format!("unsupported comparison operand {lhs:?}"))
                    })?;
                    // Flip: literal OP col  ==  col OP' literal.
                    let flipped = match cmp {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        other => other,
                    };
                    Ok(Predicate::Cmp { column: p.resolve(r)?.1, op: flipped, value: v })
                }
                _ => Err(SqlError::Plan(format!("unsupported predicate {e:?}"))),
            }
        }
        other => Err(SqlError::Plan(format!("unsupported predicate {other:?}"))),
    }
}

fn column_name(e: &SqlExpr, p: &Planner) -> Result<String, SqlError> {
    match e {
        SqlExpr::Column(c) => Ok(p.resolve(c)?.1),
        other => Err(SqlError::Plan(format!("expected a column, found {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use robustq_engine::ops::execute_plan;
    use robustq_engine::plan::Op;
    use robustq_storage::gen::ssb::SsbGenerator;

    fn db() -> Database {
        SsbGenerator::new(1).with_rows_per_sf(2_000).generate()
    }

    fn run(sql: &str, db: &Database) -> robustq_engine::Chunk {
        let plan = plan(&parse(sql).unwrap(), db).unwrap();
        execute_plan(&plan, db).unwrap()
    }

    #[test]
    fn single_table_selection() {
        let db = db();
        let out = run("select lo_revenue from lineorder where lo_discount > 8", &db);
        assert!(out.num_rows() > 0);
        assert_eq!(out.num_columns(), 1);
        // Cross-check with a direct plan.
        let direct = execute_plan(
            &PlanNode::scan("lineorder", ["lo_revenue"])
                .filter(Predicate::cmp("lo_discount", CmpOp::Gt, 8)),
            &db,
        )
        .unwrap();
        assert_eq!(out.checksum(), direct.checksum());
    }

    #[test]
    fn two_table_join_with_aggregate() {
        let db = db();
        let out = run(
            "select sum(lo_extendedprice * lo_discount) as revenue \
             from lineorder, date \
             where lo_orderdate = d_datekey and d_year = 1993 \
             and lo_discount between 1 and 3 and lo_quantity < 25",
            &db,
        );
        assert_eq!(out.num_rows(), 1);
        assert!(out.column("revenue").is_some());
    }

    #[test]
    fn group_by_with_order() {
        let db = db();
        let out = run(
            "select d_year, sum(lo_revenue) as revenue from lineorder, date \
             where lo_orderdate = d_datekey group by d_year order by d_year",
            &db,
        );
        assert_eq!(out.num_rows(), 7, "seven calendar years");
        // Sorted ascending by year.
        let years: Vec<i64> =
            (0..7).map(|i| out.row(i)[0].as_i64().unwrap()).collect();
        assert!(years.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn three_table_join_orders_by_dp() {
        let db = db();
        let out = run(
            "select c_nation, sum(lo_revenue) as revenue \
             from customer, lineorder, supplier \
             where lo_custkey = c_custkey and lo_suppkey = s_suppkey \
             and c_region = 'ASIA' and s_region = 'ASIA' \
             group by c_nation order by revenue desc",
            &db,
        );
        assert!(out.num_rows() > 0);
        // Descending revenue.
        let revs: Vec<f64> =
            (0..out.num_rows()).map(|i| out.row(i)[1].as_f64().unwrap()).collect();
        assert!(revs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn select_star_passthrough() {
        let db = db();
        let out = run("select * from date where d_year = 1994", &db);
        assert_eq!(out.num_rows(), 365);
        assert_eq!(out.num_columns(), 7, "all date columns");
    }

    #[test]
    fn limit_produces_top_k() {
        let db = db();
        let out = run(
            "select lo_revenue from lineorder order by lo_revenue desc limit 5",
            &db,
        );
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn projection_pushdown_reduces_scan_width() {
        let db = db();
        let p = plan(
            &parse("select lo_revenue from lineorder where lo_discount > 8").unwrap(),
            &db,
        )
        .unwrap();
        // The scan must output only lo_revenue.
        fn scan_columns(n: &PlanNode) -> Option<&[String]> {
            match &**n.op() {
                Op::Scan { columns, .. } => Some(columns),
                _ => n.children().iter().find_map(scan_columns),
            }
        }
        assert_eq!(scan_columns(&p).unwrap(), ["lo_revenue"]);
    }

    #[test]
    fn errors_for_unknown_names() {
        let db = db();
        assert!(plan(&parse("select x from lineorder").unwrap(), &db).is_err());
        assert!(plan(&parse("select * from nonsense").unwrap(), &db).is_err());
        assert!(plan(
            &parse("select lo_revenue from lineorder, date").unwrap(),
            &db
        )
        .is_err(), "disconnected join graph");
    }

    #[test]
    fn non_grouped_column_rejected() {
        let db = db();
        let q = parse(
            "select d_year, sum(lo_revenue) from lineorder, date \
             where lo_orderdate = d_datekey group by d_yearmonthnum",
        )
        .unwrap();
        assert!(plan(&q, &db).is_err());
    }

    #[test]
    fn or_predicate_on_one_table_pushes_down() {
        let db = db();
        let out = run(
            "select count(*) as n from customer \
             where c_region = 'ASIA' or c_region = 'EUROPE'",
            &db,
        );
        let total = run("select count(*) as n from customer", &db);
        let asia = run("select count(*) as n from customer where c_region = 'ASIA'", &db);
        let n = out.row(0)[0].as_i64().unwrap();
        assert!(n > asia.row(0)[0].as_i64().unwrap());
        assert!(n < total.row(0)[0].as_i64().unwrap());
    }
}
