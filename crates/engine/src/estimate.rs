//! Analytical cardinality estimation for compile-time placement.
//!
//! Compile-time heuristics (Critical Path, GPU-Preferred) must guess
//! operator input/output sizes *before* execution — the paper's Section 4
//! lists exactly this dependence on cardinality estimates as a weakness of
//! compile-time placement. The estimator here is deliberately simple
//! (textbook selectivity constants), so the compile-time strategies carry a
//! realistic amount of estimation error while run-time strategies use
//! exact, observed cardinalities.
//!
//! There is one estimate function, [`node`], local to an operator and the
//! estimates of its children; admission loops it once over the final
//! (possibly sharded) task graph ([`postorder`]), and the SQL planner's
//! join-order search calls it on the estimates its entries carry.

use crate::exec::task::{flatten, Role, TaskNode, Window};
use crate::plan::{JoinKind, Op, PlanNode};
use crate::predicate::{CmpOp, Predicate};
use robustq_storage::Database;

/// Estimated size of one operator's output and input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output payload bytes.
    pub bytes: f64,
    /// Fraction of this subtree's base table that survives (used for
    /// foreign-key join estimation); 1.0 when unknown.
    pub fraction: f64,
    /// Estimated input bytes: the base columns a scan reads, the sum of
    /// the children's outputs for every other operator.
    pub input_bytes: f64,
}

/// Default selectivity of a predicate.
pub fn selectivity(pred: &Predicate) -> f64 {
    match pred {
        Predicate::True => 1.0,
        Predicate::Cmp { op, .. } => match op {
            CmpOp::Eq => 0.05,
            CmpOp::Ne => 0.95,
            _ => 0.33,
        },
        Predicate::Between { .. } => 0.15,
        Predicate::InList { values, .. } => (0.05 * values.len() as f64).min(1.0),
        Predicate::StrPrefix { .. } | Predicate::StrSuffix { .. } => 0.1,
        Predicate::ColCmp { .. } => 0.3,
        Predicate::And(ps) => ps.iter().map(selectivity).product(),
        Predicate::Or(ps) => ps.iter().map(selectivity).sum::<f64>().min(1.0),
        Predicate::Not(p) => 1.0 - selectivity(p),
    }
}

/// Estimate one operator from the estimates of its children (build side
/// first for joins). Node-local: a whole plan is one call per operator in
/// postorder ([`postorder`]), and a planner that carries its entries'
/// estimates costs a candidate by one call per operator it adds.
///
/// # Panics
/// On a child count the operator does not have — unreachable for tasks
/// flattened from a [`PlanNode`], whose constructors fix the arity.
pub fn node(op: &Op, children: &[Estimate], db: &Database) -> Estimate {
    let (rows, bytes, fraction) = match (op, children) {
        (Op::Scan { columns, predicate, .. }, []) => {
            let (table, read) = op.scan_access().expect("scan op");
            let (rows, width, input_bytes) = match db.table(table) {
                Some(t) => {
                    let width: u64 = columns
                        .iter()
                        .filter_map(|c| t.column(c))
                        .map(|c| c.data_type().byte_width() as u64)
                        .sum();
                    let read = read.iter().filter_map(|c| t.column(c));
                    (
                        t.num_rows() as f64,
                        width.max(1) as f64,
                        read.map(|c| c.byte_size() as f64).sum(),
                    )
                }
                None => (0.0, 1.0, 0.0),
            };
            let sel = predicate.as_ref().map_or(1.0, selectivity);
            return Estimate { rows: rows * sel, bytes: rows * sel * width, fraction: sel, input_bytes };
        }
        (Op::Select { predicate }, [e]) => {
            let sel = selectivity(predicate);
            (e.rows * sel, e.bytes * sel, e.fraction * sel)
        }
        (Op::HashJoin { kind, .. }, [b, p]) => {
            // Foreign-key assumption, symmetric in the join direction:
            // the join keeps `frac_probe · frac_build` of the *larger*
            // side's base table (the fact side of a fact–dimension join).
            let p_base = if p.fraction > 0.0 { p.rows / p.fraction } else { 0.0 };
            let b_base = if b.fraction > 0.0 { b.rows / b.fraction } else { 0.0 };
            let matched =
                (p.fraction * b.fraction).min(1.0) * p_base.max(b_base);
            let rows = match kind {
                JoinKind::Inner => matched,
                JoinKind::Semi => p.rows * b.fraction.min(1.0),
                JoinKind::Anti => p.rows * (1.0 - b.fraction.min(1.0)),
            };
            let row_width = if p.rows > 0.5 { p.bytes / p.rows } else { 8.0 };
            let build_width = if b.rows > 0.5 { b.bytes / b.rows } else { 0.0 };
            let width = match kind {
                JoinKind::Inner => row_width + build_width,
                _ => row_width,
            };
            (rows, rows * width, p.fraction * b.fraction.min(1.0))
        }
        (Op::Project { exprs }, [e]) => (e.rows, e.rows * 8.0 * exprs.len() as f64, e.fraction),
        (Op::Aggregate { group_by, aggs }, [e]) => {
            let groups = if group_by.is_empty() {
                1.0
            } else {
                // Square-root rule of thumb for distinct groups.
                e.rows.sqrt().max(1.0)
            };
            (groups, groups * 8.0 * (group_by.len() + aggs.len()) as f64, 1.0)
        }
        (Op::Sort { limit, .. }, [e]) => {
            let rows = match limit {
                Some(l) => e.rows.min(*l as f64),
                None => e.rows,
            };
            let width = if e.rows > 0.5 { e.bytes / e.rows } else { 8.0 };
            (rows, rows * width, e.fraction)
        }
        _ => panic!("{} over {} children", op.label(), children.len()),
    };
    Estimate { rows, bytes, fraction, input_bytes: children.iter().map(|c| c.bytes).sum() }
}

/// The share of its table's rows a scan reads under `window`, its whole
/// [`Op::scan_rows`]: 1 but for a scan of the windowed table.
pub fn row_share(op: &Op, window: Option<Window<'_>>, db: &Database) -> f64 {
    match op.scan_access().and_then(|(table, _)| db.table(table)).map_or(0, |t| t.num_rows()) {
        0 => 1.0,
        rows => op.scan_rows(Role::Whole, window, rows).len() as f64 / rows as f64,
    }
}

/// A scan's estimate under `window`: [`node`]'s at its [`row_share`], as
/// if its table held only the window's rows (what a tick is equivalent to).
pub fn scan(op: &Op, db: &Database, window: Option<Window<'_>>) -> Estimate {
    let (e, share) = (node(op, &[], db), row_share(op, window, db));
    let input_bytes = e.input_bytes * share;
    Estimate { rows: e.rows * share, bytes: e.bytes * share, input_bytes, ..e }
}

/// Estimates of a flattened, possibly sharded, task graph, in one pass.
/// Each operator is estimated by [`node`] over its children's operator
/// estimates, a leaf as the [`scan`] of what `window` leaves of its table,
/// so the window's share flows up through every operator above it. A
/// task's own estimate is its operator's times its role's row share
/// (`1/of` for a [`Role::Spine`] task) and `live(i)`, the share of its
/// output width a pruned spine task hands on; a task with children reads
/// their outputs summed, and a [`Role::Merge`] reproduces its pipelines'
/// top's whole live output. Whole tasks with no window: [`node`]'s alone.
pub fn postorder(
    tasks: &[TaskNode],
    db: &Database,
    window: Option<Window<'_>>,
    live: impl Fn(usize) -> f64,
) -> Vec<Estimate> {
    let mut ops: Vec<Estimate> = Vec::with_capacity(tasks.len());
    let mut out: Vec<Estimate> = Vec::with_capacity(tasks.len());
    let mut children = Vec::new();
    for (i, task) in tasks.iter().enumerate() {
        children.clear();
        children.extend(task.children.iter().map(|&c| ops[c]));
        let (op, own) = match (task.role, &children[..]) {
            (Role::Merge, [top, ..]) => (*top, task.children[0]),
            (_, []) => (scan(&task.op, db, window), i),
            _ => (node(&task.op, &children, db), i),
        };
        let split = if let Role::Spine(shard) = task.role { f64::from(shard.of) } else { 1.0 };
        let bytes = op.bytes * live(own) / split;
        let input_bytes = match (task.role, &task.children[..]) {
            (Role::Merge, _) => bytes,
            (_, []) => op.input_bytes / split,
            (_, kids) => kids.iter().map(|&c| out[c].bytes).sum(),
        };
        ops.push(op);
        out.push(Estimate { rows: op.rows / split, bytes, input_bytes, ..op });
    }
    out
}

/// Estimate the output of the plan's root.
pub fn estimate(plan: &PlanNode, db: &Database) -> Estimate {
    *postorder(&flatten(plan), db, None, |_| 1.0).last().expect("a plan has a root")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::AggSpec;
    use robustq_storage::gen::ssb::SsbGenerator;

    fn db() -> Database {
        SsbGenerator::new(1).with_rows_per_sf(1_000).generate()
    }

    #[test]
    fn scan_estimate_uses_table_cardinality() {
        let db = db();
        let plan = PlanNode::scan("lineorder", ["lo_revenue"]);
        let e = estimate(&plan, &db);
        assert_eq!(e.rows, 1_000.0);
        assert_eq!(e.bytes, 8_000.0);
        assert_eq!(e.fraction, 1.0);
    }

    #[test]
    fn predicate_reduces_estimate() {
        let db = db();
        let plan = PlanNode::scan("lineorder", ["lo_revenue"])
            .filter(Predicate::between("lo_discount", 1, 3));
        let e = estimate(&plan, &db);
        assert!(e.rows < 1_000.0 && e.rows > 0.0);
        assert!(e.fraction < 1.0);
    }

    #[test]
    fn fk_join_scales_with_build_fraction() {
        let db = db();
        let dim = PlanNode::scan("date", ["d_datekey"])
            .filter(Predicate::eq("d_year", 1993));
        let plan = PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue"]).join(
            dim,
            "lo_orderdate",
            "d_datekey",
        );
        let e = estimate(&plan, &db);
        assert!(e.rows < 1_000.0, "filtered dim join must shrink fact side");
        assert!(e.rows > 1.0);
    }

    #[test]
    fn aggregate_shrinks_to_groups() {
        let db = db();
        let plan = PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue"]).aggregate(
            ["lo_orderdate"],
            vec![AggSpec::sum(Expr::col("lo_revenue"), "r")],
        );
        let e = estimate(&plan, &db);
        assert!(e.rows <= 1_000.0f64.sqrt() + 1.0);
    }

    #[test]
    fn and_selectivities_multiply() {
        let p = Predicate::and([
            Predicate::eq("a", 1),
            Predicate::between("b", 1, 2),
        ]);
        assert!((selectivity(&p) - 0.05 * 0.15).abs() < 1e-12);
    }

    #[test]
    fn input_bytes_for_scan_counts_predicate_columns() {
        let db = db();
        let plain = PlanNode::scan("lineorder", ["lo_revenue"]);
        let with_pred = PlanNode::scan("lineorder", ["lo_revenue"])
            .filter(Predicate::between("lo_discount", 1, 3));
        assert!(
            estimate(&with_pred, &db).input_bytes > estimate(&plain, &db).input_bytes
        );
    }
}
