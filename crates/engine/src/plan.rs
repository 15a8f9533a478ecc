//! Physical query plans.
//!
//! A plan is a tree of materializing operators. Leaves are table scans
//! (with pushed-down predicates and projections, as CoGaDB's optimizer
//! produces); inner nodes are joins, post-join selections, projections,
//! group-by aggregations and sorts.

use crate::expr::Expr;
use crate::predicate::Predicate;
use robustq_sim::OpClass;
use std::fmt;
use std::sync::Arc;

/// Join variants used by the workload queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner equi-join; output is probe columns then build columns.
    Inner,
    /// Left semi-join: probe rows with at least one build match.
    Semi,
    /// Left anti-join: probe rows with no build match.
    Anti,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the input expression.
    Sum,
    /// Row count.
    Count,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean.
    Avg,
}

impl AggFunc {
    /// Lower-case function name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate: `output_name = func(input)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated expression.
    pub input: Expr,
    /// Name of the output column.
    pub output_name: String,
}

impl AggSpec {
    /// An aggregate `output_name = func(input)`.
    pub fn new(func: AggFunc, input: Expr, output_name: impl Into<String>) -> Self {
        AggSpec { func, input, output_name: output_name.into() }
    }

    /// Shorthand for `SUM(input) AS name`.
    pub fn sum(input: Expr, name: impl Into<String>) -> Self {
        Self::new(AggFunc::Sum, input, name)
    }

    /// Shorthand for `COUNT(*) AS name`.
    pub fn count(name: impl Into<String>) -> Self {
        Self::new(AggFunc::Count, Expr::lit(1.0), name)
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// One sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// The key column.
    pub column: String,
    /// Its direction.
    pub order: SortOrder,
}

impl SortKey {
    /// Ascending key on `column`.
    pub fn asc(column: impl Into<String>) -> Self {
        SortKey { column: column.into(), order: SortOrder::Asc }
    }

    /// Descending key on `column`.
    pub fn desc(column: impl Into<String>) -> Self {
        SortKey { column: column.into(), order: SortOrder::Desc }
    }
}

/// What one operator does, without its inputs: the single description
/// the plan tree, the executor's flattened tasks and a sharded scan's
/// parts all share behind an [`Arc`] (a shard and its merge are the scan's
/// own payload run in parts — see `exec::task::Role` — not further
/// variants).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Scan a base table, applying an optional pushed-down predicate, and
    /// output the named columns. Built by [`Op::scan`].
    ///
    /// Base columns *read* are the union of `columns` and the predicate's
    /// references — that union is what access statistics and co-processor
    /// cache residency are tracked over.
    Scan {
        /// Table to read.
        table: String,
        /// Columns to output.
        columns: Vec<String>,
        /// Pushed-down filter, if any.
        predicate: Option<Predicate>,
        /// Every base column read, derived from `columns` and `predicate`.
        reads: ScanReads,
    },
    /// Filter an intermediate result.
    Select {
        /// The filter.
        predicate: Predicate,
    },
    /// Hash equi-join. The hash table is built over the first child.
    HashJoin {
        /// Key column on the build side.
        build_key: String,
        /// Key column on the probe side.
        probe_key: String,
        /// Inner, semi or anti.
        kind: JoinKind,
    },
    /// Compute named expressions.
    Project {
        /// `(output name, expression)` pairs.
        exprs: Vec<(String, Expr)>,
    },
    /// Group-by aggregation. An empty `group_by` produces one total row.
    Aggregate {
        /// Grouping key columns.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Sort, optionally keeping only the first `limit` rows (top-k).
    Sort {
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
        /// Keep only the first `limit` rows, if set.
        limit: Option<usize>,
    },
}

impl Op {
    /// A scan of `table` outputting `columns`, filtered by `predicate`.
    pub fn scan(table: impl Into<String>, columns: Vec<String>, predicate: Option<Predicate>) -> Op {
        let reads = ScanReads::of(&columns, predicate.as_ref());
        Op::Scan { table: table.into(), columns, predicate, reads }
    }

    /// Cost-model class.
    pub fn op_class(&self) -> OpClass {
        match self {
            Op::Scan { .. } | Op::Select { .. } => OpClass::Selection,
            Op::HashJoin { .. } => OpClass::HashJoin,
            Op::Project { .. } => OpClass::Projection,
            Op::Aggregate { .. } => OpClass::Aggregation,
            Op::Sort { .. } => OpClass::Sort,
        }
    }

    /// For scans: the table and the full set of base columns *read* —
    /// the output columns, then the predicate's other references, each
    /// once, as the operator was built with them.
    pub fn scan_access(&self) -> Option<(&str, &[String])> {
        match self {
            Op::Scan { table, reads, .. } => Some((table, &reads.0)),
            _ => None,
        }
    }

    /// Short operator label for plan display and diagnostics.
    pub fn label(&self) -> String {
        match self {
            Op::Scan { table, predicate, .. } => match predicate {
                Some(p) => format!("scan({table}, {p})"),
                None => format!("scan({table})"),
            },
            Op::Select { predicate } => format!("select({predicate})"),
            Op::HashJoin { build_key, probe_key, kind } => {
                format!("join[{kind:?}]({probe_key} = {build_key})")
            }
            Op::Project { exprs } => {
                format!(
                    "project({})",
                    exprs.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(", ")
                )
            }
            Op::Aggregate { group_by, aggs } => format!(
                "aggregate(by: [{}], {} aggs)",
                group_by.join(", "),
                aggs.len()
            ),
            Op::Sort { keys, limit } => match limit {
                Some(l) => format!("top{}({})", l, keys.len()),
                None => format!("sort({} keys)", keys.len()),
            },
        }
    }
}

/// The base columns a scan reads: its outputs, then its predicate's other
/// references, each once. Derived only where a scan is built or filtered,
/// so it always matches them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReads(Vec<String>);

impl ScanReads {
    fn of(columns: &[String], predicate: Option<&Predicate>) -> ScanReads {
        let mut reads = columns.to_vec();
        if let Some(p) = predicate {
            p.for_each_column(&mut |c| {
                if !reads.iter().any(|r| r == c) {
                    reads.push(c.to_string());
                }
            });
        }
        ScanReads(reads)
    }
}

/// A physical plan node: one shared operator description over its input
/// plans. The fields are private and every constructor fixes its
/// operator's arity (a scan has no child, a join has build then probe,
/// everything else one input), so a malformed plan is unrepresentable;
/// cloning a plan bumps two reference counts — its [`Op`] and its child
/// list — and copies nothing of the tree below.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    op: Arc<Op>,
    children: Arc<[PlanNode]>,
}

impl PlanNode {
    fn new<const N: usize>(op: Op, children: [PlanNode; N]) -> PlanNode {
        PlanNode { op: Arc::new(op), children: Arc::new(children) }
    }

    /// Leaf scan builder.
    pub fn scan<S: Into<String>>(
        table: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
    ) -> PlanNode {
        let columns = columns.into_iter().map(Into::into).collect();
        PlanNode::new(Op::scan(table, columns, None), [])
    }

    /// Push `predicate` into a scan that has none yet; any other node — a
    /// scan that already filters included — is wrapped in a `Select`.
    pub fn filter(mut self, predicate: Predicate) -> PlanNode {
        if !matches!(*self.op, Op::Scan { predicate: None, .. }) {
            return self.select(predicate);
        }
        if let Op::Scan { columns, predicate: slot, reads, .. } = Arc::make_mut(&mut self.op) {
            *reads = ScanReads::of(columns, Some(&predicate));
            *slot = Some(predicate);
        }
        self
    }

    /// Filter this node's output in a `Select` of its own (never merged
    /// into a scan).
    pub fn select(self, predicate: Predicate) -> PlanNode {
        PlanNode::new(Op::Select { predicate }, [self])
    }

    /// Inner hash join with `self` as probe side.
    pub fn join(
        self,
        build: PlanNode,
        probe_key: impl Into<String>,
        build_key: impl Into<String>,
    ) -> PlanNode {
        self.join_kind(build, probe_key, build_key, JoinKind::Inner)
    }

    /// Inner, semi or anti join with `self` as probe side.
    pub fn join_kind(
        self,
        build: PlanNode,
        probe_key: impl Into<String>,
        build_key: impl Into<String>,
        kind: JoinKind,
    ) -> PlanNode {
        let op =
            Op::HashJoin { build_key: build_key.into(), probe_key: probe_key.into(), kind };
        PlanNode::new(op, [build, self])
    }

    /// Projection builder.
    pub fn project(self, exprs: Vec<(impl Into<String>, Expr)>) -> PlanNode {
        let exprs = exprs.into_iter().map(|(n, e)| (n.into(), e)).collect();
        PlanNode::new(Op::Project { exprs }, [self])
    }

    /// Aggregation builder.
    pub fn aggregate<S: Into<String>>(
        self,
        group_by: impl IntoIterator<Item = S>,
        aggs: Vec<AggSpec>,
    ) -> PlanNode {
        let group_by = group_by.into_iter().map(Into::into).collect();
        PlanNode::new(Op::Aggregate { group_by, aggs }, [self])
    }

    /// Sort builder.
    pub fn sort(self, keys: Vec<SortKey>) -> PlanNode {
        PlanNode::new(Op::Sort { keys, limit: None }, [self])
    }

    /// Top-k builder.
    pub fn top_k(self, keys: Vec<SortKey>, limit: usize) -> PlanNode {
        PlanNode::new(Op::Sort { keys, limit: Some(limit) }, [self])
    }

    /// This node's operator, shared with every clone of the plan and every
    /// task flattened from it.
    pub fn op(&self) -> &Arc<Op> {
        &self.op
    }

    /// Child nodes, build side first for joins.
    pub fn children(&self) -> &[PlanNode] {
        &self.children
    }

    /// Number of operators in the plan.
    pub fn num_operators(&self) -> usize {
        1 + self.children.iter().map(PlanNode::num_operators).sum::<usize>()
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(node: &PlanNode, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(f, "{}{}", "  ".repeat(depth), node.op.label())?;
            for c in node.children() {
                rec(c, depth + 1, f)?;
            }
            Ok(())
        }
        rec(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_revenue", "lo_orderdate"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .join(
                PlanNode::scan("date", ["d_datekey", "d_year"])
                    .filter(Predicate::eq("d_year", 1993)),
                "lo_orderdate",
                "d_datekey",
            )
            .aggregate(
                ["d_year"],
                vec![AggSpec::sum(Expr::col("lo_revenue"), "revenue")],
            )
    }

    #[test]
    fn builders_produce_expected_shape() {
        let p = sample_plan();
        assert_eq!(p.num_operators(), 4);
        assert!(matches!(**p.op(), Op::Aggregate { .. }));
        let join = &p.children()[0];
        assert!(matches!(**join.op(), Op::HashJoin { .. }));
        // Build side first, then probe.
        let tables: Vec<_> =
            join.children().iter().map(|c| c.op().scan_access().unwrap().0).collect();
        assert_eq!(tables, ["date", "lineorder"]);
    }

    #[test]
    fn filter_merges_into_scan() {
        let p = PlanNode::scan("t", ["a"]).filter(Predicate::eq("b", 1));
        assert!(matches!(**p.op(), Op::Scan { predicate: Some(_), .. }), "got {p:?}");
        // A second filter wraps in a Select, and so does `select` at once.
        let p = p.filter(Predicate::eq("a", 2));
        assert!(matches!(**p.op(), Op::Select { .. }));
        let p = PlanNode::scan("t", ["a"]).select(Predicate::eq("a", 2));
        assert!(matches!(**p.op(), Op::Select { .. }));
        assert!(matches!(**p.children()[0].op(), Op::Scan { predicate: None, .. }));
    }

    #[test]
    fn filtering_a_shared_scan_leaves_the_original_untouched() {
        let scan = PlanNode::scan("t", ["a"]);
        let filtered = scan.clone().filter(Predicate::eq("b", 1));
        assert!(matches!(**scan.op(), Op::Scan { predicate: None, .. }));
        assert!(matches!(**filtered.op(), Op::Scan { predicate: Some(_), .. }));
    }

    #[test]
    fn scan_access_includes_predicate_columns() {
        let p = PlanNode::scan("t", ["a"]).filter(Predicate::eq("b", 1));
        let (table, cols) = p.op().scan_access().unwrap();
        assert_eq!(table, "t");
        assert_eq!(cols, vec!["a", "b"]);
        // No duplicates when predicate references an output column.
        let p = PlanNode::scan("t", ["a"]).filter(Predicate::eq("a", 1));
        let (_, cols) = p.op().scan_access().unwrap();
        assert_eq!(cols, vec!["a"]);
    }

    #[test]
    fn non_scans_have_no_scan_access() {
        assert!(sample_plan().op().scan_access().is_none());
    }

    #[test]
    fn display_indents_tree() {
        let s = sample_plan().to_string();
        assert!(s.contains("aggregate"));
        assert!(s.contains("\n  join"));
        assert!(s.contains("\n    scan(date"));
    }

    #[test]
    fn top_k_has_limit() {
        let p = PlanNode::scan("t", ["a"]).top_k(vec![SortKey::desc("a")], 10);
        assert!(matches!(**p.op(), Op::Sort { limit: Some(10), .. }), "got {p:?}");
    }
}
