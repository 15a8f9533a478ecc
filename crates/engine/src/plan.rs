//! Physical query plans.
//!
//! A plan is a tree of materializing operators. Leaves are table scans
//! (with pushed-down predicates and projections, as CoGaDB's optimizer
//! produces); inner nodes are joins, post-join selections, projections,
//! group-by aggregations and sorts.

use crate::expr::Expr;
use crate::predicate::Predicate;
use std::fmt;

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

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan a base table, applying an optional pushed-down predicate, and
    /// output the named columns.
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
    },
    /// Filter an intermediate result.
    Select {
        /// The filtered child.
        input: Box<PlanNode>,
        /// The filter.
        predicate: Predicate,
    },
    /// Hash equi-join. The hash table is built over `build`.
    HashJoin {
        /// The (hashed) build side.
        build: Box<PlanNode>,
        /// The probe side.
        probe: Box<PlanNode>,
        /// Key column on the build side.
        build_key: String,
        /// Key column on the probe side.
        probe_key: String,
        /// Inner, semi or anti.
        kind: JoinKind,
    },
    /// Compute named expressions.
    Project {
        /// The projected child.
        input: Box<PlanNode>,
        /// `(output name, expression)` pairs.
        exprs: Vec<(String, Expr)>,
    },
    /// Group-by aggregation. An empty `group_by` produces one total row.
    Aggregate {
        /// The aggregated child.
        input: Box<PlanNode>,
        /// Grouping key columns.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Sort, optionally keeping only the first `limit` rows (top-k).
    Sort {
        /// The sorted child.
        input: Box<PlanNode>,
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
        /// Keep only the first `limit` rows, if set.
        limit: Option<usize>,
    },
}

impl PlanNode {
    /// Leaf scan builder.
    pub fn scan<S: Into<String>>(
        table: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
    ) -> PlanNode {
        PlanNode::Scan {
            table: table.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            predicate: None,
        }
    }

    /// Attach / replace the predicate of a scan, or wrap any other node in
    /// a `Select`.
    pub fn filter(self, predicate: Predicate) -> PlanNode {
        match self {
            PlanNode::Scan { table, columns, predicate: None } => {
                PlanNode::Scan { table, columns, predicate: Some(predicate) }
            }
            other => PlanNode::Select { input: Box::new(other), predicate },
        }
    }

    /// Inner hash join with `self` as probe side.
    pub fn join(
        self,
        build: PlanNode,
        probe_key: impl Into<String>,
        build_key: impl Into<String>,
    ) -> PlanNode {
        PlanNode::HashJoin {
            build: Box::new(build),
            probe: Box::new(self),
            build_key: build_key.into(),
            probe_key: probe_key.into(),
            kind: JoinKind::Inner,
        }
    }

    /// Semi/anti join with `self` as probe side.
    pub fn join_kind(
        self,
        build: PlanNode,
        probe_key: impl Into<String>,
        build_key: impl Into<String>,
        kind: JoinKind,
    ) -> PlanNode {
        PlanNode::HashJoin {
            build: Box::new(build),
            probe: Box::new(self),
            build_key: build_key.into(),
            probe_key: probe_key.into(),
            kind,
        }
    }

    /// Projection builder.
    pub fn project(self, exprs: Vec<(impl Into<String>, Expr)>) -> PlanNode {
        PlanNode::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(n, e)| (n.into(), e)).collect(),
        }
    }

    /// Aggregation builder.
    pub fn aggregate<S: Into<String>>(
        self,
        group_by: impl IntoIterator<Item = S>,
        aggs: Vec<AggSpec>,
    ) -> PlanNode {
        PlanNode::Aggregate {
            input: Box::new(self),
            group_by: group_by.into_iter().map(Into::into).collect(),
            aggs,
        }
    }

    /// Sort builder.
    pub fn sort(self, keys: Vec<SortKey>) -> PlanNode {
        PlanNode::Sort { input: Box::new(self), keys, limit: None }
    }

    /// Top-k builder.
    pub fn top_k(self, keys: Vec<SortKey>, limit: usize) -> PlanNode {
        PlanNode::Sort { input: Box::new(self), keys, limit: Some(limit) }
    }

    /// Child nodes, build side first for joins.
    pub fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::Scan { .. } => Vec::new(),
            PlanNode::Select { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Sort { input, .. } => vec![input],
            PlanNode::HashJoin { build, probe, .. } => vec![build, probe],
        }
    }

    /// For scans: the table and the full set of base columns *read* —
    /// the output columns, then the predicate's other references. Names
    /// are borrowed from the plan.
    pub fn scan_access(&self) -> Option<(&str, Vec<&str>)> {
        match self {
            PlanNode::Scan { table, columns, predicate } => {
                Some((table.as_str(), scan_read_columns(columns, predicate.as_ref())))
            }
            _ => None,
        }
    }

    /// Number of operators in the plan.
    pub fn num_operators(&self) -> usize {
        1 + self.children().iter().map(|c| c.num_operators()).sum::<usize>()
    }

    /// Short operator label for plan display and metrics.
    pub fn label(&self) -> String {
        match self {
            PlanNode::Scan { table, predicate, .. } => match predicate {
                Some(p) => format!("scan({table}, {p})"),
                None => format!("scan({table})"),
            },
            PlanNode::Select { predicate, .. } => format!("select({predicate})"),
            PlanNode::HashJoin { build_key, probe_key, kind, .. } => {
                format!("join[{kind:?}]({probe_key} = {build_key})")
            }
            PlanNode::Project { exprs, .. } => {
                format!(
                    "project({})",
                    exprs.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(", ")
                )
            }
            PlanNode::Aggregate { group_by, aggs, .. } => format!(
                "aggregate(by: [{}], {} aggs)",
                group_by.join(", "),
                aggs.len()
            ),
            PlanNode::Sort { keys, limit, .. } => match limit {
                Some(l) => format!("top{}({})", l, keys.len()),
                None => format!("sort({} keys)", keys.len()),
            },
        }
    }
}

/// The base columns a scan reads: its output `columns`, then the
/// predicate's other references, each once. Names are borrowed.
pub(crate) fn scan_read_columns<'a>(
    columns: &'a [String],
    predicate: Option<&'a Predicate>,
) -> Vec<&'a str> {
    let mut cols: Vec<&str> = columns.iter().map(String::as_str).collect();
    if let Some(p) = predicate {
        p.for_each_column(&mut |c| {
            if !cols.contains(&c) {
                cols.push(c);
            }
        });
    }
    cols
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(node: &PlanNode, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(f, "{}{}", "  ".repeat(depth), node.label())?;
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
        assert!(matches!(p, PlanNode::Aggregate { .. }));
        let agg_children = p.children();
        let join = agg_children[0];
        assert!(matches!(join, PlanNode::HashJoin { .. }));
        assert_eq!(join.children().len(), 2);
    }

    #[test]
    fn filter_merges_into_scan() {
        let p = PlanNode::scan("t", ["a"]).filter(Predicate::eq("b", 1));
        match &p {
            PlanNode::Scan { predicate: Some(_), .. } => {}
            other => panic!("expected scan with predicate, got {other:?}"),
        }
        // A second filter wraps in a Select.
        let p = p.filter(Predicate::eq("a", 2));
        assert!(matches!(p, PlanNode::Select { .. }));
    }

    #[test]
    fn scan_access_includes_predicate_columns() {
        let p = PlanNode::scan("t", ["a"]).filter(Predicate::eq("b", 1));
        let (table, cols) = p.scan_access().unwrap();
        assert_eq!(table, "t");
        assert_eq!(cols, vec!["a", "b"]);
        // No duplicates when predicate references an output column.
        let p = PlanNode::scan("t", ["a"]).filter(Predicate::eq("a", 1));
        let (_, cols) = p.scan_access().unwrap();
        assert_eq!(cols, vec!["a"]);
    }

    #[test]
    fn non_scans_have_no_scan_access() {
        assert!(sample_plan().scan_access().is_none());
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
        match p {
            PlanNode::Sort { limit: Some(10), .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
