//! Operator kernels.
//!
//! Each hot operator is **one production function** over the row stream
//! it reads — `(chunk, Option<&SelVec>)` — and a [`ParallelCtx`], with the
//! morsel loop inside it: [`select::select`], [`join::hash_join`],
//! [`agg::aggregate`]. The same kernel code runs regardless of the
//! *simulated* device — what differs between CPU and co-processor
//! execution is the virtual time charged and the device memory accounted
//! by the executor (`exec`), never the result — and regardless of the
//! worker count. What each kernel must return is defined by its plain
//! twin in [`crate::reference`].
//!
//! A whole plan runs two ways, both here without a simulator:
//! [`execute_plan`] is the materializing oracle, [`execute_plan_fused`]
//! the production data path the executor schedules task by task.

pub mod agg;
pub(crate) mod hashtbl;
pub mod join;
pub mod project;
pub mod select;
pub mod sort;

use crate::batch::{Chunk, LazyChunk};
use crate::exec::task::{flatten, run_postorder};
use crate::parallel::ParallelCtx;
use crate::plan::PlanNode;
use robustq_storage::Database;

/// Execute a whole plan tree on the host, one fully materialized operator
/// at a time, without any simulation. This is the oracle tests hold every
/// executor result against.
pub fn execute_plan(node: &PlanNode, db: &Database) -> Result<Chunk, String> {
    execute_plan_ctx(node, db, ParallelCtx::serial())
}

/// [`execute_plan`] with an explicit parallelism context: the flattened
/// plan in postorder through [`crate::plan::Op::execute_ctx`].
pub fn execute_plan_ctx(
    node: &PlanNode,
    db: &Database,
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    run_postorder(&flatten(node), |task, children| task.op.execute_ctx(&children, db, ctx))
}

/// Execute a plan on the production data path with no simulator around
/// it: the flattened plan in postorder through
/// [`crate::plan::Op::execute_lazy`] — what the executor runs
/// per task — with one final materialization. A filter's output is a
/// selection vector its consumer reads through, so filter → aggregate,
/// filter → probe and filter → project chains never materialize the
/// filtered intermediate. Bit-identical to [`execute_plan_ctx`].
pub fn execute_plan_fused(
    node: &PlanNode,
    db: &Database,
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    run_postorder(&flatten(node), |task, children: Vec<LazyChunk>| {
        task.op.execute_lazy(&children, db, ctx)
    })
    .map(LazyChunk::materialize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::AggSpec;
    use crate::predicate::Predicate;
    use robustq_storage::gen::ssb::SsbGenerator;
    use robustq_storage::{ColumnData, DataType, Field, Schema, Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(
            Table::new(
                "facts",
                Schema::new(vec![
                    Field::new("k", DataType::Int32),
                    Field::new("v", DataType::Float64),
                ]),
                vec![
                    ColumnData::Int32(vec![1, 2, 1, 3]),
                    ColumnData::Float64(vec![10.0, 20.0, 30.0, 40.0]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_table(
            Table::new(
                "dim",
                Schema::new(vec![
                    Field::new("id", DataType::Int32),
                    Field::new("grp", DataType::Int32),
                ]),
                vec![
                    ColumnData::Int32(vec![1, 2]),
                    ColumnData::Int32(vec![100, 200]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn end_to_end_plan_execution() {
        let db = db();
        let plan = PlanNode::scan("facts", ["k", "v"])
            .join(PlanNode::scan("dim", ["id", "grp"]), "k", "id")
            .aggregate(["grp"], vec![AggSpec::sum(Expr::col("v"), "total")]);
        let out = execute_plan(&plan, &db).unwrap();
        let mut rows = out.sorted_rows();
        rows.sort_by_key(|r| r[0].as_i64());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Int32(100), Value::Float64(40.0)]);
        assert_eq!(rows[1], vec![Value::Int32(200), Value::Float64(20.0)]);
    }

    #[test]
    fn scan_projects_away_predicate_columns() {
        let db = db();
        let plan =
            PlanNode::scan("facts", ["v"]).filter(Predicate::eq("k", 1));
        let out = execute_plan(&plan, &db).unwrap();
        assert_eq!(out.num_columns(), 1);
        assert_eq!(out.num_rows(), 2);
        assert!(out.column("k").is_none());
    }

    #[test]
    fn missing_table_is_an_error() {
        let db = db();
        let plan = PlanNode::scan("nope", ["x"]);
        assert!(execute_plan(&plan, &db).is_err());
    }

    fn test_ctx(workers: usize) -> ParallelCtx {
        ParallelCtx::serial()
            .with_workers(workers)
            .with_morsel_rows(64)
            .with_min_rows_per_worker(0)
    }

    /// Scan-sourced filter → aggregate (the planner pushes the filter
    /// into the scan).
    fn agg_plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue", "lo_discount"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .aggregate(
                ["lo_orderdate"],
                vec![AggSpec::sum(Expr::col("lo_revenue"), "revenue")],
            )
    }

    /// Select-sourced filter → aggregate: the second filter cannot merge
    /// into the scan, so it stays a standalone `Select` task.
    fn select_agg_plan() -> PlanNode {
        PlanNode::scan(
            "lineorder",
            ["lo_orderdate", "lo_revenue", "lo_discount", "lo_quantity"],
        )
        .filter(Predicate::between("lo_discount", 1, 3))
        .filter(Predicate::between("lo_quantity", 1, 25))
        .aggregate([] as [&str; 0], vec![AggSpec::sum(Expr::col("lo_revenue"), "s")])
    }

    fn proj_agg_plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue", "lo_discount"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .project(vec![
                ("od".to_string(), Expr::col("lo_orderdate")),
                (
                    "scaled".to_string(),
                    Expr::col("lo_revenue") * Expr::col("lo_discount"),
                ),
            ])
            .aggregate(["od"], vec![AggSpec::sum(Expr::col("scaled"), "s")])
    }

    fn probe_plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue", "lo_discount"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .join(
                PlanNode::scan("date", ["d_datekey", "d_year"]),
                "lo_orderdate",
                "d_datekey",
            )
    }

    #[test]
    fn computed_group_keys_match_the_oracle() {
        let plan = PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue"])
            .filter(Predicate::between("lo_orderdate", 19_940_101, 19_941_231))
            .project(vec![
                ("year".to_string(), Expr::year_of("lo_orderdate")),
                ("r".to_string(), Expr::col("lo_revenue")),
            ])
            .aggregate(["year"], vec![AggSpec::sum(Expr::col("r"), "s")]);
        let db = SsbGenerator::new(1).with_rows_per_sf(400).generate();
        let fused = execute_plan_fused(&plan, &db, test_ctx(4)).unwrap();
        let serial = execute_plan(&plan, &db).unwrap();
        assert_eq!(fused, serial);
    }

    #[test]
    fn pruned_scan_column_errors_match_the_oracle() {
        // The aggregate reads a column the scan prunes away: reading
        // through the selection must not rescue the query — the "no
        // column" error is part of the contract with the materializing
        // path.
        let plan = PlanNode::scan("lineorder", ["lo_revenue"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .aggregate(
                [] as [&str; 0],
                vec![AggSpec::sum(Expr::col("lo_discount"), "s")],
            );
        let db = SsbGenerator::new(1).with_rows_per_sf(200).generate();
        let serial = execute_plan(&plan, &db).unwrap_err();
        let fused = execute_plan_fused(&plan, &db, test_ctx(4)).unwrap_err();
        assert_eq!(fused, serial);
    }

    #[test]
    fn fused_execution_is_bit_identical_to_serial() {
        let db = SsbGenerator::new(1).with_rows_per_sf(600).generate();
        for plan in [agg_plan(), select_agg_plan(), proj_agg_plan(), probe_plan()] {
            let serial = execute_plan(&plan, &db).unwrap();
            for workers in [1, 4, 8] {
                let fused = execute_plan_fused(&plan, &db, test_ctx(workers)).unwrap();
                assert_eq!(fused, serial, "workers={workers} plan={plan}");
            }
        }
    }
}
