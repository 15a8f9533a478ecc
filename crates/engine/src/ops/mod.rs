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

pub mod agg;
pub mod compressed;
pub(crate) mod hashtbl;
pub mod join;
pub mod project;
pub mod select;
pub mod sort;

use crate::batch::Chunk;
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
/// plan in postorder through [`crate::exec::task::TaskOp::execute_ctx`].
pub fn execute_plan_ctx(
    node: &PlanNode,
    db: &Database,
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    run_postorder(&flatten(node), |task, children| task.op.execute_ctx(&children, db, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::AggSpec;
    use crate::predicate::Predicate;
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
}
