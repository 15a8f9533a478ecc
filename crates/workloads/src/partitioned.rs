//! Multi-co-processor scale-up via horizontal partitioning (Section 6.3).
//!
//! The paper's discussion: a single co-processor's memory bounds the
//! workloads it can accelerate, and "it is common to use multiple GPUs in
//! a single machine … Our Data-Driven strategy can support multiple
//! co-processors by performing horizontal partitioning."
//!
//! This module implements that sketch: the fact table is split row-wise
//! into `n` partitions, dimensions are replicated, and each partition runs
//! on its own simulated machine (one co-processor each) *in parallel* —
//! makespan is the maximum over partitions, transfers and aborts are
//! summed. Per-partition partial results are merged exactly:
//!
//! * aggregate-rooted plans (all SSB queries) re-aggregate the
//!   concatenated partials — `SUM`/`COUNT` merge by summation, `MIN`/`MAX`
//!   by re-applying themselves; `AVG` roots are rejected (they are not
//!   decomposable without a rewrite);
//! * a `Sort`/top-k on top of an aggregate is re-applied after the merge;
//! * plans without a grouping root simply concatenate.

use crate::runner::{RunnerConfig, WorkloadRunner};
use robustq_core::Strategy;
use robustq_engine::expr::Expr;
use robustq_engine::ops;
use robustq_engine::plan::{AggFunc, AggSpec, Op, PlanNode};
use robustq_engine::{Chunk, ParallelCtx, RunMetrics};
use robustq_sim::{SimConfig, VirtualTime};
use robustq_storage::{ColumnData, Database, Table};
use std::sync::Arc;

/// Split `db`'s `fact_table` row-wise into `n` partitions, replicating
/// every other table (a replica shares the original's columns).
pub fn partition(db: &Database, fact_table: &str, n: usize) -> Result<Vec<Database>, String> {
    let n = n.max(1);
    let fact = db
        .table(fact_table)
        .ok_or_else(|| format!("no table {fact_table}"))?;
    let rows = fact.num_rows();
    let mut parts = Vec::with_capacity(n);
    for p in 0..n {
        let lo = rows * p / n;
        let hi = rows * (p + 1) / n;
        let positions: Vec<u32> = (lo as u32..hi as u32).collect();
        let mut part_db = Database::new();
        for t in db.tables() {
            let table = if t.name() == fact_table {
                let columns: Vec<ColumnData> =
                    t.columns().iter().map(|c| c.gather(&positions)).collect();
                Table::new(t.name(), t.schema().clone(), columns)
                    .map_err(|e| e.to_string())?
            } else {
                t.clone()
            };
            part_db.add_table(table).map_err(|e| e.to_string())?;
        }
        parts.push(part_db);
    }
    Ok(parts)
}

/// Outcome of a partitioned run for one query.
#[derive(Debug, Clone)]
pub struct PartitionedQueryResult {
    /// The exact merged result.
    pub result: Chunk,
    /// Slowest partition's latency (partitions run in parallel).
    pub latency: VirtualTime,
}

/// Outcome of a partitioned workload run.
#[derive(Debug, Clone)]
pub struct PartitionedReport {
    /// Makespan = the slowest partition's makespan.
    pub makespan: VirtualTime,
    /// Summed metrics across partitions (transfers, aborts, …).
    pub total: RunMetrics,
    /// Per-query merged results, in workload order.
    pub queries: Vec<PartitionedQueryResult>,
}

/// Merge per-partition results of `plan` into the exact global result.
///
/// The merge looks *through* the root's `Sort` and reordering `Project`
/// wrappers for the grouping aggregate (the planner places both above it):
/// partials are concatenated and re-aggregated on the aggregate's output
/// names, restored to the partials' column order, and the outermost sort
/// is re-applied.
pub fn merge_partials(plan: &PlanNode, partials: &[Chunk]) -> Result<Chunk, String> {
    // Walk down through Sort/Project to the aggregate, remembering the
    // outermost sort.
    let mut sort: Option<(&[robustq_engine::plan::SortKey], Option<usize>)> = None;
    let mut node = plan;
    let agg = loop {
        match &**node.op() {
            Op::Sort { keys, limit } => {
                if sort.is_none() {
                    sort = Some((keys.as_slice(), *limit));
                }
            }
            Op::Project { .. } => {}
            Op::Aggregate { group_by, aggs } => break Some((group_by, aggs)),
            _ => break None,
        }
        node = &node.children()[0];
    };

    let merged = match agg {
        Some((group_by, aggs)) => {
            for a in aggs {
                if a.func == AggFunc::Avg {
                    return Err(
                        "AVG roots are not decomposable across partitions".into()
                    );
                }
            }
            let concat = Chunk::concat(partials)?;
            // Re-aggregate the partials: SUM/COUNT merge by summing the
            // partial column, MIN/MAX by re-applying themselves.
            let merge_aggs: Vec<AggSpec> = aggs
                .iter()
                .map(|a| {
                    let func = match a.func {
                        AggFunc::Sum | AggFunc::Count => AggFunc::Sum,
                        other => other,
                    };
                    AggSpec::new(func, Expr::col(&a.output_name), a.output_name.clone())
                })
                .collect();
            let merged =
                ops::agg::aggregate(&concat, None, group_by, &merge_aggs, ParallelCtx::serial())?;
            let merged = restore_count_types(merged, aggs)?;
            // Back to the partials' (possibly projected) column order.
            let order: Vec<Arc<str>> = partials[0]
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect();
            ops::project::keep_columns(&merged, &order)?
        }
        None => Chunk::concat(partials)?,
    };
    match sort {
        Some((keys, limit)) => ops::sort::sort(&merged, keys, limit),
        None => Ok(merged),
    }
}

/// Cast merged COUNT outputs back to their original Int64 type.
fn restore_count_types(chunk: Chunk, aggs: &[AggSpec]) -> Result<Chunk, String> {
    let needs_cast: Vec<&str> = aggs
        .iter()
        .filter(|a| a.func == AggFunc::Count)
        .map(|a| a.output_name.as_str())
        .collect();
    if needs_cast.is_empty() {
        return Ok(chunk);
    }
    let mut fields = chunk.fields().to_vec();
    let mut columns = chunk.columns().to_vec();
    for (f, c) in fields.iter_mut().zip(columns.iter_mut()) {
        if needs_cast.contains(&&*f.name) {
            if let ColumnData::Float64(v) = &**c {
                *c = Arc::new(ColumnData::Int64(v.iter().map(|&x| x as i64).collect()));
                f.data_type = robustq_storage::DataType::Int64;
            }
        }
    }
    Ok(Chunk::from_shared(fields, columns))
}

/// Run `queries` on `parts` partitions in parallel (each on its own
/// simulated machine shaped by `sim`), merging results exactly.
pub fn run_partitioned(
    parts: &[Database],
    sim: &SimConfig,
    queries: &[PlanNode],
    strategy: Strategy,
    cfg: &RunnerConfig,
) -> Result<PartitionedReport, String> {
    if parts.is_empty() {
        return Err("no partitions".into());
    }
    let mut reports = Vec::with_capacity(parts.len());
    for db in parts {
        let runner = WorkloadRunner::new(db, sim.clone());
        let mut capture = cfg.clone();
        capture.exec.capture_results = true;
        reports.push(runner.run(queries, strategy, &capture)?);
    }

    let makespan = reports
        .iter()
        .map(|r| r.metrics.makespan)
        .max()
        .unwrap_or(VirtualTime::ZERO);
    let mut total = RunMetrics::default();
    for r in &reports {
        total.h2d_time += r.metrics.h2d_time;
        total.h2d_bytes += r.metrics.h2d_bytes;
        total.d2h_time += r.metrics.d2h_time;
        total.d2h_bytes += r.metrics.d2h_bytes;
        total.aborts += r.metrics.aborts;
        total.wasted_time += r.metrics.wasted_time;
        total.queries += r.metrics.queries;
        for (d, busy) in r.metrics.device_busy.iter() {
            *total.device_busy.get_mut_or_grow(d) += *busy;
        }
        for (d, ops) in r.metrics.ops_completed.iter() {
            *total.ops_completed.get_mut_or_grow(d) += *ops;
        }
    }
    total.makespan = makespan;

    let mut merged_queries = Vec::with_capacity(queries.len());
    for (k, plan) in queries.iter().enumerate() {
        let mut partials = Vec::with_capacity(parts.len());
        let mut latency = VirtualTime::ZERO;
        for r in &reports {
            let outcome = r
                .outcomes
                .iter()
                .find(|o| o.session == k % cfg.users.max(1) && o.seq == k / cfg.users.max(1))
                .ok_or("partition outcome missing")?;
            latency = latency.max(outcome.latency);
            partials.push(
                outcome.result.clone().ok_or("partition result not captured")?,
            );
        }
        let result = merge_partials(plan, &partials)?;
        merged_queries.push(PartitionedQueryResult { result, latency });
    }
    Ok(PartitionedReport { makespan, total, queries: merged_queries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssb::SsbQuery;
    use robustq_storage::gen::ssb::SsbGenerator;

    fn db() -> Database {
        SsbGenerator::new(2).with_rows_per_sf(2_000).generate()
    }

    #[test]
    fn partitions_split_the_fact_and_replicate_dims() {
        let db = db();
        let parts = partition(&db, "lineorder", 3).unwrap();
        assert_eq!(parts.len(), 3);
        let total: usize =
            parts.iter().map(|p| p.table("lineorder").unwrap().num_rows()).sum();
        assert_eq!(total, db.table("lineorder").unwrap().num_rows());
        for p in &parts {
            assert_eq!(
                p.table("customer").unwrap().num_rows(),
                db.table("customer").unwrap().num_rows()
            );
        }
    }

    /// Rows must match exactly, except floats which may differ by
    /// summation order (relative 1e-9).
    fn assert_rows_close(got: &Chunk, expected: &Chunk, label: &str) {
        use robustq_storage::Value;
        let (g, e) = (got.sorted_rows(), expected.sorted_rows());
        assert_eq!(g.len(), e.len(), "{label}: row counts differ");
        for (gr, er) in g.iter().zip(&e) {
            for (gv, ev) in gr.iter().zip(er) {
                match (gv, ev) {
                    (Value::Float64(a), Value::Float64(b)) => {
                        let tol = 1e-9 * b.abs().max(1.0);
                        assert!((a - b).abs() <= tol, "{label}: {a} vs {b}");
                    }
                    _ => assert_eq!(gv, ev, "{label}"),
                }
            }
        }
    }

    #[test]
    fn merged_results_equal_single_machine_results() {
        let db = db();
        let parts = partition(&db, "lineorder", 2).unwrap();
        let sim = SimConfig::default();
        for q in [SsbQuery::Q1_1, SsbQuery::Q2_1, SsbQuery::Q3_1, SsbQuery::Q4_2] {
            let plan = q.plan(&db).unwrap();
            let expected = ops::execute_plan(&plan, &db).unwrap();
            let report = run_partitioned(
                &parts,
                &sim,
                std::slice::from_ref(&plan),
                Strategy::DataDrivenChopping,
                &RunnerConfig::default(),
            )
            .unwrap();
            assert_rows_close(&report.queries[0].result, &expected, q.name());
        }
    }

    #[test]
    fn count_merges_and_keeps_int_type() {
        use robustq_engine::predicate::Predicate;
        let db = db();
        let parts = partition(&db, "lineorder", 3).unwrap();
        let plan = PlanNode::scan("lineorder", ["lo_discount"])
            .filter(Predicate::between("lo_discount", 2, 5))
            .aggregate(["lo_discount"], vec![AggSpec::count("n")]);
        let expected = ops::execute_plan(&plan, &db).unwrap();
        let report = run_partitioned(
            &parts,
            &SimConfig::default(),
            std::slice::from_ref(&plan),
            Strategy::CpuOnly,
            &RunnerConfig::default(),
        )
        .unwrap();
        let got = &report.queries[0].result;
        assert_rows_close(got, &expected, "count merge");
        assert_eq!(
            got.column_type("n"),
            Some(robustq_storage::DataType::Int64),
            "COUNT stays integer after the merge"
        );
    }

    #[test]
    fn avg_roots_are_rejected() {
        let db = db();
        let parts = partition(&db, "lineorder", 2).unwrap();
        let plan = PlanNode::scan("lineorder", ["lo_quantity"]).aggregate(
            [] as [&str; 0],
            vec![AggSpec::new(AggFunc::Avg, Expr::col("lo_quantity"), "a")],
        );
        let err = run_partitioned(
            &parts,
            &SimConfig::default(),
            std::slice::from_ref(&plan),
            Strategy::CpuOnly,
            &RunnerConfig::default(),
        )
        .unwrap_err();
        assert!(err.contains("AVG"));
    }

    #[test]
    fn parallel_partitions_cut_makespan_under_scarcity() {
        // A machine whose cache holds half the working set: one machine
        // thrashes under GPU-only, two partitions fit.
        let db = db();
        let queries: Vec<PlanNode> =
            crate::micro::serial_selection_workload(4).to_vec();
        let ws: u64 = crate::micro::SERIAL_SELECTIONS
            .iter()
            .map(|(c, _, _)| db.column_size(db.column_id("lineorder", c).unwrap()))
            .sum();
        let sim = SimConfig::default()
            .with_gpu_memory(ws * 4)
            .with_gpu_cache(ws * 6 / 10);
        let single = WorkloadRunner::new(&db, sim.clone())
            .run(
                &queries,
                Strategy::GpuPreferred,
                &RunnerConfig::default().with_placement_period(queries.len()),
            )
            .unwrap();
        let parts = partition(&db, "lineorder", 2).unwrap();
        let two = run_partitioned(
            &parts,
            &sim,
            &queries,
            Strategy::GpuPreferred,
            &RunnerConfig::default().with_placement_period(queries.len()),
        )
        .unwrap();
        assert!(
            two.makespan.as_nanos() * 2 < single.metrics.makespan.as_nanos(),
            "two co-processors must break the thrashing: {} vs {}",
            two.makespan,
            single.metrics.makespan
        );
    }
}
