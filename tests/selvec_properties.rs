//! Property tests: selection-vector kernels and fused pipelines are
//! **bit-identical** to the materializing paths.
//!
//! The selection-vector rework (DESIGN.md §5) replaced mask+gather
//! filtering with position lists threaded through the downstream kernels.
//! These tests pin the equivalence on arbitrary chunks, predicates and
//! join keys:
//!
//! * `Predicate::evaluate_selvec` against the original mask evaluator
//!   (`select_via_mask`), including refinement of an incoming selection;
//! * `hash_join_sel` / `aggregate_sel` consuming a selection vector
//!   against filtering first and running the materializing kernel;
//! * the fused morsel loops (`fused_filter_aggregate`,
//!   `fused_filter_probe`) and the plan-level fusion pass
//!   (`execute_plan_fused`) against the serial operator-at-a-time
//!   pipeline, at worker counts 1 and 8.

use proptest::prelude::*;
use robustq::engine::ops;
use robustq::engine::parallel::{self, ParallelCtx};
use robustq::engine::plan::{AggFunc, AggSpec, JoinKind};
use robustq::engine::predicate::{CmpOp, Predicate};
use robustq::engine::{execute_plan_fused, Chunk};
use robustq::engine::expr::Expr;
use robustq::storage::{ColumnData, DataType, DictColumn, Field};

const WORKER_GRID: [usize; 2] = [1, 8];

const STR_POOL: [&str; 7] =
    ["ASIA", "EUROPE", "AMERICA", "AFRICA", "MIDDLE EAST", "x", ""];

/// One generated row: (i32, i64, float-source, string-pool index).
type Row = (i32, i64, i32, usize);

/// Build a chunk with one column of every `DataType` from generated rows.
fn chunk_of(rows: &[Row]) -> Chunk {
    Chunk::new(
        vec![
            Field::new("i32", DataType::Int32),
            Field::new("i64", DataType::Int64),
            Field::new("f64", DataType::Float64),
            Field::new("str", DataType::Str),
        ],
        vec![
            ColumnData::Int32(rows.iter().map(|r| r.0).collect()),
            ColumnData::Int64(rows.iter().map(|r| r.1).collect()),
            ColumnData::Float64(rows.iter().map(|r| r.2 as f64 / 3.0).collect()),
            ColumnData::Str(DictColumn::from_strings(
                rows.iter().map(|r| STR_POOL[r.3 % STR_POOL.len()].to_string()),
            )),
        ],
    )
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((-40i32..40, -9i64..9, -60i32..60, 0usize..7), 0..max)
}

fn predicate_for(which: usize) -> Predicate {
    match which % 6 {
        0 => Predicate::cmp("i32", CmpOp::Lt, 5),
        1 => Predicate::between("f64", -5.0, 8.0),
        2 => Predicate::in_list("str", ["ASIA", "x"]),
        3 => Predicate::StrPrefix { column: "str".into(), prefix: "A".into() },
        4 => Predicate::and([
            Predicate::cmp("i64", CmpOp::Ge, -3),
            Predicate::Not(Box::new(Predicate::eq("str", "EUROPE"))),
        ]),
        _ => Predicate::or([
            Predicate::eq("i32", 0),
            Predicate::cmp("f64", CmpOp::Gt, 10.0),
        ]),
    }
}

fn key_column(which: usize) -> &'static str {
    ["i32", "i64", "f64", "str"][which % 4]
}

fn join_kind(which: usize) -> JoinKind {
    [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti][which % 3]
}

fn fused_ctx(workers: usize) -> ParallelCtx {
    ParallelCtx::serial()
        .with_workers(workers)
        .with_morsel_rows(16)
        .with_min_rows_per_worker(0) // fan out even tiny chunks
}

fn agg_spec() -> (Vec<String>, Vec<AggSpec>) {
    (
        vec!["str".to_string(), "i32".to_string()],
        vec![
            AggSpec::sum(Expr::col("f64"), "sum"),
            AggSpec::count("cnt"),
            AggSpec::new(AggFunc::Min, Expr::col("f64"), "lo"),
            AggSpec::new(AggFunc::Max, Expr::col("i32"), "hi"),
            AggSpec::new(AggFunc::Avg, Expr::col("f64"), "avg"),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The selection-vector evaluator and the original mask+gather
    /// evaluator produce the same filtered chunk.
    #[test]
    fn selvec_select_matches_mask_select(
        rows in rows_strategy(200),
        which in 0usize..6,
    ) {
        let chunk = chunk_of(&rows);
        let pred = predicate_for(which);
        let via_mask = ops::select::select_via_mask(&chunk, &pred).unwrap();
        let via_selvec = ops::select::select(&chunk, &pred).unwrap();
        prop_assert_eq!(&via_selvec, &via_mask);
    }

    /// Refining an incoming selection vector equals evaluating the
    /// conjunction from scratch: positions stay sorted and deduplicated.
    #[test]
    fn selvec_refinement_matches_conjunction(
        rows in rows_strategy(200),
        first in 0usize..6,
        second in 0usize..6,
    ) {
        let chunk = chunk_of(&rows);
        let (p1, p2) = (predicate_for(first), predicate_for(second));
        let sel = p1.evaluate_selvec(&chunk, None).unwrap();
        let refined = p2.evaluate_selvec(&chunk, Some(&sel)).unwrap();
        let conj = Predicate::and([p1, p2]).evaluate_selvec(&chunk, None).unwrap();
        prop_assert_eq!(refined, conj);
    }

    /// Probing through a selection vector equals materializing the
    /// filtered probe side first.
    #[test]
    fn selvec_join_matches_filter_then_join(
        build_rows in rows_strategy(60),
        probe_rows in rows_strategy(200),
        key in 0usize..4,
        kind in 0usize..3,
        which in 0usize..6,
    ) {
        let build = chunk_of(&build_rows);
        let probe = chunk_of(&probe_rows);
        let (k, kind, pred) = (key_column(key), join_kind(kind), predicate_for(which));
        let filtered = ops::select::select_via_mask(&probe, &pred).unwrap();
        let reference = ops::join::hash_join(&build, &filtered, k, k, kind).unwrap();
        let sel = pred.evaluate_selvec(&probe, None).unwrap();
        let lazy =
            ops::join::hash_join_sel(&build, &probe, k, k, kind, Some(&sel)).unwrap();
        prop_assert_eq!(&lazy, &reference);
        for workers in WORKER_GRID {
            let fused = parallel::fused_filter_probe(
                &build, &probe, &pred, k, k, kind, fused_ctx(workers),
            ).unwrap();
            prop_assert_eq!(&fused, &reference, "workers={}", workers);
        }
    }

    /// Aggregating through a selection vector equals materializing the
    /// filtered input first, and the fused filter→aggregate morsel loop
    /// matches both.
    #[test]
    fn selvec_aggregate_matches_filter_then_aggregate(
        rows in rows_strategy(200),
        which in 0usize..6,
        num_keys in 0usize..3,
    ) {
        let chunk = chunk_of(&rows);
        let pred = predicate_for(which);
        let (all_keys, aggs) = agg_spec();
        let group_by = all_keys[..num_keys].to_vec();
        let filtered = ops::select::select_via_mask(&chunk, &pred).unwrap();
        let reference = ops::agg::aggregate(&filtered, &group_by, &aggs).unwrap();
        let sel = pred.evaluate_selvec(&chunk, None).unwrap();
        let lazy =
            ops::agg::aggregate_sel(&chunk, Some(&sel), &group_by, &aggs).unwrap();
        prop_assert_eq!(&lazy, &reference);
        for workers in WORKER_GRID {
            let fused = parallel::fused_filter_aggregate(
                &chunk, &pred, &group_by, &aggs, fused_ctx(workers),
            ).unwrap();
            prop_assert_eq!(&fused, &reference, "workers={}", workers);
        }
    }
}

/// Deterministic edge cases the random sizes may not hit in a given run.
#[test]
fn empty_and_single_row_chunks() {
    let (all_keys, aggs) = agg_spec();
    for rows in [vec![], vec![(3, -2, 10, 1)]] {
        let chunk = chunk_of(&rows);
        for which in 0..6 {
            let pred = predicate_for(which);
            let filtered = ops::select::select_via_mask(&chunk, &pred).unwrap();
            assert_eq!(ops::select::select(&chunk, &pred).unwrap(), filtered);
            for num_keys in 0..3 {
                let group_by = all_keys[..num_keys].to_vec();
                let reference =
                    ops::agg::aggregate(&filtered, &group_by, &aggs).unwrap();
                for workers in WORKER_GRID {
                    let fused = parallel::fused_filter_aggregate(
                        &chunk, &pred, &group_by, &aggs, fused_ctx(workers),
                    )
                    .unwrap();
                    assert_eq!(fused, reference, "workers={workers}");
                }
            }
        }
    }
}

/// Whole plans through the fusion pass give identical results (rows and
/// checksums) to the serial operator-at-a-time pipeline — the plan-level
/// guarantee behind the golden figures.
#[test]
fn full_ssb_plans_are_identical_fused_vs_serial() {
    use robustq::storage::gen::ssb::SsbGenerator;
    use robustq::workloads::SsbQuery;

    let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
    for q in SsbQuery::ALL {
        let plan = q.plan(&db).expect("plans");
        let serial = ops::execute_plan(&plan, &db).expect("serial runs");
        for workers in WORKER_GRID {
            let ctx = ParallelCtx::serial()
                .with_workers(workers)
                .with_morsel_rows(128)
                .with_min_rows_per_worker(0);
            let fused = execute_plan_fused(&plan, &db, ctx).expect("fused runs");
            assert_eq!(serial, fused, "{} diverged at {workers} workers", q.name());
            assert_eq!(serial.checksum(), fused.checksum());
        }
    }
}

/// TPC-H subset through the fusion pass, same guarantee.
#[test]
fn full_tpch_plans_are_identical_fused_vs_serial() {
    use robustq::storage::gen::tpch::TpchGenerator;
    use robustq::workloads::TpchQuery;

    let db = TpchGenerator::new(1).with_rows_per_sf(1_000).generate();
    for q in TpchQuery::ALL {
        let plan = q.plan();
        let serial = ops::execute_plan(&plan, &db).expect("serial runs");
        for workers in WORKER_GRID {
            let ctx = ParallelCtx::serial()
                .with_workers(workers)
                .with_morsel_rows(128)
                .with_min_rows_per_worker(0);
            let fused = execute_plan_fused(&plan, &db, ctx).expect("fused runs");
            assert_eq!(serial, fused, "{} diverged at {workers} workers", q.name());
        }
    }
}
