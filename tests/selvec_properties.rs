//! Property tests: selection-vector execution is **bit-identical** to the
//! materializing paths.
//!
//! Selections are position lists threaded through the downstream kernels
//! (DESIGN.md §5), never copied rows. These tests pin the equivalences
//! that makes safe, on arbitrary chunks, predicates and join keys:
//!
//! * the selection kernel against the mask-then-gather reference
//!   (`reference::select`), and refinement of an incoming selection
//!   against evaluating the conjunction from scratch;
//! * `hash_join` / `aggregate` consuming `(chunk, Some(sel))` — the fused
//!   filter→probe / filter→aggregate data path — against filtering first
//!   and running the reference kernel on the materialized intermediate,
//!   at worker counts 1 and 8;
//! * expressions and projection over the row stream `(chunk, sel)`
//!   against the same call on the gathered chunk, `Err` strings included;
//! * the two ways to run a plan — the materializing oracle
//!   (`ops::execute_plan`) and the production data path
//!   (`execute_plan_fused`: postorder `Op::execute_lazy`) — against
//!   each other over the SSB and TPC-H plans;
//! * the run form of a selection (`SelVec::run`) against the same
//!   positions listed, through every method and as a `LazyChunk`;
//! * accounting invariance: however a scan is sharded, filtered or
//!   windowed, every lazy task reports the `(num_rows, byte_size)` of the
//!   materialized oracle's output — the two numbers virtual time is
//!   computed from — and holds bit-identical rows; a predicate-free shard
//!   is a run and its merge dense;
//! * one estimate: the single pass admission makes over a flattened plan
//!   (`estimate::postorder`) against estimating every subtree on its own,
//!   to the bit, over the SSB, TPC-H and generated plans.

use proptest::prelude::*;
use robustq::engine::estimate::{self, Estimate};
use robustq::engine::exec::task::{flatten, Role, ShardSpec, TaskNode};
use robustq::engine::expr::Expr;
use robustq::engine::ops;
use robustq::engine::plan::{AggFunc, AggSpec, JoinKind, Op, PlanNode, SortKey};
use robustq::engine::predicate::{CmpOp, Predicate};
use robustq::engine::reference;
use robustq::engine::batch::Group;
use robustq::engine::{execute_plan_fused, Chunk, LazyChunk, ParallelCtx, SelVec};
use robustq::storage::{ColumnData, DataType, Database, DictColumn, Field, Schema, Table};
use std::ops::Range;
use std::sync::Arc;

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

    /// The selection kernel and the mask+gather reference produce the same
    /// filtered chunk.
    #[test]
    fn selvec_select_matches_mask_select(
        rows in rows_strategy(200),
        which in 0usize..6,
    ) {
        let chunk = chunk_of(&rows);
        let pred = predicate_for(which);
        let via_mask = reference::select(&chunk, &pred).unwrap();
        for workers in WORKER_GRID {
            let sel = ops::select::select(&chunk, None, &pred, fused_ctx(workers)).unwrap();
            prop_assert_eq!(&chunk.gather(sel.positions()), &via_mask, "workers={}", workers);
        }
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
        for workers in WORKER_GRID {
            let ctx = fused_ctx(workers);
            let sel = ops::select::select(&chunk, None, &p1, ctx).unwrap();
            let refined = ops::select::select(&chunk, Some(&sel), &p2, ctx).unwrap();
            let conj = Predicate::and([p1.clone(), p2.clone()]);
            prop_assert_eq!(&refined, &ops::select::select(&chunk, None, &conj, ctx).unwrap());
            prop_assert_eq!(&refined, &reference::select_positions(&chunk, None, &conj).unwrap());
        }
    }

    /// Probing through a selection vector — the fused filter→probe data
    /// path — equals materializing the filtered probe side first.
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
        let filtered = reference::select(&probe, &pred).unwrap();
        let want = reference::hash_join(&build, &filtered, None, k, k, kind).unwrap();
        for workers in WORKER_GRID {
            let ctx = fused_ctx(workers);
            let sel = ops::select::select(&probe, None, &pred, ctx).unwrap();
            let (build, probe) = ((&build, None), (&probe, Some(&sel)));
            let pairs = ops::join::hash_join(build, probe, k, k, kind, ctx, None).unwrap();
            let fused = reference::joined_rows(build, probe, &pairs, kind);
            prop_assert_eq!(&fused, &want, "workers={}", workers);
        }
    }

    /// Aggregating through a selection vector — the fused filter→aggregate
    /// data path — equals materializing the filtered input first.
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
        let filtered = reference::select(&chunk, &pred).unwrap();
        let want = reference::aggregate(&filtered, None, &group_by, &aggs).unwrap();
        for workers in WORKER_GRID {
            let ctx = fused_ctx(workers);
            let sel = ops::select::select(&chunk, None, &pred, ctx).unwrap();
            let fused =
                ops::agg::aggregate(&chunk, Some(&sel), &group_by, &aggs, ctx).unwrap();
            prop_assert_eq!(&fused, &want, "workers={}", workers);
        }
    }
}

/// A generated expression tree: `code` run as a postfix program over a
/// stack of subtrees (leaves push, operators pop), whatever is left on the
/// stack summed. Leaves are the int / float columns and literals; one in
/// twelve is the string column or an unknown one, so `Err`s are generated
/// too (a bare string column only fails `evaluate_f64`).
fn expr_of(code: &[(usize, i32)]) -> Expr {
    let mut stack: Vec<Expr> = Vec::new();
    for &(op, v) in code {
        let e = match (op % 12, stack.len()) {
            (0, _) => Expr::col("i32"),
            (1, _) => Expr::col("i64"),
            (2, _) => Expr::lit(f64::from(v) / 4.0),
            (3, n) if n >= 1 => {
                let a = stack.pop().expect("one operand");
                a.int_div(f64::from(v.abs() % 7 + 1))
            }
            (4..=9, n) if n >= 2 => {
                let b = stack.pop().expect("two operands");
                let a = stack.pop().expect("two operands");
                match op % 4 {
                    0 => a + b,
                    1 => a - b,
                    2 => a * b,
                    _ => a / b,
                }
            }
            (10, _) => Expr::col("str"),
            (11, _) => Expr::col("nope"),
            _ => Expr::col("f64"),
        };
        stack.push(e);
    }
    stack.into_iter().reduce(|a, b| a + b).unwrap_or(Expr::lit(1.0))
}

/// Column equality at the bit level: a generated `0 / 0` is a `NaN`, which
/// must come out the same on both sides without comparing equal to itself.
fn same_column(a: &ColumnData, b: &ColumnData) -> bool {
    match (a, b) {
        (ColumnData::Float64(x), ColumnData::Float64(y)) => {
            x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits()))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Expressions and projection read the row stream `(chunk, sel)`:
    /// every selection — all rows, none, a generated one — gives what the
    /// dense call gives on the gathered chunk, value for value and error
    /// for error.
    #[test]
    fn expressions_and_projection_read_the_row_stream(
        rows in rows_strategy(120),
        code in prop::collection::vec((0usize..12, -40i32..40), 1..12),
        keep in prop::collection::vec(prop::bool::ANY, 120),
    ) {
        let chunk = chunk_of(&rows);
        let expr = expr_of(&code);
        let exprs = vec![
            ("e".to_string(), expr.clone()),
            ("s".to_string(), Expr::col("str")),
            ("k".to_string(), Expr::col("i32")),
        ];
        let generated =
            SelVec::new((0..rows.len() as u32).filter(|&i| keep[i as usize]).collect());
        for sel in [SelVec::all(rows.len()), SelVec::empty(), generated] {
            let gathered = chunk.gather(sel.positions());
            let label = format!("{expr} over {} of {} rows", sel.len(), rows.len());

            for (got, want) in [
                (expr.evaluate(&chunk, Some(&sel)), expr.evaluate(&gathered, None)),
                (
                    expr.evaluate_f64(&chunk, Some(&sel)).map(ColumnData::Float64),
                    expr.evaluate_f64(&gathered, None).map(ColumnData::Float64),
                ),
            ] {
                match (got, want) {
                    (Ok(got), Ok(want)) => prop_assert!(same_column(&got, &want), "{}", label),
                    (got, want) => prop_assert_eq!(got.err(), want.err(), "{}", label),
                }
            }
            let got = ops::project::project(&chunk, Some(&sel), &exprs);
            let want = ops::project::project(&gathered, None, &exprs);
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.fields(), want.fields(), "{}", label);
                    for (g, w) in got.columns().iter().zip(want.columns()) {
                        prop_assert!(same_column(g, w), "{}", label);
                    }
                }
                (got, want) => prop_assert_eq!(got.err(), want.err(), "{}", label),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A run is its positions, listed: every method of `SelVec` and of a
    /// `LazyChunk` over it answers as it does for the position list, and
    /// the two compare equal either way round (and unequal to a neighbour).
    #[test]
    fn a_run_is_its_listed_positions(
        rows in rows_strategy(80),
        bounds in (0usize..1000, 0usize..1000),
    ) {
        let base = chunk_of(&rows);
        let lo = bounds.0 % (rows.len() + 1);
        let hi = lo + bounds.1 % (rows.len() - lo + 1);
        let (lo, hi) = (lo as u32, hi as u32);
        let listed = SelVec::new((lo..hi).collect());
        let run = || SelVec::run(lo..hi);

        prop_assert_eq!(run().as_run(), Some(lo..hi));
        prop_assert_eq!(listed.as_run(), None);
        prop_assert_eq!((run().len(), run().is_empty()), (listed.len(), listed.is_empty()));
        // Equality first: comparing must not depend on the positions
        // having been listed already.
        prop_assert!(run() == listed && listed == run() && run() == run());
        prop_assert_eq!(run() == SelVec::run(lo + 1..hi + 1), lo == hi);
        prop_assert!(run() != SelVec::new((lo..hi + 1).collect()));
        prop_assert_eq!(run().positions(), listed.positions());
        prop_assert_eq!(run().into_positions(), listed.clone().into_positions());
        let asked = run();
        asked.positions();
        prop_assert_eq!(asked.into_positions(), listed.clone().into_positions());
        if lo == 0 {
            prop_assert_eq!(SelVec::all(hi as usize), run());
        }

        let lazy = |sel| LazyChunk::Groups(vec![Group { base: base.clone().into(), sel }]);
        let (a, b) = (lazy(run()), lazy(listed.clone()));
        prop_assert_eq!((a.num_rows(), a.byte_size()), (b.num_rows(), b.byte_size()));
        prop_assert_eq!(&a.groups()[0].sel, &b.groups()[0].sel);
        prop_assert_eq!(a.materialize(), b.materialize());

        // A kernel reads a run like any selection.
        let pred = predicate_for(bounds.0);
        let ctx = fused_ctx(8);
        prop_assert_eq!(
            ops::select::select(&base, Some(&run()), &pred, ctx),
            ops::select::select(&base, Some(&listed), &pred, ctx)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A probe through a run — a predicate-free shard's rows — reads its
    /// keys at an offset instead of listing the positions, and returns
    /// what the probe through the same positions listed does, bit for
    /// bit: every join kind and key type, through a per-query table or
    /// the build column's key index, serial and parallel.
    #[test]
    fn a_probe_through_a_run_is_the_probe_through_its_listed_positions(
        build_rows in rows_strategy(60),
        probe_rows in rows_strategy(200),
        bounds in (0usize..1000, 0usize..1000),
        key in 0usize..4,
        kind in 0usize..3,
    ) {
        let (build, probe) = (chunk_of(&build_rows), chunk_of(&probe_rows));
        let lo = bounds.0 % (probe_rows.len() + 1);
        let hi = lo + bounds.1 % (probe_rows.len() - lo + 1);
        let rows = lo as u32..hi as u32;
        let (run, listed) = (SelVec::run(rows.clone()), SelVec::new(rows.collect()));
        // The build side is a table of its own, so a unique integer key
        // is probed through the column's key index.
        let db = fact_and_dim(&probe, &build);
        let (k, kind) = (key_column(key), join_kind(kind));
        for ctx in [ParallelCtx::serial(), fused_ctx(1), fused_ctx(8)] {
            for db in [None, Some(&db)] {
                let through = |sel| {
                    ops::join::hash_join((&build, None), (&probe, Some(sel)), k, k, kind, ctx, db)
                };
                let at = format!("{ctx:?} key index: {}", db.is_some());
                prop_assert_eq!(through(&run), through(&listed), "{}", at);
            }
        }
    }
}

/// The pushed-down predicate of the fact scan: none, always true, always
/// false, selective, string. The numeric ones read `i64`, which the
/// narrower output column set leaves behind as a predicate-only column.
fn scan_predicate(which: usize) -> Option<Predicate> {
    match which {
        0 => None,
        1 => Some(Predicate::cmp("i64", CmpOp::Ge, -100)),
        2 => Some(Predicate::cmp("i64", CmpOp::Gt, 100)),
        3 => Some(Predicate::cmp("i64", CmpOp::Ge, 0)),
        _ => Some(Predicate::in_list("str", ["ASIA", "x"])),
    }
}

/// The scan of the fact table `t` the generated plans grow from.
fn fact_scan(columns: &[&str], predicate: Option<Predicate>) -> PlanNode {
    let scan = PlanNode::scan("t", columns.iter().copied());
    match predicate {
        Some(p) => scan.filter(p),
        None => scan,
    }
}

/// How many shapes [`plan_over`] has: six of at most one join, then each
/// of the three join-of-join bodies under each of five consumers.
const SHAPES: usize = 6 + 3 * 5;

/// A plan over the fact table `t` (and the dimension `d`), by shape: the
/// bare scan, a standalone `Select`, an aggregation, the scan as probe
/// and as build side of a join, a projection under a top-k sort, and
/// [`joins_over`].
fn plan_over(scan: PlanNode, shape: usize, second: usize, kind: JoinKind) -> PlanNode {
    let dim = || PlanNode::scan("d", ["i32", "f64"]);
    match shape % SHAPES {
        0 => scan,
        1 => scan.select(predicate_for(second)),
        2 => scan.aggregate(
            ["str"],
            vec![AggSpec::sum(Expr::col("f64"), "sum"), AggSpec::count("cnt")],
        ),
        3 => scan
            .join_kind(dim(), "i32", "i32", kind)
            .aggregate(["str"], vec![AggSpec::sum(Expr::col("f64"), "sum")]),
        4 => dim().join_kind(scan, "i32", "i32", kind),
        5 => scan
            .project(vec![("a", Expr::col("i32") + Expr::col("f64")), ("s", Expr::col("str"))])
            .top_k(vec![SortKey::asc("a"), SortKey::desc("s")], 7),
        shape => joins_over(scan, (shape - 6) / 5, (shape - 6) % 5, second, kind),
    }
}

/// Joins of joins over the fact scan — what leaves them is more than one
/// column group — under each consumer of one. Every side carries the same
/// column names, so the output's run `i32`, `i32_r`, `i32_r_r`, …; the
/// dimension's keys repeat, so a probe row matches several build rows, in
/// no order of the probe side's; later joins read their key through an
/// earlier join's build side; and `kind` lands on a one-group probe, on a
/// three-group probe and on a build side. `second` varies the consumer.
fn joins_over(
    scan: PlanNode,
    body: usize,
    consumer: usize,
    second: usize,
    kind: JoinKind,
) -> PlanNode {
    let dim = || PlanNode::scan("d", ["i32", "f64", "str"]);
    // A semi or anti join hands on no build column to key the next join on.
    let first_key = if kind == JoinKind::Inner { "i32_r" } else { "i32" };
    let joined = match body {
        0 => scan.join_kind(dim(), "i32", "i32", kind).join(dim(), first_key, "i32"),
        1 => scan
            .join(dim(), "i32", "i32")
            .join(dim().select(predicate_for(second % 4)), "i32_r", "i32")
            .join_kind(dim(), "str_r", "str", kind),
        _ => scan.join(dim().join_kind(dim(), "i32", "i32", kind), "i32", "i32"),
    };
    // Every body leaves `i32_r`, `f64_r` and `str_r` beside the fact's columns.
    match consumer {
        0 => joined,
        1 => joined.select(Predicate::and([
            predicate_for(second % 4),
            Predicate::ColCmp { left: "f64".into(), op: CmpOp::Le, right: "f64_r".into() },
        ])),
        2 => joined
            .project(vec![
                ("a", Expr::col("i32") + Expr::col("f64_r")),
                ("s", Expr::col("str_r")),
                ("t", Expr::col("str")),
            ])
            .top_k(vec![SortKey::asc("a"), SortKey::desc("s")], 7),
        3 => {
            let group_by: &[&str] = if second % 2 == 1 { &[] } else { &["str_r", "i32"] };
            let mut aggs = vec![AggSpec::count("cnt")];
            if !second.is_multiple_of(3) {
                aggs.push(AggSpec::sum(Expr::col("f64") * Expr::col("f64_r"), "sum"));
                aggs.push(AggSpec::new(AggFunc::Max, Expr::col("i32_r"), "hi"));
            }
            joined.aggregate(group_by.iter().copied(), aggs)
        }
        _ => {
            let mut keys = vec![SortKey::desc("f64_r"), SortKey::asc("str_r")];
            if second % 2 == 1 {
                keys.push(SortKey::asc("i32"));
            }
            joined.top_k(keys, 9)
        }
    }
}

/// What a task of the (sharded) graph is held against.
enum Expect {
    /// The output of this task of the unsharded plan.
    Oracle(usize),
    /// A shard of the fact scan: the oracle has no such task.
    Shard(ShardSpec),
}

/// `tasks` with every scan of `t` split `ways` ways under a merge, the way
/// admission's shard expansion rewrites the graph (`ways == 0`: as is).
fn shard_fact_scans(tasks: &[TaskNode], ways: u32) -> (Vec<TaskNode>, Vec<Expect>) {
    let mut out: Vec<TaskNode> = Vec::new();
    let mut expect = Vec::new();
    let mut moved = Vec::with_capacity(tasks.len());
    for (i, t) in tasks.iter().enumerate() {
        let mut node = TaskNode {
            children: t.children.iter().map(|&c| moved[c]).collect(),
            parent: None,
            ..t.clone()
        };
        if matches!(&*t.op, Op::Scan { table, .. } if table == "t") && ways > 0 {
            let first = out.len();
            for index in 0..ways {
                let shard = ShardSpec { index, of: ways };
                out.push(TaskNode { role: Role::Spine(shard), ..node.clone() });
                expect.push(Expect::Shard(shard));
            }
            node.role = Role::Merge;
            node.children = (first..out.len()).collect();
        }
        out.push(node);
        expect.push(Expect::Oracle(i));
        moved.push(out.len() - 1);
    }
    (out, expect)
}

/// A database of the fact table `t` and the dimension `d`.
fn fact_and_dim(t: &Chunk, d: &Chunk) -> Database {
    let mut db = Database::new();
    for (name, chunk) in [("t", t), ("d", d)] {
        let schema = Schema::new(chunk.fields().to_vec());
        db.add_table(Table::from_shared(name, schema, chunk.columns().to_vec()).expect("valid table"))
            .expect("fresh database");
    }
    db
}

/// Accounting invariance. For every sharding of the fact scan in
/// `shardings`, every scan predicate, the whole table and a window of it:
/// each task of the lazy graph reports the `(num_rows, byte_size)` of the
/// corresponding materialized task of the *unsharded* plan and
/// materializes to the same chunk, dictionaries included. A shard has no
/// materialized counterpart; it reports its slice of the reference
/// selection over the scan's output columns, what its admission estimate
/// counts, and comes back dense when its range covers the base.
fn check_lazy_tasks(
    rows: &[Row],
    dim_rows: &[Row],
    (shape, second, kind): (usize, usize, JoinKind),
    narrow: usize,
    window: (usize, usize),
    shardings: &[u32],
) {
    let (fact, dim) = (chunk_of(rows), chunk_of(dim_rows));
    let db = fact_and_dim(&fact, &dim);
    let n = rows.len();
    let lo = window.0 % (n + 1);
    let hi = lo + window.1 % (n - lo + 1);
    // The static database a window tick is equivalent to: exactly the
    // window's rows, sharing the full table's dictionaries — copied out
    // with the storage layer's own cut, not the scan kernel's range.
    let table = db.table("t").expect("fact table");
    let cut = (0..table.num_columns()).map(|i| Arc::new(table.column_slice(i, lo, hi)));
    let windowed = Chunk::from_shared(fact.fields().to_vec(), cut.collect());
    let window_db = fact_and_dim(&windowed, &dim);
    let columns: &[&str] =
        if narrow == 0 { &["i32", "i64", "f64", "str"] } else { &["f64", "i32", "str"] };

    for which in 0..5 {
        let predicate = scan_predicate(which);
        let scan = fact_scan(columns, predicate.clone());
        let tasks = flatten(&plan_over(scan, shape, second, kind));
        let output_width: u64 = columns
            .iter()
            .map(|c| fact.column_type(c).expect("fact column").byte_width() as u64)
            .sum();

        for (oracle_db, base, window) in
            [(&db, &fact, None), (&window_db, &windowed, Some(("t", lo, hi)))]
        {
            // A leaf reads its rows out of the whole table: the window's
            // start offsets every position of the fed table's rows.
            let first = window.map_or(0, |(_, lo, _)| lo as u32);
            let read = |rows: Range<usize>| first + rows.start as u32..first + rows.end as u32;
            let mut oracle: Vec<Chunk> = Vec::with_capacity(tasks.len());
            for t in &tasks {
                let children: Vec<Chunk> =
                    t.children.iter().map(|&c| oracle[c].clone()).collect();
                oracle.push(
                    t.op.execute_ctx(&children, oracle_db, ParallelCtx::serial())
                        .expect("oracle runs"),
                );
            }
            let qualifying = reference::select_positions(
                base,
                None,
                predicate.as_ref().unwrap_or(&Predicate::True),
            )
            .expect("reference selection");

            for &ways in shardings {
                let (graph, expect) = shard_fact_scans(&tasks, ways);
                for workers in WORKER_GRID {
                    let mut lazy: Vec<LazyChunk> = Vec::with_capacity(graph.len());
                    for (t, expect) in graph.iter().zip(&expect) {
                        let children: Vec<LazyChunk> =
                            t.children.iter().map(|&c| lazy[c].clone()).collect();
                        let out = t
                            .op
                            .execute_windowed(t.role, &children, &db, fused_ctx(workers), window)
                            .expect("lazy task runs");
                        let label = format!(
                            "{} as {:?} shape={shape} predicate={which} ways={ways} \
                             window={window:?} workers={workers}",
                            t.op.label(),
                            t.role
                        );
                        match expect {
                            Expect::Oracle(i) => {
                                prop_assert_eq!(
                                    (out.num_rows(), out.byte_size()),
                                    (oracle[*i].num_rows(), oracle[*i].byte_size()),
                                    "{}", label
                                );
                                prop_assert_eq!(&out.clone().materialize(), &oracle[*i], "{}", label);
                                // Runs merge into one run of the rows
                                // read, dense where they are the table.
                                if t.role == Role::Merge && which == 0 {
                                    match out.groups() {
                                        [] => prop_assert_eq!(base.num_rows(), n, "{}", label),
                                        groups => prop_assert_eq!(
                                            groups[0].sel.as_run(),
                                            Some(read(0..base.num_rows())),
                                            "{}", label
                                        ),
                                    }
                                }
                            }
                            Expect::Shard(shard) => {
                                let range = shard.row_range(base.num_rows());
                                let rows = qualifying
                                    .positions()
                                    .iter()
                                    .filter(|&&p| range.contains(&(p as usize)))
                                    .count();
                                prop_assert_eq!(
                                    (out.num_rows(), out.byte_size()),
                                    (rows, rows as u64 * output_width),
                                    "{}", label
                                );
                                // Without a predicate: the row range itself,
                                // dense where it covers the table.
                                let range = (which == 0).then(|| read(range));
                                match out.groups() {
                                    [] => prop_assert_eq!(rows, n, "{}", label),
                                    groups => prop_assert_eq!(groups[0].sel.as_run(), range, "{}", label),
                                }
                            }
                        }
                        lazy.push(out);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lazy_tasks_report_the_materialized_rows_and_bytes(
        rows in rows_strategy(120),
        dim_rows in rows_strategy(30),
        shape in 0usize..SHAPES,
        second in 0usize..6,
        kind in 0usize..3,
        narrow in 0usize..2,
        window in (0usize..1000, 0usize..1000),
    ) {
        let shardings = [0, 1, 2, 3, 4, 7, rows.len() as u32 + 1];
        check_lazy_tasks(&rows, &dim_rows, (shape, second, join_kind(kind)), narrow, window, &shardings);
    }
}

/// Rows with keys, floats and strings that repeat on both sides.
fn fixed_rows(n: i32) -> Vec<Row> {
    (0..n).map(|i| (i % 40 - 20, i64::from(i) * 7 - 100, i * 3 - 60, i as usize)).collect()
}

/// Every consumer of more than one column group, on every join-of-join
/// body, for all three kinds — not left to which shapes a run of the
/// property above happens to draw.
#[test]
fn every_consumer_of_a_join_of_joins_reports_the_materialized_rows_and_bytes() {
    let (rows, dim_rows) = (fixed_rows(97), fixed_rows(23));
    for shape in 6..SHAPES {
        for kind in 0..3 {
            for second in 0..6 {
                let what = (shape, second, join_kind(kind));
                check_lazy_tasks(&rows, &dim_rows, what, second % 2, (13, 61), &[0, 2, 3]);
            }
        }
    }
}

/// A join names its right side's columns apart from everything to their
/// left: the third `v` of a chain is `v_r_r`, not a second `v_r` nobody can
/// reach — in the oracle, in the column groups' names and in the reference.
#[test]
fn the_third_same_named_side_of_a_join_chain_stays_reachable() {
    let side = |hundreds: i32| {
        Chunk::new(
            vec![Field::new("x", DataType::Int32), Field::new("v", DataType::Int32)],
            vec![
                ColumnData::Int32(vec![1, 2, 3]),
                ColumnData::Int32((1..4).map(|i| hundreds * 100 + i).collect()),
            ],
        )
    };
    let mut db = Database::new();
    for (name, hundreds) in [("a", 1), ("b", 2), ("c", 3)] {
        let chunk = side(hundreds);
        let schema = Schema::new(chunk.fields().to_vec());
        db.add_table(Table::from_shared(name, schema, chunk.columns().to_vec()).unwrap()).unwrap();
    }
    let scan = |table: &str| PlanNode::scan(table, ["x", "v"]);
    let plan = scan("a").join(scan("b"), "x", "x").join(scan("c"), "x_r", "x");
    let twice = |l: &Chunk, r: &Chunk, key: &str| {
        reference::hash_join(r, l, None, "x", key, JoinKind::Inner).unwrap()
    };
    let by_reference = twice(&twice(&side(1), &side(2), "x"), &side(3), "x_r");
    let outputs = [
        ops::execute_plan(&plan, &db).unwrap(),
        execute_plan_fused(&plan, &db, fused_ctx(1)).unwrap(),
        by_reference,
    ];
    for out in &outputs {
        let names: Vec<&str> = out.fields().iter().map(|f| &*f.name).collect();
        assert_eq!(names, ["x", "v", "x_r", "v_r", "x_r_r", "v_r_r"]);
        assert_eq!(out.column("v_r_r"), Some(&ColumnData::Int32(vec![301, 302, 303])));
        assert_eq!(out, &outputs[0]);
    }
    // And an operator above the chain reads it by that name.
    let sum = plan.aggregate([] as [&str; 0], vec![AggSpec::sum(Expr::col("v_r_r"), "s")]);
    assert_interpreters_agree("sum of the third side", &sum, &db);
}

/// Deterministic edge cases the random sizes may not hit in a given run.
#[test]
fn empty_and_single_row_chunks() {
    let (all_keys, aggs) = agg_spec();
    for rows in [vec![], vec![(3, -2, 10, 1)]] {
        let chunk = chunk_of(&rows);
        for which in 0..6 {
            let pred = predicate_for(which);
            let filtered = reference::select(&chunk, &pred).unwrap();
            for num_keys in 0..3 {
                let group_by = all_keys[..num_keys].to_vec();
                let want = reference::aggregate(&filtered, None, &group_by, &aggs).unwrap();
                for workers in WORKER_GRID {
                    let ctx = fused_ctx(workers);
                    let sel = ops::select::select(&chunk, None, &pred, ctx).unwrap();
                    assert_eq!(chunk.gather(sel.positions()), filtered);
                    let fused =
                        ops::agg::aggregate(&chunk, Some(&sel), &group_by, &aggs, ctx).unwrap();
                    assert_eq!(fused, want, "workers={workers}");
                }
            }
        }
    }
}

/// The materializing oracle and the production data path give identical
/// results (rows and checksums) — the plan-level guarantee behind the
/// golden figures.
fn assert_interpreters_agree(name: &str, plan: &PlanNode, db: &Database) {
    let oracle = ops::execute_plan(plan, db).expect("oracle runs");
    for workers in WORKER_GRID {
        let ctx = ParallelCtx::serial()
            .with_workers(workers)
            .with_morsel_rows(128)
            .with_min_rows_per_worker(0);
        let fused = execute_plan_fused(plan, db, ctx).expect("fused runs");
        assert_eq!(oracle, fused, "{name}: fused diverged at {workers} workers");
        assert_eq!(oracle.checksum(), fused.checksum());
    }
}

#[test]
fn full_ssb_plans_are_identical_across_interpreters() {
    use robustq::storage::gen::ssb::SsbGenerator;
    use robustq::workloads::SsbQuery;

    let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
    for q in SsbQuery::ALL {
        assert_interpreters_agree(q.name(), &q.plan(&db).expect("plans"), &db);
    }
}

#[test]
fn full_tpch_plans_are_identical_across_interpreters() {
    use robustq::storage::gen::tpch::TpchGenerator;
    use robustq::workloads::TpchQuery;

    let db = TpchGenerator::new(1).with_rows_per_sf(1_000).generate();
    for q in TpchQuery::ALL {
        assert_interpreters_agree(q.name(), &q.plan(), &db);
    }
}

fn bits(e: &Estimate) -> [u64; 4] {
    [e.rows, e.bytes, e.fraction, e.input_bytes].map(f64::to_bits)
}

/// The oracle: every subtree of `plan` estimated on its own, by recursion
/// from the leaves, pushed in postorder. Checks on the way that a node's
/// input bytes are the base columns a scan reads, the children's output
/// bytes for every other operator.
fn subtree_estimates(plan: &PlanNode, db: &Database, out: &mut Vec<Estimate>) -> Estimate {
    let children: Vec<Estimate> =
        plan.children().iter().map(|c| subtree_estimates(c, db, out)).collect();
    let own = estimate::estimate(plan, db);
    assert_eq!(bits(&own), bits(&estimate::node(plan.op(), &children, db)));
    let input: f64 = match plan.op().scan_access() {
        Some((table, columns)) => {
            let table = db.table(table).expect("scanned table");
            columns.iter().map(|c| table.column(c).expect("read column").byte_size() as f64).sum()
        }
        None => children.iter().map(|c| c.bytes).sum(),
    };
    assert_eq!(own.input_bytes.to_bits(), input.to_bits(), "input bytes of {}", plan.op().label());
    out.push(own);
    own
}

/// The one pass over the flattened plan is aligned with `flatten` and
/// equals, to the bit, the per-subtree estimates.
fn assert_one_pass_estimates(name: &str, plan: &PlanNode, db: &Database) {
    let mut want = Vec::new();
    subtree_estimates(plan, db, &mut want);
    let tasks = flatten(plan);
    let got = estimate::postorder(&tasks, db, None, |_| 1.0);
    assert_eq!(got.len(), tasks.len());
    assert_eq!(
        got.iter().map(bits).collect::<Vec<_>>(),
        want.iter().map(bits).collect::<Vec<_>>(),
        "{name}:\n{plan}"
    );
}

#[test]
fn one_pass_estimates_equal_every_subtrees_own_estimate() {
    use robustq::storage::gen::{ssb::SsbGenerator, tpch::TpchGenerator};
    use robustq::workloads::{SsbQuery, TpchQuery};

    let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
    for q in SsbQuery::ALL {
        assert_one_pass_estimates(q.name(), &q.plan(&db).expect("plans"), &db);
    }
    let db = TpchGenerator::new(1).with_rows_per_sf(1_000).generate();
    for q in TpchQuery::ALL {
        assert_one_pass_estimates(q.name(), &q.plan(), &db);
    }

    // Every generated plan shape of the accounting property above.
    let db = fact_and_dim(&chunk_of(&fixed_rows(97)), &chunk_of(&fixed_rows(23)));
    for columns in [&["i32", "i64", "f64", "str"][..], &["f64", "i32", "str"]] {
        for which in 0..5 {
            for i in 0..SHAPES * 6 * 3 {
                let (shape, second, kind) = (i / 18, i / 3 % 6, i % 3);
                let scan = fact_scan(columns, scan_predicate(which));
                let plan = plan_over(scan, shape, second, join_kind(kind));
                assert_one_pass_estimates("generated", &plan, &db);
            }
        }
    }
}
