//! A perf gate with no clock in it: how many bytes the scan path may
//! allocate, counted by a `#[global_allocator]`.
//!
//! Columns are shared, never copied (DESIGN.md §3, §5): a scan hands on
//! the table's buffers, a filtered or sharded scan adds position lists
//! only — none at all without a predicate, where a shard is a row range —
//! and cloning or projecting a chunk, or pruning a shard pipeline's
//! output to its live columns (§6), touches no row. Each budget below
//! sits far under one copy of the columns the operation reads, so any
//! reintroduced column copy trips it on every host alike. A join's probe
//! allocates by what it matches, not by what it reads — nor, against a
//! dimension whose keys are indexed, by the dimension's rows; a group-by,
//! a group id per row and the rest by its groups.
//!
//! Operators are shared the same way (DESIGN.md §5): handing a plan on —
//! `PlanNode::clone`, then `flatten` at admission — allocates the task
//! list, a fixed number of bytes per operator, and not one byte of a name,
//! predicate or expression; the clone itself allocates nothing.
//!
//! The executor's per-event work is counted in allocation *calls*
//! (DESIGN.md §4, §6, §7): a steady-state data-placement pass and a
//! re-pin of the pinned set make none, and an open-loop run stays under a
//! fixed number of calls per completed query.

use robustq::core::{DataDrivenChopping, DataPlacementManager, PlacementPolicyKind};
use robustq::engine::exec::task::{flatten, Role, ShardSpec};
use robustq::engine::expr::Expr;
use robustq::engine::ops::agg::aggregate;
use robustq::engine::ops::join::hash_join;
use robustq::engine::ops::project::keep_columns;
use robustq::engine::plan::{AggSpec, JoinKind, Op, PlanNode, SortKey};
use robustq::engine::predicate::Predicate;
use robustq::engine::{Arrival, Chunk, ExecOptions, Executor, LazyChunk, ParallelCtx, RunOutcome};
use robustq::serve::BYTES_PER_ARRIVAL;
use robustq::sim::{CacheKey, CachePolicy, CacheSet, DataCache, SimConfig, VirtualTime};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::{ColumnData, DataType, Database, Field};
use robustq::workloads::SsbQuery;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread requests and the calls that request them
/// (traffic: frees and shrinks are not subtracted, a `realloc` is a call),
/// and apart from them the bytes it holds live and their high-water mark.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // The slots are gone while a thread tears down; those calls are nobody's.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Move this thread's live bytes by `delta`, raising its high-water mark.
fn hold(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        hold(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocated while running `f`.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Allocation calls this thread made while running `f`.
fn allocation_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// The most bytes this thread held live while running `f`, over what it
/// held when `f` began.
fn peak_live<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, (PEAK.with(Cell::get) - before) as u64)
}

const ROWS: usize = 100_000;
/// Bookkeeping a scan may allocate whatever the row count: field names,
/// column handles, the chunk itself.
const FIXED: u64 = 4 * 1024;
/// Position-list bytes per scanned row: a `u32` per qualifying row, held
/// at most three times over (shard lists, the merged list, growth slack).
const PER_ROW: u64 = 12;

fn lineorder() -> Database {
    SsbGenerator::new(1).with_rows_per_sf(ROWS).generate()
}

const COLUMNS: [&str; 4] = ["lo_orderdate", "lo_quantity", "lo_extendedprice", "lo_revenue"];

fn columns() -> Vec<String> {
    COLUMNS.iter().map(|c| c.to_string()).collect()
}

/// Selects about half the rows on a predicate-only column.
fn predicate() -> Option<Predicate> {
    Some(Predicate::between("lo_discount", 0, 5))
}

/// Bytes of one copy of the columns a scan of `COLUMNS` + `lo_discount`
/// reads — what every budget must stay below.
fn one_copy(db: &Database) -> u64 {
    let t = db.table("lineorder").unwrap();
    COLUMNS.iter().chain(&["lo_discount"]).map(|c| t.column(c).unwrap().byte_size()).sum()
}

#[test]
fn an_unfiltered_scan_allocates_no_row_data() {
    let db = lineorder();
    let scan = Op::scan("lineorder", columns(), None);
    let (out, bytes) = allocated(|| scan.execute_lazy(&[], &db, ParallelCtx::serial()).unwrap());
    assert_eq!(out.num_rows(), ROWS);
    assert!(bytes < FIXED, "an unfiltered scan of {ROWS} rows allocated {bytes} B");
}

#[test]
fn a_filtered_scan_allocates_positions_only() {
    let db = lineorder();
    let budget = PER_ROW * ROWS as u64 + FIXED;
    assert!(budget < one_copy(&db), "the budget must stay below one copy of the read columns");
    let scan = Op::scan("lineorder", columns(), predicate());
    let (out, bytes) = allocated(|| scan.execute_lazy(&[], &db, ParallelCtx::serial()).unwrap());
    assert!(out.num_rows() > ROWS / 4 && out.num_rows() < ROWS);
    assert!(bytes <= budget, "a filtered scan of {ROWS} rows allocated {bytes} B > {budget} B");
}

/// A window's scan bookkeeping beside its positions: the output's one
/// group, its base chunk and column handles.
const WINDOW_FIXED: u64 = 512;

/// A window tick's scan reads its rows out of the table's shared columns
/// through a selection, as a shard does (DESIGN.md §3): a 64-row window
/// of a 10 k-row `lineorder` allocates at most a `u32` a window row of
/// positions — none without a predicate, where it is a run — and no
/// column data, of which a copy of the window's rows alone weighs more.
#[test]
fn a_windowed_scan_allocates_its_positions_not_its_rows() {
    const WINDOW: usize = 64;
    let db = SsbGenerator::new(1).with_rows_per_sf(10_000).generate();
    let t = db.table("lineorder").unwrap();
    let read = COLUMNS.iter().chain(&["lo_discount"]);
    let width: u64 = read.map(|c| t.column(c).unwrap().data_type().byte_width() as u64).sum();
    let budget = 4 * WINDOW as u64 + WINDOW_FIXED;
    assert!(budget < width * WINDOW as u64, "the budget must stay below one copy of the window");
    let window = Some(("lineorder", 4_000, 4_000 + WINDOW));
    for predicate in [None, predicate()] {
        let at = format!("predicate {predicate:?}");
        let scan = Op::scan("lineorder", columns(), predicate);
        let (out, bytes) = allocated(|| {
            scan.execute_windowed(Role::Whole, &[], &db, ParallelCtx::serial(), window).unwrap()
        });
        assert!(out.num_rows() > 0 && out.num_rows() <= WINDOW, "{at}");
        assert!(bytes <= budget, "{at}: a {WINDOW}-row window allocated {bytes} B > {budget} B");
    }
}

/// `of` shards of a `lineorder` scan and their merge, and the bytes the
/// lot allocated.
fn sharded_scan(db: &Database, predicate: Option<Predicate>, of: u32) -> (LazyChunk, u64) {
    let ctx = ParallelCtx::serial();
    let scan = Op::scan("lineorder", columns(), predicate);
    allocated(|| {
        let shards: Vec<LazyChunk> = (0..of)
            .map(|index| {
                let shard = Role::Spine(ShardSpec { index, of });
                scan.execute_windowed(shard, &[], db, ctx, None).unwrap()
            })
            .collect();
        scan.execute_windowed(Role::Merge, &shards, db, ctx, None).unwrap()
    })
}

#[test]
fn a_sharded_scan_and_its_merge_allocate_positions_only() {
    let db = lineorder();
    let budget = PER_ROW * ROWS as u64 + FIXED;
    for predicate in [None, predicate()] {
        for of in [2u32, 4] {
            let (merged, bytes) = sharded_scan(&db, predicate.clone(), of);
            assert!(merged.num_rows() > ROWS / 4);
            assert!(
                bytes <= budget,
                "{of} shards + merge over {ROWS} rows allocated {bytes} B > {budget} B"
            );
        }
    }
}

/// Without a predicate a shard is its row range and the merge their union:
/// not one position is written, let alone 8 B a row.
#[test]
fn a_predicate_free_sharded_scan_allocates_no_positions() {
    let db = lineorder();
    for of in [2u32, 4] {
        let (merged, bytes) = sharded_scan(&db, None, of);
        assert_eq!(merged.num_rows(), ROWS);
        assert!(bytes < FIXED, "{of} unfiltered shards + merge over {ROWS} rows allocated {bytes} B");
    }
}

/// A fan-out's spine hands on its live columns without copying a row:
/// cutting each output of a 2-way pipeline — a `lineorder` shard's four
/// payload columns joined to `date`'s two — to the two an aggregate above
/// the merge reads allocates a narrower base per group and nothing by
/// the rows (the positions move over as they are), and the merge takes
/// the pruned parts.
#[test]
fn pruning_a_pipeline_output_allocates_no_row_data() {
    let db = lineorder();
    let ctx = ParallelCtx::serial();
    let (build_key, probe_key) = ("d_datekey".to_string(), "lo_orderdate".to_string());
    let join = Op::HashJoin { build_key, probe_key, kind: JoinKind::Inner };
    let fact = Op::scan("lineorder", columns(), None);
    let outputs: Vec<LazyChunk> = (0..2)
        .map(|index| {
            let spine = Role::Spine(ShardSpec { index, of: 2 });
            let date = scanned(&db, "date", &["d_datekey", "d_year"], None);
            let leaf = fact.execute_windowed(spine, &[], &db, ctx, None).unwrap();
            join.execute_windowed(spine, &[date, leaf], &db, ctx, None).unwrap()
        })
        .collect();
    let rows = outputs.iter().map(LazyChunk::num_rows).sum::<usize>() as u64;
    assert_eq!(rows, ROWS as u64, "every order date is a date");
    let live = ["d_year", "lo_revenue"];
    let (parts, bytes) =
        allocated(|| outputs.into_iter().map(|out| out.keep_live(&live)).collect::<Vec<_>>());
    assert!(bytes < FIXED, "pruning 2 pipeline outputs of {rows} rows allocated {bytes} B");
    let widths: u64 = parts.iter().map(LazyChunk::byte_size).sum();
    assert_eq!(widths, rows * 12, "d_year (4 B) and lo_revenue (8 B) a row");
    let merged = join.execute_windowed(Role::Merge, &parts, &db, ctx, None).unwrap();
    assert_eq!((merged.num_rows() as u64, merged.byte_size()), (rows, rows * 12));
}

/// A foreign-key probe allocates by its matches: beyond the gathered
/// output, one row in a hundred matching leaves well under 2 B a probed
/// row (a slot reserved per probed row was 8 B).
#[test]
fn a_foreign_key_probe_allocates_by_its_matches() {
    let ints = |name: &str, values: Vec<i32>| {
        Chunk::new(vec![Field::new(name, DataType::Int32)], vec![ColumnData::Int32(values)])
    };
    let build = ints("pk", (0..100).collect());
    let probe = ints("fk", (0..ROWS as i32).map(|i| i.wrapping_mul(7919) % 10_000).collect());
    let join = || {
        let (build, probe) = ((&build, None), (&probe, None));
        hash_join(build, probe, "pk", "fk", JoinKind::Inner, ParallelCtx::serial(), None).unwrap()
    };
    join(); // the thread's build-key buffer is allocated once
    let ((matched, _), bytes) = allocated(join);
    assert!(matched.len() > ROWS / 200 && matched.len() < ROWS / 50);
    // What the rows behind the pairs weigh: a key column from each side.
    let budget = 8 * matched.len() as u64 + 2 * ROWS as u64;
    assert!(bytes < budget, "probing {ROWS} rows allocated {bytes} B, budget {budget} B");
}

/// A dimension's keys are indexed once, not per query: a second 1 k-row
/// join against the whole 2 555-row `date` allocates its position pair —
/// 8 B a match — and a fixed amount, nothing by the dimension's rows (a
/// table over its keys per query was 16 B a dimension row and more).
#[test]
fn a_second_join_against_a_dimension_allocates_its_matches_not_the_dimension() {
    let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
    let sides = || {
        let date = scanned(&db, "date", &["d_datekey", "d_year"], None);
        (date, scanned(&db, "lineorder", &["lo_orderdate", "lo_revenue"], None))
    };
    let join = |(date, fact)| joined(&db, date, fact, ("d_datekey", "lo_orderdate"));
    join(sides()); // the first join indexes the key
    let sides = sides();
    let (out, bytes) = allocated(|| join(sides));
    let matches = out.num_rows() as u64;
    assert_eq!(matches, 1_000, "every order date is a date");
    let budget = 8 * matches + FIXED;
    assert!(bytes < budget, "joining {matches} rows to 2 555 dates allocated {bytes} B, budget {budget} B");
}

/// An unfiltered scan of `table`, or a filtered one, run lazily.
fn scanned(db: &Database, table: &str, columns: &[&str], predicate: Option<Predicate>) -> LazyChunk {
    let columns = columns.iter().map(|c| c.to_string()).collect();
    Op::scan(table, columns, predicate)
        .execute_lazy(&[], db, ParallelCtx::serial())
        .unwrap()
}

/// The inner join of `probe` with `build`, run lazily (the children are
/// moved in, as the executor moves them: cloning one copies its positions).
fn joined(db: &Database, build: LazyChunk, probe: LazyChunk, keys: (&str, &str)) -> LazyChunk {
    let (build_key, probe_key) = (keys.0.to_string(), keys.1.to_string());
    Op::HashJoin { build_key, probe_key, kind: JoinKind::Inner }
        .execute_lazy(&[build, probe], db, ParallelCtx::serial())
        .unwrap()
}

/// A join hands on positions: joining `lineorder` and its four payload
/// columns with one year of a two-column `date` allocates the position
/// pair — 8 B a joined row, growth slack within the probe gate's 2 B a
/// probed row — and not one payload column, which would be 24 B a joined
/// row on top.
#[test]
fn a_join_allocates_its_position_pair_not_its_payload() {
    let db = lineorder();
    let sides = || {
        let year = Some(Predicate::eq("d_year", 1994));
        let date = scanned(&db, "date", &["d_datekey", "d_year"], year);
        (date, scanned(&db, "lineorder", &COLUMNS, None))
    };
    let join = |(date, fact)| joined(&db, date, fact, ("d_datekey", "lo_orderdate"));
    join(sides()); // the thread's build-key buffer is allocated once
    let sides = sides();
    let (out, bytes) = allocated(|| join(sides));
    let rows = out.num_rows() as u64;
    assert!(rows > ROWS as u64 / 10 && rows < ROWS as u64 / 5, "{rows} rows joined");
    assert_eq!(out.byte_size(), rows * 32, "four fact columns and two of the dimension");
    let budget = 8 * rows + 2 * ROWS as u64 + FIXED;
    assert!(bytes < budget, "joining {ROWS} rows to {rows} allocated {bytes} B, budget {budget} B");
}

/// Each column is gathered once, by the operator that reads it: three
/// joins under an aggregate that names two columns allocate less than the
/// first join's output weighs — which alone, gathered, a copying join
/// allocates before the second join has begun.
#[test]
fn a_join_chain_under_an_aggregate_gathers_only_what_the_aggregate_names() {
    let db = lineorder();
    let fact_columns = ["lo_orderdate", "lo_custkey", "lo_suppkey", "lo_quantity", "lo_revenue"];
    let asia = |column: &str| Some(Predicate::eq(column, "ASIA"));
    let chain = || {
        let fact = scanned(&db, "lineorder", &fact_columns, None);
        let date = scanned(&db, "date", &["d_datekey", "d_year"], Some(Predicate::eq("d_year", 1994)));
        let customer = scanned(&db, "customer", &["c_custkey", "c_nation"], asia("c_region"));
        let supplier = scanned(&db, "supplier", &["s_suppkey", "s_nation"], asia("s_region"));
        let first = joined(&db, date, fact, ("d_datekey", "lo_orderdate"));
        let first_bytes = first.byte_size();
        let second = joined(&db, customer, first, ("c_custkey", "lo_custkey"));
        let third = joined(&db, supplier, second, ("s_suppkey", "lo_suppkey"));
        let sum = Op::Aggregate {
            group_by: vec!["c_nation".into()],
            aggs: vec![AggSpec::sum(Expr::col("lo_revenue"), "revenue")],
        };
        let out = sum.execute_lazy(&[third], &db, ParallelCtx::serial()).unwrap();
        (out.num_rows(), first_bytes)
    };
    chain(); // the key buffer, once
    let ((groups, first_bytes), bytes) = allocated(chain);
    assert!(groups > 1 && first_bytes > 32 * ROWS as u64 / 10);
    assert!(
        bytes < first_bytes,
        "three joins and an aggregate allocated {bytes} B; the first join's output is {first_bytes} B"
    );
}

/// Grouping allocates a group id per row and nothing else per row: a
/// three-key group-by of `lineorder` (customer region × year × discount,
/// a few hundred groups) stays within 4 B a row plus 64 B a group — its
/// output, accumulators and representatives. A heap key per row would be
/// 24 B a row on its own.
#[test]
fn a_three_key_group_by_allocates_group_ids_not_keys() {
    let db = lineorder();
    let fact_columns = ["lo_orderdate", "lo_custkey", "lo_discount", "lo_revenue"];
    let fact = scanned(&db, "lineorder", &fact_columns, None);
    let date = scanned(&db, "date", &["d_datekey", "d_year"], None);
    let customer = scanned(&db, "customer", &["c_custkey", "c_region"], None);
    let dated = joined(&db, date, fact, ("d_datekey", "lo_orderdate"));
    let chunk = joined(&db, customer, dated, ("c_custkey", "lo_custkey")).materialize();
    assert_eq!(chunk.num_rows(), ROWS);
    let keys = ["c_region", "d_year", "lo_discount"].map(String::from);
    let aggs = [AggSpec::sum(Expr::col("lo_revenue"), "revenue"), AggSpec::count("n")];
    let group = || aggregate(&chunk, None, &keys, &aggs, ParallelCtx::serial()).unwrap();
    let (out, bytes) = allocated(group);
    let groups = out.num_rows() as u64;
    assert!(groups > 100 && groups < 1_000, "{groups} groups");
    let budget = 4 * ROWS as u64 + 64 * groups + FIXED;
    assert!(bytes < budget, "grouping {ROWS} rows into {groups} allocated {bytes} B > {budget} B");
}

#[test]
fn cloning_and_projecting_a_chunk_touch_no_row() {
    let db = lineorder();
    let chunk = Chunk::from_table(db.table("lineorder").unwrap(), &COLUMNS).unwrap();
    let (clone, bytes) = allocated(|| chunk.clone());
    assert_eq!(clone.num_rows(), ROWS);
    assert!(bytes < FIXED, "Chunk::clone of {ROWS} rows allocated {bytes} B");
    let (kept, bytes) = allocated(|| keep_columns(&chunk, &columns()[1..3]).unwrap());
    assert_eq!((kept.num_rows(), kept.num_columns()), (ROWS, 2));
    assert!(bytes < FIXED, "keep_columns over {ROWS} rows allocated {bytes} B");
}

/// What `PlanNode::clone` + `flatten` may allocate per operator: its
/// `TaskNode` (64 B) and its index in the parent task's child list (8 B).
/// The clone bumps two reference counts and copies no child list, and the
/// root has no parent, so a plan of `n` operators allocates exactly
/// `72 n - 8` bytes.
const PER_OPERATOR: u64 = 72;

fn clone_and_flatten(plan: &PlanNode) -> u64 {
    let ((clone, tasks), bytes) = allocated(|| {
        let clone = plan.clone();
        let tasks = flatten(&clone);
        (clone, tasks)
    });
    assert_eq!(tasks.len(), clone.num_operators());
    bytes
}

#[test]
fn handing_a_plan_on_allocates_per_operator_not_per_payload_byte() {
    let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
    for q in SsbQuery::ALL {
        let plan = q.plan(&db).expect("SSB plans");
        let (n, bytes) = (plan.num_operators() as u64, clone_and_flatten(&plan));
        assert_eq!(
            bytes,
            PER_OPERATOR * n - 8,
            "{}: clone + flatten of {n} operators allocated {bytes} B",
            q.name()
        );
    }

    // One shape, payloads three orders of magnitude apart — names,
    // predicate lists, expressions, aggregates and sort keys: same bytes.
    let shaped = |len: usize| {
        let name = |c: &str| c.repeat(len);
        let sum = (0..len).fold(Expr::col(name("a")), |e, _| e + Expr::col(name("b")));
        PlanNode::scan(name("t"), [name("a"), name("b")])
            .filter(Predicate::in_list(name("a"), (0..len).map(|i| i.to_string())))
            .join(PlanNode::scan(name("d"), [name("k")]), name("a"), name("k"))
            .select(Predicate::and((0..len).map(|i| Predicate::eq(name("b"), i as i64))))
            .project(vec![(name("s"), sum.clone())])
            .aggregate([name("s")], (0..len).map(|_| AggSpec::sum(sum.clone(), name("x"))).collect())
            .sort((0..len).map(|_| SortKey::asc(name("s"))).collect())
    };
    let (small, large) = (shaped(1), shaped(1_000));
    assert_eq!(small.num_operators(), 7);
    assert_eq!(clone_and_flatten(&small), clone_and_flatten(&large));
}

/// A database of `rows` SSB rows whose columns carry access counts, as the
/// query processor leaves them: a few hot, most cold, many never read.
fn accessed_ssb(rows: usize) -> Database {
    let db = SsbGenerator::new(1).with_rows_per_sf(rows).generate();
    let ids: Vec<_> = db.all_column_ids().collect();
    for (i, id) in ids.iter().enumerate().filter(|(i, _)| i % 3 != 0) {
        for _ in 0..(i % 7) + 1 {
            db.stats().record_access(id.index());
        }
    }
    db
}

/// In steady state the background placement job re-decides the pinned set
/// already in place, once per completed query: with an unchanged ranking
/// that pass — rank, home, pack, re-pin — allocates nothing, on one cache
/// or on a sharded fleet.
#[test]
fn a_steady_state_placement_pass_allocates_nothing() {
    let db = accessed_ssb(1_000);
    let cache_bytes = db.byte_size() / 2;
    for (k, manager) in [
        (1, DataPlacementManager::lfu()),
        (2, DataPlacementManager::lfu().with_sharding(2, 4_096)),
    ] {
        let sim = SimConfig::default().with_gpu_cache(cache_bytes).with_coprocessors(k);
        let mut caches = CacheSet::for_topology(&sim.topology, CachePolicy::Lru);
        let mut manager = manager;
        let first = manager.update_set(&db, &mut caches, &[]);
        assert!(!first.is_empty(), "K = {k}: the first pass pins something");
        for pass in 0..3 {
            let (newly, calls) = allocation_calls(|| manager.update_set(&db, &mut caches, &[]));
            assert!(newly.is_empty());
            assert_eq!(calls, 0, "K = {k}: steady-state pass {pass} made {calls} allocation calls");
        }
    }
}

/// Re-pinning exactly the pinned set — in any order — allocates nothing.
#[test]
fn re_pinning_the_pinned_set_allocates_nothing() {
    let mut cache = DataCache::new(1_000, CachePolicy::Lfu);
    let pins: Vec<(CacheKey, u64)> = (0..16).map(|i| (CacheKey::column(i), 40)).collect();
    cache.insert(CacheKey::column(99), 100);
    cache.set_pinned(&pins);
    let reversed: Vec<(CacheKey, u64)> = pins.iter().rev().copied().collect();
    for p in [&pins, &reversed] {
        let ((cached, evicted), calls) = allocation_calls(|| cache.set_pinned(p));
        assert!(cached.is_empty() && evicted.is_empty());
        assert_eq!(calls, 0, "an identical re-pin made {calls} allocation calls");
    }
}

/// The open-loop setting of the last two gates: the 13 SSB templates on a
/// 1 k-row database, K = 1, admission limit 8 and queue cap 32, under
/// Data-Driven Chopping, one arrival every 10 µs of virtual time (100 k
/// queries/s).
struct OpenLoop {
    db: Database,
    templates: Vec<PlanNode>,
    sim: SimConfig,
    opts: ExecOptions,
}

impl OpenLoop {
    fn new() -> Self {
        let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
        let templates = SsbQuery::ALL.iter().map(|q| q.plan(&db).unwrap()).collect();
        let bytes = db.byte_size() as f64;
        let sim = SimConfig::default()
            .with_gpu_memory((3.8 * bytes) as u64)
            .with_gpu_cache((0.47 * bytes) as u64)
            .with_coprocessors(1);
        let opts =
            ExecOptions { max_concurrent_queries: 8, queue_cap: 32, ..ExecOptions::default() };
        OpenLoop { db, templates, sim, opts }
    }

    /// Run `n` arrivals inside `measure`, on a fresh policy and fresh
    /// caches pinned by a closed-loop warm-up over the templates (outside
    /// it); return the run and what `measure` counted.
    fn run(
        &self,
        n: usize,
        measure: impl FnOnce(&mut dyn FnMut() -> RunOutcome) -> (RunOutcome, u64),
    ) -> (RunOutcome, u64) {
        let executor = Executor::new(&self.db, self.sim.clone());
        let mut policy = DataDrivenChopping::new(PlacementPolicyKind::Lfu);
        let mut caches = CacheSet::for_topology(&self.sim.topology, self.sim.cache_policy);
        let warm = vec![self.templates.clone()];
        executor.run_with_cache(warm, &mut policy, &self.opts, &mut caches).unwrap();
        let templates = &self.templates;
        let (out, counted) = measure(&mut || {
            let arrivals: Vec<Arrival> = (0..n)
                .map(|i| Arrival {
                    at: VirtualTime::from_micros(10 * i as u64),
                    session: i as u32,
                    seq: 0,
                    plan: templates[(i * 7) % templates.len()].clone(),
                })
                .collect();
            executor.run_with_cache(arrivals, &mut policy, &self.opts, &mut caches).unwrap()
        });
        let completed = out.outcomes.len();
        assert!(completed > n * 9 / 10, "{completed} of {n} completed");
        (out, counted)
    }
}

/// Allocation calls per completed query of an open-loop run. Placement
/// consults, event-queue operations and the placement pass after every
/// query allocate nothing, and the kernels allocate per output, not per
/// column or per call: what remains is admission (the task list,
/// estimates, scan columns) and one buffer per output, 82 calls a query in
/// a debug build. Cloning every column's name into each chunk, building a
/// scan's read list per call, growing outputs by doubling and indexing the
/// `date` dimension per join, as the kernels once did, makes it 175.
const OPEN_LOOP_CALLS_PER_QUERY: u64 = 100;

#[test]
fn an_open_loop_run_stays_under_its_allocation_calls_per_query() {
    let setting = OpenLoop::new();
    let (out, calls) = setting.run(40 * setting.templates.len(), |run| allocation_calls(run));
    let completed = out.outcomes.len() as u64;
    let per_query = calls / completed;
    assert!(
        per_query <= OPEN_LOOP_CALLS_PER_QUERY,
        "{per_query} allocation calls per completed query ({calls} over {completed}), \
         budget {OPEN_LOOP_CALLS_PER_QUERY}"
    );
}

/// The live bytes an open-loop run keeps per arrival, whatever its length
/// (the growth of its high-water mark from `N` to `16 N` arrivals, over
/// `15 N`), stay within [`BYTES_PER_ARRIVAL`], never above 1 KiB: its
/// schedule and its report, held until it returns. That is the caller's
/// `Arrival` (40 B), which the executor keeps in place as its slot, its
/// `Ev::Arrive` in the event queue (40 B), its `QueryOutcome` (128 B) and
/// about 8.5 `ModelUpdate`s (24 B each), the queue and the samples in
/// buffers that grow by doubling: 609 B measured, the budget that rounded
/// up to 64 B. A finished query's task states, child lists and
/// base-column lists, kept until the run returned, made it 3.4 KB.
#[test]
fn an_open_loop_run_keeps_its_report_per_arrival_not_its_tasks() {
    const { assert!(BYTES_PER_ARRIVAL <= 1024) };
    let setting = OpenLoop::new();
    let n = 20 * setting.templates.len();
    let (_, short) = setting.run(n, |run| peak_live(run));
    let (_, long) = setting.run(16 * n, |run| peak_live(run));
    let per_arrival = long.saturating_sub(short) / (15 * n) as u64;
    assert!(
        per_arrival <= BYTES_PER_ARRIVAL,
        "the high-water mark of live bytes grew by {per_arrival} B an arrival from {n} to {} \
         arrivals ({short} → {long} B), budget {BYTES_PER_ARRIVAL}",
        16 * n
    );
}
