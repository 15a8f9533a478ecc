//! `cargo bench --bench kernels` — wall-clock throughput of the hot CPU
//! kernels at 1M and 10M rows, swept across worker counts.
//!
//! A custom harness (not Criterion — the build is offline): each kernel
//! runs a warm-up pass plus `ITERS` timed passes and reports the best
//! pass as rows/sec. Every variant is the one production function of its
//! operator (`robustq_engine::ops`) and is verified bit-identical to its
//! baseline from `robustq_engine::reference` before timing. Results are
//! printed as a table and written to `BENCH_kernels.json` at the
//! repository root so the perf trajectory is tracked across commits.
//!
//! Five kernel families are measured:
//!
//! * `select` / `join_probe` / `aggregate` — the production kernels over a
//!   dense input against their references, one entry per worker count in
//!   `ROBUSTQ_WORKERS ∈ {1, 2, 4, 8}` (or 1 and the value of
//!   `ROBUSTQ_WORKERS` when set);
//! * `join_build` / `join_probe_fk` / `join_output` — the join the
//!   workloads run, split by what each call leaves to time: a filtered
//!   dimension of `rows / 1000` dense `Int32` keys that a fifth of the
//!   probe rows hit. `join_build` joins it with a zero-row probe (key
//!   extraction and the table; its rows/s count *build* rows),
//!   `join_probe_fk` joins key-only sides (the probe loop plus the
//!   positions it returns), and `join_output` is the same join over sides
//!   carrying four fact and two dimension payload columns. A join returns
//!   positions and copies no column, so `join_output` reads as
//!   `join_probe_fk` does — any time beyond it would be an output gather.
//!   (The timed call is the join alone; the rows behind its positions are
//!   gathered afterwards, to be compared with the reference's);
//! * `join_probe_sparse_{0.5,40,90}pct` — `join_probe_fk`'s fact keys
//!   against a few dimension keys spread over a window of 0.5 %, 40 % or
//!   90 % of the key domain: that share of the probes falls inside the
//!   span the table addresses, the rest outside it, and few hit;
//! * `aggregate_three_keys` — Q3.1's grouping: two dictionary keys of 25
//!   values and one integer of seven;
//! * `join_chain` — where those positions go: `lineorder` ⋈ three filtered
//!   dimensions → `SUM` of one fact column grouped by one dimension
//!   column, the production data path (`execute_plan_fused`: every join
//!   hands on composed positions, the aggregate gathers the two columns it
//!   names) against the materializing oracle (`execute_plan`: every join
//!   gathers every column of its output);
//! * `fused_select_aggregate` / `fused_select_probe` — the fused data
//!   path (positions → selection-aware kernel) against the
//!   pre-selection-vector *materializing* baseline (mask select + gather,
//!   then the downstream reference kernel);
//! * `scan` / `scan_filtered` / `scan_sharded_k{2,4}` /
//!   `scan_sharded_k2_unfiltered` — the executor's scan path, the lazy
//!   interpreter over an SSB `lineorder` scan (whole, with a pushed-down
//!   predicate, and as K `Role::Spine` leaves under a `Role::Merge` —
//!   `LazyChunk::concat`, the one merge kernel — with the predicate and
//!   without one), against the copying scan it replaced:
//!   mask select + gather over every read column, then the output
//!   columns. The lazy output is materialized outside the timed region to
//!   be compared; sharded and unsharded rows share one baseline, so they
//!   are identical to each other too;
//! * `join_dimension_probe` / `join_dimension_probe_86pct` — the join the
//!   1 k-row workloads make most: about a thousand `lineorder` rows probing
//!   `date`'s 2 555 yyyymmdd keys, the whole dimension or its 86 % of
//!   1992–1997, through the join operator over the scans' outputs (200
//!   joins a pass; `rows` counts the probe's) against the reference on the
//!   gathered build side. One size, whatever the sweep's.
//!
//! Two different ratios are reported and must not be confused. `speedup`
//! is variant ÷ baseline — production against the plain reference, i.e.
//! block evaluation and flat hash tables against a scalar loop and
//! `HashMap`, at any worker count. **Thread scaling** is `scaling_vs_1w`:
//! the variant's rows/s ÷ the same kernel and row count at `workers = 1`,
//! next to `workers_effective`, the thread count the kernel really fanned
//! out to after the row thresholds and the hardware cap (the `"host"`
//! object records `nproc`). A sweep entry asking for more workers than
//! the host has is marked `oversubscribed`; its rows run on at most
//! `nproc` threads.
//!
//! `ROBUSTQ_BENCH_ROWS` overrides the row counts (CI smoke runs a small
//! size; the JSON is only written at the default sizes).

use robustq_bench::table::json_str;
use robustq_engine::exec::task::Role;
use robustq_engine::expr::Expr;
use robustq_engine::ops::project::keep_columns;
use robustq_engine::ops::{agg::aggregate, execute_plan, join::hash_join, select::select};
use robustq_engine::plan::{AggSpec, JoinKind, Op, PlanNode};
use robustq_engine::predicate::Predicate;
use robustq_engine::reference;
use robustq_engine::{
    execute_plan_fused, Chunk, KernelClass, LazyChunk, ParallelCtx, SelVec, ShardSpec,
};
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_storage::{ColumnData, DataType, Database, DictColumn, Field};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SIZES: [usize; 2] = [1_000_000, 10_000_000];
const ITERS: usize = 5;

/// Deterministic pseudo-random stream (SplitMix64) for bench data.
fn mix(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn selection_chunk(rows: usize) -> Chunk {
    let mut rng = mix(1);
    Chunk::new(
        vec![
            Field::new("discount", DataType::Int32),
            Field::new("quantity", DataType::Int32),
        ],
        vec![
            ColumnData::Int32((0..rows).map(|_| (rng() % 11) as i32).collect()),
            ColumnData::Int32((0..rows).map(|_| (rng() % 50) as i32).collect()),
        ],
    )
}

fn join_sides(rows: usize) -> (Chunk, Chunk) {
    let build_rows = rows / 10;
    let mut rng = mix(2);
    let build = Chunk::new(
        vec![Field::new("pk", DataType::Int64)],
        vec![ColumnData::Int64((0..build_rows as i64).collect())],
    );
    let probe = Chunk::new(
        vec![
            Field::new("fk", DataType::Int64),
            Field::new("v", DataType::Float64),
        ],
        vec![
            // ~2/3 of probe keys hit the build side.
            ColumnData::Int64(
                (0..rows)
                    .map(|_| (rng() % (build_rows as u64 * 3 / 2)) as i64)
                    .collect(),
            ),
            ColumnData::Float64((0..rows).map(|_| (rng() % 1000) as f64).collect()),
        ],
    );
    (build, probe)
}

/// The foreign-key shape: a dimension of `rows / 1000` dense keys with a
/// number and a name, and a fact side whose keys hit it one time in five,
/// with and without its four payload columns.
fn fk_join_sides(rows: usize) -> (Chunk, Chunk, Chunk) {
    let build_rows = (rows / 1000).max(1);
    let mut rng = mix(4);
    let dim = Chunk::new(
        vec![
            Field::new("pk", DataType::Int32),
            Field::new("year", DataType::Int32),
            Field::new("name", DataType::Str),
        ],
        vec![
            ColumnData::Int32((0..build_rows as i32).collect()),
            ColumnData::Int32((0..build_rows).map(|i| 1992 + (i % 7) as i32).collect()),
            ColumnData::Str(DictColumn::from_strings(
                (0..build_rows).map(|i| format!("NATION{}", i % 25)),
            )),
        ],
    );
    let mut fields = vec![Field::new("fk", DataType::Int32)];
    let mut columns = vec![ColumnData::Int32(
        (0..rows).map(|_| (rng() % (build_rows as u64 * 5)) as i32).collect(),
    )];
    let keys_only = Chunk::new(fields.clone(), columns.clone());
    for name in ["quantity", "price", "revenue"] {
        fields.push(Field::new(name, DataType::Int32));
        columns.push(ColumnData::Int32((0..rows).map(|_| (rng() % 10_000) as i32).collect()));
    }
    fields.push(Field::new("v", DataType::Float64));
    columns.push(ColumnData::Float64((0..rows).map(|_| (rng() % 1000) as f64).collect()));
    (dim, keys_only, Chunk::new(fields, columns))
}

/// In-range shares of the sparse probe, by kernel name: about the shares
/// of Q3.3's, Q2.3's and Q2.2's fact rows whose keys fall inside the
/// span their filtered dimension's keys cover.
const SPARSE_SHARES: [(&str, f64); 3] = [
    ("join_probe_sparse_0.5pct", 0.005),
    ("join_probe_sparse_40pct", 0.4),
    ("join_probe_sparse_90pct", 0.9),
];

/// The dimension side of the sparse foreign-key shape: of the
/// `fk_join_sides` key domain (`5 × rows / 1000` keys, which its fact keys
/// cover uniformly) a few keys survive — one in a hundred of `rows / 1000`
/// — spread over a centred window of `share` of the domain. A probe row
/// then lands inside the directly addressed span with probability
/// `share`, outside it on either side otherwise, and rarely hits.
fn sparse_dim(rows: usize, share: f64) -> Chunk {
    let domain = (rows / 1000).max(1) * 5;
    let survivors = (rows / 100_000).max(2);
    let width = ((domain as f64 * share) as usize).clamp(survivors, domain);
    let lo = (domain - width) / 2;
    let keys = (0..survivors).map(|i| (lo + i * (width - 1) / (survivors - 1)) as i32).collect();
    Chunk::new(vec![Field::new("pk", DataType::Int32)], vec![ColumnData::Int32(keys)])
}

/// Q3.1's aggregate: two dictionary keys of 25 nations each and a year of
/// seven, uniform, summing one fact column.
fn three_key_chunk(rows: usize) -> Chunk {
    let mut rng = mix(5);
    let nations = Arc::new((0..25).map(|i| format!("NATION{i}")).collect::<Vec<_>>());
    let mut nation = || {
        let codes = (0..rows).map(|_| (rng() % 25) as u32).collect();
        ColumnData::Str(DictColumn::from_parts(Arc::clone(&nations), codes))
    };
    let (c_nation, s_nation) = (nation(), nation());
    let mut rng = mix(6);
    Chunk::new(
        vec![
            Field::new("c_nation", DataType::Str),
            Field::new("s_nation", DataType::Str),
            Field::new("d_year", DataType::Int32),
            Field::new("v", DataType::Float64),
        ],
        vec![
            c_nation,
            s_nation,
            ColumnData::Int32((0..rows).map(|_| 1992 + (rng() % 7) as i32).collect()),
            ColumnData::Float64((0..rows).map(|_| (rng() % 10_000) as f64 / 7.0).collect()),
        ],
    )
}

fn aggregation_chunk(rows: usize) -> Chunk {
    let mut rng = mix(3);
    Chunk::new(
        vec![
            Field::new("g", DataType::Int32),
            Field::new("v", DataType::Float64),
        ],
        vec![
            ColumnData::Int32((0..rows).map(|_| (rng() % 1024) as i32).collect()),
            ColumnData::Float64(
                (0..rows).map(|_| (rng() % 10_000) as f64 / 7.0).collect(),
            ),
        ],
    )
}

/// The columns the scan benches output; the predicate column
/// (`lo_discount`) is read but not output.
const SCAN_COLUMNS: [&str; 4] =
    ["lo_orderdate", "lo_quantity", "lo_extendedprice", "lo_revenue"];

fn scan_columns() -> Vec<String> {
    SCAN_COLUMNS.iter().map(|c| c.to_string()).collect()
}

/// The copying scan: every read column of `lineorder` filtered by mask
/// select + gather, then the output columns kept.
fn copying_scan(db: &Database, predicate: &Predicate) -> Chunk {
    let mut read: Vec<&str> = SCAN_COLUMNS.to_vec();
    read.push("lo_discount");
    let base = Chunk::from_table(db.table("lineorder").unwrap(), &read).unwrap();
    keep_columns(&reference::select(&base, predicate).unwrap(), &scan_columns()).unwrap()
}

/// The executor's scan of `lineorder`: one whole task, or `shards` spine
/// leaves under a merge when `shards > 0`.
fn lazy_scan(
    db: &Database,
    predicate: Option<&Predicate>,
    shards: u32,
    ctx: ParallelCtx,
) -> LazyChunk {
    let scan = Op::scan("lineorder", scan_columns(), predicate.cloned());
    if shards == 0 {
        return scan.execute_lazy(&[], db, ctx).unwrap();
    }
    let parts: Vec<LazyChunk> = (0..shards)
        .map(|index| {
            let shard = Role::Spine(ShardSpec { index, of: shards });
            scan.execute_windowed(shard, &[], db, ctx, None).unwrap()
        })
        .collect();
    scan.execute_windowed(Role::Merge, &parts, db, ctx, None).unwrap()
}

/// `lineorder` joined with most of `date`, three fifths of `customer` and
/// two fifths of `supplier`, its revenue summed by customer nation: six
/// fact columns ride through three joins for one of them to be read.
fn join_chain() -> PlanNode {
    PlanNode::scan(
        "lineorder",
        ["lo_orderdate", "lo_custkey", "lo_suppkey", "lo_quantity", "lo_extendedprice", "lo_revenue"],
    )
    .join(
        PlanNode::scan("date", ["d_datekey"]).filter(Predicate::between("d_year", 1993, 1998)),
        "lo_orderdate",
        "d_datekey",
    )
    .join(
        PlanNode::scan("customer", ["c_custkey", "c_nation"])
            .filter(Predicate::in_list("c_region", ["ASIA", "AMERICA", "EUROPE"])),
        "lo_custkey",
        "c_custkey",
    )
    .join(
        PlanNode::scan("supplier", ["s_suppkey"])
            .filter(Predicate::in_list("s_region", ["ASIA", "AMERICA"])),
        "lo_suppkey",
        "s_suppkey",
    )
    .aggregate(["c_nation"], vec![AggSpec::sum(Expr::col("lo_revenue"), "revenue")])
}

/// `lineorder` rows of the dimension probe's database: about the 1 k rows
/// of `ssb_serve_open`. Its `date` has 2 555 yyyymmdd keys at any scale.
const DIMENSION_PROBE_ROWS: usize = 1_031;
/// Joins per timed pass of the dimension probe: one takes microseconds.
const DIMENSION_PROBE_CALLS: usize = 200;

/// The join the 1 k-row workloads make most often: `lineorder ⋈ date` on
/// the order date, the whole dimension or, filtered, its 86 % of 1992–1997,
/// as the scans of `db` hand them to the join. Returns `(kernel, build
/// side, probe side)` for both.
fn dimension_probe_sides(db: &Database) -> Vec<(&'static str, LazyChunk, LazyChunk)> {
    let scan = |table: &str, columns: [&str; 2], predicate: Option<Predicate>| {
        let scan = match predicate {
            Some(p) => PlanNode::scan(table, columns).filter(p),
            None => PlanNode::scan(table, columns),
        };
        scan.op().execute_lazy(&[], db, ParallelCtx::serial()).unwrap()
    };
    let fact = scan("lineorder", ["lo_orderdate", "lo_revenue"], None);
    let years = Predicate::between("d_year", 1992, 1997);
    [("join_dimension_probe", None), ("join_dimension_probe_86pct", Some(years))]
        .into_iter()
        .map(|(kernel, filter)| (kernel, scan("date", ["d_datekey", "d_year"], filter), fact.clone()))
        .collect()
}

/// `call` run `DIMENSION_PROBE_CALLS` times: the last result.
fn repeated<T>(call: impl Fn() -> T) -> T {
    (1..DIMENSION_PROBE_CALLS).fold(call(), |_, _| call())
}

/// What a join returns: `(probe stream index, build row)` per match.
type Pairs = (Vec<u32>, Vec<u32>);

/// Best-of-`ITERS` wall-clock seconds for `f` (after one warm-up pass).
fn time_best<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let out = f();
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    (out, best)
}

struct Measurement {
    kernel: &'static str,
    /// The input size this row belongs to (the probe or scan rows).
    rows: usize,
    baseline_rows_per_sec: f64,
    variant_rows_per_sec: f64,
    /// Threads the variant really ran on (row thresholds and the hardware
    /// cap applied; the widest stage of a fused pipeline).
    workers_effective: usize,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.variant_rows_per_sec / self.baseline_rows_per_sec
    }
}

/// Reference baselines for one input size. Re-timed inside every worker
/// sweep entry, adjacent to the variants they are compared against: a
/// baseline timed once up front sees a different allocator/page-cache
/// state than variants timed minutes later, which showed up as a
/// systematic ~15% bias on identical code paths.
struct Baselines {
    select: (Chunk, f64),
    join: (Chunk, f64),
    join_build: (Chunk, f64),
    join_probe_fk: (Chunk, f64),
    join_output: (Chunk, f64),
    /// One per `SPARSE_SHARES` entry.
    join_probe_sparse: Vec<(Chunk, f64)>,
    join_chain: (Chunk, f64),
    agg: (Chunk, f64),
    agg_three_keys: (Chunk, f64),
    fused_agg: (Chunk, f64),
    fused_probe: (Chunk, f64),
    scan: (Chunk, f64),
    scan_filtered: (Chunk, f64),
}

/// Worker counts to sweep. Always starts at 1: `scaling_vs_1w` divides
/// by that entry.
fn worker_sweep() -> Vec<usize> {
    match std::env::var("ROBUSTQ_WORKERS").ok().and_then(|v| v.parse().ok()) {
        Some(1) => vec![1],
        Some(w) => vec![1, w],
        None => vec![1, 2, 4, 8],
    }
}

/// Row counts to measure and whether results should be persisted
/// (`ROBUSTQ_BENCH_ROWS` selects a smoke run: measured and verified, not
/// written to the JSON).
fn bench_sizes() -> (Vec<usize>, bool) {
    match std::env::var("ROBUSTQ_BENCH_ROWS").ok().and_then(|v| v.parse().ok()) {
        Some(rows) => (vec![rows], false),
        None => (SIZES.to_vec(), true),
    }
}

fn main() {
    let sweep = worker_sweep();
    let (sizes, write_json) = bench_sizes();
    let started = Instant::now();
    // results[i] collects the measurements for sweep[i].
    let mut results: Vec<Vec<Measurement>> = sweep.iter().map(|_| Vec::new()).collect();

    for &rows in &sizes {
        let sel_chunk = selection_chunk(rows);
        let sel_pred = Predicate::and([
            Predicate::between("discount", 4, 6),
            Predicate::between("quantity", 26, 35),
        ]);
        let (build, probe) = join_sides(rows);
        let (dim, fact_keys, fact) = fk_join_sides(rows);
        let dim_keys = keep_columns(&dim, &["pk".to_string()]).unwrap();
        let no_fact = fact_keys.gather(&[]);
        let fk_reference = |dim: &Chunk, fact: &Chunk| {
            reference::hash_join(dim, fact, None, "pk", "fk", JoinKind::Inner).unwrap()
        };
        let v_pred = Predicate::between("v", 0, 499);
        let sparse_dims: Vec<Chunk> =
            SPARSE_SHARES.iter().map(|&(_, share)| sparse_dim(rows, share)).collect();
        let agg_chunk = aggregation_chunk(rows);
        let group_by = vec!["g".to_string()];
        let aggs = vec![AggSpec::sum(Expr::col("v"), "sum"), AggSpec::count("cnt")];
        let three_keys = three_key_chunk(rows);
        let three_group_by: Vec<String> =
            ["c_nation", "s_nation", "d_year"].iter().map(|k| k.to_string()).collect();
        let three_aggs = vec![AggSpec::sum(Expr::col("v"), "revenue")];
        let selected =
            |chunk: &Chunk| select(chunk, None, &v_pred, ParallelCtx::serial()).unwrap().len();
        let (agg_selected, probe_selected) = (selected(&agg_chunk), selected(&probe));
        let ssb = SsbGenerator::new(1).with_rows_per_sf(rows).generate();
        let scan_pred = Predicate::between("lo_discount", 4, 6);
        let chain = join_chain();

        for (i, &workers) in sweep.iter().enumerate() {
            let base = Baselines {
                select: time_best(|| {
                    let sel =
                        reference::select_positions(&sel_chunk, None, &sel_pred).unwrap();
                    sel_chunk.gather(sel.positions())
                }),
                join: time_best(|| {
                    reference::hash_join(&build, &probe, None, "pk", "fk", JoinKind::Inner)
                        .unwrap()
                }),
                join_build: time_best(|| fk_reference(&dim, &no_fact)),
                join_probe_fk: time_best(|| fk_reference(&dim_keys, &fact_keys)),
                join_output: time_best(|| fk_reference(&dim, &fact)),
                join_probe_sparse: sparse_dims
                    .iter()
                    .map(|dim| time_best(|| fk_reference(dim, &fact_keys)))
                    .collect(),
                join_chain: time_best(|| execute_plan(&chain, &ssb).unwrap()),
                agg: time_best(|| {
                    reference::aggregate(&agg_chunk, None, &group_by, &aggs).unwrap()
                }),
                agg_three_keys: time_best(|| {
                    reference::aggregate(&three_keys, None, &three_group_by, &three_aggs).unwrap()
                }),
                // The fused baselines are the pre-selection-vector pipelines:
                // mask select + gather, then the downstream kernel on the
                // materialized intermediate.
                fused_agg: time_best(|| {
                    let filtered = reference::select(&agg_chunk, &v_pred).unwrap();
                    reference::aggregate(&filtered, None, &group_by, &aggs).unwrap()
                }),
                fused_probe: time_best(|| {
                    let filtered = reference::select(&probe, &v_pred).unwrap();
                    reference::hash_join(&build, &filtered, None, "pk", "fk", JoinKind::Inner)
                        .unwrap()
                }),
                scan: time_best(|| copying_scan(&ssb, &Predicate::True)),
                scan_filtered: time_best(|| copying_scan(&ssb, &scan_pred)),
            };
            let ctx = ParallelCtx::serial().with_workers(workers);
            // `work`: the rows the timed call reads, what its rows/s count.
            let mut push = |work: usize,
                            kernel: &'static str,
                            workers_effective: usize,
                            baseline: &(Chunk, f64),
                            variant: (Chunk, f64)| {
                assert_eq!(
                    baseline.0, variant.0,
                    "{kernel}/{rows}@{workers}w: variant diverged from baseline \
                     (checksums {:#x} vs {:#x})",
                    baseline.0.checksum(),
                    variant.0.checksum(),
                );
                results[i].push(Measurement {
                    kernel,
                    rows,
                    baseline_rows_per_sec: work as f64 / baseline.1,
                    variant_rows_per_sec: work as f64 / variant.1,
                    workers_effective,
                });
            };
            // A fused pipeline filters `rows` rows, then its consumer reads
            // the `selected` survivors: report the wider stage.
            let fused_workers = |selected: usize, class| {
                ctx.workers_for(rows, KernelClass::Selection)
                    .max(ctx.workers_for(selected, class))
            };

            push(
                rows,
                "select",
                ctx.workers_for(rows, KernelClass::Selection),
                &base.select,
                time_best(|| {
                    let sel = select(&sel_chunk, None, &sel_pred, ctx).unwrap();
                    sel_chunk.gather(sel.positions())
                }),
            );
            // Only the join is timed: it returns positions, gathered
            // afterwards to be compared with the reference's rows.
            let join = |build: &Chunk, probe: &Chunk, sel: Option<&SelVec>| {
                hash_join((build, None), (probe, sel), "pk", "fk", JoinKind::Inner, ctx, None).unwrap()
            };
            let gathered = |build: &Chunk, probe: &Chunk, (pairs, secs): (Pairs, f64)| {
                (probe.gather(&pairs.0).zip(build.gather(&pairs.1)), secs)
            };
            push(
                rows,
                "join_probe",
                ctx.workers_for(rows, KernelClass::Join),
                &base.join,
                gathered(&build, &probe, time_best(|| join(&build, &probe, None))),
            );
            let join_workers = ctx.workers_for(rows, KernelClass::Join);
            push(
                dim.num_rows(),
                "join_build",
                1,
                &base.join_build,
                gathered(&dim, &no_fact, time_best(|| join(&dim, &no_fact, None))),
            );
            push(
                rows,
                "join_probe_fk",
                join_workers,
                &base.join_probe_fk,
                gathered(&dim_keys, &fact_keys, time_best(|| join(&dim_keys, &fact_keys, None))),
            );
            push(
                rows,
                "join_output",
                join_workers,
                &base.join_output,
                gathered(&dim, &fact, time_best(|| join(&dim, &fact, None))),
            );
            for ((kernel, _), (dim, baseline)) in
                SPARSE_SHARES.iter().zip(sparse_dims.iter().zip(&base.join_probe_sparse))
            {
                push(
                    rows,
                    kernel,
                    join_workers,
                    baseline,
                    gathered(dim, &fact_keys, time_best(|| join(dim, &fact_keys, None))),
                );
            }
            push(
                rows,
                "join_chain",
                join_workers,
                &base.join_chain,
                time_best(|| execute_plan_fused(&chain, &ssb, ctx).unwrap()),
            );
            push(
                rows,
                "aggregate",
                ctx.workers_for(rows, KernelClass::Aggregation),
                &base.agg,
                time_best(|| aggregate(&agg_chunk, None, &group_by, &aggs, ctx).unwrap()),
            );
            push(
                rows,
                "aggregate_three_keys",
                ctx.workers_for(rows, KernelClass::Aggregation),
                &base.agg_three_keys,
                time_best(|| {
                    aggregate(&three_keys, None, &three_group_by, &three_aggs, ctx).unwrap()
                }),
            );
            push(
                rows,
                "fused_select_aggregate",
                fused_workers(agg_selected, KernelClass::Aggregation),
                &base.fused_agg,
                time_best(|| {
                    let sel = select(&agg_chunk, None, &v_pred, ctx).unwrap();
                    aggregate(&agg_chunk, Some(&sel), &group_by, &aggs, ctx).unwrap()
                }),
            );
            push(
                rows,
                "fused_select_probe",
                fused_workers(probe_selected, KernelClass::Join),
                &base.fused_probe,
                gathered(
                    &build,
                    &reference::select(&probe, &v_pred).unwrap(),
                    time_best(|| {
                        let sel = select(&probe, None, &v_pred, ctx).unwrap();
                        join(&build, &probe, Some(&sel))
                    }),
                ),
            );

            // Only the lazy scan is timed; its output is materialized
            // afterwards to be compared with the copying scan's.
            let materialized = |(out, secs): (LazyChunk, f64)| (out.materialize(), secs);
            push(
                rows,
                "scan",
                1,
                &base.scan,
                materialized(time_best(|| lazy_scan(&ssb, None, 0, ctx))),
            );
            for (kernel, shards) in
                [("scan_filtered", 0), ("scan_sharded_k2", 2), ("scan_sharded_k4", 4)]
            {
                push(
                    rows,
                    kernel,
                    ctx.workers_for(rows / shards.max(1) as usize, KernelClass::Selection),
                    &base.scan_filtered,
                    materialized(time_best(|| lazy_scan(&ssb, Some(&scan_pred), shards, ctx))),
                );
            }
            push(
                rows,
                "scan_sharded_k2_unfiltered",
                1,
                &base.scan,
                materialized(time_best(|| lazy_scan(&ssb, None, 2, ctx))),
            );
        }
    }

    // The dimension probe is one size: a thousand fact rows against `date`,
    // `DIMENSION_PROBE_CALLS` joins a pass. The baseline joins the build
    // side gathered, as the oracle sees it.
    let ssb = SsbGenerator::new(1).with_rows_per_sf(DIMENSION_PROBE_ROWS).generate();
    let dimension_sides = dimension_probe_sides(&ssb);
    for (i, &workers) in sweep.iter().enumerate() {
        let ctx = ParallelCtx::serial().with_workers(workers);
        for (kernel, date, fact) in &dimension_sides {
            let rows = fact.num_rows();
            let (date_rows, fact_rows) = (date.clone().materialize(), fact.clone().materialize());
            let reference = || {
                reference::hash_join(&date_rows, &fact_rows, None, "d_datekey", "lo_orderdate", JoinKind::Inner)
                    .unwrap()
            };
            let join = Op::HashJoin {
                build_key: "d_datekey".to_string(),
                probe_key: "lo_orderdate".to_string(),
                kind: JoinKind::Inner,
            };
            let children = [date.clone(), fact.clone()];
            let baseline = time_best(|| repeated(reference));
            let (out, secs) = time_best(|| repeated(|| join.execute_lazy(&children, &ssb, ctx).unwrap()));
            let variant = out.materialize();
            assert_eq!(baseline.0, variant, "{kernel}@{workers}w: variant diverged from baseline");
            results[i].push(Measurement {
                kernel,
                rows,
                baseline_rows_per_sec: (rows * DIMENSION_PROBE_CALLS) as f64 / baseline.1,
                variant_rows_per_sec: (rows * DIMENSION_PROBE_CALLS) as f64 / secs,
                workers_effective: ctx.workers_for(rows, KernelClass::Join),
            });
        }
    }

    // Thread scaling: the same kernel and row count at `workers = 1`
    // (`sweep[0]`, measured in this run).
    let scaling_vs_1w = |m: &Measurement| {
        let one = results[0]
            .iter()
            .find(|o| o.kernel == m.kernel && o.rows == m.rows)
            .expect("every kernel is measured at one worker");
        m.variant_rows_per_sec / one.variant_rows_per_sec
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("host: nproc {nproc}");
    println!(
        "{:<26} {:>10} {:>7} {:>9} {:>16} {:>16} {:>9} {:>10}",
        "kernel", "rows", "workers", "effective", "baseline rows/s", "variant rows/s",
        "speedup", "vs 1w"
    );
    for (i, &workers) in sweep.iter().enumerate() {
        for m in &results[i] {
            println!(
                "{:<26} {:>10} {:>7} {:>9} {:>16.0} {:>16.0} {:>8.2}x {:>9.2}x",
                m.kernel,
                m.rows,
                workers,
                m.workers_effective,
                m.baseline_rows_per_sec,
                m.variant_rows_per_sec,
                m.speedup(),
                scaling_vs_1w(m)
            );
        }
    }

    let mut json = format!(
        "{{\n  \"host\": {{\"nproc\": {nproc}, \"worker_cap\": {}}},\n  \"entries\": [",
        ParallelCtx::auto().workers
    );
    for (i, &workers) in sweep.iter().enumerate() {
        let ctx = ParallelCtx::serial().with_workers(workers);
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        json.push_str(&format!(
            "{{\"workers\": {}, \"oversubscribed\": {}, \"morsel_rows\": {}, \
             \"min_rows_per_worker\": {}, \"results\": [",
            workers,
            workers > nproc,
            ctx.morsel_rows,
            ctx.min_rows_per_worker
        ));
        for (j, m) in results[i].iter().enumerate() {
            json.push_str(if j == 0 { "\n      " } else { ",\n      " });
            json.push_str(&format!(
                "{{\"kernel\": {}, \"rows\": {}, \"baseline_rows_per_sec\": {:.0}, \
                 \"variant_rows_per_sec\": {:.0}, \"speedup\": {:.3}, \
                 \"workers_effective\": {}, \"scaling_vs_1w\": {:.3}}}",
                json_str(m.kernel),
                m.rows,
                m.baseline_rows_per_sec,
                m.variant_rows_per_sec,
                m.speedup(),
                m.workers_effective,
                scaling_vs_1w(m)
            ));
        }
        json.push_str("\n    ]}");
    }
    json.push_str("\n  ]\n}\n");

    if write_json {
        // crates/bench/ -> repository root.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        std::fs::write(path, &json).expect("write BENCH_kernels.json");
        eprintln!(
            "kernel benches done in {:.1}s (workers {:?}); wrote BENCH_kernels.json",
            started.elapsed().as_secs_f64(),
            sweep
        );
    } else {
        eprintln!(
            "kernel bench smoke done in {:.1}s (workers {:?}, sizes {:?}); \
             all variants bit-identical to baselines",
            started.elapsed().as_secs_f64(),
            sweep,
            sizes
        );
    }
}
