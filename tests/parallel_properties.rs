//! Property tests: each production kernel is **bit-identical** to its
//! reference, for every row stream and every parallelism context.
//!
//! For each of select / hash join / aggregate, the one production function
//! (`robustq::engine::ops::{select::select, join::hash_join,
//! agg::aggregate}`) is run over `sel ∈ {None, Some}` × `ctx ∈ {serial,
//! workers 2/8 × morsel 1/7/64/65 536 with the fan-out threshold off}` and
//! compared against `robustq::engine::reference` on the gathered input via
//! `Result<Chunk, String>` equality (fields, column data, dictionary codes
//! **and** `Err` strings), across all column `DataType`s, including empty
//! and single-row chunks. Any divergence — group numbering, float
//! association order, dictionary rebuilds, a different error — fails these
//! tests. The join is additionally walked through every decision its
//! table makes (`key_shape`): direct or hashed addressing, unique or
//! repeated build keys, keys outside the addressed span, every key-type
//! pairing, block boundaries — and through a base column's key index
//! (`star`): the whole column, selections above and below the probe's
//! length, a composed one; unique, repeating, sparse, float, string and
//! empty key columns. The aggregate goes through every decision its
//! grouper makes (`group_by_for`): packed into a table or a map word,
//! float and unpackable keys paired onto it.

use proptest::prelude::*;
use robustq::engine::exec::task::{Role, ShardSpec};
use robustq::engine::plan::Op;
use robustq::engine::expr::Expr;
use robustq::engine::ops;
use robustq::engine::plan::{AggFunc, AggSpec, JoinKind};
use robustq::engine::predicate::{CmpOp, Predicate};
use robustq::engine::reference;
use robustq::engine::{Chunk, LazyChunk, ParallelCtx, SelVec};
use robustq::storage::{ColumnData, DataType, Database, DictColumn, Field, Schema, Table};

const WORKER_GRID: [usize; 2] = [2, 8];
const MORSEL_GRID: [usize; 4] = [1, 7, 64, 65_536];

const STR_POOL: [&str; 7] =
    ["ASIA", "EUROPE", "AMERICA", "AFRICA", "MIDDLE EAST", "x", ""];

/// One generated row: (i32, i64, float-source, string-pool index).
type Row = (i32, i64, i32, usize);

/// Build a chunk with one column of every `DataType` from generated rows,
/// plus two more group keys: `small`, of four values, and `wide`, whose
/// `Int64` extremes span a range no word can pack. Each call interns its
/// own dictionary, so two chunks never share one.
fn chunk_of(rows: &[Row]) -> Chunk {
    Chunk::new(
        vec![
            Field::new("i32", DataType::Int32),
            Field::new("i64", DataType::Int64),
            Field::new("f64", DataType::Float64),
            Field::new("str", DataType::Str),
            Field::new("small", DataType::Int32),
            Field::new("wide", DataType::Int64),
        ],
        vec![
            ColumnData::Int32(rows.iter().map(|r| r.0).collect()),
            ColumnData::Int64(rows.iter().map(|r| r.1).collect()),
            ColumnData::Float64(rows.iter().map(|r| r.2 as f64 / 3.0).collect()),
            ColumnData::Str(DictColumn::from_strings(
                rows.iter().map(|r| STR_POOL[r.3 % STR_POOL.len()].to_string()),
            )),
            ColumnData::Int32(rows.iter().map(|r| r.0.rem_euclid(4)).collect()),
            ColumnData::Int64(rows.iter().map(|r| [i64::MIN, r.1, i64::MAX][r.3 % 3]).collect()),
        ],
    )
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((-40i32..40, -9i64..9, -60i32..60, 0usize..7), 0..max)
}

/// Block-compilable shapes (0–5), scalar-fallback shapes (6–7) and shapes
/// that fail: a data-dependent NaN error behind a short-circuit (8) and
/// under a negation (9), an incomparable column pair (10), a type
/// mismatch (11) and an unknown column (12).
const NUM_PREDICATES: usize = 13;

fn predicate_for(which: usize) -> Predicate {
    match which % NUM_PREDICATES {
        0 => Predicate::cmp("i32", CmpOp::Lt, 5),
        1 => Predicate::between("f64", -5.0, 8.0),
        2 => Predicate::in_list("str", ["ASIA", "x"]),
        3 => Predicate::StrPrefix { column: "str".into(), prefix: "A".into() },
        4 => Predicate::and([
            Predicate::cmp("i64", CmpOp::Ge, -3),
            Predicate::Not(Box::new(Predicate::eq("str", "EUROPE"))),
        ]),
        5 => Predicate::or([
            Predicate::eq("i32", 0),
            Predicate::cmp("f64", CmpOp::Gt, 10.0),
        ]),
        6 => Predicate::ColCmp { left: "i32".into(), op: CmpOp::Le, right: "f64".into() },
        7 => Predicate::and([
            Predicate::ColCmp { left: "i64".into(), op: CmpOp::Ne, right: "i32".into() },
            Predicate::StrSuffix { column: "str".into(), suffix: "A".into() },
        ]),
        8 => Predicate::and([
            Predicate::cmp("i32", CmpOp::Gt, 30),
            Predicate::cmp("f64", CmpOp::Lt, f64::NAN),
        ]),
        9 => Predicate::Not(Box::new(Predicate::cmp("f64", CmpOp::Eq, f64::NAN))),
        10 => Predicate::ColCmp { left: "str".into(), op: CmpOp::Eq, right: "i32".into() },
        11 => Predicate::eq("str", 4),
        _ => Predicate::eq("missing", 1),
    }
}

/// Key columns of every type, plus an unknown one.
fn key_column(which: usize) -> &'static str {
    ["i32", "i64", "f64", "str", "missing"][which % 5]
}

fn join_kind(which: usize) -> JoinKind {
    [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti][which % 3]
}

/// A strictly increasing selection over `n` rows drawn from `picks`.
fn sel_of(n: usize, picks: &[bool]) -> SelVec {
    SelVec::new((0..n as u32).filter(|&i| picks[i as usize % picks.len()]).collect())
}

fn picks_strategy() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(prop::bool::ANY, 1..16)
}

/// Serial, then workers × morsels with the fan-out threshold off so even
/// tiny streams run the pool and the morsel-order merges.
fn ctx_grid() -> Vec<ParallelCtx> {
    let mut grid = vec![ParallelCtx::serial()];
    for workers in WORKER_GRID {
        for morsel in MORSEL_GRID {
            grid.push(
                ParallelCtx::serial()
                    .with_workers(workers)
                    .with_morsel_rows(morsel)
                    .with_min_rows_per_worker(0),
            );
        }
    }
    grid
}

/// Assert `run(sel, ctx)` equals `reference(gathered input)` for the dense
/// stream and for the stream through `sel`, over the whole context grid.
fn assert_grid(
    chunk: &Chunk,
    sel: &SelVec,
    reference: impl Fn(&Chunk) -> Result<Chunk, String>,
    run: impl Fn(Option<&SelVec>, ParallelCtx) -> Result<Chunk, String>,
) {
    for sel in [None, Some(sel)] {
        let want = match sel {
            None => reference(chunk),
            Some(s) => reference(&chunk.gather(s.positions())),
        };
        for ctx in ctx_grid() {
            assert_eq!(
                run(sel, ctx),
                want,
                "production diverged from reference at sel={:?} {ctx:?}",
                sel.map(SelVec::len),
            );
        }
    }
}

fn check_select(chunk: &Chunk, sel: &SelVec, pred: &Predicate) {
    assert_grid(
        chunk,
        sel,
        |input| {
            let positions = reference::select_positions(input, None, pred)?;
            Ok(input.gather(positions.positions()))
        },
        |sel, ctx| {
            let positions = ops::select::select(chunk, sel, pred, ctx)?;
            Ok(chunk.gather(positions.positions()))
        },
    );
}

/// The production join over the probe stream `(probe, sel)`, with the rows
/// behind the positions it returns.
fn joined(
    build: &Chunk,
    probe: &Chunk,
    sel: Option<&SelVec>,
    (build_key, probe_key): (&str, &str),
    kind: JoinKind,
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    let (build, probe) = ((build, None), (probe, sel));
    let pairs = ops::join::hash_join(build, probe, build_key, probe_key, kind, ctx, None)?;
    Ok(reference::joined_rows(build, probe, &pairs, kind))
}

fn check_join(
    build: &Chunk,
    probe: &Chunk,
    sel: &SelVec,
    (build_key, probe_key): (&str, &str),
    kind: JoinKind,
) {
    assert_grid(
        probe,
        sel,
        |input| reference::hash_join(build, input, None, build_key, probe_key, kind),
        |sel, ctx| joined(build, probe, sel, (build_key, probe_key), kind, ctx),
    );
}

fn check_aggregate(chunk: &Chunk, sel: &SelVec, group_by: &[String], aggs: &[AggSpec]) {
    assert_grid(
        chunk,
        sel,
        |input| reference::aggregate(input, None, group_by, aggs),
        |sel, ctx| ops::agg::aggregate(chunk, sel, group_by, aggs, ctx),
    );
}

/// Group-by lists that cross every decision the grouper makes: no key;
/// one and two keys packed into one word; three (`str` × `i64` × `small`:
/// at most 7 × 18 × 4 = 504 ids) that index a table directly from 504
/// grouped rows on and go through a map below that; a `Float64` key paired
/// onto a packed word; `Int64` extremes, whose range cannot pack, paired
/// before and after the float; and (6) an unknown column.
const NUM_GROUP_BYS: usize = 7;

fn group_by_for(which: usize) -> Vec<String> {
    let keys: &[&str] = match which % NUM_GROUP_BYS {
        0 => &[],
        1 => &["str"],
        2 => &["str", "i32"],
        3 => &["str", "i64", "small"],
        4 => &["i32", "f64", "str", "wide"],
        5 => &["wide", "small", "f64", "i64", "str"],
        _ => &["missing"],
    };
    keys.iter().map(|s| s.to_string()).collect()
}

fn aggs_for(failing: bool) -> Vec<AggSpec> {
    let mut aggs = vec![
        AggSpec::sum(Expr::col("f64"), "sum"),
        AggSpec::count("cnt"),
        AggSpec::new(AggFunc::Min, Expr::col("f64"), "lo"),
        AggSpec::new(AggFunc::Max, Expr::col("i32"), "hi"),
        AggSpec::new(AggFunc::Avg, Expr::col("f64") * Expr::lit(2.0), "avg"),
    ];
    if failing {
        aggs.push(AggSpec::sum(Expr::col("str"), "not_numeric"));
    }
    aggs
}

/// A database holding `chunk` as table `t`.
fn db_of(chunk: &Chunk) -> Database {
    let table =
        Table::from_shared("t", Schema::new(chunk.fields().to_vec()), chunk.columns().to_vec());
    let mut db = Database::new();
    db.add_table(table.expect("valid table")).expect("fresh database");
    db
}

/// The production `Role::Spine` leaves of a `of`-way sharded scan of `t`
/// concatenate to the reference selection over the scanned rows — the
/// positions, or the reference's error from the first shard that fails —
/// and their `Role::Merge` is byte-identical to the whole scan.
fn check_sharded_scan(
    chunk: &Chunk,
    predicate: Option<&Predicate>,
    window: Option<(usize, usize)>,
    of: u32,
    ctx: ParallelCtx,
) {
    let db = db_of(chunk);
    let columns = vec!["i64".to_string(), "str".to_string()];
    let window = window.map(|(lo, hi)| ("t", lo, hi));
    // What the scan reads: the table, or the window's rows of it.
    let (lo, hi) = window.map_or((0, chunk.num_rows()), |(_, lo, hi)| (lo, hi));
    let scanned = chunk.gather(&(lo as u32..hi as u32).collect::<Vec<u32>>());
    let want =
        reference::select_positions(&scanned, None, predicate.unwrap_or(&Predicate::True));

    let scan = Op::scan("t", columns, predicate.cloned());
    let shards: Vec<Result<LazyChunk, String>> = (0..of)
        .map(|index| {
            let shard = Role::Spine(ShardSpec { index, of });
            scan.execute_windowed(shard, &[], &db, ctx, window)
        })
        .collect();
    let whole =
        scan.execute_windowed(Role::Whole, &[], &db, ctx, window).map(LazyChunk::materialize);

    let at = format!("of={of} window={window:?} predicate={predicate:?} {ctx:?}");
    match want {
        Err(e) => {
            let first = shards.iter().find_map(|s| s.as_ref().err());
            assert_eq!(first, Some(&e), "shard error, {at}");
            assert_eq!(whole, Err(e), "scan error, {at}");
        }
        Ok(want) => {
            let shards: Vec<LazyChunk> =
                shards.into_iter().collect::<Result<_, _>>().expect(&at);
            // A shard selects rows of the whole table — a window's
            // positions are offset by its start — and one whose range
            // covers the table comes back dense.
            let positions: Vec<u32> = shards
                .iter()
                .flat_map(|s| match s.groups() {
                    [] => (0..s.num_rows() as u32).collect(),
                    groups => groups[0].sel.positions().to_vec(),
                })
                .collect();
            let want: Vec<u32> = want.positions().iter().map(|&p| p + lo as u32).collect();
            assert_eq!(positions, want, "shard positions, {at}");
            let merged = scan
                .execute_windowed(Role::Merge, &shards, &db, ctx, None)
                .map(LazyChunk::materialize);
            assert_eq!(merged, whole, "merge vs unsharded scan, {at}");
            assert!(whole.is_ok(), "{at}");
        }
    }
}

/// Rows per output block of the exact probe (`ops/join.rs::BLOCK`).
const PROBE_BLOCK: usize = 256;

/// Key shapes that cross every decision the join's table makes.
const NUM_KEY_SHAPES: usize = 13;

/// Build and probe sides of `build_n` and `probe_n` rows, each a key
/// column `k` and a row-number payload, by shape. `probed` is how many of
/// the probe rows the join will read (fewer through a selection): the
/// table addresses keys directly while their span is below `build_n +
/// probed`, so shapes 2 and 3 sit on either side of that line. `base`
/// shifts the integer keys.
fn key_shape(shape: usize, build_n: usize, probe_n: usize, probed: usize, base: i64) -> (Chunk, Chunk) {
    let ints = |keys: Vec<i64>| ColumnData::Int64(keys);
    let narrow = |keys: Vec<i64>| ColumnData::Int32(keys.into_iter().map(|k| k as i32).collect());
    let floats = |keys: Vec<i64>| ColumnData::Float64(keys.into_iter().map(|k| k as f64 / 2.0).collect());
    let strs = |keys: Vec<i64>| {
        ColumnData::Str(DictColumn::from_strings(keys.into_iter().map(|k| format!("s{}", k.rem_euclid(9)))))
    };
    let (b, p) = (build_n as i64, probe_n as i64);
    // Probe keys wander two past either end of `lo..lo + width`.
    let around = |lo: i64, width: i64| {
        (0..p).map(|i| lo.wrapping_add((i * 5) % (width + 4) - 2)).collect::<Vec<_>>()
    };
    // Unique keys whose largest is `span` above the smallest.
    let spanning = |span: i64| {
        (0..b).map(|i| base.wrapping_add(if i + 1 == b { span } else { i })).collect::<Vec<_>>()
    };
    let extremes = [-1, i64::MIN, i64::MAX, 0, 1, -2, i64::MIN + 1];
    let limit = b + probed as i64;
    let (build, probe) = match shape % NUM_KEY_SHAPES {
        // Dense and unique, in descending build order.
        0 => (ints((0..b).rev().map(|i| base.wrapping_add(i)).collect()), ints(around(base, b))),
        // Dense with repeats: matches must come out in build-row order.
        1 => (
            ints((0..b).map(|i| base.wrapping_add(i % (b / 3).max(1))).collect()),
            ints(around(base, b / 3)),
        ),
        // The widest span still addressed directly, and the first hashed.
        2 => (ints(spanning((limit - 1).max(b - 1))), ints(around(base, limit))),
        3 => (ints(spanning(limit.max(b - 1))), ints(around(base, limit))),
        // −1 (the old "cannot match" bit pattern) and both ends of `i64`.
        4 => (
            ints((0..b).map(|i| extremes[i as usize % 5]).collect()),
            ints((0..p).map(|i| extremes[i as usize % 7]).collect()),
        ),
        // Mixed integer widths, both ways, around zero.
        5 => (narrow((0..b).map(|i| i - b / 2).collect()), ints(around(-b / 2, b))),
        6 => (ints((0..b).map(|i| i - b / 2).collect()), narrow(around(-b / 2, b))),
        // Integer × float compares through `f64` bits, as does float × float.
        7 => (
            narrow((0..b).map(|i| base.wrapping_add(i)).collect()),
            floats(around(base.wrapping_mul(2), 2 * b)),
        ),
        8 => (floats((0..b).map(|i| i - b / 2).collect()), floats(around(-b / 2, b))),
        // Strings over distinct dictionaries (with probe-only strings)…
        9 => (strs((0..b).map(|i| i % 5).collect()), strs(around(0, 9))),
        // …over one shared dictionary…
        10 => {
            let all = strs((0..b + p).collect());
            let half = |rows: std::ops::Range<i64>| all.gather(&rows.map(|i| i as u32).collect::<Vec<_>>());
            (half(0..b), half(b..b + p))
        }
        // …and against a numeric column: a type error.
        11 => (strs((0..b).collect()), ints(around(0, b))),
        // Unique keys scattered over the widest span still addressed
        // directly, probed from half a span below it to half above: each
        // output block mixes hits, misses inside the span and misses on
        // either side of it (across the signed wrap at the `i64` ends).
        _ => {
            let span = (limit - 1).max(b - 1);
            let step = span / (b - 1).max(1);
            let scattered = (0..b).rev().map(|i| {
                let offset = if i + 1 == b { span } else { i * step + (i * i * 7) % step };
                base.wrapping_add(offset)
            });
            (ints(scattered.collect()), ints(around(base.wrapping_sub(span / 2), 2 * span)))
        }
    };
    let side = |keys: ColumnData, n: usize| {
        Chunk::new(
            vec![Field::new("k", keys.data_type()), Field::new("row", DataType::Int32)],
            vec![keys, ColumnData::Int32((0..n as i32).collect())],
        )
    };
    (side(build, build_n), side(probe, probe_n))
}

/// Production ≡ reference on one key shape: dense probe and through `sel`
/// (with the span limit placed for either), all three kinds, over the
/// whole context grid.
fn check_key_shape(shape: usize, build_n: usize, probe_n: usize, picks: &[bool], base: i64) {
    let sel = sel_of(probe_n, picks);
    for probed in [probe_n, sel.len()] {
        let (build, probe) = key_shape(shape, build_n, probe_n, probed, base);
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            check_join(&build, &probe, &sel, ("k", "k"), kind);
        }
    }
}

/// Every shape at the probe lengths around the exact probe's output block
/// and against an empty build side.
#[test]
fn every_join_table_decision_matches_reference() {
    for shape in 0..NUM_KEY_SHAPES {
        for probe_n in [PROBE_BLOCK - 1, PROBE_BLOCK, PROBE_BLOCK + 1] {
            check_key_shape(shape, 23, probe_n, &[true, true, false], -3);
        }
        check_key_shape(shape, 0, 5, &[true, false], 0);
        check_key_shape(shape, 1, 0, &[true], 7);
    }
}

/// An integer key of −1 is `u64::MAX` in the canonical key space — a key
/// like any other, not the "cannot match" mark of a probe-only string.
#[test]
fn minus_one_is_a_join_key_like_any_other() {
    for narrow in [false, true] {
        let keys = |name: &str, values: &[i64]| {
            let column = if narrow {
                ColumnData::Int32(values.iter().map(|&v| v as i32).collect())
            } else {
                ColumnData::Int64(values.to_vec())
            };
            Chunk::new(vec![Field::new(name, column.data_type())], vec![column])
        };
        let (build, probe) = (keys("k", &[-1, 0, 1]), keys("f", &[-1, 5, 1, -1]));
        for (kind, rows) in [(JoinKind::Inner, 3), (JoinKind::Semi, 3), (JoinKind::Anti, 1)] {
            let got = joined(&build, &probe, None, ("k", "f"), kind, ParallelCtx::serial());
            assert_eq!(got, reference::hash_join(&build, &probe, None, "k", "f", kind), "{kind:?}");
            assert_eq!(got.unwrap().num_rows(), rows, "{kind:?} narrow={narrow}");
        }
    }
}

/// A star of one dimension `d` — key `k` holding `keys`, a row-number
/// payload `v` — and one fact table `f` whose `fk` holds `fks`: joins whose
/// build side is a base column, as a scan hands it on.
fn star(keys: ColumnData, fks: ColumnData) -> Database {
    let table = |name: &str, (key, payload): (&str, &str), keys: ColumnData| {
        let rows = keys.len() as i32;
        let schema =
            Schema::new(vec![Field::new(key, keys.data_type()), Field::new(payload, DataType::Int32)]);
        Table::new(name, schema, vec![keys, ColumnData::Int32((0..rows).collect())]).expect("valid table")
    };
    let mut db = Database::new();
    db.add_table(table("d", ("k", "v"), keys)).expect("fresh database");
    db.add_table(table("f", ("fk", "w"), fks)).expect("fresh database");
    db
}

/// The build streams the key index tells apart over a dimension of `n`
/// rows: the whole column, a strictly increasing selection of 6 rows in
/// 7, one of 1 row in 5, and a composed one — reversed, then repeating its
/// first half — that must not go through the index.
fn build_streams(n: usize) -> Vec<Option<SelVec>> {
    let n = n as u32;
    let composed = SelVec::all(n as usize).compose(&(0..n).rev().chain(0..n / 2).collect::<Vec<_>>());
    vec![
        None,
        Some(SelVec::new((0..n).filter(|i| i % 7 != 3).collect())),
        Some(SelVec::new((0..n).filter(|i| i % 5 == 0).collect())),
        Some(composed),
    ]
}

/// The join of `f` with `d` on `fk = k`, both read from `db` as a scan
/// hands them on — so a unique integer key goes through the column's key
/// index wherever the build stream reads at least as many rows as are
/// probed — equals the reference on the gathered build stream: rows,
/// order, names and errors, for every build stream, the dense and the
/// selected probe, all three kinds and the whole context grid.
fn check_key_index_joins(db: &Database, picks: &[bool]) {
    let scan = |table: &str, columns: [&str; 2]| Chunk::from_table(db.table(table).unwrap(), &columns).unwrap();
    let (dim, fact) = (scan("d", ["k", "v"]), scan("f", ["fk", "w"]));
    let probe_sel = sel_of(fact.num_rows(), picks);
    for probe_sel in [None, Some(&probe_sel)] {
        for build_sel in build_streams(dim.num_rows()) {
            let build_sel = build_sel.as_ref();
            let gathered = build_sel.map_or_else(|| dim.clone(), |s| dim.gather(s.positions()));
            for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
                let want = reference::hash_join(&gathered, &fact, probe_sel, "k", "fk", kind);
                for ctx in ctx_grid() {
                    let (build, probe) = ((&dim, build_sel), (&fact, probe_sel));
                    let got = ops::join::hash_join(build, probe, "k", "fk", kind, ctx, Some(db))
                        .map(|pairs| reference::joined_rows(build, probe, &pairs, kind));
                    assert_eq!(
                        got,
                        want,
                        "{kind:?} build={:?} probe={:?} {ctx:?}",
                        build_sel.map(SelVec::len),
                        probe_sel.map(SelVec::len)
                    );
                }
            }
        }
    }
}

/// Every kind of build column against its probe, and whether it keeps a
/// key index: unique integers of either width do (around zero, shuffled,
/// spread over a span, probed by the other width); repeating, too sparse,
/// floating-point, string and empty key columns do not. Sixty dimension
/// rows against forty fact rows (about twenty-seven selected) put the
/// 6-in-7 selection above the probe and the 1-in-5 one below it.
#[test]
fn the_key_index_path_matches_reference() {
    let dim = |key: fn(i64) -> i64| (0..60).map(key).collect::<Vec<_>>();
    // Probe keys from three below `lo` to three above `lo + width`.
    let around = |lo: i64, width: i64| (0..40).map(|i| lo + (i * 7) % (width + 7) - 3).collect::<Vec<_>>();
    let i32s = |keys: Vec<i64>| ColumnData::Int32(keys.into_iter().map(|k| k as i32).collect());
    let floats = |keys: Vec<i64>| ColumnData::Float64(keys.into_iter().map(|k| k as f64).collect());
    let strs = |keys: Vec<i64>| ColumnData::Str(DictColumn::from_strings(keys.iter().map(|k| format!("s{k}"))));
    let cases = [
        ("unique Int32, shuffled", i32s(dim(|i| (i * 17) % 60 + 100)), i32s(around(100, 60)), true),
        ("unique around zero", i32s(dim(|i| i - 30)), ColumnData::Int64(around(-30, 60)), true),
        ("unique Int64 over a span", ColumnData::Int64(dim(|i| i * 9 - 500)), i32s(around(-500, 540)), true),
        ("unique, integer build, float probe", i32s(dim(|i| i)), floats(around(0, 60)), true),
        ("unique but too sparse", ColumnData::Int64(dim(|i| i * 1_000_000)), ColumnData::Int64(around(0, 60)), false),
        ("repeating", i32s(dim(|i| i % 13)), i32s(around(0, 13)), false),
        ("floats", floats(dim(|i| i)), floats(around(0, 60)), false),
        ("strings", strs(dim(|i| i)), strs(around(0, 60)), false),
        ("empty dimension", i32s(Vec::new()), i32s(around(0, 10)), false),
        ("empty fact table", i32s(dim(|i| i)), i32s(Vec::new()), true),
    ];
    for (shape, keys, fks, indexed) in cases {
        let db = star(keys, fks);
        check_key_index_joins(&db, &[true, true, false]);
        let key = db.table("d").unwrap().column("k").unwrap();
        assert_eq!(db.key_index(key).is_some(), indexed, "{shape}");
    }
}

/// Every group-by list over a stream long enough for the three packed
/// keys' table: 600 rows take every value of `str`, `i64` and `small`, so
/// their 504 ids index a table for the dense stream and go through a map
/// for the 400 rows of the selection and for the morsels of seven rows.
#[test]
fn every_grouping_decision_matches_reference() {
    let rows: Vec<Row> = (0..600)
        .map(|i| (i * 37 % 80 - 40, (i * 11 % 18 - 9) as i64, i * 13 % 120 - 60, i as usize * 5 % 7))
        .collect();
    let chunk = chunk_of(&rows);
    let sel = sel_of(rows.len(), &[true, true, false]);
    for group_by in 0..NUM_GROUP_BYS {
        check_aggregate(&chunk, &sel, &group_by_for(group_by), &aggs_for(false));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn select_is_bit_identical_to_reference(
        rows in rows_strategy(200),
        picks in picks_strategy(),
        which in 0usize..NUM_PREDICATES,
    ) {
        let chunk = chunk_of(&rows);
        check_select(&chunk, &sel_of(rows.len(), &picks), &predicate_for(which));
    }

    #[test]
    fn join_is_bit_identical_to_reference(
        build_rows in rows_strategy(60),
        probe_rows in rows_strategy(200),
        picks in picks_strategy(),
        keys in (0usize..5, 0usize..5),
        same_key in prop::bool::ANY,
        kind in 0usize..3,
    ) {
        let build = chunk_of(&build_rows);
        let probe = chunk_of(&probe_rows);
        // Mostly equal key columns; otherwise mixed pairs (int × float
        // join numerically, string × numeric is a type error).
        let keys = (key_column(keys.0), key_column(if same_key { keys.0 } else { keys.1 }));
        check_join(&build, &probe, &sel_of(probe_rows.len(), &picks), keys, join_kind(kind));
    }

    #[test]
    fn join_table_decisions_are_bit_identical_to_reference(
        shape in 0usize..NUM_KEY_SHAPES,
        build_n in 0usize..40,
        probe_n in 0usize..300,
        picks in picks_strategy(),
        base in prop_oneof![-50i64..50, Just(i64::MIN), Just(i64::MAX - 400), Just(i32::MAX as i64 - 20)],
    ) {
        check_key_shape(shape, build_n, probe_n, &picks, base);
    }

    #[test]
    fn key_index_joins_are_bit_identical_to_reference(
        n in 0usize..50,
        base in prop_oneof![-60i64..60, Just(i32::MIN as i64), Just(i32::MAX as i64 - 200)],
        stride in 1i64..5,
        repeating in prop::bool::ANY,
        probe_n in 0usize..80,
        picks in picks_strategy(),
    ) {
        // Unique keys (a stride-spaced shuffle, unless 37 divides `n`) or
        // seven repeating ones, probed by wider integers around them.
        let keys = (0..n as i64).map(|i| {
            let slot = if repeating { i % 7 } else { (i * 37) % n as i64 };
            (base + slot * stride) as i32
        });
        let span = n as i64 * stride;
        let fks = (0..probe_n as i64).map(|i| base + (i * 13) % (span + 6) - 3);
        let db = star(ColumnData::Int32(keys.collect()), ColumnData::Int64(fks.collect()));
        check_key_index_joins(&db, &picks);
    }

    #[test]
    fn aggregate_is_bit_identical_to_reference(
        rows in rows_strategy(200),
        picks in picks_strategy(),
        group_by in 0usize..NUM_GROUP_BYS,
        failing in prop::bool::ANY,
    ) {
        let chunk = chunk_of(&rows);
        let sel = sel_of(rows.len(), &picks);
        check_aggregate(&chunk, &sel, &group_by_for(group_by), &aggs_for(failing && group_by % 2 == 0));
    }

    #[test]
    fn join_with_shared_dictionary_is_bit_identical_to_reference(
        base_rows in rows_strategy(120),
        picks in picks_strategy(),
        kind in 0usize..3,
    ) {
        // Gathers of one chunk share the dictionary Arc: exercises the
        // code-reuse fast path of the string-key join.
        let base = chunk_of(&base_rows);
        let n = base.num_rows();
        let build = base.gather(&(0..(n / 2) as u32).collect::<Vec<u32>>());
        let probe = base.gather(&((n / 4) as u32..n as u32).collect::<Vec<u32>>());
        let sel = sel_of(probe.num_rows(), &picks);
        check_join(&build, &probe, &sel, ("str", "str"), join_kind(kind));
    }

    #[test]
    fn sharded_scan_is_the_one_selection_kernel_over_row_ranges(
        rows in rows_strategy(150),
        // Not the unknown column: a scan fails on that before any kernel
        // runs, reading the table.
        which in 0usize..NUM_PREDICATES - 1,
        window in (0usize..150, 0usize..150),
        parallel in prop::bool::ANY,
    ) {
        let chunk = chunk_of(&rows);
        let pred = predicate_for(which);
        let n = rows.len();
        let (a, b) = (window.0.min(n), window.1.min(n));
        let ctx = if parallel {
            ParallelCtx::serial().with_workers(2).with_morsel_rows(7).with_min_rows_per_worker(0)
        } else {
            ParallelCtx::serial()
        };
        for predicate in [None, Some(&pred)] {
            for window in [None, Some((a.min(b), a.max(b)))] {
                for of in [1, 2, 3, 4, 7, n as u32 + 1] {
                    check_sharded_scan(&chunk, predicate, window, of, ctx);
                }
            }
        }
    }
}

/// Deterministic edge cases the random sizes may not hit in a given run.
#[test]
fn empty_and_single_row_chunks() {
    for rows in [vec![], vec![(3, -2, 10, 1)]] {
        let chunk = chunk_of(&rows);
        for sel in [SelVec::empty(), SelVec::all(rows.len())] {
            for which in 0..NUM_PREDICATES {
                check_select(&chunk, &sel, &predicate_for(which));
            }
            for key in 0..5 {
                let k = key_column(key);
                for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
                    check_join(&chunk, &chunk, &sel, (k, k), kind);
                }
            }
            for group_by in 0..NUM_GROUP_BYS {
                check_aggregate(&chunk, &sel, &group_by_for(group_by), &aggs_for(false));
            }
            check_aggregate(&chunk, &sel, &[], &aggs_for(true));
        }
        // Empty and single-row tables, sharded more ways than they have
        // rows, whole and through an empty window.
        for which in 0..NUM_PREDICATES - 1 {
            let pred = predicate_for(which);
            for window in [None, Some((0, 0)), Some((0, rows.len()))] {
                for of in [1, 2, 3, 7] {
                    check_sharded_scan(&chunk, Some(&pred), window, of, ParallelCtx::serial());
                }
            }
        }
    }
}

/// Whole plans give identical results (rows and checksums) serial vs
/// parallel — the executor-level guarantee behind byte-identical figures.
#[test]
fn full_ssb_plans_are_identical_serial_vs_parallel() {
    use robustq::storage::gen::ssb::SsbGenerator;
    use robustq::workloads::SsbQuery;

    let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
    let ctx = ParallelCtx::serial()
        .with_workers(4)
        .with_morsel_rows(128)
        .with_min_rows_per_worker(0);
    for q in SsbQuery::ALL {
        let plan = q.plan(&db).expect("plans");
        let serial = ops::execute_plan(&plan, &db).expect("serial runs");
        let par = ops::execute_plan_ctx(&plan, &db, ctx).expect("parallel runs");
        assert_eq!(serial, par, "{} diverged", q.name());
        assert_eq!(serial.checksum(), par.checksum());
    }
}
