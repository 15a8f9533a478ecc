//! Group-by aggregation kernel.
//!
//! [`aggregate`] consumes the row stream `(chunk, Option<&SelVec>)`, so a
//! filter→aggregate pipeline never materializes the filtered intermediate:
//! aggregate inputs are evaluated at the selected positions only and group
//! keys are read straight from the base columns. It runs in two phases:
//!
//! 1. **Grouping** (per morsel): a [`Grouper`] assigns every row of the
//!    stream a dense `u32` group id in first-occurrence order. Morsels
//!    number their groups locally; running the *same* grouper over the
//!    morsels' representative rows, in morsel order, numbers the groups in
//!    first-occurrence order over the whole stream and maps every local id
//!    to its global one.
//! 2. **Accumulation** (calling thread, row order): one tight loop per
//!    aggregate over the dense gid stream ([`FastAcc`]). `f64` addition is
//!    not associative, so folding in row order is the only split whose
//!    sums do not depend on the worker count.

use crate::batch::{Chunk, SelVec};
use crate::expr::Expr;
use crate::ops::hashtbl::FastMap;
use crate::parallel::{KernelClass, ParallelCtx};
use crate::plan::{AggFunc, AggSpec};
use robustq_storage::{ColumnData, DataType, Field};
use std::sync::Arc;

/// An aggregate input the kernel can read per row without materializing a
/// dense `f64` vector first.
///
/// Bare column references — the overwhelmingly common case — borrow the
/// column and convert on the fly with exactly the [`ColumnData::get_f64`]
/// semantics `Expr::evaluate_f64` uses, so a 10M-row `SUM(v)` no longer
/// copies the whole column before accumulating. Compound expressions
/// materialize as before, indexed by dense position.
enum AggSrc<'a> {
    /// Borrowed integer column (compares/accumulates as `v as f64`).
    I32(&'a [i32]),
    /// Borrowed integer column.
    I64(&'a [i64]),
    /// Borrowed float column.
    F64(&'a [f64]),
    /// Literal expression: the same value for every row.
    Const(f64),
    /// Materialized expression results, indexed by dense position `j`.
    Owned(Vec<f64>),
}

/// Resolve one aggregate input, borrowing bare numeric columns. Error
/// messages are `Expr::evaluate_f64`'s.
fn agg_src<'a>(
    expr: &Expr,
    chunk: &'a Chunk,
    sel: Option<&SelVec>,
) -> Result<AggSrc<'a>, String> {
    if let Expr::Col(name) = expr {
        let col = chunk.require_column(name)?;
        return match col {
            ColumnData::Int32(v) => Ok(AggSrc::I32(v)),
            ColumnData::Int64(v) => Ok(AggSrc::I64(v)),
            ColumnData::Float64(v) => Ok(AggSrc::F64(v)),
            ColumnData::Str(_) => Err(format!("column {name} is not numeric")),
        };
    }
    // A literal (e.g. `COUNT(*)`'s `1.0`) is infallible and constant: no
    // point materializing a row-length vector of copies.
    if let Expr::Lit(v) = expr {
        return Ok(AggSrc::Const(*v));
    }
    Ok(AggSrc::Owned(expr.evaluate_f64(chunk, sel)?))
}

/// Column-wise accumulator for one aggregate across all groups: one
/// contiguous array per aggregate keeps the hot accumulators in cache and
/// updates only the field the function actually reads.
enum FastAcc {
    Sum(Vec<f64>),
    Count(Vec<u64>),
    Min(Vec<f64>),
    Max(Vec<f64>),
    Avg { sum: Vec<f64>, count: Vec<u64> },
}

impl FastAcc {
    /// Accumulators for `ngroups` groups, initialized to the neutral
    /// element.
    fn new(func: AggFunc, ngroups: usize) -> FastAcc {
        match func {
            AggFunc::Sum => FastAcc::Sum(vec![0.0; ngroups]),
            AggFunc::Count => FastAcc::Count(vec![0; ngroups]),
            AggFunc::Min => FastAcc::Min(vec![f64::INFINITY; ngroups]),
            AggFunc::Max => FastAcc::Max(vec![f64::NEG_INFINITY; ngroups]),
            AggFunc::Avg => {
                FastAcc::Avg { sum: vec![0.0; ngroups], count: vec![0; ngroups] }
            }
        }
    }

    /// Accumulate the whole row stream into this aggregate: `gids[j]` is
    /// the group of dense position `j`, `sel` maps `j` to a global row for
    /// borrowed column sources. Every group folds its rows in stream
    /// order.
    fn accumulate(&mut self, src: &AggSrc<'_>, gids: &[u32], sel: Option<&[u32]>) {
        match self {
            FastAcc::Sum(a) => fold_into(a, gids, src, sel, |acc, v| *acc += v),
            FastAcc::Count(a) => {
                for &g in gids {
                    a[g as usize] += 1;
                }
            }
            FastAcc::Min(a) => {
                fold_into(a, gids, src, sel, |acc, v| *acc = acc.min(v))
            }
            FastAcc::Max(a) => {
                fold_into(a, gids, src, sel, |acc, v| *acc = acc.max(v))
            }
            FastAcc::Avg { sum, count } => {
                fold_into(sum, gids, src, sel, |acc, v| *acc += v);
                for &g in gids {
                    count[g as usize] += 1;
                }
            }
        }
    }

    /// The aggregate's value per group (an average over no rows is 0).
    fn finish(self) -> Vec<f64> {
        match self {
            FastAcc::Sum(a) | FastAcc::Min(a) | FastAcc::Max(a) => a,
            FastAcc::Count(a) => a.into_iter().map(|c| c as f64).collect(),
            FastAcc::Avg { sum, count } => sum
                .into_iter()
                .zip(count)
                .map(|(s, c)| if c == 0 { 0.0 } else { s / c as f64 })
                .collect(),
        }
    }
}

/// Tight per-source accumulation loop: one monomorphized loop per
/// `(source, selection, fold)` combination, with no per-row dispatch.
#[inline]
fn fold_into(
    a: &mut [f64],
    gids: &[u32],
    src: &AggSrc<'_>,
    sel: Option<&[u32]>,
    f: impl Fn(&mut f64, f64),
) {
    match (src, sel) {
        (AggSrc::I32(v), None) => {
            for (j, &g) in gids.iter().enumerate() {
                f(&mut a[g as usize], v[j] as f64);
            }
        }
        (AggSrc::I32(v), Some(p)) => {
            for (j, &g) in gids.iter().enumerate() {
                f(&mut a[g as usize], v[p[j] as usize] as f64);
            }
        }
        (AggSrc::I64(v), None) => {
            for (j, &g) in gids.iter().enumerate() {
                f(&mut a[g as usize], v[j] as f64);
            }
        }
        (AggSrc::I64(v), Some(p)) => {
            for (j, &g) in gids.iter().enumerate() {
                f(&mut a[g as usize], v[p[j] as usize] as f64);
            }
        }
        (AggSrc::F64(v), None) => {
            for (j, &g) in gids.iter().enumerate() {
                f(&mut a[g as usize], v[j]);
            }
        }
        (AggSrc::F64(v), Some(p)) => {
            for (j, &g) in gids.iter().enumerate() {
                f(&mut a[g as usize], v[p[j] as usize]);
            }
        }
        (AggSrc::Const(c), _) => {
            for &g in gids {
                f(&mut a[g as usize], *c);
            }
        }
        (AggSrc::Owned(v), _) => {
            for (j, &g) in gids.iter().enumerate() {
                f(&mut a[g as usize], v[j]);
            }
        }
    }
}

/// Groups a grouping map and its representatives hold before they first
/// grow, unless fewer are all there can be: a grouping sized by the rows
/// it reads would zero a slot array per row for the few hundred groups a
/// large input makes.
const START_GROUPS: usize = 512;

/// Largest group table the packed keys may index (8 MB of `u32` group
/// ids). SSB/TPC-H group keys (dates, dictionary codes, small categorical
/// ints) pack far below this.
const DENSE_MAX_RANGE: usize = 1 << 21;

/// An integer or dictionary key read as its offset into the range of
/// values its column holds.
enum DenseKeys<'a> {
    I32 { vals: &'a [i32], base: i32 },
    I64 { vals: &'a [i64], base: i64 },
    Codes(&'a [u32]),
}

impl<'a> DenseKeys<'a> {
    /// The keys of `col` and how many values they range over — the
    /// dictionary's size, or `max − min + 1` of an integer column (one
    /// fused min/max pass) — if that count fits a `u64`. Floats have none.
    fn try_new(col: &'a ColumnData) -> Option<(DenseKeys<'a>, u64)> {
        let (keys, range) = match col {
            ColumnData::Int32(v) => {
                let (&first, rest) = v.split_first()?;
                let (min, max) = rest.iter().fold((first, first), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
                (DenseKeys::I32 { vals: v, base: min }, max.abs_diff(min) as u128 + 1)
            }
            ColumnData::Int64(v) => {
                let (&first, rest) = v.split_first()?;
                let (min, max) = rest.iter().fold((first, first), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
                (DenseKeys::I64 { vals: v, base: min }, max.abs_diff(min) as u128 + 1)
            }
            ColumnData::Float64(_) => return None,
            ColumnData::Str(d) => (DenseKeys::Codes(d.codes()), d.dict().len() as u128),
        };
        Some((keys, u64::try_from(range).ok()?))
    }

    /// The offset of row `row`'s key.
    #[inline]
    fn index(&self, row: u32) -> u64 {
        match *self {
            DenseKeys::I32 { vals, base } => i32_offset(vals, base, row),
            DenseKeys::I64 { vals, base } => i64_offset(vals, base, row),
            DenseKeys::Codes(codes) => codes[row as usize] as u64,
        }
    }
}

/// An integer key's offset above its column's minimum, `base`.
#[inline(always)]
fn i32_offset(vals: &[i32], base: i32, row: u32) -> u64 {
    (vals[row as usize] as i64 - base as i64) as u64
}

/// [`i32_offset`] of an `Int64` key.
#[inline(always)]
fn i64_offset(vals: &[i64], base: i64, row: u32) -> u64 {
    vals[row as usize].wrapping_sub(base) as u64
}

/// The one grouping algorithm: how a row's keys become one flat-map key,
/// decided once per aggregate from the key columns, then run per morsel
/// and once more over the morsels' representatives.
///
/// Keys with a range are **packed**, in order and while the product of
/// their ranges fits a `u64`, into one mixed-radix word: each key's offset
/// times the product of the ranges before it. The word indexes a table of
/// group ids directly while that product is at most the rows being grouped
/// (and [`DENSE_MAX_RANGE`]) — the table then costs no more to set up than
/// the rows cost to read, the rule the join's direct addressing follows —
/// and is a [`FastMap`] key otherwise. Every other key (a float, an
/// integer whose range does not pack) extends the word one at a time as a
/// `(prefix, key)` pair through a map of its own, each map numbering the
/// prefixes the next one pairs. No key count needs a fallback and no row
/// allocates; with no keys the word is 0 and every row is group 0.
struct Grouper<'a> {
    /// Packed keys and their place values.
    packed: Vec<(DenseKeys<'a>, u64)>,
    /// Product of the packed keys' ranges: every word lies below it.
    range: u64,
    /// Keys paired onto the word, in order.
    paired: Vec<&'a ColumnData>,
}

impl<'a> Grouper<'a> {
    fn new(key_cols: &[&'a ColumnData]) -> Grouper<'a> {
        let packed = Vec::with_capacity(key_cols.len());
        let mut grouper = Grouper { packed, range: 1, paired: Vec::new() };
        for &col in key_cols {
            let packs = DenseKeys::try_new(col)
                .and_then(|(keys, range)| Some((keys, grouper.range.checked_mul(range)?)));
            match packs {
                Some((keys, range)) => {
                    grouper.packed.push((keys, grouper.range));
                    grouper.range = range;
                }
                None => grouper.paired.push(col),
            }
        }
        grouper
    }

    /// How many groups the grouping structures reserve for `rows` rows:
    /// as many as there can be — the rows, or fewer when the packed keys
    /// range over fewer values and nothing is paired onto them — up to
    /// [`START_GROUPS`], past which they grow.
    fn start_groups(&self, rows: usize) -> usize {
        let rows = rows.min(START_GROUPS);
        match self.paired.is_empty() {
            true => rows.min(usize::try_from(self.range).unwrap_or(usize::MAX)),
            false => rows,
        }
    }

    /// Consume `rows` (global row indices), assigning dense group ids in
    /// first-occurrence order: each row's id is appended to `gids`, each
    /// new group's first row to `representative` (which starts empty).
    fn group(
        &self,
        rows: impl ExactSizeIterator<Item = u32>,
        representative: &mut Vec<u32>,
        gids: &mut Vec<u32>,
    ) {
        let out = (representative, gids);
        // One key is its own offset, read by a loop of its own key type.
        match *self.packed.as_slice() {
            [(DenseKeys::I32 { vals, base }, _)] => {
                self.number(rows, |row| i32_offset(vals, base, row), out)
            }
            [(DenseKeys::I64 { vals, base }, _)] => {
                self.number(rows, |row| i64_offset(vals, base, row), out)
            }
            [(DenseKeys::Codes(codes), _)] => {
                self.number(rows, |row| codes[row as usize] as u64, out)
            }
            ref packed => {
                let word = |row| packed.iter().map(|(keys, place)| keys.index(row) * place).sum();
                self.number(rows, word, out)
            }
        }
    }

    /// [`Grouper::group`], reading a row's packed word through `word`.
    fn number(
        &self,
        rows: impl ExactSizeIterator<Item = u32>,
        word: impl Fn(u32) -> u64,
        (representative, gids): (&mut Vec<u32>, &mut Vec<u32>),
    ) {
        let groups = self.start_groups(rows.len());
        let mut new_group = |row: u32| {
            representative.push(row);
            (representative.len() - 1) as u32
        };
        let Some((last, inner)) = self.paired.split_last() else {
            if self.range <= rows.len().min(DENSE_MAX_RANGE) as u64 {
                // `table[word] = gid`; `u32::MAX` = unseen.
                let mut table = vec![u32::MAX; self.range as usize];
                for row in rows {
                    let slot = &mut table[word(row) as usize];
                    if *slot == u32::MAX {
                        *slot = new_group(row);
                    }
                    gids.push(*slot);
                }
            } else {
                let mut map: FastMap<u64> = FastMap::with_capacity(groups);
                for row in rows {
                    gids.push(map.get_or_insert(word(row), || new_group(row)));
                }
            }
            return;
        };
        let mut prefixes: Vec<FastMap<(u64, u64)>> =
            inner.iter().map(|_| FastMap::with_capacity(groups)).collect();
        let mut groups: FastMap<(u64, u64)> = FastMap::with_capacity(groups);
        for row in rows {
            let prefix = prefixes.iter_mut().zip(inner).fold(word(row), |prefix, (map, col)| {
                let next = map.len() as u32;
                map.get_or_insert((prefix, col.key_at(row as usize)), || next) as u64
            });
            let key = (prefix, last.key_at(row as usize));
            gids.push(groups.get_or_insert(key, || new_group(row)));
        }
    }
}

/// Group the row stream `(chunk, sel)` — all rows when `sel` is `None` —
/// by the named columns and compute the aggregates, bit-identical to
/// aggregating `chunk.gather(sel)`: groups appear in first-occurrence
/// order over the stream and every aggregate folds in stream order.
///
/// With an empty `group_by`, produces exactly one row (the global
/// aggregate) even for empty input — matching SQL aggregate semantics for
/// `COUNT`, with zero sums.
pub fn aggregate(
    chunk: &Chunk,
    sel: Option<&SelVec>,
    group_by: &[String],
    aggs: &[AggSpec],
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    let key_cols: Vec<&ColumnData> = group_by
        .iter()
        .map(|name| chunk.require_column(name))
        .collect::<Result<_, _>>()?;
    let srcs: Vec<AggSrc<'_>> = aggs
        .iter()
        .map(|a| agg_src(&a.input, chunk, sel))
        .collect::<Result<_, _>>()?;
    let positions = sel.map(SelVec::positions);
    let n = positions.map_or(chunk.num_rows(), <[u32]>::len);

    // Phase 1: a group id for every row of the stream, per morsel.
    let grouper = Grouper::new(&key_cols);
    let mut morsels = ctx.run_morsels(n, KernelClass::Aggregation, |m| {
        let mut reps = Vec::with_capacity(grouper.start_groups(m.len()));
        let mut gids = Vec::with_capacity(m.len());
        match positions {
            Some(p) => grouper.group(p[m].iter().copied(), &mut reps, &mut gids),
            None => grouper.group(m.start as u32..m.end as u32, &mut reps, &mut gids),
        }
        Ok((reps, gids))
    })?;
    let (mut representative, gids) = if morsels.len() <= 1 {
        morsels.pop().unwrap_or_default()
    } else {
        // Local ids -> global ids: group the morsels' representatives.
        let local_reps: Vec<u32> =
            morsels.iter().flat_map(|(reps, _)| reps.iter().copied()).collect();
        let mut representative = Vec::new();
        let mut global = Vec::with_capacity(local_reps.len());
        grouper.group(local_reps.iter().copied(), &mut representative, &mut global);
        let mut gids = Vec::with_capacity(n);
        let mut first = 0;
        for (reps, local) in &morsels {
            gids.extend(local.iter().map(|&l| global[first + l as usize]));
            first += reps.len();
        }
        (representative, gids)
    };
    // Global aggregate over an empty stream: one row of neutral values.
    if group_by.is_empty() && representative.is_empty() {
        representative.push(0);
    }

    // Phase 2: column-wise accumulation in stream order.
    let values = aggs
        .iter()
        .zip(&srcs)
        .map(|(a, src)| {
            let mut acc = FastAcc::new(a.func, representative.len());
            acc.accumulate(src, &gids, positions);
            acc.finish()
        })
        .collect();
    Ok(finalize(chunk, group_by, &key_cols, aggs, &representative, values))
}

/// Build the output chunk from finished aggregates: one row per group,
/// group-key columns (gathered at each group's representative row, under
/// the key column's own name in `chunk`) followed by one column per
/// aggregate (`values[i][g]` is aggregate `i` of group `g`). Shared with
/// the reference kernel so the materialization is identical by
/// construction.
pub(crate) fn finalize(
    chunk: &Chunk,
    group_by: &[String],
    key_cols: &[&ColumnData],
    aggs: &[AggSpec],
    representative: &[u32],
    values: Vec<Vec<f64>>,
) -> Chunk {
    let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
    let mut columns = Vec::with_capacity(group_by.len() + aggs.len());
    for (name, col) in group_by.iter().zip(key_cols) {
        let key = chunk.index_of(name).map(|i| &chunk.fields()[i]).expect("key column resolved");
        fields.push(key.clone());
        columns.push(Arc::new(col.gather(representative)));
    }
    for (a, vals) in aggs.iter().zip(values) {
        let (data_type, column) = match a.func {
            AggFunc::Count => (DataType::Int64, ColumnData::Int64(vals.into_iter().map(|v| v as i64).collect())),
            _ => (DataType::Float64, ColumnData::Float64(vals)),
        };
        fields.push(Field::new(a.output_name.as_str(), data_type));
        columns.push(Arc::new(column));
    }
    Chunk::from_shared(fields, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use robustq_storage::{DictColumn, Value};

    /// The dense serial aggregate, as the materializing interpreter calls
    /// it.
    fn agg(chunk: &Chunk, group_by: &[String], aggs: &[AggSpec]) -> Result<Chunk, String> {
        aggregate(chunk, None, group_by, aggs, ParallelCtx::serial())
    }

    fn chunk() -> Chunk {
        Chunk::new(
            vec![
                Field::new("g", DataType::Str),
                Field::new("v", DataType::Float64),
            ],
            vec![
                ColumnData::Str(DictColumn::from_strings(["x", "y", "x", "x"])),
                ColumnData::Float64(vec![1.0, 2.0, 3.0, 5.0]),
            ],
        )
    }

    #[test]
    fn grouped_sum_count_avg() {
        let out = agg(
            &chunk(),
            &["g".into()],
            &[
                AggSpec::sum(Expr::col("v"), "s"),
                AggSpec::count("c"),
                AggSpec::new(AggFunc::Avg, Expr::col("v"), "a"),
            ],
        )
        .unwrap();
        let mut rows = out.sorted_rows();
        rows.sort_by_key(|r| r[0].to_string());
        assert_eq!(
            rows[0],
            vec![Value::from("x"), Value::Float64(9.0), Value::Int64(3), Value::Float64(3.0)]
        );
        assert_eq!(
            rows[1],
            vec![Value::from("y"), Value::Float64(2.0), Value::Int64(1), Value::Float64(2.0)]
        );
    }

    #[test]
    fn min_max() {
        let out = agg(
            &chunk(),
            &[],
            &[
                AggSpec::new(AggFunc::Min, Expr::col("v"), "lo"),
                AggSpec::new(AggFunc::Max, Expr::col("v"), "hi"),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0), vec![Value::Float64(1.0), Value::Float64(5.0)]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let empty = chunk().gather(&[]);
        let out = agg(&empty, &[], &[AggSpec::count("c")]).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0), vec![Value::Int64(0)]);
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let empty = chunk().gather(&[]);
        let out = agg(&empty, &["g".into()], &[AggSpec::count("c")]).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn aggregate_of_expression() {
        let out = agg(
            &chunk(),
            &[],
            &[AggSpec::sum(Expr::col("v") * Expr::lit(10.0), "s")],
        )
        .unwrap();
        assert_eq!(out.row(0), vec![Value::Float64(110.0)]);
    }

    #[test]
    fn multi_key_grouping() {
        let c = Chunk::new(
            vec![
                Field::new("a", DataType::Int32),
                Field::new("b", DataType::Int32),
                Field::new("v", DataType::Float64),
            ],
            vec![
                ColumnData::Int32(vec![1, 1, 2, 1]),
                ColumnData::Int32(vec![1, 2, 1, 1]),
                ColumnData::Float64(vec![1.0, 1.0, 1.0, 1.0]),
            ],
        );
        let out =
            agg(&c, &["a".into(), "b".into()], &[AggSpec::count("c")]).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn missing_group_column_is_error() {
        assert!(agg(&chunk(), &["zz".into()], &[AggSpec::count("c")]).is_err());
    }

    fn wide_chunk() -> Chunk {
        // One dense-range key, one wide-range key (forces the hash path),
        // one dict key, and two value columns covering borrowed + computed
        // aggregate sources.
        let n = 401usize;
        Chunk::new(
            vec![
                Field::new("g", DataType::Int32),
                Field::new("w", DataType::Int64),
                Field::new("s", DataType::Str),
                Field::new("v", DataType::Float64),
                Field::new("i", DataType::Int32),
            ],
            vec![
                ColumnData::Int32((0..n).map(|i| (i as i32 * 7) % 13).collect()),
                ColumnData::Int64(
                    (0..n).map(|i| (i as i64 % 5) * 1_000_000_007).collect(),
                ),
                ColumnData::Str(DictColumn::from_strings(
                    (0..n).map(|i| format!("s{}", i % 9)),
                )),
                ColumnData::Float64((0..n).map(|i| i as f64 * 0.25 - 30.0).collect()),
                ColumnData::Int32((0..n).map(|i| i as i32 - 200).collect()),
            ],
        )
    }

    /// Every `(sel, ctx)` form equals the reference on the same stream,
    /// results and errors; multi-worker contexts run the representative
    /// merge.
    fn assert_matches_reference(c: &Chunk, keys: &[&str], aggs: &[AggSpec]) {
        let keys: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        let stride = SelVec::new((0..c.num_rows() as u32).filter(|i| i % 3 == 1).collect());
        let empty = SelVec::new(vec![]);
        for sel in [None, Some(&stride), Some(&empty)] {
            let want = reference::aggregate(c, sel, &keys, aggs);
            for (workers, morsel) in [(1, 65_536), (4, 111), (8, 1)] {
                let ctx = ParallelCtx { workers, morsel_rows: morsel, min_rows_per_worker: 0 };
                let got = aggregate(c, sel, &keys, aggs, ctx);
                assert_eq!(
                    got,
                    want,
                    "keys {keys:?} sel={:?} workers={workers}",
                    sel.map(SelVec::len)
                );
            }
        }
    }

    #[test]
    fn matches_reference_across_key_shapes() {
        let c = wide_chunk();
        let aggs = [
            AggSpec::sum(Expr::col("v"), "sv"),
            AggSpec::count("c"),
            AggSpec::new(AggFunc::Min, Expr::col("i"), "mi"),
            AggSpec::new(AggFunc::Max, Expr::col("v"), "mx"),
            AggSpec::new(AggFunc::Avg, Expr::col("v") * Expr::lit(2.0), "av"),
        ];
        let shapes: [&[&str]; 6] =
            [&[], &["g"], &["w"], &["s"], &["g", "w"], &["g", "w", "s"]];
        for keys in shapes {
            assert_matches_reference(&c, keys, &aggs);
        }
    }

    #[test]
    fn empty_selection_of_a_global_aggregate_is_one_neutral_row() {
        let out = aggregate(
            &wide_chunk(),
            Some(&SelVec::new(vec![])),
            &[],
            &[AggSpec::count("c")],
            ParallelCtx { workers: 4, morsel_rows: 64, min_rows_per_worker: 0 },
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0].as_i64(), Some(0));
    }

    #[test]
    fn error_messages_match_reference() {
        let c = wide_chunk();
        // Non-numeric aggregate input, unknown group column, unknown input.
        assert_matches_reference(&c, &[], &[AggSpec::sum(Expr::col("s"), "x")]);
        assert_matches_reference(&c, &["zz"], &[AggSpec::count("c")]);
        assert_matches_reference(&c, &["g"], &[AggSpec::sum(Expr::col("zz") + Expr::lit(1.0), "x")]);
        assert!(agg(&c, &["zz".into()], &[AggSpec::count("c")]).is_err());
    }
}
