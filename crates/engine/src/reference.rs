//! Reference kernels: what every production kernel must equal.
//!
//! One deliberately plain implementation per hot operator — a `bool` per
//! row, one compiled test per row, `std::collections::HashMap` with one
//! `Vec` per key, one four-field state per group — written for being
//! obviously right, not fast. They define the semantics (DESIGN.md §5):
//! a production kernel in [`crate::ops`] must return the same `Chunk`
//! (fields, column data, dictionary codes) **and** the same `Err` strings
//! on the same inputs, for every selection vector, worker count and
//! morsel size. The property tests and the kernels bench compare against
//! this module before any timing is recorded.
//!
//! Only tests, benches and oracles may call into this module: CI fails on
//! a non-test line outside this file that names it.
//!
//! | operator    | reference                          | production                  |
//! |-------------|------------------------------------|-----------------------------|
//! | selection   | [`select`], [`select_positions`]   | [`crate::ops::select`]      |
//! | hash join   | [`hash_join`]                      | [`crate::ops::join`]        |
//! | aggregation | [`aggregate`]                      | [`crate::ops::agg`]         |

use crate::batch::{Chunk, SelVec};
use crate::ops::agg::finalize;
use crate::plan::{AggFunc, AggSpec, JoinKind};
use crate::predicate::{CmpOp, CompiledPred, Predicate};
use robustq_storage::{ColumnData, DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

// ------------------------------------------------------------- selection

/// Filter `chunk` by `predicate` the pre-selection-vector way: evaluate one
/// `bool` per row (`mask`), convert to positions, gather.
///
/// Selects exactly the rows [`select_positions`] does. The only observable
/// difference is which rows a *data-dependent* error (NaN in a numeric
/// comparison, incomparable column pair) is raised for: the mask evaluates
/// every sub-predicate over every row, while the compiled form skips rows
/// an earlier conjunct already rejected. Static errors (unknown column,
/// type mismatch) are reported identically.
pub fn select(chunk: &Chunk, predicate: &Predicate) -> Result<Chunk, String> {
    let positions: Vec<u32> = mask(predicate, chunk)?
        .iter()
        .enumerate()
        .filter_map(|(i, &m)| m.then_some(i as u32))
        .collect();
    Ok(chunk.gather(&positions))
}

/// The positions of the row stream `(chunk, sel)` — all rows when `sel` is
/// `None` — where `predicate` holds, one scalar compiled test per row, in
/// stream order. Conjunctions and disjunctions short-circuit per row, so a
/// data-dependent error is raised only for rows that reach it.
pub fn select_positions(
    chunk: &Chunk,
    sel: Option<&SelVec>,
    predicate: &Predicate,
) -> Result<SelVec, String> {
    let pred = CompiledPred::compile(predicate, chunk)?;
    let mut out = Vec::new();
    match sel {
        None => pred.append_range(0..chunk.num_rows(), &mut out)?,
        Some(s) => pred.append_filtered(s.positions(), &mut out)?,
    }
    Ok(SelVec::new(out))
}

/// Evaluate `predicate` to one boolean per row of `chunk`.
pub(crate) fn mask(predicate: &Predicate, chunk: &Chunk) -> Result<Vec<bool>, String> {
    let n = chunk.num_rows();
    let combine = |ps: &[Predicate], init: bool, f: fn(&mut bool, bool)| -> Result<Vec<bool>, String> {
        let mut out = vec![init; n];
        for p in ps {
            for (m, ok) in out.iter_mut().zip(mask(p, chunk)?) {
                f(m, ok);
            }
        }
        Ok(out)
    };
    match predicate {
        Predicate::True => Ok(vec![true; n]),
        Predicate::Cmp { column, op, value } => {
            cmp_column_value(chunk.require_column(column)?, *op, value)
        }
        Predicate::Between { column, lo, hi } => {
            let col = chunk.require_column(column)?;
            let ge = cmp_column_value(col, CmpOp::Ge, lo)?;
            let le = cmp_column_value(col, CmpOp::Le, hi)?;
            Ok(ge.into_iter().zip(le).map(|(a, b)| a && b).collect())
        }
        Predicate::InList { column, values } => {
            let col = chunk.require_column(column)?;
            let mut out = vec![false; n];
            for v in values {
                for (m, ok) in out.iter_mut().zip(cmp_column_value(col, CmpOp::Eq, v)?) {
                    *m |= ok;
                }
            }
            Ok(out)
        }
        Predicate::StrPrefix { column, prefix } => {
            str_match(chunk, column, |s| s.starts_with(prefix.as_str()))
        }
        Predicate::StrSuffix { column, suffix } => {
            str_match(chunk, column, |s| s.ends_with(suffix.as_str()))
        }
        Predicate::ColCmp { left, op, right } => {
            let l = chunk.require_column(left)?;
            let r = chunk.require_column(right)?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let ord = l
                    .get(i)
                    .partial_cmp_value(&r.get(i))
                    .ok_or_else(|| format!("incomparable columns {left}, {right}"))?;
                out.push(op.matches(ord));
            }
            Ok(out)
        }
        Predicate::And(ps) => combine(ps, true, |m, ok| *m &= ok),
        Predicate::Or(ps) => combine(ps, false, |m, ok| *m |= ok),
        Predicate::Not(p) => Ok(mask(p, chunk)?.into_iter().map(|b| !b).collect()),
    }
}

/// Compare every row of `col` against a literal.
///
/// Dictionary columns use a per-code match table so the string comparison
/// happens once per distinct value, not once per row.
fn cmp_column_value(col: &ColumnData, op: CmpOp, value: &Value) -> Result<Vec<bool>, String> {
    match (col, value) {
        (ColumnData::Str(d), Value::Str(s)) => {
            let table: Vec<bool> = d
                .dict()
                .iter()
                .map(|entry| op.matches(entry.as_str().cmp(s.as_str())))
                .collect();
            Ok(d.codes().iter().map(|&c| table[c as usize]).collect())
        }
        (ColumnData::Str(_), other) => {
            Err(format!("cannot compare string column with {other:?}"))
        }
        (col, v) => {
            let rhs = v
                .as_f64()
                .ok_or_else(|| format!("cannot compare numeric column with {v:?}"))?;
            let mut out = Vec::with_capacity(col.len());
            for i in 0..col.len() {
                let ord = col
                    .get_f64(i)
                    .partial_cmp(&rhs)
                    .ok_or_else(|| "NaN in comparison".to_string())?;
                out.push(op.matches(ord));
            }
            Ok(out)
        }
    }
}

fn str_match(
    chunk: &Chunk,
    column: &str,
    pred: impl Fn(&str) -> bool,
) -> Result<Vec<bool>, String> {
    match chunk.require_column(column)? {
        ColumnData::Str(d) => {
            let table: Vec<bool> = d.dict().iter().map(|s| pred(s)).collect();
            Ok(d.codes().iter().map(|&c| table[c as usize]).collect())
        }
        _ => Err(format!("column {column} is not a string column")),
    }
}

// ------------------------------------------------------------- hash join

/// Canonical 64-bit join keys of a key column pair, dense over both
/// columns.
///
/// Integer pairs compare as integers and anything involving a float
/// compares through `f64` bits. String pairs use the build side's
/// dictionary codes as keys: probe codes pass through when both columns
/// share one dictionary `Arc`, otherwise they are translated through the
/// reconciled dictionaries; probe-only strings map to `u64::MAX`, which
/// no build key of a string join (a `u32` code) equals.
fn join_keys(build: &ColumnData, probe: &ColumnData) -> Result<(Vec<u64>, Vec<u64>), String> {
    use DataType::*;
    match (build.data_type(), probe.data_type()) {
        (Str, Str) => {
            let (b, p) = match (build, probe) {
                (ColumnData::Str(b), ColumnData::Str(p)) => (b, p),
                _ => unreachable!("types checked"),
            };
            let bkeys = b.codes().iter().map(|&c| c as u64).collect();
            if Arc::ptr_eq(b.dict(), p.dict()) {
                return Ok((bkeys, p.codes().iter().map(|&c| c as u64).collect()));
            }
            let intern: HashMap<&str, u64> = b
                .dict()
                .iter()
                .enumerate()
                .map(|(i, s)| (s.as_str(), i as u64))
                .collect();
            let probe_map: Vec<u64> = p
                .dict()
                .iter()
                .map(|s| intern.get(s.as_str()).copied().unwrap_or(u64::MAX))
                .collect();
            Ok((bkeys, p.codes().iter().map(|&c| probe_map[c as usize]).collect()))
        }
        (Str, _) | (_, Str) => {
            Err("cannot join a string column with a numeric column".into())
        }
        (Float64, _) | (_, Float64) => {
            let bits = |c: &ColumnData| (0..c.len()).map(|i| c.get_f64(i).to_bits()).collect();
            Ok((bits(build), bits(probe)))
        }
        _ => {
            let ints = |c: &ColumnData| match c {
                ColumnData::Int32(v) => v.iter().map(|&x| x as i64 as u64).collect(),
                ColumnData::Int64(v) => v.iter().map(|&x| x as u64).collect(),
                _ => unreachable!("integer types checked"),
            };
            Ok((ints(build), ints(probe)))
        }
    }
}

/// Hash join `probe ⋈ build` on `probe_key = build_key`, probing only the
/// positions in `probe_sel` (all rows when `None`) — equal to joining
/// `probe.gather(probe_sel)`.
///
/// * `Inner`: output is probe columns then build columns (duplicate names
///   suffixed `_r`), one row per matching pair, probe rows in stream order
///   and each row's matches in build row order.
/// * `Semi`: probe rows with at least one match, probe columns only.
/// * `Anti`: probe rows with no match, probe columns only.
pub fn hash_join(
    build: &Chunk,
    probe: &Chunk,
    probe_sel: Option<&SelVec>,
    build_key: &str,
    probe_key: &str,
    kind: JoinKind,
) -> Result<Chunk, String> {
    let bcol = build.require_column(build_key)?;
    let pcol = probe.require_column(probe_key)?;
    let (bkeys, pkeys) = join_keys(bcol, pcol)?;
    let mut table: HashMap<u64, Vec<u32>> = HashMap::with_capacity(bkeys.len());
    for (i, &k) in bkeys.iter().enumerate() {
        table.entry(k).or_default().push(i as u32);
    }
    let mut probe_pos: Vec<u32> = Vec::new();
    let mut build_pos: Vec<u32> = Vec::new();
    match probe_sel {
        Some(s) => {
            let rows = s.positions().iter().copied();
            probe_rows(rows, &pkeys, &table, kind, &mut probe_pos, &mut build_pos)
        }
        None => {
            let rows = 0..probe.num_rows() as u32;
            probe_rows(rows, &pkeys, &table, kind, &mut probe_pos, &mut build_pos)
        }
    }
    match kind {
        JoinKind::Inner => Ok(probe.gather(&probe_pos).zip(build.gather(&build_pos))),
        JoinKind::Semi | JoinKind::Anti => Ok(probe.gather(&probe_pos)),
    }
}

/// The rows behind the `(probe, build)` stream-index pairs the production
/// join returns over the same streams: gathered and zipped, as
/// [`hash_join`] returns them.
pub fn joined_rows(
    (build, build_sel): (&Chunk, Option<&SelVec>),
    (probe, probe_sel): (&Chunk, Option<&SelVec>),
    (probe_idx, build_idx): &(Vec<u32>, Vec<u32>),
    kind: JoinKind,
) -> Chunk {
    let rows = |chunk: &Chunk, sel: Option<&SelVec>, idx: &[u32]| match sel {
        Some(s) => chunk.gather(s.compose(idx).positions()),
        None => chunk.gather(idx),
    };
    let out = rows(probe, probe_sel, probe_idx);
    if kind == JoinKind::Inner { out.zip(rows(build, build_sel, build_idx)) } else { out }
}

/// Probe `rows` of the probe side against `table`: `Inner` appends
/// matching `(probe, build)` position pairs, `Semi`/`Anti` surviving probe
/// positions only.
fn probe_rows(
    rows: impl Iterator<Item = u32>,
    pkeys: &[u64],
    table: &HashMap<u64, Vec<u32>>,
    kind: JoinKind,
    probe_pos: &mut Vec<u32>,
    build_pos: &mut Vec<u32>,
) {
    let matches = |p: u32| table.get(&pkeys[p as usize]);
    match kind {
        JoinKind::Inner => {
            for p in rows {
                for &b in matches(p).into_iter().flatten() {
                    probe_pos.push(p);
                    build_pos.push(b);
                }
            }
        }
        JoinKind::Semi => probe_pos.extend(rows.filter(|&p| matches(p).is_some())),
        JoinKind::Anti => probe_pos.extend(rows.filter(|&p| matches(p).is_none())),
    }
}

// ----------------------------------------------------------- aggregation

/// Running state of one aggregate within one group.
#[derive(Debug, Clone, Copy)]
struct AggState {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl AggState {
    fn new() -> Self {
        AggState { sum: 0.0, count: 0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    fn update(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn finish(&self, func: AggFunc) -> f64 {
        match func {
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as f64,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Avg => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum / self.count as f64
                }
            }
        }
    }
}

/// Group the row stream `(chunk, sel)` — all rows when `sel` is `None` —
/// by the named columns and compute the aggregates, row at a time: equal
/// to aggregating `chunk.gather(sel)`. Groups appear in first-occurrence
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
) -> Result<Chunk, String> {
    let key_cols: Vec<&ColumnData> = group_by
        .iter()
        .map(|name| chunk.require_column(name))
        .collect::<Result<_, _>>()?;
    let agg_inputs: Vec<Vec<f64>> = aggs
        .iter()
        .map(|a| a.input.evaluate_f64(chunk, sel))
        .collect::<Result<_, _>>()?;

    let mut representative: Vec<u32> = Vec::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let (reps, groups) = (&mut representative, &mut states);
    match sel {
        None => {
            group_rows(&key_cols, &agg_inputs, aggs.len(), 0..chunk.num_rows() as u32, reps, groups)
        }
        Some(s) => {
            let rows = s.positions().iter().copied();
            group_rows(&key_cols, &agg_inputs, aggs.len(), rows, reps, groups)
        }
    }

    // Global aggregate over empty groups: one row of neutral values.
    if group_by.is_empty() && states.is_empty() {
        representative.push(0);
        states.push(vec![AggState::new(); aggs.len()]);
    }
    let values = aggs
        .iter()
        .enumerate()
        .map(|(i, a)| states.iter().map(|g| g[i].finish(a.func)).collect())
        .collect();
    Ok(finalize(chunk, group_by, &key_cols, aggs, &representative, values))
}

/// Core grouping loop: consume `rows` (global indices, in accumulation
/// order), assigning dense group ids in first-occurrence order and
/// updating every aggregate of the row's group.
///
/// `agg_inputs` are indexed by position `j` in the iteration, not by
/// global row — the caller aligned them with the row stream.
/// The common one- and two-key cases avoid the per-row `Vec` allocation of
/// the general composite key.
fn group_rows(
    key_cols: &[&ColumnData],
    agg_inputs: &[Vec<f64>],
    naggs: usize,
    rows: impl Iterator<Item = u32>,
    representative: &mut Vec<u32>,
    states: &mut Vec<Vec<AggState>>,
) {
    let mut new_group = |row: u32, states: &mut Vec<Vec<AggState>>| {
        representative.push(row);
        states.push(vec![AggState::new(); naggs]);
        states.len() - 1
    };
    let update = |states: &mut Vec<Vec<AggState>>, gid: usize, j: usize| {
        for (s, input) in states[gid].iter_mut().zip(agg_inputs) {
            s.update(input[j]);
        }
    };
    match key_cols {
        [] => {
            for (j, row) in rows.enumerate() {
                if states.is_empty() {
                    new_group(row, states);
                }
                update(states, 0, j);
            }
        }
        [k0] => {
            let mut groups: HashMap<u64, usize> = HashMap::new();
            for (j, row) in rows.enumerate() {
                let gid = *groups
                    .entry(k0.key_at(row as usize))
                    .or_insert_with(|| new_group(row, states));
                update(states, gid, j);
            }
        }
        [k0, k1] => {
            let mut groups: HashMap<(u64, u64), usize> = HashMap::new();
            for (j, row) in rows.enumerate() {
                let gid = *groups
                    .entry((k0.key_at(row as usize), k1.key_at(row as usize)))
                    .or_insert_with(|| new_group(row, states));
                update(states, gid, j);
            }
        }
        _ => {
            let mut groups: HashMap<Vec<u64>, usize> = HashMap::new();
            for (j, row) in rows.enumerate() {
                let key: Vec<u64> =
                    key_cols.iter().map(|c| c.key_at(row as usize)).collect();
                let gid = *groups.entry(key).or_insert_with(|| new_group(row, states));
                update(states, gid, j);
            }
        }
    }
}
