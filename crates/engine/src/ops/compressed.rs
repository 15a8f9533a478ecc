//! Compressed-domain selection: evaluate predicates directly on a
//! [`CompressedColumn`] without materializing the decompressed column.
//!
//! The decompress-then-select pipeline pays a full column materialization
//! before the first predicate lane runs. This module keeps the data in its
//! encoded form through the selection kernel:
//!
//! * **RLE runs** — the predicate is evaluated once per *run* (not per
//!   row) on a tiny chunk of run representatives; matching runs are
//!   emitted as `(start, len)` selection-vector spans. Any predicate the
//!   engine supports works here, because per-run evaluation reuses the
//!   regular compiled-predicate machinery.
//! * **Dictionary codes** — the predicate is translated once into code
//!   space: a truth table over the dictionary, again via the reference
//!   compiler, then applied as a table lookup per packed code.
//! * **FOR + bit-packed integers** — comparison and range predicates are
//!   translated into the zig-zag payload space (an even ray for the
//!   non-negative half-axis and an odd ray for the negative one) and
//!   compared against the adjusted literal without decoding; predicates
//!   outside that shape stream-decode each payload (two ALU ops) into a
//!   compiled value test, still without materializing the column.
//! * everything else **falls back to decompress** + the reference
//!   selection path, so unsupported `(kernel, encoding)` pairs are never
//!   wrong, just slower.
//!
//! Every path is observationally identical to decompress-then-select:
//! same positions, same error strings, same error/no-error outcome
//! (`tests/compressed_properties.rs` checks this exhaustively).

use crate::batch::Chunk;
use crate::ops::select::select;
use crate::parallel::ParallelCtx;
use crate::predicate::{CmpOp, Predicate};
use robustq_storage::compress::{unzigzag, zigzag};
use robustq_storage::{
    ColumnData, CompressedColumn, DataType, DictColumn, Field, Value, ValueKind,
};
use std::sync::Arc;

/// Which execution strategy a `(selection, encoding)` pair resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// One predicate evaluation per RLE run, emitted as spans.
    RleRuns,
    /// Truth table over the dictionary, applied per packed code.
    DictTable,
    /// Packed-space compare against the zig-zag-adjusted literal.
    PackedLiteral,
    /// Streaming payload decode into a compiled value test (no
    /// materialized column).
    PackedStream,
    /// Unsupported pair: decompress, then the reference selection.
    Decompress,
}

/// Result of a compressed-domain selection.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedSel {
    /// Qualifying row positions in ascending order.
    pub positions: Vec<u32>,
    /// Run-aligned `(start, len)` spans when the RLE path ran.
    pub spans: Option<Vec<(u32, u32)>>,
    /// The strategy that produced the result.
    pub path: ExecPath,
}

/// The strategy [`select_compressed`] will use for `col` under `pred`
/// when the predicate references column `name` (the fallback matrix of
/// DESIGN.md §5).
pub fn exec_path(col: &CompressedColumn, name: &str, pred: &Predicate) -> ExecPath {
    match col {
        CompressedColumn::Raw(_) => ExecPath::Decompress,
        CompressedColumn::Rle { .. } => ExecPath::RleRuns,
        CompressedColumn::BitPacked { kind: ValueKind::DictCode, .. } => {
            ExecPath::DictTable
        }
        CompressedColumn::BitPacked { kind, min, bits, .. } => {
            if packed_test(pred, name, *kind, *min, *bits).is_some() {
                ExecPath::PackedLiteral
            } else if VTest::try_compile(pred, name).is_some() {
                ExecPath::PackedStream
            } else {
                ExecPath::Decompress
            }
        }
    }
}

/// Evaluate `pred` over the compressed column `col` (named `name`) and
/// return the qualifying positions, bit-identical to decompressing the
/// column into a one-column chunk and running the reference selection.
pub fn select_compressed(
    col: &CompressedColumn,
    name: &str,
    pred: &Predicate,
) -> Result<CompressedSel, String> {
    match col {
        CompressedColumn::Raw(c) => {
            let positions = decompressed_select(c.clone(), name, pred)?;
            Ok(CompressedSel { positions, spans: None, path: ExecPath::Decompress })
        }
        CompressedColumn::Rle { kind, runs, dict } => {
            let (positions, spans) = select_rle(*kind, runs, dict, name, pred)?;
            Ok(CompressedSel {
                positions,
                spans: Some(spans),
                path: ExecPath::RleRuns,
            })
        }
        CompressedColumn::BitPacked {
            kind: ValueKind::DictCode,
            min,
            bits,
            rows,
            words,
            dict,
        } => {
            let dict = dict.as_ref().expect("dict columns carry a dictionary");
            let table = dict_table(dict, name, pred)?;
            let mut positions = Vec::new();
            for_each_payload(words, *rows, *min, *bits, |i, p| {
                if table[p as usize] {
                    positions.push(i);
                }
            });
            Ok(CompressedSel { positions, spans: None, path: ExecPath::DictTable })
        }
        CompressedColumn::BitPacked { kind, min, bits, rows, words, dict: _ } => {
            if let Some(t) = packed_test(pred, name, *kind, *min, *bits) {
                let mut positions = Vec::new();
                for_each_payload(words, *rows, *min, *bits, |i, p| {
                    if t.matches(p) {
                        positions.push(i);
                    }
                });
                return Ok(CompressedSel {
                    positions,
                    spans: None,
                    path: ExecPath::PackedLiteral,
                });
            }
            if let Some(t) = VTest::try_compile(pred, name) {
                let mut positions = Vec::new();
                let mut err = None;
                for_each_payload(words, *rows, *min, *bits, |i, p| {
                    if err.is_some() {
                        return;
                    }
                    let v = decode_numeric(*kind, p);
                    match t.test(v) {
                        Ok(true) => positions.push(i),
                        Ok(false) => {}
                        Err(e) => err = Some(e),
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
                return Ok(CompressedSel {
                    positions,
                    spans: None,
                    path: ExecPath::PackedStream,
                });
            }
            let positions = decompressed_select(col.decompress(), name, pred)?;
            Ok(CompressedSel { positions, spans: None, path: ExecPath::Decompress })
        }
    }
}

/// Decompress fallback: the plain selection over the decompressed column.
fn decompressed_select(
    col: ColumnData,
    name: &str,
    pred: &Predicate,
) -> Result<Vec<u32>, String> {
    let dtype = match &col {
        ColumnData::Int32(_) => DataType::Int32,
        ColumnData::Int64(_) => DataType::Int64,
        ColumnData::Float64(_) => DataType::Float64,
        ColumnData::Str(_) => DataType::Str,
    };
    select_all(&Chunk::new(vec![Field::new(name, dtype)], vec![col]), pred)
}

/// Qualifying positions of a proxy chunk through the one selection kernel
/// — reference results *and* errors by construction.
fn select_all(chunk: &Chunk, pred: &Predicate) -> Result<Vec<u32>, String> {
    Ok(select(chunk, None, pred, ParallelCtx::serial())?.into_positions())
}

/// Decode one numeric payload into the f64 domain the scalar predicate
/// compares in (`ColumnData::get_f64` semantics).
fn decode_numeric(kind: ValueKind, p: u64) -> f64 {
    match kind {
        ValueKind::Int32 | ValueKind::Int64 => unzigzag(p) as f64,
        ValueKind::Float64 => f64::from_bits(p),
        ValueKind::DictCode => unreachable!("dict codes use the truth-table path"),
    }
}

/// Visit `(row, payload)` for every packed value.
fn for_each_payload(
    words: &[u64],
    rows: usize,
    min: u64,
    bits: u8,
    mut f: impl FnMut(u32, u64),
) {
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    for i in 0..rows {
        let bit_pos = i * bits as usize;
        let word = bit_pos / 64;
        let offset = bit_pos % 64;
        let mut v = words[word] >> offset;
        if offset + bits as usize > 64 {
            v |= words[word + 1] << (64 - offset);
        }
        f(i as u32, (v & mask).wrapping_add(min));
    }
}

/// Rebuild a column holding one decoded value per payload (used for the
/// run-representative chunk).
fn payload_column(
    kind: ValueKind,
    payloads: impl Iterator<Item = u64>,
    dict: &Option<Arc<Vec<String>>>,
) -> (DataType, ColumnData) {
    match kind {
        ValueKind::Int32 => (
            DataType::Int32,
            ColumnData::Int32(payloads.map(|p| unzigzag(p) as i32).collect()),
        ),
        ValueKind::Int64 => (
            DataType::Int64,
            ColumnData::Int64(payloads.map(unzigzag).collect()),
        ),
        ValueKind::Float64 => (
            DataType::Float64,
            ColumnData::Float64(payloads.map(f64::from_bits).collect()),
        ),
        ValueKind::DictCode => {
            let dict = dict.as_ref().expect("dict columns carry a dictionary");
            (
                DataType::Str,
                ColumnData::Str(DictColumn::from_parts(
                    Arc::clone(dict),
                    payloads.map(|p| p as u32).collect(),
                )),
            )
        }
    }
}

/// Qualifying row positions plus the run-aligned `(start, len)` spans
/// they came from.
type SpannedSel = (Vec<u32>, Vec<(u32, u32)>);

/// RLE: evaluate once per run over the run-representative chunk, then
/// expand matching runs into spans and positions.
fn select_rle(
    kind: ValueKind,
    runs: &[(u64, u32)],
    dict: &Option<Arc<Vec<String>>>,
    name: &str,
    pred: &Predicate,
) -> Result<SpannedSel, String> {
    let (dtype, col) = payload_column(kind, runs.iter().map(|&(v, _)| v), dict);
    let matched = select_all(&Chunk::new(vec![Field::new(name, dtype)], vec![col]), pred)?;

    let mut starts = Vec::with_capacity(runs.len());
    let mut acc = 0u32;
    for &(_, len) in runs {
        starts.push(acc);
        acc += len;
    }
    let mut spans = Vec::with_capacity(matched.len());
    let mut positions = Vec::new();
    for &r in &matched {
        let (start, len) = (starts[r as usize], runs[r as usize].1);
        // Coalesce runs that are adjacent in row space.
        match spans.last_mut() {
            Some((s, l)) if *s + *l == start => *l += len,
            _ => spans.push((start, len)),
        }
        positions.extend(start..start + len);
    }
    Ok((positions, spans))
}

/// Translate the predicate once into code space: a truth table over the
/// dictionary, built by the reference compiler so string semantics (and
/// error strings) match exactly.
fn dict_table(
    dict: &Arc<Vec<String>>,
    name: &str,
    pred: &Predicate,
) -> Result<Vec<bool>, String> {
    let codes: Vec<u32> = (0..dict.len() as u32).collect();
    let chunk = Chunk::new(
        vec![Field::new(name, DataType::Str)],
        vec![ColumnData::Str(DictColumn::from_parts(Arc::clone(dict), codes))],
    );
    let mut table = vec![false; dict.len()];
    for m in select_all(&chunk, pred)? {
        table[m as usize] = true;
    }
    Ok(table)
}

// ---------------------------------------------------------------------
// Packed-space literal translation (FOR + bit-packed integers)
// ---------------------------------------------------------------------

/// A zig-zag payload interval: the even ray covers the non-negative
/// half-axis, the odd ray the negative one. Empty rays are encoded as
/// `(1, 0)`.
#[derive(Debug, Clone, Copy)]
struct ZigTest {
    e_lo: u64,
    e_hi: u64,
    o_lo: u64,
    o_hi: u64,
    invert: bool,
}

impl ZigTest {
    fn matches(&self, p: u64) -> bool {
        let hit = if p & 1 == 0 {
            p >= self.e_lo && p <= self.e_hi
        } else {
            p >= self.o_lo && p <= self.o_hi
        };
        hit != self.invert
    }

    /// Payload interval for integer values in `[lo, hi]`.
    fn from_interval(lo: i64, hi: i64, invert: bool) -> ZigTest {
        let (mut e_lo, mut e_hi) = (1u64, 0u64);
        let (mut o_lo, mut o_hi) = (1u64, 0u64);
        if hi >= 0 && hi >= lo {
            // zigzag is increasing on the non-negative axis.
            e_lo = zigzag(lo.max(0));
            e_hi = zigzag(hi);
        }
        if lo < 0 && hi >= lo {
            // ...and decreasing on the negative axis.
            o_lo = zigzag(hi.min(-1));
            o_hi = zigzag(lo);
        }
        ZigTest { e_lo, e_hi, o_lo, o_hi, invert }
    }

    fn never(invert: bool) -> ZigTest {
        ZigTest { e_lo: 1, e_hi: 0, o_lo: 1, o_hi: 0, invert }
    }
}

/// Largest payload for which every decoded integer is exactly
/// representable as `f64`, so integer-interval translation of the f64
/// comparison semantics is lossless.
const EXACT_PAYLOAD_LIMIT: u64 = 1 << 53;

/// Try to translate a single-leaf comparison/range predicate on an
/// integer-kind bit-packed column into a packed-space interval test.
fn packed_test(
    pred: &Predicate,
    name: &str,
    kind: ValueKind,
    min: u64,
    bits: u8,
) -> Option<ZigTest> {
    if !matches!(kind, ValueKind::Int32 | ValueKind::Int64) {
        return None;
    }
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    if min.saturating_add(mask) >= EXACT_PAYLOAD_LIMIT {
        return None;
    }
    let finite = |v: &Value| v.as_f64().filter(|f| f.is_finite());
    match pred {
        Predicate::Cmp { column, op, value } if column == name => {
            let rhs = finite(value)?;
            Some(match op {
                CmpOp::Eq | CmpOp::Ne => {
                    let invert = *op == CmpOp::Ne;
                    if rhs.fract() == 0.0
                        && rhs >= i64::MIN as f64
                        && rhs <= i64::MAX as f64
                    {
                        let r = rhs as i64;
                        ZigTest::from_interval(r, r, invert)
                    } else {
                        ZigTest::never(invert)
                    }
                }
                CmpOp::Lt => ZigTest::from_interval(i64::MIN, upper_open(rhs), false),
                CmpOp::Le => ZigTest::from_interval(i64::MIN, rhs.floor() as i64, false),
                CmpOp::Gt => ZigTest::from_interval(lower_open(rhs), i64::MAX, false),
                CmpOp::Ge => ZigTest::from_interval(rhs.ceil() as i64, i64::MAX, false),
            })
        }
        Predicate::Between { column, lo, hi } if column == name => {
            let lo = finite(lo)?;
            let hi = finite(hi)?;
            Some(ZigTest::from_interval(lo.ceil() as i64, hi.floor() as i64, false))
        }
        _ => None,
    }
}

/// Largest integer strictly below `rhs` (`v < rhs` over integers).
fn upper_open(rhs: f64) -> i64 {
    if rhs.fract() == 0.0 && rhs >= (i64::MIN as f64) && rhs <= (i64::MAX as f64) {
        (rhs as i64).saturating_sub(1)
    } else {
        rhs.floor() as i64
    }
}

/// Smallest integer strictly above `rhs` (`v > rhs` over integers).
fn lower_open(rhs: f64) -> i64 {
    if rhs.fract() == 0.0 && rhs >= (i64::MIN as f64) && rhs <= (i64::MAX as f64) {
        (rhs as i64).saturating_add(1)
    } else {
        rhs.ceil() as i64
    }
}

// ---------------------------------------------------------------------
// Streaming value test (mirror of the scalar compiled predicate for one
// numeric column)
// ---------------------------------------------------------------------

/// Value-domain predicate over a single numeric column, mirroring
/// `CompiledPred::test` exactly (same comparison order, same NaN error).
enum VTest {
    Always(bool),
    Cmp { op: CmpOp, rhs: f64 },
    Range { lo: f64, hi: f64 },
    In(Vec<f64>),
    All(Vec<VTest>),
    AnyOf(Vec<VTest>),
    Neg(Box<VTest>),
}

impl VTest {
    /// Compile when every leaf is a numeric predicate on `name`; `None`
    /// sends the caller to a path that reproduces reference behaviour.
    fn try_compile(pred: &Predicate, name: &str) -> Option<VTest> {
        match pred {
            Predicate::True => Some(VTest::Always(true)),
            Predicate::Cmp { column, op, value } if column == name => {
                Some(VTest::Cmp { op: *op, rhs: value.as_f64()? })
            }
            Predicate::Between { column, lo, hi } if column == name => {
                Some(VTest::Range { lo: lo.as_f64()?, hi: hi.as_f64()? })
            }
            Predicate::InList { column, values } if column == name => Some(VTest::In(
                values.iter().map(Value::as_f64).collect::<Option<Vec<f64>>>()?,
            )),
            Predicate::And(ps) => Some(VTest::All(
                ps.iter().map(|p| VTest::try_compile(p, name)).collect::<Option<_>>()?,
            )),
            Predicate::Or(ps) => Some(VTest::AnyOf(
                ps.iter().map(|p| VTest::try_compile(p, name)).collect::<Option<_>>()?,
            )),
            Predicate::Not(p) => {
                Some(VTest::Neg(Box::new(VTest::try_compile(p, name)?)))
            }
            _ => None,
        }
    }

    fn test(&self, v: f64) -> Result<bool, String> {
        use std::cmp::Ordering;
        let nan_err = || "NaN in comparison".to_string();
        match self {
            VTest::Always(b) => Ok(*b),
            VTest::Cmp { op, rhs } => {
                let ord = v.partial_cmp(rhs).ok_or_else(nan_err)?;
                Ok(op.matches(ord))
            }
            VTest::Range { lo, hi } => {
                let ge = v.partial_cmp(lo).ok_or_else(nan_err)? != Ordering::Less;
                let le = v.partial_cmp(hi).ok_or_else(nan_err)? != Ordering::Greater;
                Ok(ge && le)
            }
            VTest::In(values) => {
                let mut found = false;
                for rhs in values {
                    match v.partial_cmp(rhs) {
                        Some(ord) => found |= ord == Ordering::Equal,
                        None => return Err(nan_err()),
                    }
                }
                Ok(found)
            }
            VTest::All(ps) => {
                for p in ps {
                    if !p.test(v)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            VTest::AnyOf(ps) => {
                for p in ps {
                    if p.test(v)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            VTest::Neg(p) => Ok(!p.test(v)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::select_positions;

    /// The decompressed column as a one-column chunk.
    fn decompressed(col: &CompressedColumn, name: &str) -> Chunk {
        let decompressed = col.decompress();
        let dtype = match &decompressed {
            ColumnData::Int32(_) => DataType::Int32,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Str(_) => DataType::Str,
        };
        Chunk::new(vec![Field::new(name, dtype)], vec![decompressed])
    }

    fn reference(col: &CompressedColumn, name: &str, pred: &Predicate) -> Vec<u32> {
        select_positions(&decompressed(col, name), None, pred).unwrap().into_positions()
    }

    fn check(col: CompressedColumn, pred: Predicate, want_path: ExecPath) {
        assert_eq!(exec_path(&col, "c", &pred), want_path);
        let got = select_compressed(&col, "c", &pred).unwrap();
        assert_eq!(got.path, want_path);
        assert_eq!(got.positions, reference(&col, "c", &pred));
        if let Some(spans) = &got.spans {
            let expanded: Vec<u32> =
                spans.iter().flat_map(|&(s, l)| s..s + l).collect();
            assert_eq!(expanded, got.positions, "spans expand to positions");
        }
    }

    #[test]
    fn rle_runs_emit_spans() {
        let col = CompressedColumn::compress(&ColumnData::Int32(
            (0..4000).map(|i| i / 100).collect(),
        ));
        assert_eq!(col.codec(), "rle");
        check(col.clone(), Predicate::between("c", 5, 20), ExecPath::RleRuns);
        check(col, Predicate::eq("c", 7), ExecPath::RleRuns);
    }

    #[test]
    fn dict_codes_use_truth_table() {
        let col = CompressedColumn::compress(&ColumnData::Str(
            DictColumn::from_strings((0..3000).map(|i| format!("v{}", (i * 7) % 40))),
        ));
        assert_eq!(col.codec(), "for-bitpack");
        check(
            col.clone(),
            Predicate::cmp("c", CmpOp::Ge, "v2"),
            ExecPath::DictTable,
        );
        check(
            col,
            Predicate::StrPrefix { column: "c".into(), prefix: "v1".into() },
            ExecPath::DictTable,
        );
    }

    #[test]
    fn bitpacked_range_compares_in_packed_space() {
        let col = CompressedColumn::compress(&ColumnData::Int32(
            (0..5000).map(|i| (i * 13) % 97 - 48).collect(),
        ));
        assert_eq!(col.codec(), "for-bitpack");
        for pred in [
            Predicate::between("c", -10, 25),
            Predicate::eq("c", 0),
            Predicate::cmp("c", CmpOp::Ne, -3),
            Predicate::cmp("c", CmpOp::Lt, 4),
            Predicate::cmp("c", CmpOp::Ge, -47),
            Predicate::between("c", 0.5, 3.5),
        ] {
            check(col.clone(), pred, ExecPath::PackedLiteral);
        }
    }

    #[test]
    fn bitpacked_compound_predicates_stream() {
        let col = CompressedColumn::compress(&ColumnData::Int32(
            (0..5000).map(|i| (i * 13) % 97 - 48).collect(),
        ));
        let pred = Predicate::and([
            Predicate::cmp("c", CmpOp::Ge, -20),
            Predicate::Not(Box::new(Predicate::eq("c", 3))),
        ]);
        check(col, pred, ExecPath::PackedStream);
    }

    #[test]
    fn raw_and_unsupported_fall_back() {
        let raw = CompressedColumn::compress(&ColumnData::Float64(
            (0..100).map(|i| (i as f64 - 50.0) * (i as f64).sqrt()).collect(),
        ));
        assert_eq!(raw.codec(), "raw");
        check(raw, Predicate::cmp("c", CmpOp::Gt, 0.0), ExecPath::Decompress);
        // String predicate on a packed numeric column: unsupported pair;
        // the fallback reproduces the reference error.
        let packed =
            CompressedColumn::compress(&ColumnData::Int32((0..100).map(|i| i % 7).collect()));
        let pred = Predicate::eq("c", "x");
        assert_eq!(exec_path(&packed, "c", &pred), ExecPath::Decompress);
        let got = select_compressed(&packed, "c", &pred).unwrap_err();
        let want = select_positions(&decompressed(&packed, "c"), None, &pred).unwrap_err();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_column_yields_empty_selection() {
        let col = CompressedColumn::compress(&ColumnData::Int32(vec![]));
        let got = select_compressed(&col, "c", &Predicate::eq("c", 1)).unwrap();
        assert!(got.positions.is_empty());
    }
}
