//! Branch-free, block-oriented predicate evaluation ("SIMD" path).
//!
//! [`crate::predicate::CompiledPred`] tests one row at a time through an
//! enum dispatch returning `Result<bool, String>` — correct, but the hot
//! selection loops pay a branch (and an error check) per row. This module
//! compiles the same predicate shapes into a [`BlockPred`] that evaluates
//! **64 rows per step** into a `u64` match mask with tight per-type inner
//! loops the compiler can autovectorize (no `Result`, no enum dispatch,
//! no data-dependent branch inside the lane loop). Qualifying positions
//! are then emitted with `trailing_zeros` bit iteration.
//!
//! Bit-identity with the scalar reference is load-bearing:
//!
//! * **Selected rows** are exactly those of the scalar
//!   [`select_positions`](crate::reference). Integer lanes
//!   compare through `v as f64` like [`ColumnData::get_f64`]; dictionary
//!   lanes go through the same per-code truth tables.
//! * **Errors**: every data-dependent failure a supported shape can raise
//!   is the NaN comparison error, and all of them carry the identical
//!   message (`"NaN in comparison"`). Each leaf therefore reports a
//!   per-lane *error mask* next to its match mask, and the boolean
//!   combinators thread an *active-lane* mask that mirrors the scalar
//!   short-circuit: a NaN in an `AND` conjunct at a row an earlier
//!   conjunct already rejected does **not** error — exactly like
//!   `CompiledPred::test`. An error anywhere aborts the whole kernel, so
//!   block-granular detection is observationally identical to row-granular
//!   detection.
//! * **Unsupported shapes** (`ColCmp`, type mismatches, unknown columns)
//!   make [`BlockPred::try_compile`] return `None`; callers fall back to
//!   the scalar `CompiledPred`, which also reproduces the static error
//!   messages in their original order.

use crate::batch::Chunk;
use crate::predicate::{CmpOp, Predicate};
use robustq_storage::{ColumnData, Value};
use std::ops::Range;

/// Mask with the low `len` (≤ 64) bits set.
#[inline]
fn low_mask(len: usize) -> u64 {
    debug_assert!(len <= 64);
    if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

const NAN_ERR: &str = "NaN in comparison";

/// One block of ≤ 64 rows of the row stream a kernel reads: a dense run
/// of the chunk's rows, or that many entries of a selection vector's
/// position list. Lane `l` is row `start + l`, respectively `pos[l]`.
#[derive(Clone, Copy)]
enum Block<'p> {
    Dense { start: usize, len: usize },
    At(&'p [u32]),
}

impl Block<'_> {
    fn len(&self) -> usize {
        match self {
            Block::Dense { len, .. } => *len,
            Block::At(pos) => pos.len(),
        }
    }

    /// Pack `f` over the block's lanes of `v` into a bit mask. The closure
    /// is branch-free for every caller, so the loops reduce to compare +
    /// shift — the autovectorizable core of the module.
    #[inline]
    fn pack<T: Copy>(self, v: &[T], f: impl Fn(T) -> bool) -> u64 {
        let mut m = 0u64;
        match self {
            Block::Dense { start, len } => {
                for (l, &x) in v[start..start + len].iter().enumerate() {
                    m |= (f(x) as u64) << l;
                }
            }
            Block::At(pos) => {
                for (l, &p) in pos.iter().enumerate() {
                    m |= (f(v[p as usize]) as u64) << l;
                }
            }
        }
        m
    }

    /// Dispatch a comparison operator into six specialized packed loops.
    #[inline]
    fn cmp_pack<T: Copy>(self, v: &[T], get: impl Fn(T) -> f64, op: CmpOp, rhs: f64) -> u64 {
        match op {
            CmpOp::Eq => self.pack(v, |x| get(x) == rhs),
            CmpOp::Ne => self.pack(v, |x| get(x) != rhs),
            CmpOp::Lt => self.pack(v, |x| get(x) < rhs),
            CmpOp::Le => self.pack(v, |x| get(x) <= rhs),
            CmpOp::Gt => self.pack(v, |x| get(x) > rhs),
            CmpOp::Ge => self.pack(v, |x| get(x) >= rhs),
        }
    }
}

/// The numeric lanes a leaf reads: a typed borrow of the whole column.
#[derive(Clone, Copy)]
enum NumLanes<'a> {
    I32(&'a [i32]),
    I64(&'a [i64]),
    F64(&'a [f64]),
}

impl<'a> NumLanes<'a> {
    fn from_column(col: &'a ColumnData) -> Option<NumLanes<'a>> {
        match col {
            ColumnData::Int32(v) => Some(NumLanes::I32(v)),
            ColumnData::Int64(v) => Some(NumLanes::I64(v)),
            ColumnData::Float64(v) => Some(NumLanes::F64(v)),
            ColumnData::Str(_) => None,
        }
    }

    /// Error mask of the block: every lane when a literal operand is NaN,
    /// plus the NaN lanes of a float column.
    fn err(&self, b: Block<'_>, nan_literal: bool) -> u64 {
        let lit = if nan_literal { low_mask(b.len()) } else { 0 };
        match self {
            NumLanes::F64(v) => lit | b.pack(v, |x: f64| x.is_nan()),
            _ => lit,
        }
    }

    /// `(match, err)` masks for `lanes <op> rhs` over the block.
    fn cmp(&self, b: Block<'_>, op: CmpOp, rhs: f64) -> (u64, u64) {
        let m = match self {
            NumLanes::I32(v) => b.cmp_pack(v, |x| x as f64, op, rhs),
            NumLanes::I64(v) => b.cmp_pack(v, |x| x as f64, op, rhs),
            NumLanes::F64(v) => b.cmp_pack(v, |x| x, op, rhs),
        };
        (m, self.err(b, rhs.is_nan()))
    }

    /// `(match, err)` masks for `lo <= lanes <= hi` over the block.
    fn range(&self, b: Block<'_>, lo: f64, hi: f64) -> (u64, u64) {
        let m = match self {
            NumLanes::I32(v) => b.pack(v, |x| {
                let x = x as f64;
                (x >= lo) & (x <= hi)
            }),
            NumLanes::I64(v) => b.pack(v, |x| {
                let x = x as f64;
                (x >= lo) & (x <= hi)
            }),
            NumLanes::F64(v) => b.pack(v, |x| (x >= lo) & (x <= hi)),
        };
        (m, self.err(b, lo.is_nan() || hi.is_nan()))
    }

    /// `(match, err)` masks for `lanes IN (values…)` over the block.
    fn in_list(&self, b: Block<'_>, values: &[f64]) -> (u64, u64) {
        let mut m = 0u64;
        for &rhs in values {
            m |= match self {
                NumLanes::I32(v) => b.pack(v, |x| x as f64 == rhs),
                NumLanes::I64(v) => b.pack(v, |x| x as f64 == rhs),
                NumLanes::F64(v) => b.pack(v, |x| x == rhs),
            };
        }
        (m, self.err(b, values.iter().any(|v| v.is_nan())))
    }
}

/// One compiled predicate node.
enum Node<'a> {
    /// Constant outcome (`TRUE`).
    Const(bool),
    /// `column <op> literal` over numeric lanes.
    Cmp { lanes: NumLanes<'a>, op: CmpOp, rhs: f64 },
    /// `lo <= column <= hi` over numeric lanes.
    Range { lanes: NumLanes<'a>, lo: f64, hi: f64 },
    /// `column IN (…)` over numeric lanes.
    In { lanes: NumLanes<'a>, values: Vec<f64> },
    /// Truth table over dictionary codes (string `=`, `BETWEEN`, `IN`,
    /// prefix/suffix matching all compile to this).
    Codes { codes: &'a [u32], table: Vec<bool> },
    /// Conjunction with lane-mask short-circuit.
    All(Vec<Node<'a>>),
    /// Disjunction with lane-mask short-circuit.
    Any(Vec<Node<'a>>),
    /// Negation.
    Not(Box<Node<'a>>),
}

/// Leaf epilogue: raise the NaN error if any active lane errored.
#[inline]
fn finish((m, e): (u64, u64), active: u64) -> Result<u64, String> {
    if e & active != 0 {
        Err(NAN_ERR.to_string())
    } else {
        Ok(m)
    }
}

impl Node<'_> {
    /// Match mask over one block. Lanes outside `active` carry arbitrary
    /// bits; errors are only raised for active lanes, mirroring scalar
    /// short-circuit order.
    fn eval(&self, b: Block<'_>, active: u64) -> Result<u64, String> {
        match self {
            Node::Const(c) => Ok(if *c { u64::MAX } else { 0 }),
            Node::Cmp { lanes, op, rhs } => finish(lanes.cmp(b, *op, *rhs), active),
            Node::Range { lanes, lo, hi } => finish(lanes.range(b, *lo, *hi), active),
            Node::In { lanes, values } => finish(lanes.in_list(b, values), active),
            Node::Codes { codes, table } => Ok(b.pack(codes, |c| table[c as usize])),
            Node::All(ps) => {
                let mut act = active;
                for p in ps {
                    act &= p.eval(b, act)?;
                    if act == 0 {
                        break;
                    }
                }
                Ok(act)
            }
            Node::Any(ps) => {
                let mut undecided = active;
                let mut m = 0u64;
                for p in ps {
                    let pm = p.eval(b, undecided)?;
                    m |= pm & undecided;
                    undecided &= !pm;
                    if undecided == 0 {
                        break;
                    }
                }
                Ok(m)
            }
            Node::Not(p) => Ok(!p.eval(b, active)?),
        }
    }
}

/// A predicate compiled to block form against one chunk.
pub struct BlockPred<'a> {
    node: Node<'a>,
}

impl<'a> BlockPred<'a> {
    /// Compile `pred` against `chunk`, or `None` when any sub-shape is
    /// outside the block-evaluable subset (column-to-column comparison,
    /// type mismatches, unknown columns). Callers fall back to the scalar
    /// [`crate::predicate::CompiledPred`] on `None`, which reproduces the
    /// static error messages exactly.
    pub fn try_compile(pred: &'a Predicate, chunk: &'a Chunk) -> Option<BlockPred<'a>> {
        Some(BlockPred { node: compile_node(pred, chunk)? })
    }

    /// Append the qualifying positions of the dense `rows` range to `out`,
    /// 64 rows per mask step.
    pub fn append_range(
        &self,
        rows: Range<usize>,
        out: &mut Vec<u32>,
    ) -> Result<(), String> {
        for start in rows.clone().step_by(64) {
            let len = (rows.end - start).min(64);
            let full = low_mask(len);
            let mut m = self.node.eval(Block::Dense { start, len }, full)? & full;
            while m != 0 {
                out.push(start as u32 + m.trailing_zeros());
                m &= m - 1;
            }
        }
        Ok(())
    }

    /// Append the entries of `positions` that match to `out`, in order
    /// (the selection-vector refinement kernel): gathered 64-lane blocks,
    /// same survivors and errors as the scalar
    /// [`crate::predicate::CompiledPred::append_filtered`].
    pub fn append_filtered(
        &self,
        positions: &[u32],
        out: &mut Vec<u32>,
    ) -> Result<(), String> {
        for block in positions.chunks(64) {
            let full = low_mask(block.len());
            let mut m = self.node.eval(Block::At(block), full)? & full;
            while m != 0 {
                out.push(block[m.trailing_zeros() as usize]);
                m &= m - 1;
            }
        }
        Ok(())
    }
}

/// Per-code truth table for a string column under `test`.
fn code_table(d: &robustq_storage::DictColumn, test: impl Fn(&str) -> bool) -> Vec<bool> {
    d.dict().iter().map(|s| test(s)).collect()
}

fn compile_node<'a>(pred: &'a Predicate, chunk: &'a Chunk) -> Option<Node<'a>> {
    match pred {
        Predicate::True => Some(Node::Const(true)),
        Predicate::Cmp { column, op, value } => {
            let col = chunk.require_column(column).ok()?;
            match (col, value) {
                (ColumnData::Str(d), Value::Str(s)) => Some(Node::Codes {
                    codes: d.codes(),
                    table: code_table(d, |e| op.matches(e.cmp(s.as_str()))),
                }),
                (ColumnData::Str(_), _) => None,
                (col, v) => Some(Node::Cmp {
                    lanes: NumLanes::from_column(col)?,
                    op: *op,
                    rhs: v.as_f64()?,
                }),
            }
        }
        Predicate::Between { column, lo, hi } => {
            let col = chunk.require_column(column).ok()?;
            match col {
                ColumnData::Str(d) => {
                    let (lo, hi) = match (lo, hi) {
                        (Value::Str(a), Value::Str(b)) => (a.as_str(), b.as_str()),
                        _ => return None,
                    };
                    Some(Node::Codes {
                        codes: d.codes(),
                        table: code_table(d, |e| e >= lo && e <= hi),
                    })
                }
                _ => Some(Node::Range {
                    lanes: NumLanes::from_column(col)?,
                    lo: lo.as_f64()?,
                    hi: hi.as_f64()?,
                }),
            }
        }
        Predicate::InList { column, values } => {
            let col = chunk.require_column(column).ok()?;
            match col {
                ColumnData::Str(d) => {
                    let mut table = vec![false; d.dict().len()];
                    for v in values {
                        let s = match v {
                            Value::Str(s) => s.as_str(),
                            _ => return None,
                        };
                        for (t, e) in table.iter_mut().zip(d.dict().iter()) {
                            *t |= e.as_str() == s;
                        }
                    }
                    Some(Node::Codes { codes: d.codes(), table })
                }
                _ => Some(Node::In {
                    lanes: NumLanes::from_column(col)?,
                    values: values.iter().map(|v| v.as_f64()).collect::<Option<_>>()?,
                }),
            }
        }
        Predicate::StrPrefix { column, prefix } => {
            match chunk.require_column(column).ok()? {
                ColumnData::Str(d) => Some(Node::Codes {
                    codes: d.codes(),
                    table: code_table(d, |s| s.starts_with(prefix.as_str())),
                }),
                _ => None,
            }
        }
        Predicate::StrSuffix { column, suffix } => {
            match chunk.require_column(column).ok()? {
                ColumnData::Str(d) => Some(Node::Codes {
                    codes: d.codes(),
                    table: code_table(d, |s| s.ends_with(suffix.as_str())),
                }),
                _ => None,
            }
        }
        Predicate::ColCmp { .. } => None,
        Predicate::And(ps) => Some(Node::All(
            ps.iter().map(|p| compile_node(p, chunk)).collect::<Option<_>>()?,
        )),
        Predicate::Or(ps) => Some(Node::Any(
            ps.iter().map(|p| compile_node(p, chunk)).collect::<Option<_>>()?,
        )),
        Predicate::Not(p) => Some(Node::Not(Box::new(compile_node(p, chunk)?))),
    }
}

/// The production compiled predicate: block-evaluated when the shape
/// supports it, scalar [`CompiledPred`] otherwise. Compile once per
/// (predicate, chunk) and share across morsel workers — both forms are
/// `Sync` borrows of the chunk.
pub(crate) enum ProdPred<'a> {
    /// Block-evaluable shape: 64-row masks.
    Block(BlockPred<'a>),
    /// Fallback: per-row scalar evaluation.
    Scalar(crate::predicate::CompiledPred<'a>),
}

impl<'a> ProdPred<'a> {
    /// Compile `pred` against `chunk`. Static errors (unknown columns,
    /// type mismatches) surface with the scalar path's exact messages.
    pub(crate) fn compile(
        pred: &'a Predicate,
        chunk: &'a Chunk,
    ) -> Result<ProdPred<'a>, String> {
        match BlockPred::try_compile(pred, chunk) {
            Some(bp) => Ok(ProdPred::Block(bp)),
            None => Ok(ProdPred::Scalar(
                crate::predicate::CompiledPred::compile(pred, chunk)?,
            )),
        }
    }

    /// Append the qualifying positions of the dense `rows` range.
    pub(crate) fn append_range(
        &self,
        rows: Range<usize>,
        out: &mut Vec<u32>,
    ) -> Result<(), String> {
        match self {
            ProdPred::Block(b) => b.append_range(rows, out),
            ProdPred::Scalar(s) => s.append_range(rows, out),
        }
    }

    /// Append the entries of `positions` that match, in order.
    pub(crate) fn append_filtered(
        &self,
        positions: &[u32],
        out: &mut Vec<u32>,
    ) -> Result<(), String> {
        match self {
            ProdPred::Block(b) => b.append_filtered(positions, out),
            ProdPred::Scalar(s) => s.append_filtered(positions, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SelVec;
    use crate::reference::select_positions;
    use robustq_storage::{DataType, DictColumn, Field};

    fn chunk(rows: usize) -> Chunk {
        let ints: Vec<i32> = (0..rows).map(|i| (i as i32 * 7) % 23 - 11).collect();
        let longs: Vec<i64> =
            (0..rows).map(|i| (i as i64 * 31) % 1000 - 500).collect();
        let floats: Vec<f64> = (0..rows).map(|i| (i as f64) * 0.37 - 50.0).collect();
        let strs: Vec<String> =
            (0..rows).map(|i| format!("k{}", (i * 13) % 17)).collect();
        Chunk::new(
            vec![
                Field::new("a", DataType::Int32),
                Field::new("b", DataType::Int64),
                Field::new("f", DataType::Float64),
                Field::new("s", DataType::Str),
            ],
            vec![
                ColumnData::Int32(ints),
                ColumnData::Int64(longs),
                ColumnData::Float64(floats),
                ColumnData::Str(DictColumn::from_strings(strs)),
            ],
        )
    }

    fn preds() -> Vec<Predicate> {
        vec![
            Predicate::True,
            Predicate::cmp("a", CmpOp::Lt, 3),
            Predicate::cmp("a", CmpOp::Ne, 0),
            Predicate::cmp("b", CmpOp::Ge, -100),
            Predicate::cmp("f", CmpOp::Gt, -10.0),
            Predicate::between("a", -5, 5),
            Predicate::between("f", -20.0, 20.0),
            Predicate::between("s", "k1", "k4"),
            Predicate::in_list("a", [1, 2, 3]),
            Predicate::in_list("s", ["k3", "k11"]),
            Predicate::eq("s", "k5"),
            Predicate::StrPrefix { column: "s".into(), prefix: "k1".into() },
            Predicate::StrSuffix { column: "s".into(), suffix: "2".into() },
            Predicate::and([
                Predicate::between("a", -8, 8),
                Predicate::cmp("f", CmpOp::Le, 40.0),
            ]),
            Predicate::or([
                Predicate::eq("s", "k0"),
                Predicate::cmp("b", CmpOp::Lt, -400),
            ]),
            Predicate::Not(Box::new(Predicate::between("a", -3, 3))),
            Predicate::and([
                Predicate::or([
                    Predicate::cmp("a", CmpOp::Gt, 0),
                    Predicate::cmp("b", CmpOp::Gt, 0),
                ]),
                Predicate::Not(Box::new(Predicate::eq("s", "k7"))),
            ]),
        ]
    }

    #[test]
    fn block_matches_scalar_over_dense_ranges() {
        // Sizes straddle block boundaries (63/64/65) and a multi-block run.
        for rows in [0, 1, 63, 64, 65, 130, 1000] {
            let c = chunk(rows);
            for p in preds() {
                let bp = BlockPred::try_compile(&p, &c)
                    .unwrap_or_else(|| panic!("{p} should compile"));
                let mut got = Vec::new();
                bp.append_range(0..rows, &mut got).unwrap();
                let want = select_positions(&c, None, &p).unwrap();
                assert_eq!(got, want.positions(), "{p} over {rows} rows");
                // Sub-ranges agree too (the morsel form).
                if rows >= 65 {
                    let mut sub = Vec::new();
                    bp.append_range(7..rows - 3, &mut sub).unwrap();
                    let expect: Vec<u32> = want
                        .positions()
                        .iter()
                        .copied()
                        .filter(|&x| (7..rows as u32 - 3).contains(&x))
                        .collect();
                    assert_eq!(sub, expect, "{p} sub-range over {rows}");
                }
            }
        }
    }

    #[test]
    fn append_filtered_matches_scalar_refinement() {
        let c = chunk(500);
        // A stride-3 starting selection.
        let base = SelVec::new((0..500u32).filter(|x| x % 3 == 0).collect());
        for p in preds() {
            let bp = BlockPred::try_compile(&p, &c).unwrap();
            let mut got = Vec::new();
            bp.append_filtered(base.positions(), &mut got).unwrap();
            let want = select_positions(&c, Some(&base), &p).unwrap();
            assert_eq!(got, want.positions(), "{p}");
        }
    }

    #[test]
    fn prod_pred_selects_block_path_and_falls_back() {
        let c = chunk(200);
        let run = |p: &Predicate| -> Result<SelVec, String> {
            let mut got = Vec::new();
            ProdPred::compile(p, &c)?.append_range(0..200, &mut got)?;
            Ok(SelVec::new(got))
        };
        // Block-evaluable predicate.
        let p = Predicate::between("a", -5, 5);
        assert!(matches!(ProdPred::compile(&p, &c), Ok(ProdPred::Block(_))));
        assert_eq!(run(&p), select_positions(&c, None, &p));
        // ColCmp is unsupported: must fall back, not fail.
        let p = Predicate::ColCmp {
            left: "a".into(),
            op: CmpOp::Lt,
            right: "b".into(),
        };
        assert!(matches!(ProdPred::compile(&p, &c), Ok(ProdPred::Scalar(_))));
        assert_eq!(run(&p), select_positions(&c, None, &p));
        // Static errors surface with the scalar message.
        let p = Predicate::eq("zz", 1);
        assert!(run(&p).is_err());
        assert_eq!(run(&p), select_positions(&c, None, &p));
    }

    #[test]
    fn nan_errors_match_scalar_short_circuit() {
        let c = Chunk::new(
            vec![
                Field::new("x", DataType::Float64),
                Field::new("g", DataType::Int32),
            ],
            vec![
                ColumnData::Float64(vec![1.0, f64::NAN, 3.0, 4.0]),
                ColumnData::Int32(vec![0, 0, 1, 1]),
            ],
        );
        // Direct comparison over a NaN lane errors, like the scalar path.
        let p = Predicate::cmp("x", CmpOp::Gt, 2.0);
        let bp = BlockPred::try_compile(&p, &c).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            bp.append_range(0..4, &mut out).unwrap_err(),
            select_positions(&c, None, &p).unwrap_err()
        );
        // AND short-circuit: the NaN row is rejected by the first conjunct,
        // so neither path errors.
        let p = Predicate::and([
            Predicate::eq("g", 1),
            Predicate::cmp("x", CmpOp::Gt, 2.0),
        ]);
        let bp = BlockPred::try_compile(&p, &c).unwrap();
        let mut out = Vec::new();
        bp.append_range(0..4, &mut out).unwrap();
        assert_eq!(SelVec::new(out), select_positions(&c, None, &p).unwrap());
        // Flipped order: the NaN row is live when the comparison runs, so
        // both paths error identically.
        let p = Predicate::and([
            Predicate::cmp("x", CmpOp::Gt, 2.0),
            Predicate::eq("g", 1),
        ]);
        let bp = BlockPred::try_compile(&p, &c).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            bp.append_range(0..4, &mut out).unwrap_err(),
            select_positions(&c, None, &p).unwrap_err()
        );
        // OR short-circuit: a true first branch hides the NaN in the
        // second branch, in both paths.
        let p = Predicate::or([
            Predicate::eq("g", 0),
            Predicate::cmp("x", CmpOp::Gt, 2.0),
        ]);
        let bp = BlockPred::try_compile(&p, &c).unwrap();
        let mut out = Vec::new();
        bp.append_range(0..4, &mut out).unwrap();
        assert_eq!(SelVec::new(out), select_positions(&c, None, &p).unwrap());
        // NaN literal: every active lane errors.
        let p = Predicate::cmp("x", CmpOp::Eq, f64::NAN);
        let bp = BlockPred::try_compile(&p, &c).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            bp.append_range(0..4, &mut out).unwrap_err(),
            select_positions(&c, None, &p).unwrap_err()
        );
    }

    #[test]
    fn empty_inputs() {
        let c = chunk(0);
        let p = Predicate::between("a", -5, 5);
        let bp = BlockPred::try_compile(&p, &c).unwrap();
        let mut out = Vec::new();
        bp.append_range(0..0, &mut out).unwrap();
        assert!(out.is_empty());
        bp.append_filtered(&[], &mut out).unwrap();
        assert!(out.is_empty());
    }
}
