//! Selection kernel.
//!
//! A selection never copies rows: it emits the qualifying positions of the
//! row stream it reads as a [`SelVec`], and whoever needs the rows gathers
//! them once. The predicate is compiled **once** per call (to the block
//! form when the shape supports it — see [`crate::simd`]) and shared
//! read-only across morsel workers; a morsel is an index range of the
//! dense rows ([`select_range`]) or of the incoming selection's position
//! list ([`refine`]), and per-morsel positions concatenate in morsel
//! order, so the output is the same for every worker count.

use crate::batch::{Chunk, SelVec};
use crate::parallel::{KernelClass, ParallelCtx};
use crate::predicate::Predicate;
use crate::simd::ProdPred;
use std::ops::Range;

/// The positions of the row stream `(chunk, sel)` — all rows when `sel` is
/// `None` — where `predicate` holds, in stream order.
pub fn select(
    chunk: &Chunk,
    sel: Option<&SelVec>,
    predicate: &Predicate,
    ctx: ParallelCtx,
) -> Result<SelVec, String> {
    match sel {
        None => select_range(chunk, 0..chunk.num_rows(), predicate, ctx),
        Some(sel) => refine(chunk, sel, predicate, ctx),
    }
}

/// Dense-range form: the positions within `rows` (global row indices of
/// `chunk`) where `predicate` holds. Consecutive ranges concatenate to the
/// selection of their union, which is what makes a sharded scan
/// byte-identical to the unsharded one.
pub fn select_range(
    chunk: &Chunk,
    rows: Range<usize>,
    predicate: &Predicate,
    ctx: ParallelCtx,
) -> Result<SelVec, String> {
    let pred = ProdPred::compile(predicate, chunk)?;
    let positions = ctx.run_morsels_arena(
        rows.len(),
        KernelClass::Selection,
        |m, out: &mut Vec<u32>| pred.append_range(rows.start + m.start..rows.start + m.end, out),
    )?;
    Ok(SelVec::new(positions))
}

/// Refine form: the entries of `sel` where `predicate` holds, in their
/// original order — how stacked filters compose without rescanning rows an
/// earlier filter already rejected.
pub fn refine(
    chunk: &Chunk,
    sel: &SelVec,
    predicate: &Predicate,
    ctx: ParallelCtx,
) -> Result<SelVec, String> {
    let pred = ProdPred::compile(predicate, chunk)?;
    let positions = ctx.run_morsels_arena(
        sel.len(),
        KernelClass::Selection,
        |m, out: &mut Vec<u32>| pred.append_filtered(&sel.positions()[m], out),
    )?;
    Ok(SelVec::new(positions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use robustq_storage::{ColumnData, DataType, Field, Value};

    fn chunk() -> Chunk {
        Chunk::new(
            vec![
                Field::new("a", DataType::Int32),
                Field::new("b", DataType::Float64),
            ],
            vec![
                ColumnData::Int32(vec![1, 2, 3, 4, 5]),
                ColumnData::Float64(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            ],
        )
    }

    fn filter(chunk: &Chunk, predicate: &Predicate) -> Result<Chunk, String> {
        let sel = select(chunk, None, predicate, ParallelCtx::serial())?;
        Ok(chunk.gather(sel.positions()))
    }

    #[test]
    fn filters_rows() {
        let out = filter(&chunk(), &Predicate::between("a", 2, 4)).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.row(0), vec![Value::Int32(2), Value::Float64(2.0)]);
    }

    #[test]
    fn empty_selection() {
        let out = filter(&chunk(), &Predicate::eq("a", 99)).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.num_columns(), 2);
    }

    #[test]
    fn true_predicate_keeps_everything() {
        let out = filter(&chunk(), &Predicate::True).unwrap();
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn error_propagates() {
        assert!(filter(&chunk(), &Predicate::eq("missing", 1)).is_err());
    }

    /// Every `(sel, ctx)` form equals the scalar reference, positions and
    /// errors, on block-compilable and scalar-fallback predicates.
    #[test]
    fn every_form_matches_reference() {
        let n = 1_000usize;
        let c = Chunk::new(
            vec![
                Field::new("a", DataType::Int32),
                Field::new("f", DataType::Float64),
            ],
            vec![
                ColumnData::Int32((0..n).map(|i| (i as i32 * 7) % 23 - 11).collect()),
                ColumnData::Float64((0..n).map(|i| i as f64 * 0.37 - 50.0).collect()),
            ],
        );
        let incoming = SelVec::new((0..n as u32).filter(|i| i % 3 != 1).collect());
        let preds = [
            Predicate::between("a", -5, 5),
            Predicate::ColCmp {
                left: "a".into(),
                op: crate::predicate::CmpOp::Lt,
                right: "f".into(),
            },
            Predicate::eq("zz", 1),
            Predicate::cmp("f", crate::predicate::CmpOp::Gt, f64::NAN),
        ];
        for p in &preds {
            for sel in [None, Some(&incoming)] {
                let want = reference::select_positions(&c, sel, p);
                for workers in [1, 2, 8] {
                    for morsel in [1, 7, 64] {
                        let ctx = ParallelCtx {
                            workers,
                            morsel_rows: morsel,
                            min_rows_per_worker: 0,
                        };
                        assert_eq!(
                            select(&c, sel, p, ctx),
                            want,
                            "{p} sel={} workers={workers} morsel={morsel}",
                            sel.is_some()
                        );
                    }
                }
            }
        }
    }
}
