//! Property tests: compressed-domain selection is **byte-identical** to
//! decompress-then-execute.
//!
//! The compressed kernels (DESIGN.md §5) evaluate predicates directly on
//! RLE runs, dictionary codes and FOR+bit-packed payloads. These tests
//! pin the equivalence across:
//!
//! * all three encodings (plus the raw fallback), driven through the
//!   automatic codec chooser with data shapes that force each codec;
//! * every comparison operator, `BETWEEN`, `IN`, and `AND`/`OR`/`NOT`
//!   combinations (the packed-literal, truth-table, streaming and
//!   decompress paths all get exercised);
//! * edge cases: empty columns, all-match / none-match predicates,
//!   single-run columns, fractional and out-of-range literals.
//!
//! Errors must match too: a predicate that fails on the decompressed
//! column (type mismatch, NaN comparison) must fail with the same string
//! in the compressed domain.

use proptest::prelude::*;
use robustq::engine::ops::compressed::{exec_path, select_compressed, ExecPath};
use robustq::engine::predicate::{CmpOp, Predicate};
use robustq::engine::reference;
use robustq::engine::Chunk;
use robustq::storage::{ColumnData, CompressedColumn, DataType, DictColumn, Field};

const COL: &str = "c";

fn dtype_of(col: &ColumnData) -> DataType {
    match col {
        ColumnData::Int32(_) => DataType::Int32,
        ColumnData::Int64(_) => DataType::Int64,
        ColumnData::Float64(_) => DataType::Float64,
        ColumnData::Str(_) => DataType::Str,
    }
}

/// Decompress-then-execute reference: positions on success, the error
/// string on failure.
fn reference(col: &CompressedColumn, pred: &Predicate) -> Result<Vec<u32>, String> {
    let dec = col.decompress();
    let chunk = Chunk::new(vec![Field::new(COL, dtype_of(&dec))], vec![dec]);
    Ok(reference::select_positions(&chunk, None, pred)?.into_positions())
}

/// The equivalence under test.
fn assert_identical(col: &CompressedColumn, pred: &Predicate) {
    let want = reference(col, pred);
    let got = select_compressed(col, COL, pred).map(|s| s.positions);
    match (&want, &got) {
        (Ok(w), Ok(g)) => assert_eq!(
            w,
            g,
            "positions diverge (codec {}, path {:?})",
            col.codec(),
            exec_path(col, COL, pred)
        ),
        (Err(w), Err(g)) => assert_eq!(w, g, "error strings diverge"),
        _ => panic!(
            "outcome diverges: reference {want:?} vs compressed {got:?} \
             (codec {}, path {:?})",
            col.codec(),
            exec_path(col, COL, pred)
        ),
    }
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Integer columns biased so the chooser lands on each codec: long runs
/// (RLE), a narrow value range (FOR+bit-pack), or full-range noise (raw).
fn int_column() -> impl Strategy<Value = ColumnData> {
    prop_oneof![
        // runs
        prop::collection::vec((-60i32..60, 1usize..30), 0..20).prop_map(|runs| {
            let mut v = Vec::new();
            for (val, len) in runs {
                v.extend(std::iter::repeat_n(val, len));
            }
            ColumnData::Int32(v)
        }),
        // narrow range incl. negatives
        prop::collection::vec(-50i32..50, 0..400).prop_map(ColumnData::Int32),
        // full range
        prop::collection::vec(i32::MIN..i32::MAX, 0..100).prop_map(ColumnData::Int32),
        // Int64 narrow range
        prop::collection::vec(-1000i64..1000, 0..300).prop_map(ColumnData::Int64),
    ]
}

fn float_column() -> impl Strategy<Value = ColumnData> {
    prop_oneof![
        // constant runs -> RLE
        prop::collection::vec((-4i32..4, 1usize..40), 0..10).prop_map(|runs| {
            let mut v = Vec::new();
            for (val, len) in runs {
                v.extend(std::iter::repeat_n(val as f64 * 0.5, len));
            }
            ColumnData::Float64(v)
        }),
        // noise -> raw
        prop::collection::vec((-1_000_000i64..1_000_000, 0i64..1000), 0..120).prop_map(
            |parts| {
                ColumnData::Float64(
                    parts
                        .into_iter()
                        .map(|(whole, frac)| whole as f64 + frac as f64 / 1000.0)
                        .collect(),
                )
            }
        ),
    ]
}

const POOL: [&str; 6] = ["ASIA", "EUROPE", "AMERICA", "AFRICA", "x", ""];

fn str_column() -> impl Strategy<Value = ColumnData> {
    prop::collection::vec(0usize..POOL.len(), 0..300).prop_map(|idx| {
        ColumnData::Str(DictColumn::from_strings(idx.into_iter().map(|i| POOL[i])))
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// Numeric literals: in-range integers, fractional values, and extremes
/// outside any generated frame.
fn num_literal() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-70i32..70).prop_map(|v| v as f64),
        (-70i32..70).prop_map(|v| v as f64 + 0.5),
        Just(1e18),
        Just(-1e18),
        Just(0.0),
    ]
}

fn num_leaf() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (cmp_op(), num_literal())
            .prop_map(|(op, v)| Predicate::cmp(COL, op, v)),
        (num_literal(), num_literal())
            .prop_map(|(lo, hi)| Predicate::between(COL, lo, hi)),
        prop::collection::vec(num_literal(), 0..4)
            .prop_map(|vs| Predicate::in_list(COL, vs)),
    ]
}

fn num_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        num_leaf(),
        prop::collection::vec(num_leaf(), 1..3).prop_map(Predicate::and),
        prop::collection::vec(num_leaf(), 1..3).prop_map(Predicate::or),
        num_leaf().prop_map(|p| Predicate::Not(Box::new(p))),
        (num_leaf(), num_leaf(), num_leaf()).prop_map(|(a, b, c)| {
            Predicate::and([a, Predicate::or([b, Predicate::Not(Box::new(c))])])
        }),
    ]
}

fn str_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (cmp_op(), 0usize..POOL.len())
            .prop_map(|(op, i)| Predicate::cmp(COL, op, POOL[i])),
        (0usize..POOL.len(), 0usize..POOL.len()).prop_map(|(a, b)| {
            Predicate::between(COL, POOL[a.min(b)], POOL[a.max(b)])
        }),
        prop::collection::vec(0usize..POOL.len(), 0..3)
            .prop_map(|is| Predicate::in_list(COL, is.into_iter().map(|i| POOL[i]))),
        prop::sample::select(vec!["A", "E", "AS", "", "x", "Z"]).prop_map(|p| {
            Predicate::StrPrefix { column: COL.into(), prefix: p.to_string() }
        }),
        // type-mismatch: numeric literal against the string column must
        // produce the identical error
        num_leaf(),
    ]
}

proptest! {
    #[test]
    fn int_columns_match_reference(col in int_column(), pred in num_predicate()) {
        assert_identical(&CompressedColumn::compress(&col), &pred);
    }

    #[test]
    fn float_columns_match_reference(col in float_column(), pred in num_predicate()) {
        assert_identical(&CompressedColumn::compress(&col), &pred);
    }

    #[test]
    fn str_columns_match_reference(col in str_column(), pred in str_predicate()) {
        assert_identical(&CompressedColumn::compress(&col), &pred);
    }
}

// ---------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------

#[test]
fn empty_columns_every_encoding() {
    for col in [
        ColumnData::Int32(vec![]),
        ColumnData::Float64(vec![]),
        ColumnData::Str(DictColumn::from_strings(Vec::<String>::new())),
    ] {
        let c = CompressedColumn::compress(&col);
        let got = select_compressed(&c, COL, &Predicate::eq(COL, 1)).ok();
        // Numeric Eq on the empty string column is a compile error in
        // both worlds; on numeric columns both return no rows.
        assert_identical(&c, &Predicate::True);
        if let Some(s) = got {
            assert!(s.positions.is_empty());
        }
    }
}

#[test]
fn single_run_column_all_and_none_match() {
    let c = CompressedColumn::compress(&ColumnData::Int32(vec![7; 5_000]));
    assert_eq!(c.codec(), "rle");
    let all = select_compressed(&c, COL, &Predicate::eq(COL, 7)).unwrap();
    assert_eq!(all.positions.len(), 5_000);
    assert_eq!(all.spans.as_deref(), Some(&[(0u32, 5_000u32)][..]));
    let none = select_compressed(&c, COL, &Predicate::eq(COL, 8)).unwrap();
    assert!(none.positions.is_empty());
    assert_identical(&c, &Predicate::cmp(COL, CmpOp::Ge, 7));
}

#[test]
fn all_match_predicates_cover_every_row() {
    let cols = [
        ColumnData::Int32((0..3_000).map(|i| i % 30).collect()),
        ColumnData::Int32((0..3_000).map(|i| i / 300).collect()),
    ];
    for col in cols {
        let c = CompressedColumn::compress(&col);
        let got =
            select_compressed(&c, COL, &Predicate::between(COL, -100, 100)).unwrap();
        assert_eq!(got.positions.len(), 3_000);
        assert_identical(&c, &Predicate::between(COL, -100, 100));
    }
}

#[test]
fn nan_comparisons_error_identically() {
    // NaN literal against packed ints: the streaming path must raise the
    // same per-row error the scalar path raises.
    let c = CompressedColumn::compress(&ColumnData::Int32((0..100).map(|i| i % 9).collect()));
    let pred = Predicate::cmp(COL, CmpOp::Lt, f64::NAN);
    assert_identical(&c, &pred);
    // NaN data in an RLE float column.
    let mut v = vec![1.5f64; 200];
    v[150] = f64::NAN;
    let c = CompressedColumn::compress(&ColumnData::Float64(v));
    assert_identical(&c, &Predicate::cmp(COL, CmpOp::Gt, 1.0));
}

#[test]
fn unknown_column_errors_identically() {
    let c = CompressedColumn::compress(&ColumnData::Int32((0..50).collect()));
    assert_identical(&c, &Predicate::eq("zz", 1));
}

#[test]
fn fallback_paths_report_decompress() {
    let raw = CompressedColumn::compress(&ColumnData::Float64(
        (0..500).map(|i| (i as f64 - 250.0) * (i as f64).sqrt()).collect(),
    ));
    assert_eq!(raw.codec(), "raw");
    assert_eq!(
        exec_path(&raw, COL, &Predicate::eq(COL, 0.0)),
        ExecPath::Decompress
    );
    assert_identical(&raw, &Predicate::cmp(COL, CmpOp::Gt, 100.0));
}
