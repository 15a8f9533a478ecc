//! Effective column sizes under lightweight compression.
//!
//! Section 6.3 of the paper discusses compression as the lever that
//! *shifts* (but does not remove) the resource break-down points: a
//! compressed column occupies less co-processor cache and moves fewer
//! bytes over the bus, so cache thrashing and the Figure 14 crossover
//! appear at larger scale factors.
//!
//! Only those bytes are modelled. Sizes are computed, not encoded: one
//! pass over a column's rows, read as 64-bit payloads (zig-zag integers,
//! `f64` bit patterns, dictionary codes), counts its runs and its value
//! range, and the smallest of three classic lightweight codecs is charged:
//!
//! * **RLE** — 12 bytes a run (value and run length), for columns with
//!   long runs (sorted keys, constants like `lo_shippriority`);
//! * **FOR + bit packing** — frame-of-reference (subtract the minimum),
//!   each value packed into the bits the range needs: whole 64-bit
//!   words plus a 16-byte header;
//! * **raw** — the fallback when neither helps (e.g. random doubles).
//!
//! Query processing never reads a compressed form; the engine consumes
//! these sizes through [`crate::Database::apply_compression`].

use crate::column::ColumnData;
use std::ops::Range;

/// Effective bytes of `col` under the automatic codec choice.
pub fn compressed_size(col: &ColumnData) -> u64 {
    rows_compressed_size(col, 0..col.len())
}

/// Effective bytes of rows `rows` of `col` under the automatic codec
/// choice: RLE if it undercuts both the packed estimate (⌈n·bits/8⌉ + 16)
/// and raw, else the packed words if the estimate undercuts raw, else raw.
pub(crate) fn rows_compressed_size(col: &ColumnData, rows: Range<usize>) -> u64 {
    let n = rows.len() as u64;
    let raw = n * col.data_type().byte_width() as u64;
    let zigzag = |v: i64| ((v << 1) ^ (v >> 63)) as u64;
    let (runs, span) = match col {
        ColumnData::Int32(v) => runs_and_span(v[rows].iter().map(|&x| zigzag(i64::from(x)))),
        ColumnData::Int64(v) => runs_and_span(v[rows].iter().map(|&x| zigzag(x))),
        ColumnData::Float64(v) => runs_and_span(v[rows].iter().map(|x| x.to_bits())),
        ColumnData::Str(d) => runs_and_span(d.codes()[rows].iter().map(|&c| u64::from(c))),
    };
    let bits = u64::from(64 - span.leading_zeros()).max(1);
    let rle = runs * 12;
    let packed_estimate = (n * bits).div_ceil(8) + 16;
    if rle < packed_estimate && rle < raw {
        rle
    } else if packed_estimate < raw {
        (n * bits).div_ceil(64) * 8 + 16
    } else {
        raw
    }
}

/// Number of runs of equal values and `max − min`, in one pass.
fn runs_and_span(mut values: impl Iterator<Item = u64>) -> (u64, u64) {
    let Some(first) = values.next() else {
        return (0, 0);
    };
    let (mut runs, mut prev, mut min, mut max) = (1, first, first, first);
    for v in values {
        runs += u64::from(v != prev);
        (prev, min, max) = (v, min.min(v), max.max(v));
    }
    (runs, max - min)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes the cache and the bus are charged, pinned per codec
    /// choice: runs × 12, ⌈n·bits/64⌉ × 8 + 16, or raw.
    #[test]
    fn compressed_sizes_are_pinned() {
        use crate::column::DictColumn;
        let cases = [
            ("constant i32", ColumnData::Int32(vec![7; 10_000]), 12),
            ("0..=10 cycle", ColumnData::Int32((0..10_000).map(|i| i % 11).collect()), 6_272),
            ("i32 extremes", ColumnData::Int32(vec![-5, 0, 5, i32::MIN, i32::MAX]), 20),
            ("i64 extremes", ColumnData::Int64(vec![-1, i64::MIN, i64::MAX, 0]), 32),
            ("sorted keys", ColumnData::Int32((0..60_000).map(|i| i / 4).collect()), 112_520),
            ("13-bit values", ColumnData::Int64((0..977).map(|i| (i * 7919) % 8000).collect()), 1_728),
            (
                "alternating-sign f64",
                ColumnData::Float64((0..1000).map(|i| (i as f64 - 500.0) * (i as f64).sqrt()).collect()),
                8_000,
            ),
            ("constant f64", ColumnData::Float64(vec![3.25; 5_000]), 12),
            (
                "two-value dictionary",
                ColumnData::Str(DictColumn::from_strings(
                    (0..5_000).map(|i| if i % 2 == 0 { "ASIA" } else { "EUROPE" }),
                )),
                648,
            ),
            ("empty", ColumnData::Int32(vec![]), 0),
        ];
        for (what, col, bytes) in cases {
            assert_eq!(compressed_size(&col), bytes, "{what}");
        }
    }

    /// `apply_compression`'s ratio over generated SSB data, and over a
    /// table whose first segment was cut by a sealed append and whose
    /// last is open.
    #[test]
    fn compression_ratios_are_pinned() {
        use crate::gen::ssb::SsbGenerator;
        use crate::table::{Field, Schema, Table};
        use crate::types::DataType;
        use crate::Database;
        let mut ssb = SsbGenerator::new(1).with_rows_per_sf(2_000).generate();
        assert_eq!(ssb.apply_compression(), 2.4948380375071038);

        let keys = |rows: std::ops::Range<i32>| ColumnData::Int32(rows.map(|i| i / 4).collect());
        let values = |rows: std::ops::Range<i32>| {
            ColumnData::Float64(rows.map(|i| f64::from(i % 7)).collect())
        };
        let mut db = Database::new();
        db.set_seal_rows(1_000);
        let schema = Schema::new(vec![Field::new("k", DataType::Int32), Field::new("v", DataType::Float64)]);
        db.add_table(Table::new("t", schema, vec![keys(0..3_000), values(0..3_000)]).unwrap()).unwrap();
        db.apply_compression();
        db.append_batch("t", vec![keys(3_000..4_500), values(3_000..4_500)]).unwrap();
        db.append_batch("t", vec![keys(4_500..4_510), values(4_500..4_510)]).unwrap();
        let sizes: Vec<u64> = db.all_column_ids().map(|id| db.column_size(id)).collect();
        assert_eq!(sizes, [6_080, 35_560]);
        assert_eq!(db.apply_compression(), 1.2997118155619596);
    }
}
