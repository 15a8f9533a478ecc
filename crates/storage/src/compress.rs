//! Lightweight column compression.
//!
//! Section 6.3 of the paper discusses compression as the lever that
//! *shifts* (but does not remove) the resource break-down points: a
//! compressed column occupies less co-processor cache and moves fewer
//! bytes over the bus, so cache thrashing and the Figure 14 crossover
//! appear at larger scale factors.
//!
//! Three classic lightweight codecs are implemented, with an automatic
//! chooser that picks the smallest encoding per column:
//!
//! * **RLE** — run-length encoding, for columns with long runs
//!   (sorted keys, constants like `lo_shippriority`);
//! * **FOR + bit packing** — frame-of-reference (subtract the minimum)
//!   followed by packing each value into the minimal number of bits;
//! * **raw** — the fallback when neither helps (e.g. random doubles).
//!
//! Compression here is *transparent*: [`CompressedColumn::decompress`]
//! restores the exact original column, and the engine only consumes the
//! compressed **size** (for cache/transfer math) via
//! [`crate::Database::apply_compression`].

use crate::column::{ColumnData, DictColumn};
use std::sync::Arc;

/// A compressed representation of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressedColumn {
    /// Uncompressed fallback.
    Raw(ColumnData),
    /// Run-length encoded 64-bit values (covers Int32/Int64 and
    /// dictionary codes; floats are stored via their bit pattern).
    Rle {
        /// Logical type the payload encodes.
        kind: ValueKind,
        /// `(value, run length)` pairs.
        runs: Vec<(u64, u32)>,
        /// Dictionary for string columns.
        dict: Option<Arc<Vec<String>>>,
    },
    /// Frame-of-reference + bit packing of 64-bit values.
    BitPacked {
        /// Logical type the payload encodes.
        kind: ValueKind,
        /// Frame of reference (subtracted minimum).
        min: u64,
        /// Bits per packed value.
        bits: u8,
        /// Number of encoded rows.
        rows: usize,
        /// The packed bit stream.
        words: Vec<u64>,
        /// Dictionary for string columns.
        dict: Option<Arc<Vec<String>>>,
    },
}

/// The logical type the 64-bit payload encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Zig-zag encoded `i32`.
    Int32,
    /// Zig-zag encoded `i64`.
    Int64,
    /// `f64` bit patterns.
    Float64,
    /// Dictionary codes of a string column.
    DictCode,
}

/// Zig-zag encode a signed value into an unsigned one so FOR works for
/// negatives.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Extract `(kind, values, dict)` as 64-bit payloads.
fn raw_values(col: &ColumnData) -> (ValueKind, Vec<u64>, Option<Arc<Vec<String>>>) {
    match col {
        ColumnData::Int32(v) => {
            (ValueKind::Int32, v.iter().map(|&x| zigzag(x as i64)).collect(), None)
        }
        ColumnData::Int64(v) => {
            (ValueKind::Int64, v.iter().map(|&x| zigzag(x)).collect(), None)
        }
        ColumnData::Float64(v) => {
            (ValueKind::Float64, v.iter().map(|x| x.to_bits()).collect(), None)
        }
        ColumnData::Str(d) => (
            ValueKind::DictCode,
            d.codes().iter().map(|&c| c as u64).collect(),
            Some(Arc::clone(d.dict())),
        ),
    }
}

fn rebuild(kind: ValueKind, values: Vec<u64>, dict: Option<Arc<Vec<String>>>) -> ColumnData {
    match kind {
        ValueKind::Int32 => {
            ColumnData::Int32(values.into_iter().map(|v| unzigzag(v) as i32).collect())
        }
        ValueKind::Int64 => {
            ColumnData::Int64(values.into_iter().map(unzigzag).collect())
        }
        ValueKind::Float64 => {
            ColumnData::Float64(values.into_iter().map(f64::from_bits).collect())
        }
        ValueKind::DictCode => {
            let dict = dict.expect("dictionary present for string columns");
            let codes = values.into_iter().map(|v| v as u32).collect();
            ColumnData::Str(DictColumn::from_parts(dict, codes))
        }
    }
}

/// Run-length encode.
fn rle_encode(values: &[u64]) -> Vec<(u64, u32)> {
    let mut runs = Vec::new();
    for &v in values {
        match runs.last_mut() {
            Some((last, count)) if *last == v && *count < u32::MAX => *count += 1,
            _ => runs.push((v, 1)),
        }
    }
    runs
}

fn rle_decode(runs: &[(u64, u32)]) -> Vec<u64> {
    let total: usize = runs.iter().map(|&(_, c)| c as usize).sum();
    let mut out = Vec::with_capacity(total);
    for &(v, c) in runs {
        out.extend(std::iter::repeat_n(v, c as usize));
    }
    out
}

/// Bits needed to represent `v`.
fn bits_for(v: u64) -> u8 {
    (64 - v.leading_zeros()).max(1) as u8
}

fn pack(values: &[u64], min: u64, bits: u8) -> Vec<u64> {
    debug_assert!((1..=64).contains(&bits));
    let total_bits = values.len() * bits as usize;
    let mut words = vec![0u64; total_bits.div_ceil(64)];
    for (i, &v) in values.iter().enumerate() {
        let delta = v - min;
        let bit_pos = i * bits as usize;
        let word = bit_pos / 64;
        let offset = bit_pos % 64;
        words[word] |= delta << offset;
        if offset + bits as usize > 64 {
            words[word + 1] |= delta >> (64 - offset);
        }
    }
    words
}

fn unpack(words: &[u64], rows: usize, min: u64, bits: u8) -> Vec<u64> {
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        let bit_pos = i * bits as usize;
        let word = bit_pos / 64;
        let offset = bit_pos % 64;
        let mut v = words[word] >> offset;
        if offset + bits as usize > 64 {
            v |= words[word + 1] << (64 - offset);
        }
        out.push((v & mask) + min);
    }
    out
}

impl CompressedColumn {
    /// Compress `col`, choosing the smallest of RLE, FOR+bit-packing and
    /// raw.
    pub fn compress(col: &ColumnData) -> CompressedColumn {
        if col.is_empty() {
            return CompressedColumn::Raw(col.clone());
        }
        let (kind, values, dict) = raw_values(col);
        let raw_size = col.byte_size();

        let runs = rle_encode(&values);
        let rle_size = (runs.len() * 12) as u64;

        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        let bits = bits_for(max - min);
        let packed_size = ((values.len() * bits as usize).div_ceil(8)) as u64 + 16;

        if rle_size < packed_size && rle_size < raw_size {
            CompressedColumn::Rle { kind, runs, dict }
        } else if packed_size < raw_size {
            let words = pack(&values, min, bits);
            CompressedColumn::BitPacked {
                kind,
                min,
                bits,
                rows: values.len(),
                words,
                dict,
            }
        } else {
            CompressedColumn::Raw(col.clone())
        }
    }

    /// Size of the compressed payload in bytes (what the cache and the
    /// bus are charged).
    pub fn compressed_size(&self) -> u64 {
        match self {
            CompressedColumn::Raw(c) => c.byte_size(),
            CompressedColumn::Rle { runs, .. } => (runs.len() * 12) as u64,
            CompressedColumn::BitPacked { words, .. } => (words.len() * 8) as u64 + 16,
        }
    }

    /// Compressed payload bytes — alias of [`Self::compressed_size`] used
    /// by the catalog's per-table compression statistics.
    pub fn bytes(&self) -> u64 {
        self.compressed_size()
    }

    /// Number of logical rows the payload encodes.
    pub fn num_rows(&self) -> usize {
        match self {
            CompressedColumn::Raw(c) => c.len(),
            CompressedColumn::Rle { runs, .. } => {
                runs.iter().map(|&(_, c)| c as usize).sum()
            }
            CompressedColumn::BitPacked { rows, .. } => *rows,
        }
    }

    /// Human-readable codec name.
    pub fn codec(&self) -> &'static str {
        match self {
            CompressedColumn::Raw(_) => "raw",
            CompressedColumn::Rle { .. } => "rle",
            CompressedColumn::BitPacked { .. } => "for-bitpack",
        }
    }

    /// Restore the exact original column.
    pub fn decompress(&self) -> ColumnData {
        match self {
            CompressedColumn::Raw(c) => c.clone(),
            CompressedColumn::Rle { kind, runs, dict } => {
                rebuild(*kind, rle_decode(runs), dict.clone())
            }
            CompressedColumn::BitPacked { kind, min, bits, rows, words, dict } => {
                rebuild(*kind, unpack(words, *rows, *min, *bits), dict.clone())
            }
        }
    }
}

/// Compressed size of `col` under the automatic codec choice.
pub fn compressed_size(col: &ColumnData) -> u64 {
    CompressedColumn::compress(col).compressed_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DictColumn;

    fn roundtrip(col: ColumnData) -> CompressedColumn {
        let c = CompressedColumn::compress(&col);
        assert_eq!(c.decompress(), col, "lossless roundtrip");
        c
    }

    #[test]
    fn constant_column_collapses_to_one_run() {
        let c = roundtrip(ColumnData::Int32(vec![0; 10_000]));
        assert_eq!(c.codec(), "rle");
        assert_eq!(c.compressed_size(), 12);
    }

    #[test]
    fn small_range_bitpacks() {
        // Values 0..=10 need 5 zig-zag bits: 8x+ smaller than 4 bytes.
        let vals: Vec<i32> = (0..10_000).map(|i| i % 11).collect();
        let c = roundtrip(ColumnData::Int32(vals));
        assert_eq!(c.codec(), "for-bitpack");
        assert!(c.compressed_size() < 10_000);
    }

    #[test]
    fn negative_values_roundtrip() {
        roundtrip(ColumnData::Int32(vec![-5, 0, 5, i32::MIN, i32::MAX]));
        roundtrip(ColumnData::Int64(vec![-1, i64::MIN, i64::MAX, 0]));
    }

    #[test]
    fn sign_alternating_floats_stay_raw() {
        // Alternating signs span the full 64-bit pattern range: neither
        // runs nor packing help.
        let vals: Vec<f64> =
            (0..1000).map(|i| (i as f64 - 500.0) * (i as f64).sqrt()).collect();
        let c = roundtrip(ColumnData::Float64(vals));
        assert_eq!(c.codec(), "raw");
    }

    #[test]
    fn constant_floats_rle() {
        let c = roundtrip(ColumnData::Float64(vec![3.25; 5_000]));
        assert_eq!(c.codec(), "rle");
    }

    #[test]
    fn dictionary_codes_compress_and_share_dict() {
        let col = ColumnData::Str(DictColumn::from_strings(
            (0..5_000).map(|i| if i % 2 == 0 { "ASIA" } else { "EUROPE" }),
        ));
        let c = roundtrip(col.clone());
        assert!(c.compressed_size() < col.byte_size());
        match (&c.decompress(), &col) {
            (ColumnData::Str(a), ColumnData::Str(b)) => {
                assert!(Arc::ptr_eq(a.dict(), b.dict()), "dictionary shared");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn sorted_keys_compress_well() {
        let vals: Vec<i32> = (0..60_000).map(|i| i / 4).collect();
        let c = roundtrip(ColumnData::Int32(vals));
        assert!(c.compressed_size() * 2 < 240_000, "at least 2x on sorted keys");
    }

    #[test]
    fn empty_column() {
        let c = roundtrip(ColumnData::Int32(vec![]));
        assert_eq!(c.compressed_size(), 0);
    }

    #[test]
    fn bit_boundary_crossing_values() {
        // 13-bit values force packs that straddle word boundaries.
        let vals: Vec<i64> = (0..977).map(|i| (i * 7919) % 8000).collect();
        roundtrip(ColumnData::Int64(vals));
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
