//! Fully materialized, typed columns.
//!
//! A column is a dense vector of one scalar type. Strings are dictionary
//! encoded ([`DictColumn`]): the per-row payload is a `u32` code, which is
//! also what the co-processor footprint math charges.

use crate::types::{DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A dictionary-encoded string column.
///
/// Codes index into `dict`, which holds each distinct string once, in
/// first-seen order. The dictionary is behind an [`Arc`] so that filtered
/// intermediates can share it with the base column instead of copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct DictColumn {
    dict: Arc<Vec<String>>,
    codes: Vec<u32>,
}

impl DictColumn {
    /// Build a dictionary column from raw strings.
    pub fn from_strings<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut dict: Vec<String> = Vec::new();
        let mut lookup: HashMap<String, u32> = HashMap::new();
        let mut codes = Vec::new();
        for v in values {
            let s = v.as_ref();
            let code = match lookup.get(s) {
                Some(&c) => c,
                None => {
                    let c = dict.len() as u32;
                    dict.push(s.to_owned());
                    lookup.insert(s.to_owned(), c);
                    c
                }
            };
            codes.push(code);
        }
        DictColumn { dict: Arc::new(dict), codes }
    }

    /// Build a column that reuses an existing dictionary with new codes.
    ///
    /// Every code must index into `dict`.
    pub fn from_parts(dict: Arc<Vec<String>>, codes: Vec<u32>) -> Self {
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()));
        DictColumn { dict, codes }
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Arc<Vec<String>> {
        &self.dict
    }

    /// Per-row codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The string at row `i`.
    pub fn get(&self, i: usize) -> &str {
        &self.dict[self.codes[i] as usize]
    }

    /// The code for `s`, if present in the dictionary.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.dict.iter().position(|d| d == s).map(|p| p as u32)
    }

    /// Gather rows at the given positions into a new column sharing the
    /// dictionary.
    ///
    /// Positions are `u32` — the selection-vector representation — which
    /// halves position-list memory traffic versus `usize` on 64-bit hosts.
    pub fn gather(&self, positions: &[u32]) -> DictColumn {
        let codes = positions.iter().map(|&p| self.codes[p as usize]).collect();
        DictColumn { dict: Arc::clone(&self.dict), codes }
    }

    /// Append `other`'s rows, remapping its codes into this column's
    /// dictionary (growing it for unseen strings). Existing codes are
    /// never rewritten — the row prefix stays byte-identical, which is
    /// what a reader bounded by an earlier row count relies on.
    pub fn append(&mut self, other: &DictColumn) {
        let lookup: HashMap<&str, u32> = self
            .dict
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i as u32))
            .collect();
        // Dictionaries hold each distinct string once, so an incoming
        // string missing from the base dict appears exactly once in
        // `other.dict` — no need to track newly assigned codes.
        let mut new_strings: Vec<String> = Vec::new();
        let base = self.dict.len() as u32;
        let mut remap: Vec<u32> = Vec::with_capacity(other.dict.len());
        for s in other.dict.iter() {
            let code = match lookup.get(s.as_str()) {
                Some(&c) => c,
                None => {
                    let c = base + new_strings.len() as u32;
                    new_strings.push(s.clone());
                    c
                }
            };
            remap.push(code);
        }
        drop(lookup);
        if !new_strings.is_empty() {
            Arc::make_mut(&mut self.dict).extend(new_strings);
        }
        self.codes.extend(other.codes.iter().map(|&c| remap[c as usize]));
    }

    /// Rows `lo..hi` as a new column sharing the dictionary.
    pub fn slice(&self, lo: usize, hi: usize) -> DictColumn {
        DictColumn { dict: Arc::clone(&self.dict), codes: self.codes[lo..hi].to_vec() }
    }
}

/// A typed, fully materialized column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 32-bit signed integers.
    Int32(Vec<i32>),
    /// 64-bit signed integers.
    Int64(Vec<i64>),
    /// 64-bit IEEE floats.
    Float64(Vec<f64>),
    /// Dictionary-encoded strings.
    Str(DictColumn),
}

impl ColumnData {
    /// Logical type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int32(_) => DataType::Int32,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Str(_) => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int32(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Str(d) => d.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes of the per-row payload.
    ///
    /// This is the quantity all transfer-time and device-memory math is
    /// based on; the (shared, small) string dictionary is not charged.
    pub fn byte_size(&self) -> u64 {
        (self.len() as u64) * (self.data_type().byte_width() as u64)
    }

    /// The value at row `i`.
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::Int32(v) => Value::Int32(v[i]),
            ColumnData::Int64(v) => Value::Int64(v[i]),
            ColumnData::Float64(v) => Value::Float64(v[i]),
            ColumnData::Str(d) => Value::Str(d.get(i).to_owned()),
        }
    }

    /// Numeric view of row `i` as `f64`; strings yield their code.
    ///
    /// Used by arithmetic expression evaluation, which only ever touches
    /// numeric columns in well-typed plans.
    pub fn get_f64(&self, i: usize) -> f64 {
        match self {
            ColumnData::Int32(v) => v[i] as f64,
            ColumnData::Int64(v) => v[i] as f64,
            ColumnData::Float64(v) => v[i],
            ColumnData::Str(d) => d.codes()[i] as f64,
        }
    }

    /// A 64-bit group/join key for row `i`.
    ///
    /// Integers use their value, floats their bit pattern, strings their
    /// dictionary code. Equal values always produce equal keys within one
    /// column; across columns that share a dictionary (gathered children)
    /// string keys also agree.
    pub fn key_at(&self, i: usize) -> u64 {
        match self {
            ColumnData::Int32(v) => v[i] as i64 as u64,
            ColumnData::Int64(v) => v[i] as u64,
            ColumnData::Float64(v) => v[i].to_bits(),
            ColumnData::Str(d) => d.codes()[i] as u64,
        }
    }

    /// Append `other`'s rows to this column in place. String appends
    /// remap the incoming codes into this column's dictionary; rows
    /// already stored are never rewritten.
    ///
    /// # Panics
    /// Panics on a type mismatch — callers (table appends) validate
    /// schemas first.
    pub fn append(&mut self, other: &ColumnData) {
        match (self, other) {
            (ColumnData::Int32(a), ColumnData::Int32(b)) => a.extend_from_slice(b),
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => {
                a.extend_from_slice(b)
            }
            (ColumnData::Str(a), ColumnData::Str(b)) => a.append(b),
            (a, b) => panic!(
                "append type mismatch: {} vs {}",
                a.data_type(),
                b.data_type()
            ),
        }
    }

    /// Rows `lo..hi` as a new column (string slices share the base
    /// dictionary).
    pub fn slice(&self, lo: usize, hi: usize) -> ColumnData {
        match self {
            ColumnData::Int32(v) => ColumnData::Int32(v[lo..hi].to_vec()),
            ColumnData::Int64(v) => ColumnData::Int64(v[lo..hi].to_vec()),
            ColumnData::Float64(v) => ColumnData::Float64(v[lo..hi].to_vec()),
            ColumnData::Str(d) => ColumnData::Str(d.slice(lo, hi)),
        }
    }

    /// Gather rows at `positions` (`u32` selection-vector entries) into a
    /// new column.
    pub fn gather(&self, positions: &[u32]) -> ColumnData {
        match self {
            ColumnData::Int32(v) => {
                ColumnData::Int32(positions.iter().map(|&p| v[p as usize]).collect())
            }
            ColumnData::Int64(v) => {
                ColumnData::Int64(positions.iter().map(|&p| v[p as usize]).collect())
            }
            ColumnData::Float64(v) => {
                ColumnData::Float64(positions.iter().map(|&p| v[p as usize]).collect())
            }
            ColumnData::Str(d) => ColumnData::Str(d.gather(positions)),
        }
    }

    /// Build a column of the given type from values produced row-wise.
    ///
    /// # Panics
    /// Panics if a value does not match `ty`.
    pub fn from_values(ty: DataType, values: &[Value]) -> ColumnData {
        match ty {
            DataType::Int32 => ColumnData::Int32(
                values
                    .iter()
                    .map(|v| v.as_i64().expect("int32 value") as i32)
                    .collect(),
            ),
            DataType::Int64 => ColumnData::Int64(
                values.iter().map(|v| v.as_i64().expect("int64 value")).collect(),
            ),
            DataType::Float64 => ColumnData::Float64(
                values.iter().map(|v| v.as_f64().expect("float value")).collect(),
            ),
            DataType::Str => ColumnData::Str(DictColumn::from_strings(
                values.iter().map(|v| v.as_str().expect("string value")),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_roundtrip() {
        let d = DictColumn::from_strings(["ASIA", "EUROPE", "ASIA", "AFRICA"]);
        assert_eq!(d.len(), 4);
        assert_eq!(d.dict().len(), 3);
        assert_eq!(d.get(0), "ASIA");
        assert_eq!(d.get(2), "ASIA");
        assert_eq!(d.codes()[0], d.codes()[2]);
        assert_eq!(d.code_of("AFRICA"), Some(2));
        assert_eq!(d.code_of("MARS"), None);
    }

    #[test]
    fn dict_gather_shares_dictionary() {
        let d = DictColumn::from_strings(["a", "b", "c"]);
        let g = d.gather(&[2, 0]);
        assert_eq!(g.get(0), "c");
        assert_eq!(g.get(1), "a");
        assert!(Arc::ptr_eq(g.dict(), d.dict()));
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(ColumnData::Int32(vec![1, 2, 3]).byte_size(), 12);
        assert_eq!(ColumnData::Int64(vec![1, 2]).byte_size(), 16);
        assert_eq!(ColumnData::Float64(vec![1.0]).byte_size(), 8);
        let s = ColumnData::Str(DictColumn::from_strings(["x", "y"]));
        assert_eq!(s.byte_size(), 8);
    }

    #[test]
    fn gather_all_types() {
        let c = ColumnData::Int32(vec![10, 20, 30]);
        assert_eq!(c.gather(&[2, 2, 0]), ColumnData::Int32(vec![30, 30, 10]));
        let f = ColumnData::Float64(vec![0.5, 1.5]);
        assert_eq!(f.gather(&[1]), ColumnData::Float64(vec![1.5]));
    }

    #[test]
    fn keys_agree_for_equal_values() {
        let c = ColumnData::Int32(vec![7, 7, 8]);
        assert_eq!(c.key_at(0), c.key_at(1));
        assert_ne!(c.key_at(0), c.key_at(2));
        let s = ColumnData::Str(DictColumn::from_strings(["p", "q", "p"]));
        assert_eq!(s.key_at(0), s.key_at(2));
    }

    #[test]
    fn from_values_roundtrip() {
        let vals = vec![Value::Int32(1), Value::Int32(-5)];
        let c = ColumnData::from_values(DataType::Int32, &vals);
        assert_eq!(c.get(1), Value::Int32(-5));
        let vals = vec![Value::from("a"), Value::from("b")];
        let c = ColumnData::from_values(DataType::Str, &vals);
        assert_eq!(c.get(0), Value::from("a"));
    }

    #[test]
    fn get_f64_views() {
        let c = ColumnData::Int64(vec![41]);
        assert_eq!(c.get_f64(0), 41.0);
        let f = ColumnData::Float64(vec![2.25]);
        assert_eq!(f.get_f64(0), 2.25);
    }
}
