//! Tables and schemas.
//!
//! A table is one contiguous, reference-counted buffer per column plus
//! segment *metadata* over the row space. Readers (chunks, intermediates)
//! share a column by cloning its [`Arc`]; nothing copies column data to
//! read it.
//!
//! Tables are append-oriented: rows land in an *open* segment that is
//! sealed once it reaches the seal threshold. A table built via
//! [`Table::new`] starts with a single sealed segment covering all of its
//! initial rows — a never-appended table is indistinguishable from the
//! pre-segmentation layout.

use crate::column::ColumnData;
use crate::error::StorageError;
use crate::types::DataType;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Default open-segment size (rows) after which [`Table::append_batch`]
/// seals the segment.
pub const DEFAULT_SEAL_ROWS: usize = 1 << 16;

/// A named, typed column slot in a schema.
///
/// The name is shared: every schema, chunk and operator output that
/// carries the column holds the same `Arc<str>`, so handing a field on
/// copies a pointer, never the string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: Arc<str>,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// A field with the given name and type.
    pub fn new(name: impl Into<Arc<str>>, data_type: DataType) -> Self {
        Field { name: name.into(), data_type }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// A schema over the given fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| &*f.name == name)
    }

    /// The field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }
}

/// Most slots a [`KeyIndex`] spends per row of its column: enough for any
/// dense key and for the 2 555 yyyymmdd keys of SSB's `date` (24 a row),
/// not for keys scattered over a wider range.
const MAX_SLOTS_PER_ROW: u64 = 32;

/// The row of every key of a base column whose integer keys are unique,
/// addressed directly by `key − min`: a dimension's primary key.
///
/// Keys are the canonical 64-bit join keys of [`ColumnData::key_at`] (an
/// integer's value as `i64`). A slot holds its key's row plus one, 0 where
/// no row has the key; one slot past the key range stays 0, and a lookup
/// clamps every key outside the range into it. Slots are `u16`: a column
/// of more than 65 534 rows, a fact table rather than a dimension, has no
/// index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyIndex {
    min: u64,
    slots: Vec<u16>,
}

impl KeyIndex {
    /// The index of `column`'s keys, if they are integers, unique, at most
    /// 65 534, and span at most [`MAX_SLOTS_PER_ROW`] slots a row.
    fn build(column: &ColumnData) -> Option<KeyIndex> {
        match column {
            ColumnData::Int32(v) => Self::of(v.iter().map(|&k| i64::from(k))),
            ColumnData::Int64(v) => Self::of(v.iter().copied()),
            ColumnData::Float64(_) | ColumnData::Str(_) => None,
        }
    }

    fn of(keys: impl ExactSizeIterator<Item = i64> + Clone) -> Option<KeyIndex> {
        let rows = keys.len() as u64;
        if rows == 0 || rows >= u64::from(u16::MAX) {
            return None;
        }
        let (lo, hi) = keys.clone().fold((i64::MAX, i64::MIN), |(lo, hi), k| (lo.min(k), hi.max(k)));
        // `hi − lo` of two `i64`s always fits a `u64`.
        let span = hi.wrapping_sub(lo) as u64;
        if span >= MAX_SLOTS_PER_ROW * rows {
            return None;
        }
        let mut slots = vec![0u16; span as usize + 2];
        for (row, k) in (1..).zip(keys) {
            let slot = &mut slots[k.wrapping_sub(lo) as u64 as usize];
            if *slot != 0 {
                return None;
            }
            *slot = row;
        }
        Some(KeyIndex { min: lo as u64, slots })
    }

    /// The lookup: the row holding a key, plus one; 0 if no row does. One
    /// load with no data-dependent branch.
    #[inline]
    pub fn lookup(&self) -> impl Fn(u64) -> u32 + Sync + '_ {
        let (slots, min) = (self.slots.as_slice(), self.min);
        // Never empty (a key range has the slot past it), which lets the
        // compiler drop the load's bounds check.
        assert!(!slots.is_empty());
        let last = slots.len() - 1;
        move |k: u64| u32::from(slots[(k.wrapping_sub(min) as usize).min(last)])
    }
}

/// Metadata for one row-range segment of a table.
///
/// Segments are pure metadata over the consolidated column vectors: the
/// physical layout stays one dense vector per column, so scans and
/// chunk construction are unchanged. This mirrors row groups in
/// column stores — the segment carries the row range, seal state and
/// the epoch of the last append that touched it. Compression is sized
/// per sealed segment, and a seal is a trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    start: usize,
    end: usize,
    sealed: bool,
    epoch: u64,
}

impl SegmentMeta {
    /// The row range this segment covers.
    pub fn rows(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Number of rows in the segment.
    pub fn num_rows(&self) -> usize {
        self.end - self.start
    }

    /// Whether the segment is sealed (it takes no more rows).
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Epoch of the last append that touched this segment (0 for rows
    /// present at table construction).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A fully materialized table: a schema plus one shared column per field.
///
/// Invariant: all columns have the same number of rows and each column's
/// type matches its schema field. Segment metadata partitions the row
/// space: segments are contiguous, non-overlapping, and cover exactly
/// `[0, num_rows)`; at most the last segment is open.
///
/// Sharing contract: a column is handed out as an [`Arc`] clone and never
/// mutated while anyone else holds it. [`Table::append_batch`] writes in
/// place when the table is the column's only owner and copies the column
/// first otherwise, so a live reader never observes an append. Cloning a
/// table shares its columns.
///
/// Each column may carry a [`KeyIndex`], built by the first
/// [`Table::key_index`] that asks and dropped by the next append, as is a
/// verdict that the column has none.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Arc<ColumnData>>,
    key_indexes: Vec<OnceLock<Option<KeyIndex>>>,
    segments: Vec<SegmentMeta>,
}

impl Table {
    /// Build a table over freshly built columns, validating the
    /// schema/column invariants.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<ColumnData>,
    ) -> Result<Self, StorageError> {
        Self::from_shared(name, schema, columns.into_iter().map(Arc::new).collect())
    }

    /// Build a table over already-shared columns (another table's, a
    /// chunk's) without copying them, validating the schema/column
    /// invariants.
    pub fn from_shared(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Arc<ColumnData>>,
    ) -> Result<Self, StorageError> {
        let name = name.into();
        if schema.len() != columns.len() {
            return Err(StorageError::SchemaMismatch {
                table: name,
                detail: format!(
                    "{} fields but {} columns",
                    schema.len(),
                    columns.len()
                ),
            });
        }
        let mut rows: Option<usize> = None;
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.data_type != c.data_type() {
                return Err(StorageError::SchemaMismatch {
                    table: name,
                    detail: format!(
                        "field {} declared {} but column is {}",
                        f.name,
                        f.data_type,
                        c.data_type()
                    ),
                });
            }
            match rows {
                None => rows = Some(c.len()),
                Some(r) if r != c.len() => {
                    return Err(StorageError::SchemaMismatch {
                        table: name,
                        detail: format!(
                            "column {} has {} rows, expected {}",
                            f.name,
                            c.len(),
                            r
                        ),
                    });
                }
                _ => {}
            }
        }
        let rows = rows.unwrap_or(0);
        let mut segments = Vec::new();
        if rows > 0 {
            segments.push(SegmentMeta { start: 0, end: rows, sealed: true, epoch: 0 });
        }
        let key_indexes = columns.iter().map(|_| OnceLock::new()).collect();
        Ok(Table { name, schema, columns, key_indexes, segments })
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The shared columns, in schema order.
    pub fn columns(&self) -> &[Arc<ColumnData>] {
        &self.columns
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnData> {
        self.schema.index_of(name).map(|i| &*self.columns[i])
    }

    /// Column by positional index.
    pub fn column_at(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// The key index of `column`, if it is this table's own current
    /// buffer (by address: a reader's pre-append copy is not) and its keys
    /// are unique integers. Built by the first call and kept, as is the
    /// verdict that there is none, until an append touches the column.
    pub fn key_index(&self, column: &ColumnData) -> Option<&KeyIndex> {
        let i = self.columns.iter().position(|c| std::ptr::eq(&**c, column))?;
        self.key_indexes[i].get_or_init(|| KeyIndex::build(column)).as_ref()
    }

    /// Total payload bytes across all columns.
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// The segment metadata, in row order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Append a batch of rows (one column per field, same shape rules as
    /// [`Table::new`]). Rows land in the open segment — created if the
    /// last segment is sealed — which is sealed once it reaches
    /// `seal_rows` rows. `epoch` is the database epoch this append commits
    /// under. Returns the number of rows appended.
    ///
    /// Each column is written through [`Arc::make_mut`]: in place while
    /// the table is its only owner, into a private copy while a reader
    /// still shares it (who keeps the pre-append column).
    pub fn append_batch(
        &mut self,
        columns: Vec<ColumnData>,
        epoch: u64,
        seal_rows: usize,
    ) -> Result<usize, StorageError> {
        if self.schema.len() != columns.len() {
            return Err(StorageError::SchemaMismatch {
                table: self.name.clone(),
                detail: format!(
                    "append batch has {} columns, schema has {}",
                    columns.len(),
                    self.schema.len()
                ),
            });
        }
        let mut rows: Option<usize> = None;
        for (f, c) in self.schema.fields().iter().zip(&columns) {
            if f.data_type != c.data_type() {
                return Err(StorageError::SchemaMismatch {
                    table: self.name.clone(),
                    detail: format!(
                        "append field {} declared {} but column is {}",
                        f.name,
                        f.data_type,
                        c.data_type()
                    ),
                });
            }
            match rows {
                None => rows = Some(c.len()),
                Some(r) if r != c.len() => {
                    return Err(StorageError::SchemaMismatch {
                        table: self.name.clone(),
                        detail: format!(
                            "append column {} has {} rows, expected {}",
                            f.name,
                            c.len(),
                            r
                        ),
                    });
                }
                _ => {}
            }
        }
        let batch_rows = rows.unwrap_or(0);
        if batch_rows == 0 {
            return Ok(0);
        }
        let old_rows = self.num_rows();
        for ((base, index), batch) in self.columns.iter_mut().zip(&mut self.key_indexes).zip(&columns) {
            Arc::make_mut(base).append(batch);
            index.take();
        }
        let new_rows = old_rows + batch_rows;
        match self.segments.last_mut() {
            Some(open) if !open.sealed => {
                open.end = new_rows;
                open.epoch = epoch;
            }
            _ => self.segments.push(SegmentMeta { start: old_rows, end: new_rows, sealed: false, epoch }),
        }
        let open = self.segments.last_mut().expect("open segment exists");
        open.sealed = open.num_rows() >= seal_rows;
        Ok(batch_rows)
    }

    /// Rows `lo..hi` of column `i` as a new column (string slices share
    /// the base dictionary).
    pub fn column_slice(&self, i: usize, lo: usize, hi: usize) -> ColumnData {
        self.columns[i].slice(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int32),
            Field::new("v", DataType::Float64),
        ]);
        Table::new(
            "t",
            schema,
            vec![
                ColumnData::Int32(vec![1, 2, 3]),
                ColumnData::Float64(vec![0.1, 0.2, 0.3]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let t = two_col_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.schema().index_of("v"), Some(1));
        assert!(t.column("k").is_some());
        assert!(t.column("missing").is_none());
        assert_eq!(t.byte_size(), 3 * 4 + 3 * 8);
    }

    #[test]
    fn rejects_row_count_mismatch() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int32),
            Field::new("b", DataType::Int32),
        ]);
        let err = Table::new(
            "bad",
            schema,
            vec![ColumnData::Int32(vec![1]), ColumnData::Int32(vec![1, 2])],
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn rejects_type_mismatch() {
        let schema = Schema::new(vec![Field::new("a", DataType::Float64)]);
        let err =
            Table::new("bad", schema, vec![ColumnData::Int32(vec![1])]).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn rejects_column_count_mismatch() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int32)]);
        let err = Table::new("bad", schema, vec![]).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn empty_table_has_zero_rows() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int32)]);
        let t = Table::new("e", schema, vec![ColumnData::Int32(vec![])]).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.byte_size(), 0);
        assert!(t.segments().is_empty());
    }

    #[test]
    fn new_table_is_one_sealed_epoch0_segment() {
        let t = two_col_table();
        assert_eq!(t.segments().len(), 1);
        let s = &t.segments()[0];
        assert_eq!(s.rows(), 0..3);
        assert!(s.is_sealed());
        assert_eq!(s.epoch(), 0);
    }

    #[test]
    fn append_opens_then_seals_segments() {
        let mut t = two_col_table();
        t.append_batch(
            vec![
                ColumnData::Int32(vec![10, -4]),
                ColumnData::Float64(vec![9.0, 0.01]),
            ],
            1,
            4,
        )
        .unwrap();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.segments().len(), 2);
        let open = &t.segments()[1];
        assert_eq!(open.rows(), 3..5);
        assert!(!open.is_sealed());
        assert_eq!(open.epoch(), 1);
        // Second append crosses the 4-row seal threshold.
        t.append_batch(
            vec![
                ColumnData::Int32(vec![7, 7]),
                ColumnData::Float64(vec![1.0, 2.0]),
            ],
            2,
            4,
        )
        .unwrap();
        assert_eq!(t.segments().len(), 2);
        let sealed = &t.segments()[1];
        assert!(sealed.is_sealed());
        assert_eq!(sealed.rows(), 3..7);
        assert_eq!(sealed.epoch(), 2);
        // Next append opens a fresh segment.
        t.append_batch(
            vec![ColumnData::Int32(vec![0]), ColumnData::Float64(vec![0.0])],
            3,
            4,
        )
        .unwrap();
        assert_eq!(t.segments().len(), 3);
        assert!(!t.segments()[2].is_sealed());
    }

    #[test]
    fn append_rejects_shape_mismatches() {
        let mut t = two_col_table();
        assert!(t
            .append_batch(vec![ColumnData::Int32(vec![1])], 1, 16)
            .is_err());
        assert!(t
            .append_batch(
                vec![
                    ColumnData::Int32(vec![1]),
                    ColumnData::Int32(vec![2]), // wrong type
                ],
                1,
                16
            )
            .is_err());
        assert!(t
            .append_batch(
                vec![
                    ColumnData::Int32(vec![1]),
                    ColumnData::Float64(vec![1.0, 2.0]), // wrong rows
                ],
                1,
                16
            )
            .is_err());
        // Failed appends leave the table untouched.
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.segments().len(), 1);
    }

    #[test]
    fn string_appends_remap_into_base_dictionary() {
        use crate::column::DictColumn;
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]);
        let base = DictColumn::from_strings(["ASIA", "EUROPE"]);
        let mut t =
            Table::new("t", schema, vec![ColumnData::Str(base)]).unwrap();
        let prefix_codes = match t.column_at(0) {
            ColumnData::Str(d) => d.codes().to_vec(),
            _ => unreachable!(),
        };
        let batch = DictColumn::from_strings(["EUROPE", "MARS", "ASIA"]);
        t.append_batch(vec![ColumnData::Str(batch)], 1, 1 << 20).unwrap();
        let d = match t.column_at(0) {
            ColumnData::Str(d) => d,
            _ => unreachable!(),
        };
        // Prefix codes are byte-identical; new rows reuse existing codes
        // and extend the dict only for unseen strings.
        assert_eq!(&d.codes()[..2], &prefix_codes[..]);
        assert_eq!(d.get(2), "EUROPE");
        assert_eq!(d.get(3), "MARS");
        assert_eq!(d.get(4), "ASIA");
        assert_eq!(d.dict().len(), 3);
        assert_eq!(d.codes()[2], prefix_codes[1]);
        assert_eq!(d.codes()[4], prefix_codes[0]);
    }

    /// A unique integer key column keeps an index until an append touches
    /// it, as does the verdict that repeating, floating-point or too sparse
    /// keys have none; a buffer the table no longer holds has none.
    #[test]
    fn key_indexes_last_until_an_append() {
        let mut t = two_col_table();
        let reader = Arc::clone(&t.columns()[0]);
        let index = t.key_index(&reader).expect("unique integers");
        assert_eq!([0, 1, 3, 4, u64::MAX].map(index.lookup()), [0, 1, 3, 0, 0]);
        assert!(t.key_index(&t.columns()[1]).is_none(), "floats");
        // The reader keeps the pre-append buffer; the table's copy is
        // indexed anew, the new row with it.
        let row = |k: i32, v: f64| vec![ColumnData::Int32(vec![k]), ColumnData::Float64(vec![v])];
        t.append_batch(row(9, 0.9), 1, 16).unwrap();
        assert!(t.key_index(&reader).is_none());
        assert_eq!(t.key_index(t.column_at(0)).map(|i| i.lookup()(9)), Some(4));
        // Appended in place, the index is still rebuilt: first with the
        // next key, then not at all once a key repeats.
        drop(reader);
        t.append_batch(row(10, 1.0), 2, 16).unwrap();
        assert_eq!(t.key_index(t.column_at(0)).map(|i| i.lookup()(10)), Some(5));
        t.append_batch(row(9, 1.1), 3, 16).unwrap();
        assert!(t.key_index(t.column_at(0)).is_none(), "a repeated key");
        let sparse = Table::new(
            "s",
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![ColumnData::Int64(vec![0, 1_000_000])],
        )
        .unwrap();
        assert!(sparse.key_index(sparse.column_at(0)).is_none(), "too sparse to address");
    }
}
