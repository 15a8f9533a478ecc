//! Database catalog with stable column identifiers.
//!
//! Every base column of every table gets a dense [`ColumnId`] when its table
//! is registered. The co-processor cache, the data placement manager and the
//! access statistics are all keyed by `ColumnId`, so lookups on the hot path
//! are index operations rather than string hashing.

use crate::column::ColumnData;
use crate::error::StorageError;
use crate::stats::AccessStats;
use crate::table::{KeyIndex, Table, DEFAULT_SEAL_ROWS};
use std::collections::HashMap;
use std::sync::Arc;

/// Dense identifier of a base column (unique within one [`Database`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(pub u32);

impl ColumnId {
    /// Dense index (for per-column arrays).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Monotone database version: bumped by every non-empty
/// [`Database::append_batch`]. A never-appended database sits at epoch 0,
/// which is why all pre-streaming cache keys and goldens are unchanged.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct DbEpoch(pub u64);

/// One committed append batch, in commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendRecord {
    /// Registration index of the table appended to.
    pub table: usize,
    /// Rows visible in that table before this append.
    pub base_rows: usize,
    /// Rows this append added.
    pub rows: usize,
    /// Epoch the append committed under.
    pub epoch: u64,
    /// Raw payload bytes the batch added across all columns.
    pub bytes: u64,
}

/// An immutable view of the database as of one epoch: per-table visible
/// row counts. Because appends only ever extend columns (string
/// dictionaries grow by suffix, codes are never rewritten), a reader
/// that bounds every scan by its snapshot's visible rows observes
/// bit-identical data no matter how many appends commit after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    epoch: DbEpoch,
    visible: Vec<usize>,
}

impl Snapshot {
    /// The epoch this snapshot was taken at.
    pub fn epoch(&self) -> DbEpoch {
        self.epoch
    }

    /// Rows of table `t` (registration index) visible in this snapshot.
    pub fn visible_rows(&self, t: usize) -> usize {
        self.visible.get(t).copied().unwrap_or(0)
    }
}

/// An in-memory database: a set of tables plus the column catalog and
/// access statistics.
#[derive(Debug)]
pub struct Database {
    tables: Vec<Table>,
    table_index: HashMap<String, usize>,
    /// `ColumnId -> (table index, column index)`.
    column_locs: Vec<(usize, usize)>,
    /// Per-table `column name -> ColumnId`, parallel to `tables` — makes
    /// [`Database::column_id`] two hash probes with zero allocations
    /// (it used to build a `(String, String)` key per lookup).
    column_names: Vec<HashMap<Arc<str>, ColumnId>>,
    /// Rows each table had at registration (before any append).
    base_rows: Vec<usize>,
    /// Current epoch; bumped by every non-empty append.
    epoch: u64,
    /// Per-column epoch of the last append that touched it (0 = never).
    column_epochs: Vec<u64>,
    /// Every committed append, in commit order.
    append_log: Vec<AppendRecord>,
    /// Open-segment seal threshold for appends.
    seal_rows: usize,
    stats: AccessStats,
    /// Optional per-column *effective* sizes, set when transparent
    /// compression is enabled (Section 6.3 of the paper): the cache and
    /// the bus then see compressed bytes instead of raw bytes.
    effective_sizes: Option<Vec<u64>>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database {
            tables: Vec::new(),
            table_index: HashMap::new(),
            column_locs: Vec::new(),
            column_names: Vec::new(),
            base_rows: Vec::new(),
            epoch: 0,
            column_epochs: Vec::new(),
            append_log: Vec::new(),
            seal_rows: DEFAULT_SEAL_ROWS,
            stats: AccessStats::new(0),
            effective_sizes: None,
        }
    }

    /// Register a table, assigning [`ColumnId`]s to each of its columns.
    pub fn add_table(&mut self, table: Table) -> Result<(), StorageError> {
        if self.table_index.contains_key(table.name()) {
            return Err(StorageError::DuplicateTable(table.name().to_owned()));
        }
        let t_idx = self.tables.len();
        let mut names = HashMap::with_capacity(table.schema().len());
        for (c_idx, field) in table.schema().fields().iter().enumerate() {
            let id = ColumnId(self.column_locs.len() as u32);
            self.column_locs.push((t_idx, c_idx));
            self.column_epochs.push(0);
            names.insert(Arc::clone(&field.name), id);
        }
        self.column_names.push(names);
        self.table_index.insert(table.name().to_owned(), t_idx);
        self.base_rows.push(table.num_rows());
        self.tables.push(table);
        self.stats = AccessStats::new(self.column_locs.len());
        Ok(())
    }

    /// Append a batch of rows to `table`, bumping the database epoch.
    ///
    /// The batch must match the table schema (one column per field, equal
    /// row counts). Appends are strictly additive: existing rows, string
    /// dictionary prefixes and segment contents are never rewritten, so
    /// snapshots taken earlier stay valid. Per-column effective sizes are
    /// refreshed when transparent compression is active. Returns the new
    /// epoch; an empty batch is a no-op returning the current epoch.
    pub fn append_batch(
        &mut self,
        table: &str,
        columns: Vec<ColumnData>,
    ) -> Result<DbEpoch, StorageError> {
        let &t_idx = self
            .table_index
            .get(table)
            .ok_or_else(|| StorageError::NotFound(table.to_owned()))?;
        let epoch = self.epoch + 1;
        let seal_rows = self.seal_rows;
        let base_rows = self.tables[t_idx].num_rows();
        let rows = self.tables[t_idx].append_batch(columns, epoch, seal_rows)?;
        if rows == 0 {
            return Ok(DbEpoch(self.epoch));
        }
        self.epoch = epoch;
        let mut bytes = 0u64;
        for (id, &(t, _)) in self.column_locs.iter().enumerate() {
            if t == t_idx {
                self.column_epochs[id] = epoch;
                let width = self.tables[t_idx]
                    .schema()
                    .field(self.column_locs[id].1)
                    .data_type
                    .byte_width() as u64;
                bytes += rows as u64 * width;
            }
        }
        self.append_log.push(AppendRecord {
            table: t_idx,
            base_rows,
            rows,
            epoch,
            bytes,
        });
        if self.effective_sizes.is_some() {
            let updates: Vec<(usize, u64)> = self
                .all_column_ids()
                .filter(|id| self.column_locs[id.index()].0 == t_idx)
                .map(|id| (id.index(), self.segmented_compressed_size(id)))
                .collect();
            if let Some(sizes) = self.effective_sizes.as_mut() {
                for (i, s) in updates {
                    sizes[i] = s;
                }
            }
        }
        Ok(DbEpoch(epoch))
    }

    /// The current epoch (0 for a never-appended database).
    pub fn epoch(&self) -> DbEpoch {
        DbEpoch(self.epoch)
    }

    /// Epoch of the last append that touched column `id` (0 = never).
    pub fn column_epoch(&self, id: ColumnId) -> u64 {
        self.column_epochs.get(id.index()).copied().unwrap_or(0)
    }

    /// Every committed append, in commit order.
    pub fn append_log(&self) -> &[AppendRecord] {
        &self.append_log
    }

    /// Rows table `t` (registration index) had before any append.
    pub fn base_rows(&self, t: usize) -> usize {
        self.base_rows.get(t).copied().unwrap_or(0)
    }

    /// Set the open-segment seal threshold used by subsequent appends.
    pub fn set_seal_rows(&mut self, rows: usize) {
        self.seal_rows = rows.max(1);
    }

    /// A snapshot of the database as of the current epoch.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            epoch: DbEpoch(self.epoch),
            visible: self.tables.iter().map(Table::num_rows).collect(),
        }
    }

    /// A snapshot as of `epoch`: visible rows are each table's base rows
    /// plus every append committed at or before `epoch`.
    pub fn snapshot_at(&self, epoch: DbEpoch) -> Snapshot {
        let mut visible = self.base_rows.clone();
        for r in &self.append_log {
            if r.epoch <= epoch.0 {
                visible[r.table] += r.rows;
            }
        }
        Snapshot { epoch: DbEpoch(epoch.0.min(self.epoch)), visible }
    }

    /// All registered tables, in registration order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.table_index.get(name).map(|&i| &self.tables[i])
    }

    /// The key index of `column`, if it is the current buffer of a base
    /// column whose keys are unique integers ([`Table::key_index`]).
    pub fn key_index(&self, column: &ColumnData) -> Option<&KeyIndex> {
        self.tables.iter().find_map(|t| t.key_index(column))
    }

    /// Registration index of table `name` (the index into
    /// [`Database::tables`], [`Snapshot::visible_rows`] and
    /// [`AppendRecord::table`]).
    pub fn table_position(&self, name: &str) -> Option<usize> {
        self.table_index.get(name).copied()
    }

    /// Number of registered base columns.
    pub fn num_columns(&self) -> usize {
        self.column_locs.len()
    }

    /// The identifier of `table.column`, if registered. Two hash probes,
    /// no allocation — this sits on the cache-keying and sharded
    /// placement hot paths.
    pub fn column_id(&self, table: &str, column: &str) -> Option<ColumnId> {
        let &t = self.table_index.get(table)?;
        self.column_names[t].get(column).copied()
    }

    /// Like [`Database::column_id`] but returns an error naming the column.
    pub fn require_column_id(
        &self,
        table: &str,
        column: &str,
    ) -> Result<ColumnId, StorageError> {
        self.column_id(table, column)
            .ok_or_else(|| StorageError::NotFound(format!("{table}.{column}")))
    }

    /// The column data behind `id`.
    pub fn column_by_id(&self, id: ColumnId) -> &ColumnData {
        let (t, c) = self.column_locs[id.index()];
        self.tables[t].column_at(c)
    }

    /// Effective payload bytes of the column behind `id`: the raw column
    /// size, or its compressed size when
    /// [`Database::apply_compression`] is active. This is the quantity
    /// all cache-footprint and transfer math consumes.
    pub fn column_size(&self, id: ColumnId) -> u64 {
        match &self.effective_sizes {
            Some(sizes) => sizes[id.index()],
            None => self.column_by_id(id).byte_size(),
        }
    }

    /// Enable transparent lightweight compression: every base column's
    /// *effective* size becomes its size under the automatic codec choice
    /// of [`crate::compress`]. Query processing is unchanged — results
    /// come from the raw columns — but the co-processor cache and the
    /// interconnect are charged compressed bytes, which shifts the
    /// cache-thrashing break-down point to larger scale factors
    /// (Section 6.3). Returns the overall compression ratio (raw/effective).
    ///
    /// Compression is applied *per sealed segment* (open segments are
    /// charged raw): for a never-appended table the single sealed segment
    /// spans the whole column, so the effective sizes are identical to
    /// whole-column compression.
    pub fn apply_compression(&mut self) -> f64 {
        let sizes: Vec<u64> = self
            .all_column_ids()
            .map(|id| self.segmented_compressed_size(id))
            .collect();
        let raw: u64 = self
            .all_column_ids()
            .map(|id| self.column_by_id(id).byte_size())
            .sum();
        let eff: u64 = sizes.iter().sum();
        self.effective_sizes = Some(sizes);
        if eff == 0 {
            1.0
        } else {
            raw as f64 / eff as f64
        }
    }

    /// Effective bytes of column `id` under per-segment compression:
    /// each sealed segment contributes its compressed size under the
    /// automatic codec choice, open segments contribute raw bytes.
    fn segmented_compressed_size(&self, id: ColumnId) -> u64 {
        let (t, c) = self.column_locs[id.index()];
        let table = &self.tables[t];
        let col = table.column_at(c);
        let full = 0..table.num_rows();
        table
            .segments()
            .iter()
            .map(|s| {
                if !s.is_sealed() {
                    return (s.num_rows() as u64)
                        * col.data_type().byte_width() as u64;
                }
                if s.rows() == full {
                    crate::compress::compressed_size(col)
                } else {
                    let slice = table.column_slice(c, s.rows().start, s.rows().end);
                    crate::compress::compressed_size(&slice)
                }
            })
            .sum()
    }

    /// Disable transparent compression (effective sizes revert to raw).
    pub fn clear_compression(&mut self) {
        self.effective_sizes = None;
    }

    /// Registration index of the table owning `id` (the data placement
    /// manager groups columns by table so a scan's inputs stay
    /// co-resident on one device).
    pub fn table_of(&self, id: ColumnId) -> usize {
        self.column_locs[id.index()].0
    }

    /// Human-readable `table.column` name of `id`.
    pub fn column_name(&self, id: ColumnId) -> String {
        let (t, c) = self.column_locs[id.index()];
        let table = &self.tables[t];
        format!("{}.{}", table.name(), table.schema().field(c).name)
    }

    /// All registered column ids.
    pub fn all_column_ids(&self) -> impl Iterator<Item = ColumnId> + '_ {
        (0..self.column_locs.len() as u32).map(ColumnId)
    }

    /// Access statistics shared by the query processor and the placement
    /// manager.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Total payload bytes over all tables.
    pub fn byte_size(&self) -> u64 {
        self.tables.iter().map(Table::byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Field, Schema};
    use crate::types::DataType;

    fn db_with_tables() -> Database {
        let mut db = Database::new();
        let t1 = Table::new(
            "a",
            Schema::new(vec![
                Field::new("x", DataType::Int32),
                Field::new("y", DataType::Float64),
            ]),
            vec![
                ColumnData::Int32(vec![1, 2]),
                ColumnData::Float64(vec![0.5, 0.25]),
            ],
        )
        .unwrap();
        let t2 = Table::new(
            "b",
            Schema::new(vec![Field::new("z", DataType::Int64)]),
            vec![ColumnData::Int64(vec![9, 8, 7])],
        )
        .unwrap();
        db.add_table(t1).unwrap();
        db.add_table(t2).unwrap();
        db
    }

    #[test]
    fn catalog_assigns_dense_ids() {
        let db = db_with_tables();
        assert_eq!(db.num_columns(), 3);
        let x = db.column_id("a", "x").unwrap();
        let y = db.column_id("a", "y").unwrap();
        let z = db.column_id("b", "z").unwrap();
        assert_eq!(x, ColumnId(0));
        assert_eq!(y, ColumnId(1));
        assert_eq!(z, ColumnId(2));
        assert_eq!(db.column_name(z), "b.z");
        assert_eq!(db.column_size(x), 8);
        assert_eq!(db.column_size(z), 24);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_tables();
        let dup = Table::new(
            "a",
            Schema::new(vec![Field::new("x", DataType::Int32)]),
            vec![ColumnData::Int32(vec![])],
        )
        .unwrap();
        assert!(matches!(
            db.add_table(dup),
            Err(StorageError::DuplicateTable(_))
        ));
    }

    #[test]
    fn missing_column_lookup() {
        let db = db_with_tables();
        assert!(db.column_id("a", "nope").is_none());
        assert!(db.require_column_id("nope", "x").is_err());
    }

    #[test]
    fn total_byte_size() {
        let db = db_with_tables();
        assert_eq!(db.byte_size(), 8 + 16 + 24);
    }

    #[test]
    fn append_bumps_epoch_and_logs() {
        let mut db = db_with_tables();
        assert_eq!(db.epoch(), DbEpoch(0));
        let x = db.column_id("a", "x").unwrap();
        let z = db.column_id("b", "z").unwrap();
        let e = db
            .append_batch(
                "a",
                vec![
                    ColumnData::Int32(vec![3]),
                    ColumnData::Float64(vec![0.125]),
                ],
            )
            .unwrap();
        assert_eq!(e, DbEpoch(1));
        assert_eq!(db.epoch(), DbEpoch(1));
        assert_eq!(db.column_epoch(x), 1);
        assert_eq!(db.column_epoch(z), 0, "other tables keep epoch 0");
        assert_eq!(db.table("a").unwrap().num_rows(), 3);
        let log = db.append_log();
        assert_eq!(log.len(), 1);
        assert_eq!(
            log[0],
            AppendRecord { table: 0, base_rows: 2, rows: 1, epoch: 1, bytes: 12 }
        );
        // Unknown table and empty batches don't commit an epoch.
        assert!(db.append_batch("nope", vec![]).is_err());
        let same = db
            .append_batch(
                "a",
                vec![ColumnData::Int32(vec![]), ColumnData::Float64(vec![])],
            )
            .unwrap();
        assert_eq!(same, DbEpoch(1));
        assert_eq!(db.append_log().len(), 1);
    }

    #[test]
    fn snapshots_bound_visible_rows_per_epoch() {
        let mut db = db_with_tables();
        let s0 = db.snapshot();
        db.append_batch(
            "a",
            vec![ColumnData::Int32(vec![9, 9]), ColumnData::Float64(vec![1.0, 2.0])],
        )
        .unwrap();
        db.append_batch("b", vec![ColumnData::Int64(vec![6])]).unwrap();
        let s2 = db.snapshot();
        assert_eq!(s0.epoch(), DbEpoch(0));
        assert_eq!((s0.visible_rows(0), s0.visible_rows(1)), (2, 3));
        assert_eq!((s2.visible_rows(0), s2.visible_rows(1)), (4, 4));
        // Reconstructed mid-history snapshot.
        let s1 = db.snapshot_at(DbEpoch(1));
        assert_eq!((s1.visible_rows(0), s1.visible_rows(1)), (4, 3));
        assert_eq!(db.snapshot_at(DbEpoch(0)), s0);
        assert_eq!(db.snapshot_at(DbEpoch(99)), s2);
        // Data visible in the old snapshot is bit-identical after appends.
        let a = db.table("a").unwrap();
        assert_eq!(a.column_at(0).slice(0, s0.visible_rows(0)),
                   ColumnData::Int32(vec![1, 2]));
    }

    #[test]
    fn per_segment_compression_matches_whole_column_when_never_appended() {
        let mut db = Database::new();
        db.add_table(
            Table::new(
                "t",
                Schema::new(vec![Field::new("runs", DataType::Int32)]),
                vec![ColumnData::Int32(vec![5; 4096])],
            )
            .unwrap(),
        )
        .unwrap();
        let id = db.column_id("t", "runs").unwrap();
        let whole = crate::compress::compressed_size(db.column_by_id(id));
        db.apply_compression();
        assert_eq!(db.column_size(id), whole);
    }

    #[test]
    fn appends_refresh_effective_sizes_per_segment() {
        let mut db = Database::new();
        db.set_seal_rows(2048);
        db.add_table(
            Table::new(
                "t",
                Schema::new(vec![Field::new("runs", DataType::Int32)]),
                vec![ColumnData::Int32(vec![5; 4096])],
            )
            .unwrap(),
        )
        .unwrap();
        db.apply_compression();
        let id = db.column_id("t", "runs").unwrap();
        let before = db.column_size(id);
        // Sealed append (>= seal threshold): highly compressible, so the
        // effective size grows by its compressed, not raw, footprint.
        db.append_batch("t", vec![ColumnData::Int32(vec![7; 2048])]).unwrap();
        let after_sealed = db.column_size(id);
        assert!(after_sealed > before);
        assert!(after_sealed - before < 2048 * 4);
        assert!(db.table("t").unwrap().segments().iter().all(|s| s.is_sealed()));
        // Open append (below threshold): charged raw.
        db.append_batch("t", vec![ColumnData::Int32(vec![1, 2, 3])]).unwrap();
        assert_eq!(db.column_size(id), after_sealed + 3 * 4);
    }
}
