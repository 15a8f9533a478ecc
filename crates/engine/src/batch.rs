//! Materialized intermediate results and selection vectors.
//!
//! A [`Chunk`] is what flows between operators: a set of named, typed,
//! equal-length columns, each a reference-counted buffer it may share with
//! the base table and with other chunks — building, cloning or projecting
//! a chunk copies no column data. The original operator-at-a-time engine
//! materialized every intermediate; now the kernels read a
//! `(Chunk, Option<&SelVec>)` pair — the base columns untouched plus a
//! [`SelVec`] of row positions — and an operator's output, a
//! [`LazyChunk`], stays positions over shared base columns until the
//! operator that reads a column gathers it.

use robustq_storage::{ColumnData, DataType, Field, Table, Value};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A selection vector: the row of a base [`Chunk`] behind each row of a
/// stream, as `u32`, in stream order.
///
/// Passing positions instead of copied rows is the MonetDB/X100-style
/// late-materialization device: a filter produces a `SelVec` and
/// downstream operators read the base columns *through* it. A selection's
/// positions are strictly increasing ([`SelVec::new`] checks; shards
/// concatenate by it); what a join composes ([`SelVec::compose`]) repeats
/// where a build key does, in no order, so no kernel assumes one.
///
/// A selection is either a position list or a dense **run** `lo..hi`
/// ([`SelVec::run`]) that owns none — what a predicate-free spine leaf
/// emits and the merge ([`LazyChunk::concat`]) recognises
/// ([`SelVec::as_run`]). Every other method means the same for both
/// forms; a run lists its positions the first time [`SelVec::positions`]
/// is asked for them, so no kernel has to tell the two apart (a join's
/// probe does, to read a run at an offset).
#[derive(Debug, Clone)]
pub struct SelVec(Repr);

#[derive(Debug, Clone)]
enum Repr {
    List(Vec<u32>),
    /// The run and, once asked for, its positions listed.
    Run(Range<u32>, OnceLock<Vec<u32>>),
}

impl SelVec {
    /// Wrap a position list. Positions must be strictly increasing (this
    /// is what preserves row order); checked in debug builds.
    pub fn new(positions: Vec<u32>) -> Self {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "selection vector positions must be strictly increasing"
        );
        SelVec(Repr::List(positions))
    }

    /// The dense run of positions `rows`, without listing them.
    pub fn run(rows: Range<u32>) -> Self {
        SelVec(Repr::Run(rows, OnceLock::new()))
    }

    /// The identity selection `0..n` (used when a dense input enters a
    /// position-based kernel).
    pub fn all(n: usize) -> Self {
        SelVec::run(0..n as u32)
    }

    /// An empty selection.
    pub fn empty() -> Self {
        SelVec::new(Vec::new())
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::List(positions) => positions.len(),
            Repr::Run(rows, _) => rows.len(),
        }
    }

    /// True if no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run this selection was built as, if it was ([`SelVec::run`]; a
    /// position list that happens to be dense is not one).
    pub fn as_run(&self) -> Option<Range<u32>> {
        match &self.0 {
            Repr::List(_) => None,
            Repr::Run(rows, _) => Some(rows.clone()),
        }
    }

    /// The positions, in increasing order.
    pub fn positions(&self) -> &[u32] {
        match &self.0 {
            Repr::List(positions) => positions,
            Repr::Run(rows, listed) => listed.get_or_init(|| rows.clone().collect()),
        }
    }

    /// The underlying position vector.
    pub fn into_positions(self) -> Vec<u32> {
        match self.0 {
            Repr::List(positions) => positions,
            Repr::Run(rows, listed) => listed.into_inner().unwrap_or_else(|| rows.collect()),
        }
    }

    /// The positions at the stream indices `idx`, in `idx`'s order (only a
    /// strictly increasing `idx` leaves a selection one).
    pub fn compose(&self, idx: &[u32]) -> SelVec {
        SelVec(Repr::List(match &self.0 {
            Repr::List(positions) => idx.iter().map(|&i| positions[i as usize]).collect(),
            Repr::Run(rows, _) => idx.iter().map(|&i| rows.start + i).collect(),
        }))
    }
}

/// Selections are equal when they select the same positions, whatever
/// their form.
impl PartialEq for SelVec {
    fn eq(&self, other: &Self) -> bool {
        self.positions() == other.positions()
    }
}

impl Eq for SelVec {}

impl From<Vec<u32>> for SelVec {
    fn from(positions: Vec<u32>) -> Self {
        SelVec::new(positions)
    }
}

/// An operator output that may still be unmaterialized.
///
/// The lazy form is column [`Group`]s of equal length, side by side:
/// logically it *is* the chunk of every group gathered and zipped (same
/// rows, order, names and logical byte size), but no column data has been
/// copied. A scan (whole or a spine leaf) or a selection emits one group,
/// whose positions are a selection; a join composes the groups of both
/// inputs with what matched, and a fan-out's merge concatenates its
/// pipelines' groups ([`LazyChunk::concat`]). An operator reads the
/// columns it names through [`LazyChunk::read`]; the root assembles rows
/// ([`LazyChunk::materialize`]).
#[derive(Debug, Clone)]
pub enum LazyChunk {
    /// A fully materialized chunk.
    Materialized(Chunk),
    /// At least one column group; no name occurs in two.
    Groups(Vec<Group>),
}

/// The columns of `base` (shared, never copied) at the rows `sel`.
#[derive(Debug, Clone)]
pub struct Group {
    /// The base columns, under the names the output gives them.
    pub base: Arc<Chunk>,
    /// The row of `base` behind each row of the stream.
    pub sel: SelVec,
}

impl LazyChunk {
    /// The groups of the lazy form; none when materialized.
    pub fn groups(&self) -> &[Group] {
        match self {
            LazyChunk::Materialized(_) => &[],
            LazyChunk::Groups(groups) => groups,
        }
    }

    /// Logical number of rows.
    pub fn num_rows(&self) -> usize {
        match self {
            LazyChunk::Materialized(c) => c.num_rows(),
            LazyChunk::Groups(groups) => groups[0].sel.len(),
        }
    }

    /// Logical payload bytes: exactly what the materialized equivalent
    /// would report, so the simulator's transfer/footprint accounting is
    /// unchanged by late materialization.
    pub fn byte_size(&self) -> u64 {
        match self {
            LazyChunk::Materialized(c) => c.byte_size(),
            LazyChunk::Groups(groups) => {
                let fields = groups.iter().flat_map(|g| g.base.fields());
                let row_width: u64 = fields.map(|f| f.data_type.byte_width() as u64).sum();
                self.num_rows() as u64 * row_width
            }
        }
    }

    /// The row stream an operator naming `columns` reads, as every kernel
    /// takes it: the one group that holds them all, through its positions,
    /// else [`LazyChunk::gather`]'s dense chunk.
    pub fn read(&self, columns: &[&str]) -> (Cow<'_, Chunk>, Option<&SelVec>) {
        let holds = |g: &&Group| columns.iter().all(|c| g.base.index_of(c).is_some());
        match (self, self.groups().iter().find(holds)) {
            (LazyChunk::Materialized(c), _) => (Cow::Borrowed(c), None),
            (_, Some(g)) => (Cow::Borrowed(&*g.base), Some(&g.sel)),
            (_, None) => (Cow::Owned(self.gather(columns)), None),
        }
    }

    /// The named columns alone, gathered into a dense chunk. With no name,
    /// or one no group holds, the whole row instead: the kernel then counts
    /// the rows, or reports the column, as it does to the oracle.
    pub fn gather(&self, columns: &[&str]) -> Chunk {
        let mut fields = Vec::with_capacity(columns.len());
        let mut data = Vec::with_capacity(columns.len());
        for name in columns {
            let Some((i, g)) = self.groups().iter().find_map(|g| Some((g.base.index_of(name)?, g)))
            else {
                return self.clone().materialize();
            };
            fields.push(g.base.fields[i].clone());
            data.push(Arc::new(g.base.columns[i].gather(g.sel.positions())));
        }
        if fields.is_empty() {
            return self.clone().materialize();
        }
        Chunk { fields, columns: data }
    }

    /// The groups at stream indices `idx` (of a materialized chunk: rows).
    pub fn compose(&self, idx: Vec<u32>) -> Vec<Group> {
        let mut groups = Vec::with_capacity(self.groups().len().max(1));
        self.compose_into(idx, &mut groups);
        groups
    }

    /// [`LazyChunk::compose`], appended to `out`.
    fn compose_into(&self, idx: Vec<u32>, out: &mut Vec<Group>) {
        match self {
            LazyChunk::Materialized(c) => {
                out.push(Group { base: Arc::new(c.clone()), sel: SelVec(Repr::List(idx)) })
            }
            LazyChunk::Groups(groups) => out.extend(
                groups.iter().map(|g| Group { base: Arc::clone(&g.base), sel: g.sel.compose(&idx) }),
            ),
        }
    }

    /// `left`'s rows at stream indices `left_idx` beside `right`'s at
    /// `right_idx` — an inner join's output — in one list of groups, named
    /// as [`Chunk::zip`] names the gathered sides. A right base no name of
    /// which changes is handed on as it is; a renamed one shares its
    /// columns with the old one.
    pub fn zip(left: &LazyChunk, left_idx: Vec<u32>, right: &LazyChunk, right_idx: Vec<u32>) -> LazyChunk {
        let width = |side: &LazyChunk| side.groups().len().max(1);
        let mut groups = Vec::with_capacity(width(left) + width(right));
        left.compose_into(left_idx, &mut groups);
        let first_right = groups.len();
        right.compose_into(right_idx, &mut groups);
        for i in first_right..groups.len() {
            let (before, rest) = groups.split_at_mut(i);
            let taken = |n: &str| before.iter().any(|g| g.base.index_of(n).is_some());
            let base = &rest[0].base;
            let clashes = base.fields.iter().enumerate().any(|(j, f)| {
                taken(&f.name) || base.fields[..j].iter().any(|g| g.name == f.name)
            });
            if clashes {
                let mut renamed =
                    Chunk { fields: Vec::with_capacity(base.fields.len()), columns: base.columns.clone() };
                for f in &base.fields {
                    let name = unique_name(&f.name, |n| renamed.index_of(n).is_some() || taken(n));
                    renamed.fields.push(Field { name, data_type: f.data_type });
                }
                rest[0].base = Arc::new(renamed);
            }
        }
        LazyChunk::Groups(groups)
    }

    /// `parts` one after another, group by group: each part must have the
    /// same column groups over the same bases (equal columns, not
    /// necessarily one `Arc`; a dense part is its whole base, one group
    /// at the run of all its rows), and the stream is then the first
    /// part's bases at every part's positions in turn. Nothing is
    /// gathered: adjacent runs join into their union in O(parts) without
    /// a position written, else the positions of each group are
    /// concatenated in part order. One group that covers its base comes
    /// back dense.
    pub fn concat(parts: &[LazyChunk]) -> Result<LazyChunk, String> {
        let views: Vec<Cow<'_, [Group]>> = parts.iter().map(LazyChunk::as_groups).collect();
        let first = views.first().ok_or("concatenation of no parts")?;
        if views.iter().any(|v| v.len() != first.len()) {
            return Err("concatenated parts must have the same column groups".into());
        }
        let rows = parts.iter().map(LazyChunk::num_rows).sum();
        let groups: Vec<Group> = (0..first.len())
            .map(|g| {
                let base = &first[g].base;
                let sels = || views.iter().map(move |v| &v[g].sel);
                debug_assert!(views.iter().all(|v| {
                    v[g].base.fields == base.fields && v[g].base.num_rows() == base.num_rows()
                }));
                let mut union = Some(0..0);
                for run in sels().map(SelVec::as_run) {
                    union = match (union, run) {
                        (Some(u), Some(run)) if u.is_empty() => Some(run),
                        (Some(u), Some(run)) if run.start == u.end => Some(u.start..run.end),
                        _ => None,
                    };
                }
                let sel = union.map(SelVec::run).unwrap_or_else(|| {
                    let mut positions = Vec::with_capacity(rows);
                    sels().for_each(|sel| positions.extend_from_slice(sel.positions()));
                    SelVec(Repr::List(positions))
                });
                Group { base: Arc::clone(base), sel }
            })
            .collect();
        Ok(match &groups[..] {
            [Group { base, sel }] if sel.len() == base.num_rows() => {
                LazyChunk::Materialized(Chunk::clone(base))
            }
            _ => LazyChunk::Groups(groups),
        })
    }

    /// The stream with only the columns named in `live`, names unchanged
    /// and nothing copied: a group none of whose columns is live is
    /// dropped, one with some keeps their `Arc`s under a narrower base,
    /// and every kept group's positions move over as they are. With no
    /// live column the narrowest one stays (the first of equal width), so
    /// the stream keeps its row count. What a fan-out's spine task hands
    /// on (DESIGN.md §6).
    pub fn keep_live(self, live: &[impl AsRef<str>]) -> LazyChunk {
        let is_live = |f: &Field| live.iter().any(|n| n.as_ref() == &*f.name);
        let dense = match &self {
            LazyChunk::Materialized(c) => Some(c),
            LazyChunk::Groups(_) => None,
        };
        // Every column as (group, column, field).
        let fields = || {
            let bases = self.groups().iter().map(|g| &*g.base).chain(dense);
            bases.enumerate().flat_map(|(g, base)| {
                base.fields.iter().enumerate().map(move |(c, f)| (g, c, f))
            })
        };
        let narrowest = match fields().any(|(.., f)| is_live(f)) {
            true => None,
            false => {
                let narrowest = fields().min_by_key(|(.., f)| f.data_type.byte_width());
                narrowest.map(|(g, c, _)| (g, c))
            }
        };
        // The columns of base `g` that stay, as a base of their own; `None`
        // when it keeps all of them.
        let keep = |g: usize, base: &Chunk| {
            let kept = |&c: &usize| is_live(&base.fields[c]) || narrowest == Some((g, c));
            let cols: Vec<usize> = (0..base.num_columns()).filter(kept).collect();
            (cols.len() < base.num_columns()).then(|| Chunk {
                fields: cols.iter().map(|&c| base.fields[c].clone()).collect(),
                columns: cols.iter().map(|&c| Arc::clone(&base.columns[c])).collect(),
            })
        };
        match self {
            LazyChunk::Materialized(c) => LazyChunk::Materialized(keep(0, &c).unwrap_or(c)),
            LazyChunk::Groups(groups) => LazyChunk::Groups(
                groups
                    .into_iter()
                    .enumerate()
                    .filter_map(|(g, Group { base, sel })| match keep(g, &base) {
                        Some(kept) if kept.num_columns() == 0 => None,
                        Some(kept) => Some(Group { base: Arc::new(kept), sel }),
                        None => Some(Group { base, sel }),
                    })
                    .collect(),
            ),
        }
    }

    /// The column groups of either form: a dense chunk is one group, its
    /// whole self at the run of all its rows.
    fn as_groups(&self) -> Cow<'_, [Group]> {
        match self {
            LazyChunk::Materialized(c) => {
                Cow::Owned(vec![Group { base: Arc::new(c.clone()), sel: SelVec::all(c.num_rows()) }])
            }
            LazyChunk::Groups(groups) => Cow::Borrowed(groups),
        }
    }

    /// The rows at stream indices `idx`, assembled: one gather per group.
    pub fn rows_at(&self, idx: &[u32]) -> Chunk {
        let rows = |g: &Group| g.base.gather(g.sel.compose(idx).positions());
        match self {
            LazyChunk::Materialized(c) => c.gather(idx),
            LazyChunk::Groups(groups) => groups.iter().map(rows).reduce(Chunk::zip).expect("a group"),
        }
    }

    /// Materialize into an owned chunk: one gather per group.
    pub fn materialize(self) -> Chunk {
        let rows = |g: &Group| g.base.gather(g.sel.positions());
        match self {
            LazyChunk::Materialized(c) => c,
            LazyChunk::Groups(groups) => groups.iter().map(rows).reduce(Chunk::zip).expect("a group"),
        }
    }
}

impl From<Chunk> for LazyChunk {
    fn from(c: Chunk) -> Self {
        LazyChunk::Materialized(c)
    }
}

/// `name`, suffixed with `_r` until `taken` no longer holds it: how a join
/// keeps its right side's names apart from everything to their left. A
/// name no suffix changes is shared, not copied.
fn unique_name(name: &Arc<str>, taken: impl Fn(&str) -> bool) -> Arc<str> {
    if !taken(name) {
        return Arc::clone(name);
    }
    let mut renamed = format!("{name}_r");
    while taken(&renamed) {
        renamed.push_str("_r");
    }
    renamed.into()
}

/// A fully materialized intermediate result. Columns are shared by
/// reference count, so `Clone` is O(columns), independent of row count.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    fields: Vec<Field>,
    columns: Vec<Arc<ColumnData>>,
}

impl Chunk {
    /// Build a chunk over freshly computed columns; panics (debug) if
    /// lengths are inconsistent.
    pub fn new(fields: Vec<Field>, columns: Vec<ColumnData>) -> Self {
        Self::from_shared(fields, columns.into_iter().map(Arc::new).collect())
    }

    /// Build a chunk over already-shared columns without copying them;
    /// panics (debug) if lengths are inconsistent.
    pub fn from_shared(fields: Vec<Field>, columns: Vec<Arc<ColumnData>>) -> Self {
        debug_assert_eq!(fields.len(), columns.len());
        debug_assert!(
            columns.windows(2).all(|w| w[0].len() == w[1].len()),
            "all chunk columns must have equal length"
        );
        debug_assert!(fields
            .iter()
            .zip(&columns)
            .all(|(f, c)| f.data_type == c.data_type()));
        Chunk { fields, columns }
    }

    /// An empty, zero-column chunk.
    pub fn empty() -> Self {
        Chunk { fields: Vec::new(), columns: Vec::new() }
    }

    /// Selected columns of a base table as a chunk *sharing* the table's
    /// buffers: O(columns), no row is copied. A later append to the table
    /// leaves the chunk as it was (copy-on-write, see `Table`).
    ///
    /// Column order follows `columns`; unknown names are an error.
    pub fn from_table(table: &Table, columns: &[impl AsRef<str>]) -> Result<Self, String> {
        let mut fields = Vec::with_capacity(columns.len());
        let mut data = Vec::with_capacity(columns.len());
        for name in columns {
            let name = name.as_ref();
            let idx = table
                .schema()
                .index_of(name)
                .ok_or_else(|| format!("no column {name} in table {}", table.name()))?;
            fields.push(table.schema().field(idx).clone());
            data.push(Arc::clone(&table.columns()[idx]));
        }
        Ok(Chunk { fields, columns: data })
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The shared columns, in field order.
    pub fn columns(&self) -> &[Arc<ColumnData>] {
        &self.columns
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Payload bytes over all columns — the footprint/transfer unit.
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| &*f.name == name)
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnData> {
        self.index_of(name).map(|i| &*self.columns[i])
    }

    /// Column by name, with a descriptive error.
    pub fn require_column(&self, name: &str) -> Result<&ColumnData, String> {
        self.column(name).ok_or_else(|| {
            format!(
                "no column {name} in chunk (have: {})",
                self.fields
                    .iter()
                    .map(|f| &*f.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
    }

    /// Type of the column named `name`.
    pub fn column_type(&self, name: &str) -> Option<DataType> {
        self.index_of(name).map(|i| self.fields[i].data_type)
    }

    /// Gather the given row positions (`u32`, selection-vector form) from
    /// every column.
    pub fn gather(&self, positions: &[u32]) -> Chunk {
        Chunk {
            fields: self.fields.clone(),
            columns: self.columns.iter().map(|c| Arc::new(c.gather(positions))).collect(),
        }
    }

    /// Concatenate the columns of two chunks side by side (used by joins).
    ///
    /// A right-side name is suffixed with `_r` until no column has it.
    pub fn zip(mut self, right: Chunk) -> Chunk {
        for (mut f, c) in right.fields.into_iter().zip(right.columns) {
            f.name = unique_name(&f.name, |n| self.index_of(n).is_some());
            self.fields.push(f);
            self.columns.push(c);
        }
        self
    }

    /// Concatenate chunks with identical schemas row-wise.
    ///
    /// Dictionary columns are rebuilt (each part has its own dictionary).
    /// Returns an error on empty input or schema mismatch.
    pub fn concat(parts: &[Chunk]) -> Result<Chunk, String> {
        let first = parts.first().ok_or("concat of zero chunks")?;
        for p in &parts[1..] {
            if p.fields() != first.fields() {
                return Err(format!(
                    "schema mismatch in concat: {:?} vs {:?}",
                    p.fields(),
                    first.fields()
                ));
            }
        }
        let mut columns = Vec::with_capacity(first.num_columns());
        for c in 0..first.num_columns() {
            let col = match &*first.columns[c] {
                ColumnData::Int32(_) => ColumnData::Int32(
                    parts
                        .iter()
                        .flat_map(|p| match &*p.columns[c] {
                            ColumnData::Int32(v) => v.iter().copied(),
                            _ => unreachable!("schemas checked"),
                        })
                        .collect(),
                ),
                ColumnData::Int64(_) => ColumnData::Int64(
                    parts
                        .iter()
                        .flat_map(|p| match &*p.columns[c] {
                            ColumnData::Int64(v) => v.iter().copied(),
                            _ => unreachable!("schemas checked"),
                        })
                        .collect(),
                ),
                ColumnData::Float64(_) => ColumnData::Float64(
                    parts
                        .iter()
                        .flat_map(|p| match &*p.columns[c] {
                            ColumnData::Float64(v) => v.iter().copied(),
                            _ => unreachable!("schemas checked"),
                        })
                        .collect(),
                ),
                ColumnData::Str(_) => {
                    let strings = parts.iter().flat_map(|p| match &*p.columns[c] {
                        ColumnData::Str(d) => {
                            (0..d.len()).map(move |i| d.get(i).to_owned())
                        }
                        _ => unreachable!("schemas checked"),
                    });
                    ColumnData::Str(robustq_storage::DictColumn::from_strings(strings))
                }
            };
            columns.push(Arc::new(col));
        }
        Ok(Chunk { fields: first.fields.clone(), columns })
    }

    /// One row as values (for result checks and display).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// All rows as value vectors, sorted lexicographically by display form.
    ///
    /// Useful for order-insensitive result comparison in tests.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = (0..self.num_rows()).map(|i| self.row(i)).collect();
        rows.sort_by_key(|r| r.iter().map(Value::to_string).collect::<Vec<_>>());
        rows
    }

    /// A cheap order-insensitive checksum of the chunk's contents.
    pub fn checksum(&self) -> u64 {
        let mut acc = 0u64;
        for i in 0..self.num_rows() {
            let mut row_hash = 0xcbf2_9ce4_8422_2325u64;
            for c in &self.columns {
                row_hash = row_hash
                    .rotate_left(13)
                    .wrapping_mul(0x1000_0000_01b3)
                    .wrapping_add(c.key_at(i));
            }
            acc = acc.wrapping_add(row_hash);
        }
        acc ^ (self.num_rows() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_storage::{DictColumn, Schema};

    fn chunk() -> Chunk {
        Chunk::new(
            vec![
                Field::new("k", DataType::Int32),
                Field::new("s", DataType::Str),
            ],
            vec![
                ColumnData::Int32(vec![1, 2, 3]),
                ColumnData::Str(DictColumn::from_strings(["a", "b", "c"])),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let c = chunk();
        assert_eq!(c.num_rows(), 3);
        assert_eq!(c.num_columns(), 2);
        assert_eq!(c.byte_size(), 12 + 12);
        assert_eq!(c.column_type("k"), Some(DataType::Int32));
        assert!(c.column("missing").is_none());
        assert!(c.require_column("missing").is_err());
    }

    #[test]
    fn from_table_projects_columns() {
        let t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int32),
                Field::new("b", DataType::Float64),
            ]),
            vec![
                ColumnData::Int32(vec![1, 2]),
                ColumnData::Float64(vec![0.5, 1.5]),
            ],
        )
        .unwrap();
        let c = Chunk::from_table(&t, &["b"]).unwrap();
        assert_eq!(c.num_columns(), 1);
        assert_eq!(c.column("b").unwrap(), t.column("b").unwrap());
        assert!(Chunk::from_table(&t, &["zz"]).is_err());
    }

    #[test]
    fn gather_rows() {
        let c = chunk().gather(&[2, 0]);
        assert_eq!(c.row(0), vec![Value::Int32(3), Value::from("c")]);
        assert_eq!(c.row(1), vec![Value::Int32(1), Value::from("a")]);
    }

    #[test]
    fn zip_renames_duplicates() {
        let a = chunk();
        let b = chunk();
        let z = a.zip(b);
        assert_eq!(z.num_columns(), 4);
        assert!(z.column("k").is_some());
        assert!(z.column("k_r").is_some());
        assert!(z.column("s_r").is_some());
    }

    #[test]
    fn checksum_is_order_insensitive() {
        let a = chunk();
        let b = chunk().gather(&[2, 1, 0]);
        assert_eq!(a.checksum(), b.checksum());
        let c = chunk().gather(&[0, 1]);
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn sorted_rows_for_comparison() {
        let a = chunk().sorted_rows();
        let b = chunk().gather(&[1, 2, 0]).sorted_rows();
        assert_eq!(a, b);
    }

    #[test]
    fn concat_rebuilds_dictionaries() {
        let a = chunk();
        let b = chunk().gather(&[2, 0]);
        let c = Chunk::concat(&[a.clone(), b]).unwrap();
        assert_eq!(c.num_rows(), 5);
        assert_eq!(c.row(3), vec![Value::Int32(3), Value::from("c")]);
        assert_eq!(c.row(4), vec![Value::Int32(1), Value::from("a")]);
        // Schema mismatch and empty input are errors.
        let other = Chunk::new(
            vec![Field::new("x", DataType::Int32)],
            vec![ColumnData::Int32(vec![1])],
        );
        assert!(Chunk::concat(&[a, other]).is_err());
        assert!(Chunk::concat(&[]).is_err());
    }

    #[test]
    fn keep_live_shares_columns_and_moves_positions() {
        let side = |positions: Vec<u32>| {
            LazyChunk::Groups(vec![Group { base: Arc::new(chunk()), sel: SelVec::new(positions) }])
        };
        // Groups `k, s` and `k_r, s_r`: the two sides of a self-join.
        let (left, right) = (side(vec![0, 1, 2]), side(vec![1, 2]));
        let zipped = LazyChunk::zip(&left, vec![0, 2], &right, vec![1, 0]);
        let whole = zipped.clone().materialize();
        let bases: Vec<Arc<Chunk>> = zipped.groups().iter().map(|g| Arc::clone(&g.base)).collect();
        let positions: Vec<*const u32> =
            zipped.groups().iter().map(|g| g.sel.positions().as_ptr()).collect();
        let kept = zipped.keep_live(&["s", "k_r"]);
        let [left, right] = kept.groups() else { panic!("both groups keep a column") };
        assert_eq!([&*left.base.fields[0].name, &*right.base.fields[0].name], ["s", "k_r"]);
        assert!(Arc::ptr_eq(&left.base.columns[0], &bases[0].columns[1]));
        assert!(Arc::ptr_eq(&right.base.columns[0], &bases[1].columns[0]));
        assert_eq!([left.sel.positions().as_ptr(), right.sel.positions().as_ptr()], positions[..]);
        let want = Chunk::from_shared(
            whole.fields[1..3].to_vec(),
            whole.columns[1..3].to_vec(),
        );
        assert_eq!(kept.clone().materialize(), want);
        assert_eq!(kept.byte_size(), 2 * 8);
        // A group none of whose columns is live is dropped; with none
        // live, the narrowest column stays (the first of equal width).
        assert_eq!(kept.clone().keep_live(&["k_r"]).groups().len(), 1);
        let none = kept.keep_live(&[] as &[&str]);
        assert_eq!((none.num_rows(), none.groups().len()), (2, 1));
        assert_eq!(&*none.groups()[0].base.fields[0].name, "s");
        // A dense chunk keeps its live columns, shared.
        let c = chunk();
        let LazyChunk::Materialized(dense) = LazyChunk::Materialized(c.clone()).keep_live(&["s"])
        else {
            panic!("a dense chunk stays dense")
        };
        assert_eq!((dense.num_columns(), &*dense.fields[0].name), (1, "s"));
        assert!(Arc::ptr_eq(&dense.columns[0], &c.columns[1]));
    }

    #[test]
    fn empty_chunk() {
        let e = Chunk::empty();
        assert_eq!(e.num_rows(), 0);
        assert_eq!(e.byte_size(), 0);
        assert_eq!(e.checksum(), 0);
    }
}
