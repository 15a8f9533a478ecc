//! SSB-stream: the Star Schema Benchmark as an append feed
//! (DESIGN.md §10).
//!
//! The four dimension tables are static; the `lineorder` fact table
//! starts at a configurable base fraction and the remainder arrives as
//! append batches — the pre-built history a streaming run replays in
//! virtual time. Standing SSB queries then re-execute per window tick
//! over the rows visible at each tick.
//!
//! Everything is derived from one [`SsbGenerator`] invocation, so the
//! fully-fed stream database holds *exactly* the rows of the equivalent
//! batch-generated database: [`SsbStreamData::window_db`] can cut a
//! static database for any row window and the window's standing-query
//! results must match a one-shot run against it value-for-value (pinned
//! by `tests/streaming.rs`).

use crate::ssb::SsbQuery;
use robustq_engine::{FeedEvent, FeedSchedule, StandingQuery, WindowKind};
use robustq_sim::VirtualTime;
use robustq_sql::SqlError;
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_storage::{Database, DbEpoch, StorageError, Table};
use std::sync::Arc;

/// Generator for the SSB-stream database: full SSB dimensions plus a
/// `lineorder` fact table split into a static base and append batches.
#[derive(Debug, Clone)]
pub struct SsbStreamGen {
    gen: SsbGenerator,
    base_fraction: f64,
    batches: usize,
    seal_rows: Option<usize>,
}

impl SsbStreamGen {
    /// Stream generator at scale factor `sf` with half the fact table
    /// as base data and the rest in 8 append batches.
    pub fn new(sf: u32) -> Self {
        SsbStreamGen {
            gen: SsbGenerator::new(sf),
            base_fraction: 0.5,
            batches: 8,
            seal_rows: None,
        }
    }

    /// Override the number of lineorder rows per scale factor.
    pub fn with_rows_per_sf(mut self, rows: usize) -> Self {
        self.gen = self.gen.with_rows_per_sf(rows);
        self
    }

    /// Override the data-generation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.gen = self.gen.with_seed(seed);
        self
    }

    /// Fraction of lineorder rows present before the feed starts
    /// (clamped to `[0, 1]`).
    pub fn with_base_fraction(mut self, fraction: f64) -> Self {
        self.base_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Number of append batches the remaining rows are split into.
    pub fn with_batches(mut self, batches: usize) -> Self {
        self.batches = batches.max(1);
        self
    }

    /// Open-segment seal threshold for the appends (rows).
    pub fn with_seal_rows(mut self, rows: usize) -> Self {
        self.seal_rows = Some(rows);
        self
    }

    /// Build the stream database: dimensions registered whole, the
    /// lineorder base registered, then every batch appended (epochs
    /// `1..=batches`). The feed is *pre-built* — a streaming run replays
    /// the recorded epochs in virtual time without touching the data.
    pub fn build(&self) -> Result<SsbStreamData, StorageError> {
        let full = self.gen.generate();
        let lo_full = full.table("lineorder").expect("generator emits lineorder");
        let total = lo_full.num_rows();
        let base = ((total as f64 * self.base_fraction) as usize).min(total);

        let mut db = Database::new();
        if let Some(rows) = self.seal_rows {
            db.set_seal_rows(rows);
        }
        for table in full.tables() {
            db.add_table(cut_lineorder(table, 0, base)?)?;
        }

        // Deal the remaining rows into `batches` contiguous slices; the
        // first `rem` batches carry one extra row so the slices tile
        // `[base, total)` exactly.
        let feed_rows = total - base;
        let per = feed_rows / self.batches;
        let rem = feed_rows % self.batches;
        let mut epochs = Vec::with_capacity(self.batches);
        let mut cursor = base;
        for b in 0..self.batches {
            let len = per + usize::from(b < rem);
            if len == 0 {
                continue;
            }
            let slice: Vec<_> = (0..lo_full.num_columns())
                .map(|i| lo_full.column_slice(i, cursor, cursor + len))
                .collect();
            epochs.push(db.append_batch("lineorder", slice)?);
            cursor += len;
        }
        debug_assert_eq!(cursor, total, "batches must tile the fact table");
        Ok(SsbStreamData { db, epochs, base_rows: base })
    }
}

/// `table` for a database derived from the one holding it: rows
/// `[lo, hi)` of `lineorder` copied out, a dimension table whole, sharing
/// its columns with the original.
fn cut_lineorder(table: &Table, lo: usize, hi: usize) -> Result<Table, StorageError> {
    let columns = if table.name() == "lineorder" {
        (0..table.num_columns()).map(|i| Arc::new(table.column_slice(i, lo, hi))).collect()
    } else {
        table.columns().to_vec()
    };
    Table::from_shared(table.name(), table.schema().clone(), columns)
}

/// A pre-built SSB-stream database plus its append history.
#[derive(Debug)]
pub struct SsbStreamData {
    /// The fully-fed database (base rows + every batch appended).
    pub db: Database,
    /// Commit epoch of each append batch, in feed order.
    pub epochs: Vec<DbEpoch>,
    /// Lineorder rows visible before the first batch.
    pub base_rows: usize,
}

impl SsbStreamData {
    /// A feed schedule committing batch `k` at `start + k·interval`.
    /// Paired with a tumbling window of period `interval` and the same
    /// `start`, each tick ingests exactly one batch.
    pub fn feed_schedule(&self, start: VirtualTime, interval: VirtualTime) -> FeedSchedule {
        let events = self
            .epochs
            .iter()
            .enumerate()
            .map(|(k, &epoch)| FeedEvent {
                at: VirtualTime::from_nanos(
                    start.as_nanos() + interval.as_nanos() * k as u64,
                ),
                epoch,
            })
            .collect();
        FeedSchedule { events }
    }

    /// A standing SSB query over `lineorder`, firing `ticks` windows of
    /// `period`. The session id is a placeholder; the serving runner
    /// re-numbers standing sessions above its arrival pool.
    pub fn standing_query(
        &self,
        q: SsbQuery,
        kind: WindowKind,
        period: VirtualTime,
        ticks: u32,
    ) -> Result<StandingQuery, SqlError> {
        Ok(StandingQuery {
            session: 0,
            plan: q.plan(&self.db)?,
            table: "lineorder".to_owned(),
            kind,
            period,
            ticks,
        })
    }

    /// A *static* database whose lineorder holds exactly rows
    /// `[lo, hi)` of the feed, dimensions shared whole — the oracle a
    /// window tick's live result is compared against. Row values (and
    /// dimension dictionaries) are identical to the stream database's,
    /// so a correct windowed execution matches value-for-value.
    pub fn window_db(&self, lo: usize, hi: usize) -> Database {
        let mut db = Database::new();
        for table in self.db.tables() {
            db.add_table(cut_lineorder(table, lo, hi).unwrap()).unwrap();
        }
        db
    }

    /// Lineorder rows visible once every batch up to `tick` (0-based)
    /// has committed under [`SsbStreamData::feed_schedule`]'s cadence.
    pub fn visible_after(&self, batches: usize) -> usize {
        let appended: usize = self
            .db
            .append_log()
            .iter()
            .take(batches)
            .map(|r| r.rows)
            .sum();
        self.base_rows + appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> SsbStreamData {
        SsbStreamGen::new(1)
            .with_rows_per_sf(2_000)
            .with_batches(4)
            .build()
            .unwrap()
    }

    #[test]
    fn batches_tile_the_fact_table() {
        let d = data();
        assert_eq!(d.base_rows, 1_000);
        assert_eq!(d.epochs.len(), 4);
        assert_eq!(d.db.table("lineorder").unwrap().num_rows(), 2_000);
        assert_eq!(d.visible_after(0), 1_000);
        assert_eq!(d.visible_after(4), 2_000);
    }

    #[test]
    fn stream_db_matches_batch_generated_data() {
        let d = data();
        let full = SsbGenerator::new(1).with_rows_per_sf(2_000).generate();
        let (a, b) = (d.db.table("lineorder").unwrap(), full.table("lineorder").unwrap());
        for i in 0..a.num_columns() {
            assert_eq!(a.column_slice(i, 0, 2_000), *b.column_at(i), "column {i}");
        }
        assert_eq!(
            d.db.table("customer").unwrap().columns(),
            full.table("customer").unwrap().columns()
        );
    }

    #[test]
    fn window_db_cuts_exact_row_ranges() {
        let d = data();
        let w = d.window_db(500, 1_500);
        assert_eq!(w.table("lineorder").unwrap().num_rows(), 1_000);
        assert_eq!(
            w.table("lineorder").unwrap().column_at(0),
            &d.db.table("lineorder").unwrap().column_slice(0, 500, 1_500)
        );
        assert_eq!(w.table("date").unwrap().num_rows(), 7 * 365);
    }

    #[test]
    fn feed_schedule_spaces_batches_uniformly() {
        let d = data();
        let fs = d.feed_schedule(VirtualTime::from_millis(1), VirtualTime::from_millis(2));
        assert_eq!(fs.events.len(), 4);
        assert_eq!(fs.events[0].at, VirtualTime::from_millis(1));
        assert_eq!(fs.events[3].at, VirtualTime::from_millis(7));
        assert_eq!(fs.events[0].epoch, d.epochs[0]);
    }

    #[test]
    fn standing_query_plans_against_the_stream_db() {
        let d = data();
        let sq = d
            .standing_query(
                SsbQuery::Q1_1,
                WindowKind::Tumbling,
                VirtualTime::from_millis(2),
                4,
            )
            .unwrap();
        assert_eq!(sq.table, "lineorder");
        assert_eq!(sq.ticks, 4);
    }
}
