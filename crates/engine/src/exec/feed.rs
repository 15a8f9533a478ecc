//! Feed replay and standing-query windows (DESIGN.md §6).
//!
//! Streaming runs replay a pre-built append history in virtual time: the
//! executor receives the database with every batch already appended
//! (epochs `1..=N` in the append log), plus a schedule that says *when*
//! each epoch commits. Because appends are strictly additive — row
//! prefixes, string-dictionary prefixes and sealed segments are never
//! rewritten — a query that bounds its feed-table scan by the rows
//! visible at its submission instant observes exactly the database state
//! of that virtual moment. `Ev::Append` therefore moves no data; it
//! bumps the per-column data epochs and invalidates stale cache
//! residency, so only the touched columns re-stage.
//!
//! Standing queries are plans registered once and re-executed per
//! tumbling or sliding window tick. Every fire is an ordinary query
//! through admission control (it can shed, queue and fault like any
//! other), tagged with the window's feed-table row range.

use crate::error::EngineError;
use crate::exec::event_loop::{QueryWindow, Sim, Submission};
use crate::exec::executor::{FeedSchedule, StandingQuery, WindowKind};
use crate::plan::PlanNode;
use robustq_storage::{ColumnId, Database};
use robustq_trace::TraceEvent;
use robustq_sim::VirtualTime;
use std::collections::HashMap;

/// One scheduled append: epoch `epoch` of table `table` commits at `at`.
/// The rows are already in the database; this event only flips epochs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FeedAppendRt {
    pub(crate) at: VirtualTime,
    /// Registration index of the appended table.
    pub(crate) table: usize,
    /// Rows the batch added.
    pub(crate) rows: u64,
    /// Raw payload bytes the batch added.
    pub(crate) bytes: u64,
    /// The epoch the batch committed under.
    pub(crate) epoch: u64,
}

/// One precomputed window tick of a standing query.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowFireRt {
    /// Standing-query registration index.
    pub(crate) standing: u32,
    /// Tick number (0-based; doubles as the submission `seq`).
    pub(crate) tick: u32,
    pub(crate) at: VirtualTime,
    /// Feed-table row range `[lo, hi)` the tick scans.
    pub(crate) lo: u64,
    pub(crate) hi: u64,
}

/// The registered plan behind a standing query.
pub(crate) struct StandingPlanRt {
    pub(crate) plan: PlanNode,
    /// Virtual session the ticks report under (above all arrival
    /// sessions, so per-session metrics separate cleanly).
    pub(crate) session: usize,
    /// Registration index of the windowed feed table.
    pub(crate) table: usize,
}

/// All per-run feed state. `FeedRt::default()` (no appends, no standing
/// queries, per-column epochs from the database) is a batch run — every
/// epoch is 0 for a never-appended database, so cache keys and goldens
/// are unchanged.
#[derive(Default)]
pub(crate) struct FeedRt {
    pub(crate) appends: Vec<FeedAppendRt>,
    pub(crate) fires: Vec<WindowFireRt>,
    pub(crate) plans: Vec<StandingPlanRt>,
    /// Per-column data epoch as of the current virtual instant, indexed
    /// by [`ColumnId::index`]. Starts at each column's pre-feed epoch and
    /// is bumped by `Ev::Append` as the replay advances.
    pub(crate) col_epochs: Vec<u64>,
}

/// Resolve a feed schedule and standing-query registrations against the
/// (pre-built) database into replay-ready runtime state: the append
/// events, every window tick's precomputed `[lo, hi)` feed-table bounds,
/// and the initial per-column epochs.
///
/// Returns the all-empty [`FeedRt`] when both inputs are empty (a batch
/// run). The schedule and the registrations are caller input: anything
/// inconsistent with the database or out of order is an
/// [`EngineError::Config`].
pub(crate) fn build_feed(
    db: &Database,
    feed: &FeedSchedule,
    standing: &[StandingQuery],
) -> Result<FeedRt, EngineError> {
    if feed.events.is_empty() && standing.is_empty() {
        return Ok(FeedRt::default());
    }
    let mut appends = Vec::with_capacity(feed.events.len());
    // Rows of each fed table visible after each scheduled commit, in
    // schedule order — the window-bound lookup table.
    let mut table_feed: HashMap<usize, Vec<(VirtualTime, u64)>> = HashMap::new();
    // Per-table first scheduled epoch (everything below is pre-run).
    let mut min_sched: HashMap<usize, (u64, u64)> = HashMap::new();
    for ev in &feed.events {
        let rec = db
            .append_log()
            .iter()
            .find(|r| r.epoch == ev.epoch.0)
            .ok_or_else(|| {
                EngineError::config(format!(
                    "feed schedules epoch {} but no append committed under it",
                    ev.epoch.0
                ))
            })?;
        appends.push(FeedAppendRt {
            at: ev.at,
            table: rec.table,
            rows: rec.rows as u64,
            bytes: rec.bytes,
            epoch: rec.epoch,
        });
        let visible_after = (rec.base_rows + rec.rows) as u64;
        table_feed.entry(rec.table).or_default().push((ev.at, visible_after));
        let e = min_sched
            .entry(rec.table)
            .or_insert((rec.epoch, rec.base_rows as u64));
        if rec.epoch < e.0 {
            *e = (rec.epoch, rec.base_rows as u64);
        }
    }
    // The schedule is caller input, and the window-bound lookup below
    // reads it as sorted: out of order, every tick would silently scan
    // the wrong `[lo, hi)`. Reject it, in release builds too.
    if !appends.windows(2).all(|w| w[0].at <= w[1].at) {
        return Err(EngineError::config("feed schedule is not sorted by commit instant"));
    }
    if !table_feed.values().all(|v| v.windows(2).all(|w| w[0].1 <= w[1].1)) {
        return Err(EngineError::config(
            "feed schedule replays a table's appends out of epoch order",
        ));
    }

    // A fed table's columns start at the last *pre-run* epoch (the
    // greatest committed epoch below the first scheduled one); unfed
    // tables keep their committed column epochs.
    let mut col_epochs: Vec<u64> = (0..db.num_columns() as u32)
        .map(|i| db.column_epoch(ColumnId(i)))
        .collect();
    for id in db.all_column_ids() {
        let t = db.table_of(id);
        if let Some(&(first, _)) = min_sched.get(&t) {
            col_epochs[id.index()] = db
                .append_log()
                .iter()
                .filter(|r| r.table == t && r.epoch < first)
                .map(|r| r.epoch)
                .max()
                .unwrap_or(0);
        }
    }

    let visible = |table: usize, at: VirtualTime| -> u64 {
        let last = table_feed
            .get(&table)
            .and_then(|v| v.iter().rev().find(|&&(t, _)| t <= at));
        match last {
            Some(&(_, rows)) => rows,
            // Before the first scheduled commit (or with no feed at all)
            // the table shows its pre-run rows.
            None => match min_sched.get(&table) {
                Some(&(_, base)) => base,
                None => db.tables()[table].num_rows() as u64,
            },
        }
    };

    let mut plans = Vec::with_capacity(standing.len());
    let mut fires = Vec::new();
    for (s, sq) in standing.iter().enumerate() {
        let table = db.table_position(&sq.table).ok_or_else(|| {
            EngineError::config(format!("standing query over unknown table {}", sq.table))
        })?;
        let period = sq.period.as_nanos().max(1);
        for tick in 0..sq.ticks {
            let close = VirtualTime::from_nanos(period * (tick as u64 + 1));
            let open = match sq.kind {
                WindowKind::Tumbling => VirtualTime::from_nanos(period * tick as u64),
                WindowKind::Sliding { length } => close.saturating_sub(length),
            };
            let hi = visible(table, close);
            let lo = visible(table, open).min(hi);
            fires.push(WindowFireRt { standing: s as u32, tick, at: close, lo, hi });
        }
        plans.push(StandingPlanRt {
            plan: sq.plan.clone(),
            session: sq.session as usize,
            table,
        });
    }
    // Fires are scheduled after appends at equal instants but must still
    // arrive time-sorted relative to each other for deterministic heap
    // insertion order across standing queries.
    fires.sort_by_key(|f| (f.at, f.standing, f.tick));

    Ok(FeedRt { appends, fires, plans, col_epochs })
}

impl Sim<'_, '_> {
    /// Current data epoch of `col` (0 in batch runs, where the epoch
    /// table is empty).
    pub(crate) fn col_epoch(&self, col: ColumnId) -> u64 {
        self.feed.col_epochs.get(col.index()).copied().unwrap_or(0)
    }

    /// An append batch commits: advance the touched columns' epochs,
    /// drop stale cache residency on every co-processor, and trace the
    /// commit (plus any segment seal it caused).
    pub(crate) fn on_append(&mut self, index: usize) {
        let rec = self.feed.appends[index];
        let cols: Vec<ColumnId> = self
            .db
            .all_column_ids()
            .filter(|&id| self.db.table_of(id) == rec.table)
            .collect();
        for &id in &cols {
            if let Some(e) = self.feed.col_epochs.get_mut(id.index()) {
                *e = rec.epoch;
            }
        }
        // Epoch-based invalidation: only entries of the appended table's
        // columns leave; every other resident column survives untouched.
        for device in self.config.topology.coprocessors() {
            for &id in &cols {
                let evicted = self
                    .caches
                    .device_mut(device)
                    .invalidate_column(id.0, rec.epoch);
                for (key, bytes) in evicted {
                    self.emit(TraceEvent::CacheEvict {
                        device,
                        key,
                        bytes,
                        at: self.now,
                    });
                }
            }
        }
        self.emit(TraceEvent::Append {
            table: rec.table as u32,
            rows: rec.rows,
            bytes: rec.bytes,
            epoch: rec.epoch as u32,
            at: self.now,
        });
        // An append crossing the seal threshold sealed an open segment
        // under this epoch; the segment list records which.
        for (i, seg) in self.db.tables()[rec.table].segments().iter().enumerate() {
            if seg.is_sealed() && seg.epoch() == rec.epoch {
                self.emit(TraceEvent::EpochSeal {
                    table: rec.table as u32,
                    segment: i as u32,
                    rows: seg.num_rows() as u64,
                    epoch: rec.epoch as u32,
                    at: self.now,
                });
            }
        }
    }

    /// A standing query's window closes: submit its plan for admission,
    /// tagged with the window's feed-table row range. The tick is the
    /// submission `seq`, so shed ticks are attributable in the trace.
    pub(crate) fn on_window_fire(&mut self, fire: usize) -> Result<(), EngineError> {
        let f = self.feed.fires[fire];
        let sp = &self.feed.plans[f.standing as usize];
        let sub = Submission {
            session: sp.session,
            seq: f.tick as usize,
            plan: sp.plan.clone(),
            submit: f.at,
            window: Some(QueryWindow { table: sp.table as u32, lo: f.lo, hi: f.hi }),
            standing: Some(f.standing),
        };
        self.submit_query(sub);
        self.process_admissions()
    }
}
