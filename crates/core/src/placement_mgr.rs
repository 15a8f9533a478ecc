//! The data placement manager (Section 3.2, Algorithm 1).
//!
//! A background job that periodically re-decides which base columns live
//! in the co-processor's column cache. Columns are ranked by access
//! frequency (LFU, the paper's default) or recency (LRU, the Appendix E
//! variant) using the access counters the query processor maintains, and
//! the top of the ranking is pinned until the cache budget is exhausted —
//! exactly Algorithm 1: evict `old \ new`, cache `new \ old`.

use robustq_sim::{partition_bytes, CacheKey, CacheSet, DeviceId};
use robustq_storage::{ColumnId, Database};

/// Ranking criterion for the pinned set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicyKind {
    /// Most frequently used first (the paper's default).
    Lfu,
    /// Most recently used first (Appendix E comparison).
    Lru,
}

/// The data placement manager.
#[derive(Debug, Clone)]
pub struct DataPlacementManager {
    kind: PlacementPolicyKind,
    /// Optional cap on cache bytes used (defaults to the full cache).
    budget: Option<u64>,
    /// Intra-operator sharding (DESIGN.md §7): partition large tables'
    /// columns across the fleet and replicate small tables everywhere.
    /// `0` disables sharding (the classic one-home-per-table layout).
    shard_ways: usize,
    /// Tables whose accessed columns total at most this many bytes are
    /// replicated into *every* cache instead of partitioned (small build
    /// sides each device can hold outright).
    replicate_max_bytes: u64,
    /// Sticky table→cache homes, by table registration index (`None`
    /// until the table is first accessed). Once a table is homed, later
    /// updates keep it there even when the ranking reshuffles — re-homing
    /// a hot table evicts and re-transfers its whole pinned set, which is
    /// how K > 1 fleets lose cache hits without any change in the
    /// workload.
    homes: Vec<Option<usize>>,
    /// What one [`DataPlacementManager::update_set`] pass fills and the
    /// next reuses, so a steady-state pass allocates nothing.
    scratch: Scratch,
}

/// The working buffers of one placement pass.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Accessed columns, best first.
    ranking: Vec<(ColumnId, u64)>,
    /// Summed column score and accessed bytes, by table registration index.
    tables: Vec<(u64, u64)>,
    /// Accessed tables, hottest first.
    hottest: Vec<usize>,
    /// Byte budget and bytes pinned so far, by cache slot.
    budgets: Vec<u64>,
    used: Vec<u64>,
    /// The pinned set, by cache slot.
    pins: Vec<Vec<(CacheKey, u64)>>,
}

impl DataPlacementManager {
    /// A manager with the given ranking criterion and no byte cap.
    pub fn new(kind: PlacementPolicyKind) -> Self {
        DataPlacementManager {
            kind,
            budget: None,
            shard_ways: 0,
            replicate_max_bytes: 0,
            homes: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// LFU ranking (the paper's default).
    pub fn lfu() -> Self {
        Self::new(PlacementPolicyKind::Lfu)
    }

    /// LRU ranking (Appendix E variant).
    pub fn lru() -> Self {
        Self::new(PlacementPolicyKind::Lru)
    }

    /// Limit the bytes Algorithm 1 may pin (Figure 24 sweeps this).
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// Enable shard-aware placement: large tables' columns are pinned as
    /// `ways`-way *partitions* dealt across the fleet (partition `p` of a
    /// table homed on slot `h` lands on cache `(h + p) % K`), while
    /// tables totalling at most `replicate_max_bytes` accessed bytes are
    /// replicated into every cache. `ways` should match the executor's
    /// `shard_ways` so a shard's partition key probe finds its slice.
    pub fn with_sharding(mut self, ways: usize, replicate_max_bytes: u64) -> Self {
        self.shard_ways = ways;
        self.replicate_max_bytes = replicate_max_bytes;
        self
    }

    /// The configured ranking criterion.
    pub fn kind(&self) -> PlacementPolicyKind {
        self.kind
    }

    /// Rank all base columns by the configured criterion, best first.
    /// Columns never accessed rank last and are never pinned.
    pub fn ranking(&self, db: &Database) -> Vec<(ColumnId, u64)> {
        let mut ranked = Vec::new();
        self.rank_into(db, &mut ranked);
        ranked
    }

    /// [`DataPlacementManager::ranking`] into a caller's buffer.
    fn rank_into(&self, db: &Database, ranked: &mut Vec<(ColumnId, u64)>) {
        let stats = db.stats();
        ranked.clear();
        ranked.extend(
            db.all_column_ids()
                .map(|id| {
                    let score = match self.kind {
                        PlacementPolicyKind::Lfu => stats.access_count(id.index()),
                        PlacementPolicyKind::Lru => stats.last_access_tick(id.index()),
                    };
                    (id, score)
                })
                .filter(|&(_, score)| score > 0),
        );
        // Descending score; ties broken by id for determinism (ids are
        // unique, so the unstable sort is deterministic too).
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }

    /// Algorithm 1 over a fleet of co-processor caches: fill each cache
    /// with the highest-ranked columns that fit, replacing the previous
    /// pinned set. Each *table* is homed on one device — tables ranked by
    /// summed column score and dealt round-robin across the K caches — and
    /// every cache is then filled in global ranking order from its home
    /// tables' columns. Homing whole tables (rather than striping single
    /// columns) keeps a scan's inputs co-resident, so the data-driven
    /// chain rule still fires at K > 1; the pinned working set scales with
    /// the fleet one table at a time. With K = 1 this is the paper's
    /// single-cache Algorithm 1. Returns `(device, key)` pairs newly
    /// cached so the caller can charge each device's host link. `epochs`
    /// gives each column's current data epoch by [`ColumnId::index`]
    /// (empty = all epoch 0, the batch case), so pins target the live
    /// version and a re-run after an append re-pins only the touched
    /// columns.
    ///
    /// Homes are *sticky*: a table keeps its cache across updates even
    /// when the ranking reshuffles, so background placement never evicts
    /// one device's pinned set just to rebuild it on a sibling.
    ///
    /// With [`DataPlacementManager::with_sharding`], large tables are
    /// instead pinned as per-device *partitions* (shard `p` homed on
    /// cache `(home + p) % K`) and small tables replicated everywhere.
    ///
    /// A pass that re-decides the pinned set already in place — the
    /// steady state — allocates nothing: the ranking, table and pin
    /// buffers are the previous pass's, and the caches keep their pins.
    pub fn update_set(
        &mut self,
        db: &Database,
        caches: &mut CacheSet,
        epochs: &[u64],
    ) -> Vec<(DeviceId, CacheKey)> {
        let k = caches.len();
        if k == 0 {
            return Vec::new();
        }
        let mut s = std::mem::take(&mut self.scratch);
        self.rank_into(db, &mut s.ranking);
        // Home each accessed table: hottest table first, ties broken by
        // registration index for determinism. Previously homed tables
        // keep their slot; only newcomers consume new round-robin slots.
        s.tables.clear();
        s.tables.resize(db.tables().len(), (0, 0));
        for &(id, score) in &s.ranking {
            let (table_score, table_bytes) = &mut s.tables[db.table_of(id)];
            *table_score += score;
            *table_bytes += db.column_size(id);
        }
        s.hottest.clear();
        s.hottest.extend((0..s.tables.len()).filter(|&t| s.tables[t].0 > 0));
        s.hottest.sort_unstable_by(|&a, &b| s.tables[b].0.cmp(&s.tables[a].0).then(a.cmp(&b)));
        if self.homes.len() < s.tables.len() {
            self.homes.resize(s.tables.len(), None);
        }
        for (rank, &table) in s.hottest.iter().enumerate() {
            self.homes[table].get_or_insert(rank % k);
        }
        s.budgets.clear();
        s.budgets.extend(
            caches
                .iter()
                .map(|(_, cache)| self.budget.unwrap_or(u64::MAX).min(cache.capacity())),
        );
        s.used.clear();
        s.used.resize(k, 0);
        s.pins.resize_with(k, Vec::new);
        s.pins.iter_mut().for_each(Vec::clear);
        let ways = self.shard_ways.min(k);
        for &(id, _) in &s.ranking {
            let table = db.table_of(id);
            let home = self.homes[table].expect("every accessed table is homed");
            let bytes = db.column_size(id);
            let epoch = epochs.get(id.index()).copied().unwrap_or(0);
            if ways >= 2 && k >= 2 {
                if s.tables[table].1 <= self.replicate_max_bytes {
                    // Small build side: replicate into every cache that
                    // has room, so any shard's probe/join runs locally.
                    for (slot, u) in s.used.iter_mut().enumerate() {
                        if *u + bytes <= s.budgets[slot] {
                            *u += bytes;
                            s.pins[slot].push((CacheKey::column_at(id.0, epoch), bytes));
                        }
                    }
                } else {
                    // Large table: deal its partitions across the fleet
                    // starting at the table's home.
                    for p in 0..ways as u32 {
                        let slot = (home + p as usize) % k;
                        let part = partition_bytes(bytes, p, ways as u32);
                        if s.used[slot] + part <= s.budgets[slot] {
                            s.used[slot] += part;
                            s.pins[slot].push((
                                CacheKey::partition_at(id.0, p, ways as u32, epoch),
                                part,
                            ));
                        }
                    }
                }
            } else if s.used[home] + bytes <= s.budgets[home] {
                s.used[home] += bytes;
                s.pins[home].push((CacheKey::column_at(id.0, epoch), bytes));
            }
        }
        let mut newly = Vec::new();
        for (slot, pin) in s.pins.iter().enumerate() {
            let device = DeviceId::from_index(slot + 1);
            let (newly_cached, _evicted) = caches.device_mut(device).set_pinned(pin);
            newly.extend(newly_cached.into_iter().map(|key| (device, key)));
        }
        self.scratch = s;
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_sim::{CachePolicy, DeviceSpec, LinkParams, Topology};
    use robustq_storage::{ColumnData, DataType, Field, Schema, Table};

    /// A K = 1 fleet whose one cache holds `cache_bytes` — the paper's
    /// single-cache Algorithm 1.
    fn one_cache(cache_bytes: u64) -> CacheSet {
        let topo = Topology::cpu_gpu(
            DeviceSpec::cpu(4),
            DeviceSpec::coprocessor(4, cache_bytes, cache_bytes),
            LinkParams::default(),
        );
        CacheSet::for_topology(&topo, CachePolicy::Lru)
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(
            Table::new(
                "t",
                Schema::new(vec![
                    Field::new("a", DataType::Int32), // 12 bytes
                    Field::new("b", DataType::Int32),
                    Field::new("c", DataType::Int32),
                ]),
                vec![
                    ColumnData::Int32(vec![1, 2, 3]),
                    ColumnData::Int32(vec![4, 5, 6]),
                    ColumnData::Int32(vec![7, 8, 9]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn touch(db: &Database, col: &str, times: usize) {
        let id = db.column_id("t", col).unwrap();
        for _ in 0..times {
            db.stats().record_access(id.index());
        }
    }

    #[test]
    fn lfu_pins_hottest_columns_within_budget() {
        let db = db();
        touch(&db, "a", 5);
        touch(&db, "b", 3);
        touch(&db, "c", 10);
        let mut caches = one_cache(24); // room for 2 columns
        let newly = DataPlacementManager::lfu().update_set(&db, &mut caches, &[]);
        assert_eq!(newly.len(), 2);
        let c = db.column_id("t", "c").unwrap();
        let a = db.column_id("t", "a").unwrap();
        let cache = caches.device(DeviceId::Gpu);
        assert!(cache.contains(CacheKey(c.0 as u64)));
        assert!(cache.contains(CacheKey(a.0 as u64)));
        assert_eq!(cache.used(), 24);
    }

    #[test]
    fn never_accessed_columns_are_not_pinned() {
        let db = db();
        touch(&db, "a", 1);
        let mut caches = one_cache(1_000);
        DataPlacementManager::lfu().update_set(&db, &mut caches, &[]);
        assert_eq!(caches.device(DeviceId::Gpu).len(), 1);
    }

    #[test]
    fn update_is_incremental_algorithm_1() {
        let db = db();
        touch(&db, "a", 5);
        touch(&db, "b", 4);
        let mut caches = one_cache(24);
        let mut mgr = DataPlacementManager::lfu();
        let first = mgr.update_set(&db, &mut caches, &[]);
        assert_eq!(first.len(), 2);
        // Shift the ranking: c becomes hottest; a survives, b is evicted.
        touch(&db, "c", 10);
        touch(&db, "a", 5);
        let second = mgr.update_set(&db, &mut caches, &[]);
        let c = db.column_id("t", "c").unwrap();
        let b = db.column_id("t", "b").unwrap();
        assert_eq!(
            second,
            vec![(DeviceId::Gpu, CacheKey(c.0 as u64))],
            "only c is newly cached"
        );
        assert!(!caches.device(DeviceId::Gpu).contains(CacheKey(b.0 as u64)));
        // An append moved c to epoch 1: only c's live version is re-pinned.
        let mut epochs = vec![0; db.all_column_ids().count()];
        epochs[c.index()] = 1;
        let third = mgr.update_set(&db, &mut caches, &epochs);
        assert_eq!(third, vec![(DeviceId::Gpu, CacheKey::column_at(c.0, 1))]);
        assert!(!caches.device(DeviceId::Gpu).contains(CacheKey(c.0 as u64)));
    }

    #[test]
    fn update_set_homes_whole_tables_across_the_fleet() {
        let mut db = db();
        db.add_table(
            Table::new(
                "dim",
                Schema::new(vec![Field::new("d", DataType::Int32)]),
                vec![ColumnData::Int32(vec![1, 2, 3])],
            )
            .unwrap(),
        )
        .unwrap();
        touch(&db, "a", 5);
        touch(&db, "c", 10);
        let dim_d = db.column_id("dim", "d").unwrap();
        for _ in 0..4 {
            db.stats().record_access(dim_d.index());
        }
        let topo = Topology::cpu_gpu(
            DeviceSpec::cpu(4),
            DeviceSpec::coprocessor(4, 1_000, 24),
            LinkParams::default(),
        )
        .with_coprocessor(DeviceSpec::coprocessor(4, 1_000, 24), LinkParams::default());
        let mut caches = CacheSet::for_topology(&topo, CachePolicy::Lru);
        let newly = DataPlacementManager::lfu().update_set(&db, &mut caches, &[]);
        assert_eq!(newly.len(), 3, "all three accessed columns fit somewhere");
        let c = db.column_id("t", "c").unwrap();
        let a = db.column_id("t", "a").unwrap();
        let g1 = DeviceId::Gpu;
        let g2 = DeviceId::coprocessor(2);
        // Table scores: t = 15 → home g1, dim = 4 → home g2. Both of
        // t's hot columns stay co-resident on g1 (a scan of t still
        // places on one device); dim lives on g2.
        assert!(caches.device(g1).contains(CacheKey(c.0 as u64)));
        assert!(caches.device(g1).contains(CacheKey(a.0 as u64)));
        assert!(caches.device(g2).contains(CacheKey(dim_d.0 as u64)));
        assert!(!caches.device(g2).contains(CacheKey(c.0 as u64)), "one home per table");
    }

    #[test]
    fn sticky_homes_survive_ranking_reshuffles() {
        let mut db = db();
        db.add_table(
            Table::new(
                "dim",
                Schema::new(vec![Field::new("d", DataType::Int32)]),
                vec![ColumnData::Int32(vec![1, 2, 3])],
            )
            .unwrap(),
        )
        .unwrap();
        touch(&db, "a", 10);
        let dim_d = db.column_id("dim", "d").unwrap();
        db.stats().record_access(dim_d.index());
        let topo = Topology::cpu_gpu(
            DeviceSpec::cpu(4),
            DeviceSpec::coprocessor(4, 1_000, 1_000),
            LinkParams::default(),
        )
        .with_coprocessor(DeviceSpec::coprocessor(4, 1_000, 1_000), LinkParams::default());
        let mut caches = CacheSet::for_topology(&topo, CachePolicy::Lru);
        let mut mgr = DataPlacementManager::lfu();
        mgr.update_set(&db, &mut caches, &[]);
        let a = db.column_id("t", "a").unwrap();
        assert!(caches.device(DeviceId::Gpu).contains(CacheKey(a.0 as u64)));
        // Flip the ranking: dim becomes far hotter than t. Without sticky
        // homes the tables would swap devices, evicting both pinned sets.
        for _ in 0..100 {
            db.stats().record_access(dim_d.index());
        }
        let newly = mgr.update_set(&db, &mut caches, &[]);
        assert_eq!(newly, vec![], "a reshuffle must not re-home pinned tables");
        assert!(caches.device(DeviceId::Gpu).contains(CacheKey(a.0 as u64)));
        let g2 = DeviceId::coprocessor(2);
        assert!(caches.device(g2).contains(CacheKey(dim_d.0 as u64)));
    }

    #[test]
    fn sharding_partitions_large_tables_and_replicates_small_ones() {
        let mut db = db();
        db.add_table(
            Table::new(
                "dim",
                Schema::new(vec![Field::new("d", DataType::Int32)]),
                vec![ColumnData::Int32(vec![1, 2, 3])], // 12 bytes
            )
            .unwrap(),
        )
        .unwrap();
        touch(&db, "a", 10);
        touch(&db, "b", 9);
        let dim_d = db.column_id("dim", "d").unwrap();
        for _ in 0..5 {
            db.stats().record_access(dim_d.index());
        }
        let topo = Topology::cpu_gpu(
            DeviceSpec::cpu(4),
            DeviceSpec::coprocessor(4, 1_000, 1_000),
            LinkParams::default(),
        )
        .with_coprocessor(DeviceSpec::coprocessor(4, 1_000, 1_000), LinkParams::default());
        let mut caches = CacheSet::for_topology(&topo, CachePolicy::Lru);
        // t's accessed columns total 24 B (> 12), dim totals 12 B (≤ 12):
        // t is partitioned 2-ways, dim replicated everywhere.
        let mut mgr = DataPlacementManager::lfu().with_sharding(2, 12);
        mgr.update_set(&db, &mut caches, &[]);
        let a = db.column_id("t", "a").unwrap();
        let b = db.column_id("t", "b").unwrap();
        let g1 = DeviceId::Gpu;
        let g2 = DeviceId::coprocessor(2);
        for col in [a, b] {
            assert!(caches.device(g1).contains(CacheKey::partition(col.0, 0, 2)));
            assert!(caches.device(g2).contains(CacheKey::partition(col.0, 1, 2)));
            assert!(!caches.device(g1).contains(CacheKey::column(col.0)));
        }
        for dev in [g1, g2] {
            assert!(caches.device(dev).contains(CacheKey::column(dim_d.0)));
        }
        // Partition sizes tile the column exactly.
        assert_eq!(caches.device(g1).used(), 6 + 6 + 12);
        assert_eq!(caches.device(g2).used(), 6 + 6 + 12);
    }

    #[test]
    fn lru_ranks_by_recency() {
        let db = db();
        touch(&db, "a", 10); // frequent but old
        touch(&db, "b", 1); // recent
        let mgr = DataPlacementManager::lru();
        let ranking = mgr.ranking(&db);
        assert_eq!(ranking[0].0, db.column_id("t", "b").unwrap());
        assert_eq!(mgr.kind(), PlacementPolicyKind::Lru);
    }

    #[test]
    fn budget_caps_pinned_bytes() {
        let db = db();
        touch(&db, "a", 3);
        touch(&db, "b", 2);
        touch(&db, "c", 1);
        let mut caches = one_cache(1_000);
        DataPlacementManager::lfu().with_budget(12).update_set(&db, &mut caches, &[]);
        assert_eq!(caches.device(DeviceId::Gpu).used(), 12);
        assert_eq!(caches.device(DeviceId::Gpu).len(), 1);
    }

    #[test]
    fn skips_oversized_but_fills_smaller(){
        let mut db = Database::new();
        db.add_table(
            Table::new(
                "big",
                Schema::new(vec![Field::new("x", DataType::Int64)]),
                vec![ColumnData::Int64(vec![0; 10])], // 80 bytes
            )
            .unwrap(),
        )
        .unwrap();
        db.add_table(
            Table::new(
                "small",
                Schema::new(vec![Field::new("y", DataType::Int32)]),
                vec![ColumnData::Int32(vec![0; 3])], // 12 bytes
            )
            .unwrap(),
        )
        .unwrap();
        db.stats().record_access(0);
        db.stats().record_access(0);
        db.stats().record_access(1);
        let mut caches = one_cache(20);
        DataPlacementManager::lfu().update_set(&db, &mut caches, &[]);
        // big (80 B) cannot fit; small (12 B) still gets pinned.
        assert_eq!(caches.device(DeviceId::Gpu).used(), 12);
    }
}
