//! Property-based tests on core invariants (proptest).

use proptest::prelude::*;
use robustq::engine::ops;
use robustq::engine::plan::{AggSpec, PlanNode, SortKey};
use robustq::engine::predicate::Predicate;
use robustq::engine::expr::Expr;
use robustq::engine::{Chunk, JoinKind, ParallelCtx};
use robustq::sim::{CacheKey, CachePolicy, DataCache, HeapAllocator, VirtualTime};
use robustq::storage::{ColumnData, DataType, Field};

fn int_chunk(a: Vec<i32>, b: Vec<i32>) -> Chunk {
    Chunk::new(
        vec![Field::new("a", DataType::Int32), Field::new("b", DataType::Int32)],
        vec![ColumnData::Int32(a), ColumnData::Int32(b)],
    )
}

proptest! {
    /// Selection keeps exactly the rows a naive scan would keep, in order.
    #[test]
    fn selection_matches_naive_filter(
        rows in prop::collection::vec((-50i32..50, -50i32..50), 0..200),
        lo in -60i32..60,
        len in 0i32..40,
    ) {
        let hi = lo + len;
        let (a, b): (Vec<i32>, Vec<i32>) = rows.iter().copied().unzip();
        let chunk = int_chunk(a.clone(), b);
        let pred = Predicate::between("a", lo, hi);
        let sel = ops::select::select(&chunk, None, &pred, ParallelCtx::serial()).unwrap();
        let out = chunk.gather(sel.positions());
        let expected: Vec<i32> =
            a.iter().copied().filter(|&x| x >= lo && x <= hi).collect();
        let got: Vec<i64> =
            (0..out.num_rows()).map(|i| out.row(i)[0].as_i64().unwrap()).collect();
        prop_assert_eq!(got, expected.iter().map(|&x| x as i64).collect::<Vec<_>>());
    }

    /// Inner hash join row count equals the nested-loop count, and
    /// semi + anti partition the probe side.
    #[test]
    fn join_counts_match_nested_loop(
        build in prop::collection::vec(0i32..20, 0..60),
        probe in prop::collection::vec(0i32..20, 0..60),
    ) {
        let b = int_chunk(build.clone(), build.clone());
        let p = int_chunk(probe.clone(), probe.clone());
        // The number of matches: a join returns positions, not rows.
        let join = |kind| {
            let (b, p) = ((&b, None), (&p, None));
            ops::join::hash_join(b, p, "a", "a", kind, ParallelCtx::serial(), None).unwrap().0.len()
        };
        let (inner, semi, anti) =
            (join(JoinKind::Inner), join(JoinKind::Semi), join(JoinKind::Anti));
        let expected: usize = probe
            .iter()
            .map(|x| build.iter().filter(|y| *y == x).count())
            .sum();
        prop_assert_eq!(inner, expected);
        prop_assert_eq!(semi + anti, probe.len());
    }

    /// Group-by sums are conserved: the sum over groups equals the total.
    #[test]
    fn aggregation_conserves_sums(
        rows in prop::collection::vec((0i32..8, -1000i32..1000), 0..300),
    ) {
        let (keys, vals): (Vec<i32>, Vec<i32>) = rows.iter().copied().unzip();
        let chunk = int_chunk(keys, vals.clone());
        let grouped = ops::agg::aggregate(
            &chunk,
            None,
            &["a".to_string()],
            &[AggSpec::sum(Expr::col("b"), "s")],
            ParallelCtx::serial(),
        )
        .unwrap();
        let total: f64 = (0..grouped.num_rows())
            .map(|i| grouped.row(i)[1].as_f64().unwrap())
            .sum();
        let expected: f64 = vals.iter().map(|&v| v as f64).sum();
        prop_assert!((total - expected).abs() < 1e-6);
    }

    /// Sorting is a permutation and respects the order.
    #[test]
    fn sort_is_an_ordered_permutation(
        rows in prop::collection::vec(-1000i32..1000, 0..200),
    ) {
        let chunk = int_chunk(rows.clone(), rows.clone());
        let sorted = ops::sort::sort(&chunk, &[SortKey::asc("a")], None).unwrap();
        prop_assert_eq!(sorted.num_rows(), rows.len());
        prop_assert_eq!(sorted.checksum(), chunk.checksum());
        let got: Vec<i64> =
            (0..sorted.num_rows()).map(|i| sorted.row(i)[0].as_i64().unwrap()).collect();
        prop_assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The device cache never exceeds capacity and never loses pinned
    /// entries, under arbitrary interleavings of inserts and pins.
    #[test]
    fn cache_capacity_and_pin_invariants(
        ops in prop::collection::vec((0u64..30, 1u64..40, prop::bool::ANY), 1..120),
    ) {
        let mut cache = DataCache::new(100, CachePolicy::Lru);
        let mut pinned: Vec<(CacheKey, u64)> = Vec::new();
        for (key, bytes, pin) in ops {
            if pin {
                // Keep the pinned set within capacity.
                let used: u64 = pinned.iter().map(|&(_, b)| b).sum();
                if used + bytes <= cache.capacity()
                    && !pinned.iter().any(|&(k, _)| k == CacheKey(key))
                {
                    pinned.push((CacheKey(key), bytes));
                    cache.set_pinned(&pinned);
                }
            } else {
                let _ = cache.insert(CacheKey(key + 100), bytes);
            }
            prop_assert!(cache.used() <= cache.capacity());
            for &(k, _) in &pinned {
                prop_assert!(cache.contains(k), "pinned entry evicted");
            }
        }
    }

    /// Heap accounting: used bytes equal the sum of live allocations.
    #[test]
    fn heap_accounting_is_exact(
        ops in prop::collection::vec((0u64..8, 0u64..50, prop::bool::ANY), 1..150),
    ) {
        let mut heap = HeapAllocator::new(200);
        let mut live: std::collections::HashMap<u64, u64> = Default::default();
        for (tag, bytes, free) in ops {
            if free {
                heap.free_tag(tag);
                live.remove(&tag);
            } else if heap.try_alloc(tag, bytes) {
                if bytes > 0 {
                    *live.entry(tag).or_default() += bytes;
                }
            } else {
                // Failed allocations must not change accounting.
            }
            let expected: u64 = live.values().sum();
            prop_assert_eq!(heap.used(), expected);
            prop_assert!(heap.used() <= heap.capacity());
        }
    }

    /// Virtual time arithmetic: from/as second conversions roundtrip
    /// within a nanosecond.
    #[test]
    fn virtual_time_roundtrip(ns in 0u64..10_000_000_000_000) {
        let t = VirtualTime::from_nanos(ns);
        let back = VirtualTime::from_secs_f64(t.as_secs_f64());
        let diff = back.as_nanos().abs_diff(ns);
        prop_assert!(diff <= 2_000, "{ns} -> {} (diff {diff})", back.as_nanos());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized SPJA plans over a generated table return the same
    /// results whether run directly or through the simulated executor
    /// under any strategy.
    #[test]
    fn executor_preserves_results_for_random_predicates(
        lo in 0i32..8,
        len in 0i32..5,
        strategy_idx in 0usize..7,
    ) {
        use robustq::core::Strategy;
        use robustq::sim::SimConfig;
        use robustq::workloads::{RunnerConfig, WorkloadRunner};
        use robustq::storage::gen::ssb::SsbGenerator;

        let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
        let plan = PlanNode::scan("lineorder", ["lo_discount", "lo_revenue"])
            .filter(Predicate::between("lo_discount", lo, lo + len))
            .aggregate(
                ["lo_discount"],
                vec![AggSpec::sum(Expr::col("lo_revenue"), "r")],
            )
            .sort(vec![SortKey::asc("lo_discount")]);
        let expected = ops::execute_plan(&plan, &db).unwrap().checksum();

        let strategy = Strategy::ALL[strategy_idx];
        let runner = WorkloadRunner::new(&db, SimConfig::default());
        let report = runner
            .run(std::slice::from_ref(&plan), strategy, &RunnerConfig::default())
            .unwrap();
        prop_assert_eq!(report.outcomes[0].checksum, expected);
    }
}
