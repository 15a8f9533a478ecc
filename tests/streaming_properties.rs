//! Property-based tests for epoch-versioned storage (DESIGN.md §3):
//! incrementally maintained segment statistics match a from-scratch
//! recomputation after any append/seal history, and snapshots are
//! isolated — data visible at an epoch never changes as later batches
//! commit.

use proptest::prelude::*;
use robustq::storage::{
    ColumnData, Database, DataType, DbEpoch, Field, Schema, Table,
};

/// A database with one two-column table built from the first batch, plus
/// the seal threshold under test.
fn seeded_db(first: &[(i32, i64)], seal_rows: usize) -> Database {
    let mut db = Database::new();
    db.set_seal_rows(seal_rows);
    let (a, b): (Vec<i32>, Vec<i64>) = first.iter().copied().unzip();
    db.add_table(
        Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int32),
                Field::new("b", DataType::Int64),
            ]),
            vec![ColumnData::Int32(a), ColumnData::Int64(b)],
        )
        .unwrap(),
    )
    .unwrap();
    db
}

fn batch(rows: &[(i32, i64)]) -> Vec<ColumnData> {
    let (a, b): (Vec<i32>, Vec<i64>) = rows.iter().copied().unzip();
    vec![ColumnData::Int32(a), ColumnData::Int64(b)]
}

proptest! {
    /// After any append history (arbitrary batch sizes and seal
    /// thresholds), every segment's incrementally maintained per-column
    /// stats equal a from-scratch recomputation over its rows.
    #[test]
    fn segment_stats_match_recomputation(
        first in prop::collection::vec((-1000i32..1000, -1000i64..1000), 1..40),
        batches in prop::collection::vec(
            prop::collection::vec((-1000i32..1000, -1000i64..1000), 0..30),
            0..6,
        ),
        seal_rows in 1usize..50,
    ) {
        let mut db = seeded_db(&first, seal_rows);
        for rows in &batches {
            db.append_batch("t", batch(rows)).unwrap();
        }
        let table = db.table("t").unwrap();
        let mut covered = 0usize;
        for (i, seg) in table.segments().iter().enumerate() {
            let recomputed = table.recompute_segment_stats(i);
            for (c, want) in recomputed.iter().enumerate() {
                prop_assert_eq!(
                    seg.stats(c),
                    want.clone(),
                    "segment {} column {} stats drifted from recomputation",
                    i, c
                );
            }
            prop_assert_eq!(seg.rows().start, covered, "segment {} not contiguous", i);
            covered = seg.rows().end;
        }
        prop_assert_eq!(covered, table.num_rows(), "segments must tile the table");
    }

    /// Snapshot isolation: the rows visible at any epoch are immutable.
    /// A reader that captured (visible rows, column prefix) at epoch `e`
    /// sees the identical bytes after every later append, and
    /// `snapshot_at(e)` keeps reporting the same visible count.
    #[test]
    fn snapshots_are_isolated_from_later_appends(
        first in prop::collection::vec((-100i32..100, -100i64..100), 1..30),
        before in prop::collection::vec(
            prop::collection::vec((-100i32..100, -100i64..100), 1..20),
            0..4,
        ),
        after in prop::collection::vec(
            prop::collection::vec((-100i32..100, -100i64..100), 1..20),
            1..4,
        ),
        seal_rows in 1usize..40,
    ) {
        let mut db = seeded_db(&first, seal_rows);
        for rows in &before {
            db.append_batch("t", batch(rows)).unwrap();
        }
        let epoch = db.epoch();
        let snap = db.snapshot();
        let t = db.table_position("t").unwrap();
        let visible = snap.visible_rows(t);
        let frozen: Vec<ColumnData> = (0..db.tables()[t].num_columns())
            .map(|c| db.tables()[t].column_slice(c, 0, visible))
            .collect();

        for rows in &after {
            db.append_batch("t", batch(rows)).unwrap();
        }

        // The snapshot's view is bit-identical after every later commit.
        prop_assert_eq!(db.snapshot_at(epoch).visible_rows(t), visible);
        prop_assert_eq!(db.snapshot_at(epoch).epoch(), epoch);
        for (c, want) in frozen.iter().enumerate() {
            let got = db.tables()[t].column_slice(c, 0, visible);
            prop_assert_eq!(
                &got, want,
                "column {} prefix changed under later appends", c
            );
        }
        // And the database itself did advance.
        let appended: usize = after.iter().map(Vec::len).sum();
        prop_assert_eq!(db.tables()[t].num_rows(), visible + appended);
        prop_assert!(db.epoch() > epoch);
    }

    /// The append log is a faithful journal: epochs are dense and
    /// increasing, base rows chain batch to batch, and replaying the log
    /// reproduces every intermediate snapshot's visible count.
    #[test]
    fn append_log_replays_every_snapshot(
        first in prop::collection::vec((-10i32..10, -10i64..10), 1..20),
        batches in prop::collection::vec(
            prop::collection::vec((-10i32..10, -10i64..10), 1..15),
            1..6,
        ),
    ) {
        let mut db = seeded_db(&first, 25);
        for rows in &batches {
            db.append_batch("t", batch(rows)).unwrap();
        }
        let t = db.table_position("t").unwrap();
        let mut visible = first.len();
        for (i, rec) in db.append_log().iter().enumerate() {
            prop_assert_eq!(rec.epoch, i as u64 + 1, "epochs must be dense");
            prop_assert_eq!(rec.table, t);
            prop_assert_eq!(rec.base_rows, visible, "base rows must chain");
            visible += rec.rows;
            prop_assert_eq!(
                db.snapshot_at(DbEpoch(rec.epoch)).visible_rows(t),
                visible
            );
        }
        prop_assert_eq!(visible, db.tables()[t].num_rows());
    }
}
