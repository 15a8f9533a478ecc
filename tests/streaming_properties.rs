//! Property-based tests for epoch-versioned storage (DESIGN.md §3):
//! segments tile the table after any append/seal history, and readers are
//! isolated — rows visible at an epoch never change as later batches
//! commit, and the append log says which rows those are.

use proptest::prelude::*;
use robustq::storage::{ColumnData, Database, DataType, Field, Schema, Table};

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
    /// thresholds), segments are contiguous and tile `[0, num_rows)`, only
    /// the last may be open and it holds fewer than `seal_rows` rows, and
    /// every sealed segment appends made holds at least `seal_rows`.
    #[test]
    fn segments_tile_the_table(
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
        let segments = table.segments();
        let mut covered = 0usize;
        for (i, seg) in segments.iter().enumerate() {
            prop_assert_eq!(seg.rows().start, covered, "segment {} not contiguous", i);
            prop_assert!(seg.num_rows() > 0, "segment {} is empty", i);
            covered = seg.rows().end;
            if !seg.is_sealed() {
                prop_assert_eq!(i, segments.len() - 1, "open segment {} is not the last", i);
                prop_assert!(seg.num_rows() < seal_rows, "open segment {} is due a seal", i);
            } else if seg.epoch() > 0 {
                prop_assert!(seg.num_rows() >= seal_rows, "segment {} sealed early", i);
            }
        }
        prop_assert_eq!(covered, table.num_rows(), "segments must tile the table");
    }

    /// Snapshot isolation: the rows visible at any epoch are immutable.
    /// A reader that captured (visible rows, column prefix) at epoch `e`
    /// sees the identical bytes after every later append, and the append
    /// log keeps reporting the same visible count for `e`.
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
        let t = db.table_position("t").unwrap();
        let visible = db.tables()[t].num_rows();
        let frozen: Vec<ColumnData> = (0..db.tables()[t].num_columns())
            .map(|c| db.tables()[t].column_slice(c, 0, visible))
            .collect();

        for rows in &after {
            db.append_batch("t", batch(rows)).unwrap();
        }

        // The view at `epoch` is bit-identical after every later commit:
        // its rows are the base rows plus the appends the log records at
        // or before it, and the first later append starts where it ends.
        let log = db.append_log();
        let at_epoch: usize =
            first.len() + log.iter().filter(|r| r.epoch <= epoch.0).map(|r| r.rows).sum::<usize>();
        prop_assert_eq!(at_epoch, visible);
        let next = log.iter().find(|r| r.epoch > epoch.0).unwrap();
        prop_assert_eq!((next.epoch, next.base_rows), (epoch.0 + 1, visible));
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
    /// increasing, base rows chain batch to batch, and the rows each record
    /// names are exactly its batch's.
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
        let table = &db.tables()[t];
        let mut visible = first.len();
        for (i, (rec, rows)) in db.append_log().iter().zip(&batches).enumerate() {
            prop_assert_eq!(rec.epoch, i as u64 + 1, "epochs must be dense");
            prop_assert_eq!(rec.table, t);
            prop_assert_eq!(rec.base_rows, visible, "base rows must chain");
            visible += rec.rows;
            for (c, want) in batch(rows).iter().enumerate() {
                prop_assert_eq!(&table.column_slice(c, rec.base_rows, visible), want);
            }
        }
        prop_assert_eq!(visible, db.tables()[t].num_rows());
    }
}
