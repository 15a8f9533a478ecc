//! A perf gate with no clock in it: how many bytes the scan path may
//! allocate, counted by a `#[global_allocator]`.
//!
//! Columns are shared, never copied (DESIGN.md §3, §5): a scan hands on
//! the table's buffers, a filtered or sharded scan adds position lists
//! only, and cloning or projecting a chunk touches no row. Each budget
//! below sits far under one copy of the columns the operation reads, so
//! any reintroduced column copy trips it on every host alike.

use robustq::engine::exec::task::{ShardSpec, TaskOp};
use robustq::engine::ops::project::keep_columns;
use robustq::engine::predicate::Predicate;
use robustq::engine::{Chunk, LazyChunk, ParallelCtx};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread requests (frees and shrinks are not
/// subtracted: the budget is on traffic, not on the high-water mark).
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // The slot is gone while a thread tears down; those bytes are nobody's.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocated while running `f`.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const ROWS: usize = 100_000;
/// Bookkeeping a scan may allocate whatever the row count: field names,
/// column handles, the chunk itself.
const FIXED: u64 = 4 * 1024;
/// Position-list bytes per scanned row: a `u32` per qualifying row, held
/// at most three times over (shard lists, the merged list, growth slack).
const PER_ROW: u64 = 12;

fn lineorder() -> Database {
    SsbGenerator::new(1).with_rows_per_sf(ROWS).generate()
}

const COLUMNS: [&str; 4] = ["lo_orderdate", "lo_quantity", "lo_extendedprice", "lo_revenue"];

fn columns() -> Vec<String> {
    COLUMNS.iter().map(|c| c.to_string()).collect()
}

/// Selects about half the rows on a predicate-only column.
fn predicate() -> Option<Predicate> {
    Some(Predicate::between("lo_discount", 0, 5))
}

/// Bytes of one copy of the columns a scan of `COLUMNS` + `lo_discount`
/// reads — what every budget must stay below.
fn one_copy(db: &Database) -> u64 {
    let t = db.table("lineorder").unwrap();
    COLUMNS.iter().chain(&["lo_discount"]).map(|c| t.column(c).unwrap().byte_size()).sum()
}

#[test]
fn an_unfiltered_scan_allocates_no_row_data() {
    let db = lineorder();
    let scan = TaskOp::Scan { table: "lineorder".into(), columns: columns(), predicate: None };
    let (out, bytes) = allocated(|| scan.execute_lazy(&[], &db, ParallelCtx::serial()).unwrap());
    assert_eq!(out.num_rows(), ROWS);
    assert!(bytes < FIXED, "an unfiltered scan of {ROWS} rows allocated {bytes} B");
}

#[test]
fn a_filtered_scan_allocates_positions_only() {
    let db = lineorder();
    let budget = PER_ROW * ROWS as u64 + FIXED;
    assert!(budget < one_copy(&db), "the budget must stay below one copy of the read columns");
    let scan =
        TaskOp::Scan { table: "lineorder".into(), columns: columns(), predicate: predicate() };
    let (out, bytes) = allocated(|| scan.execute_lazy(&[], &db, ParallelCtx::serial()).unwrap());
    assert!(out.num_rows() > ROWS / 4 && out.num_rows() < ROWS);
    assert!(bytes <= budget, "a filtered scan of {ROWS} rows allocated {bytes} B > {budget} B");
}

#[test]
fn a_sharded_scan_and_its_merge_allocate_positions_only() {
    let db = lineorder();
    let budget = PER_ROW * ROWS as u64 + FIXED;
    let ctx = ParallelCtx::serial();
    for predicate in [None, predicate()] {
        for of in [2u32, 4] {
            let (merged, bytes) = allocated(|| {
                let shards: Vec<LazyChunk> = (0..of)
                    .map(|index| {
                        TaskOp::ScanShard {
                            table: "lineorder".into(),
                            columns: columns(),
                            predicate: predicate.clone(),
                            shard: ShardSpec { index, of },
                        }
                        .execute_lazy(&[], &db, ctx)
                        .unwrap()
                    })
                    .collect();
                TaskOp::MergeShards { columns: columns() }.execute_lazy(&shards, &db, ctx).unwrap()
            });
            assert!(merged.num_rows() > ROWS / 4);
            assert!(
                bytes <= budget,
                "{of} shards + merge over {ROWS} rows allocated {bytes} B > {budget} B"
            );
        }
    }
}

#[test]
fn cloning_and_projecting_a_chunk_touch_no_row() {
    let db = lineorder();
    let chunk = Chunk::from_table(db.table("lineorder").unwrap(), &COLUMNS).unwrap();
    let (clone, bytes) = allocated(|| chunk.clone());
    assert_eq!(clone.num_rows(), ROWS);
    assert!(bytes < FIXED, "Chunk::clone of {ROWS} rows allocated {bytes} B");
    let (kept, bytes) = allocated(|| keep_columns(&chunk, &columns()[1..3]).unwrap());
    assert_eq!((kept.num_rows(), kept.num_columns()), (ROWS, 2));
    assert!(bytes < FIXED, "keep_columns over {ROWS} rows allocated {bytes} B");
}
