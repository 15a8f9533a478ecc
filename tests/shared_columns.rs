//! A base column is one buffer with one identity (DESIGN.md §3): storage,
//! chunks and intermediates share it by reference count, and only an
//! append that finds a reader still holding it copies it.
//!
//! * a scan hands on the table's own buffers — pointer-identical, dense
//!   or behind a selection vector;
//! * a whole run leaves every table column uniquely owned again, so
//!   appends keep writing in place;
//! * an append while a chunk is alive is copy-on-write: the chunk keeps
//!   the pre-append column, the table grows.

use robustq::core::{DataDrivenChopping, DataPlacementManager};
use robustq::engine::exec::task::TaskOp;
use robustq::engine::predicate::Predicate;
use robustq::engine::{Chunk, Executor, LazyChunk, ParallelCtx};
use robustq::sim::{CacheSet, SimConfig};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::{ColumnData, Database, DictColumn, Table};
use robustq::workloads::{ssb, RunPhase, RunnerConfig, WorkloadRunner};
use std::sync::Arc;

fn db() -> Database {
    SsbGenerator::new(1).with_rows_per_sf(2_000).generate()
}

fn scan(columns: &[&str], predicate: Option<Predicate>) -> TaskOp {
    TaskOp::Scan {
        table: "lineorder".into(),
        columns: columns.iter().map(|c| c.to_string()).collect(),
        predicate,
    }
}

/// Column `name` of `chunk` is the very buffer `lineorder` stores.
fn assert_is_table_buffer(db: &Database, chunk: &Chunk, name: &str) {
    let table = db.table("lineorder").unwrap();
    let stored = &table.columns()[table.schema().index_of(name).unwrap()];
    let held = &chunk.columns()[chunk.index_of(name).unwrap()];
    assert!(Arc::ptr_eq(stored, held), "{name} was copied");
}

#[test]
fn scans_hand_on_the_tables_own_buffers() {
    let db = db();
    let ctx = ParallelCtx::serial();

    let dense = scan(&["lo_orderdate", "lo_revenue"], None).execute_lazy(&[], &db, ctx).unwrap();
    let LazyChunk::Materialized(chunk) = &dense else {
        panic!("a predicate-less scan is dense");
    };
    assert_is_table_buffer(&db, chunk, "lo_orderdate");
    assert_is_table_buffer(&db, chunk, "lo_revenue");

    let filtered = scan(&["lo_revenue"], Some(Predicate::between("lo_discount", 1, 3)))
        .execute_lazy(&[], &db, ctx)
        .unwrap();
    let LazyChunk::Filtered { base, sel } = &filtered else {
        panic!("a selective scan stays positional");
    };
    assert!(!sel.is_empty() && sel.len() < base.num_rows());
    assert_eq!(base.num_columns(), 1, "predicate-only columns stay behind");
    assert_is_table_buffer(&db, base, "lo_revenue");
}

#[test]
fn a_run_leaves_every_table_column_uniquely_owned() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let sim = SimConfig::default().with_coprocessors(2);
    let cfg = RunnerConfig::default().with_users(2).with_sharding(2, 0.0);
    let mut policy =
        DataDrivenChopping::with_manager(DataPlacementManager::lfu().with_sharding(2, 64 * 1024));
    let mut cache = CacheSet::for_topology(&sim.topology, sim.cache_policy);
    let outcome = Executor::new(&db, sim)
        .run_with_cache(
            WorkloadRunner::sessions(&queries, 2),
            &mut policy,
            &cfg.exec_options(RunPhase::Measured),
            &mut cache,
        )
        .expect("sharded run");
    assert_eq!(outcome.outcomes.len(), queries.len());
    for table in db.tables() {
        for (field, column) in table.schema().fields().iter().zip(table.columns()) {
            assert_eq!(
                Arc::strong_count(column),
                1,
                "{}.{} is still shared after the run",
                table.name(),
                field.name
            );
        }
    }
}

#[test]
fn appends_are_copy_on_write_under_a_live_chunk_and_in_place_otherwise() {
    fn customer(db: &Database) -> &Table {
        db.table("customer").unwrap()
    }
    let mut db = db();
    // Two more customers, from a region the dictionary has not seen.
    let batch = |db: &Database, region: &str| -> Vec<ColumnData> {
        let t = customer(db);
        (0..t.num_columns())
            .map(|i| match t.schema().field(i).name.as_str() {
                "c_region" => ColumnData::Str(DictColumn::from_strings([region, region])),
                _ => t.column_slice(i, 0, 2),
            })
            .collect()
    };
    let region = |chunk: &Chunk| match chunk.column("c_region").unwrap() {
        ColumnData::Str(d) => d.clone(),
        _ => unreachable!("c_region is a string column"),
    };
    let rows = customer(&db).num_rows();

    // A reader holds two columns across the append: it keeps seeing the
    // pre-append table, dictionary included.
    let chunk = Chunk::from_table(customer(&db), &["c_custkey", "c_region"]).unwrap();
    let snapshot = chunk.gather(&(0..rows as u32).collect::<Vec<_>>());
    let (checksum, dict_len) = (chunk.checksum(), region(&chunk).dict().len());
    let appended = batch(&db, "ATLANTIS");
    db.append_batch("customer", appended).unwrap();
    assert_eq!(customer(&db).num_rows(), rows + 2);
    assert_eq!((&chunk, chunk.checksum()), (&snapshot, checksum));
    assert_eq!(region(&chunk).dict().len(), dict_len);
    assert_eq!(region(&chunk).code_of("ATLANTIS"), None);
    let live = Chunk::from_table(customer(&db), &["c_region"]).unwrap();
    assert_eq!(region(&live).get(rows), "ATLANTIS");
    drop((chunk, live));

    // No reader: the append writes in place — same buffers, still unique.
    let buffers = |db: &Database| -> Vec<*const ColumnData> {
        customer(db).columns().iter().map(Arc::as_ptr).collect()
    };
    let held = buffers(&db);
    let appended = batch(&db, "LEMURIA");
    db.append_batch("customer", appended).unwrap();
    assert_eq!(customer(&db).num_rows(), rows + 4);
    assert_eq!(buffers(&db), held, "an unshared column was copied to append");
    for column in customer(&db).columns() {
        assert_eq!(Arc::strong_count(column), 1);
    }
}
