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
//!
//! An operator is likewise one `Op` with one identity (DESIGN.md §5): a
//! cloned plan, its flattened tasks and every shard of a sharded scan
//! hold the template plan's own `Arc<Op>`, and a run hands them all back.
//! A clone holds its root's `Op` and shares the child list below it, so
//! the operators under the root gain no reference from it.

use robustq::core::{DataDrivenChopping, DataPlacementManager};
use robustq::engine::exec::task::flatten;
use robustq::engine::plan::{JoinKind, Op, PlanNode};
use robustq::engine::predicate::Predicate;
use robustq::engine::batch::Group;
use robustq::engine::{Chunk, Executor, LazyChunk, ParallelCtx, Schedule};
use robustq::serve::{ArrivalProcess, QueryMix, ServeConfig, ServingRunner};
use robustq::sim::{CacheSet, SimConfig, VirtualTime};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::{ColumnData, Database, DictColumn, Table};
use robustq::workloads::{ssb, RunPhase, RunnerConfig, WorkloadRunner};
use std::sync::Arc;

fn db() -> Database {
    SsbGenerator::new(1).with_rows_per_sf(2_000).generate()
}

fn scan(columns: &[&str], predicate: Option<Predicate>) -> Op {
    Op::scan("lineorder", columns.iter().map(|c| c.to_string()).collect(), predicate)
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
    let [Group { base, sel }] = filtered.groups() else {
        panic!("a selective scan stays positional, one group");
    };
    assert!(!sel.is_empty() && sel.len() < base.num_rows());
    assert_eq!(base.num_columns(), 1, "predicate-only columns stay behind");
    assert_is_table_buffer(&db, base, "lo_revenue");

    // A join hands on positions: its output is the groups of both sides,
    // each still the table's own buffers (the build side's under the names
    // the join gives them), and so is a join of that.
    let dim = |table: &str, columns: &[&str]| {
        let columns = columns.iter().map(|c| c.to_string()).collect();
        Op::scan(table, columns, None).execute_lazy(&[], &db, ctx).unwrap()
    };
    let join = |build: LazyChunk, probe: LazyChunk, build_key: &str, probe_key: &str| {
        let (build_key, probe_key) = (build_key.to_string(), probe_key.to_string());
        Op::HashJoin { build_key, probe_key, kind: JoinKind::Inner }
            .execute_lazy(&[build, probe], &db, ctx)
            .unwrap()
    };
    let fact = scan(&["lo_orderdate", "lo_custkey", "lo_revenue"], None).execute_lazy(&[], &db, ctx);
    let dated = join(dim("date", &["d_datekey", "d_year"]), fact.unwrap(), "d_datekey", "lo_orderdate");
    let joined = join(dim("customer", &["c_custkey", "c_region"]), dated, "c_custkey", "lo_custkey");
    let tables = ["lineorder", "date", "customer"];
    assert_eq!(joined.groups().len(), tables.len());
    for (group, table) in joined.groups().iter().zip(tables) {
        let table = db.table(table).unwrap();
        for (field, held) in group.base.fields().iter().zip(group.base.columns()) {
            let stored = &table.columns()[table.schema().index_of(&field.name).unwrap()];
            assert!(Arc::ptr_eq(stored, held), "{} was copied", field.name);
        }
    }
    assert_eq!(joined.num_rows(), db.table("lineorder").unwrap().num_rows());
}

/// `schedule` run to completion on K = 2 co-processors with every scan
/// sharded two ways (the run must really have fanned out).
fn run_sharded(db: &Database, schedule: impl Into<Schedule>) {
    let schedule = schedule.into();
    let operators: usize = schedule
        .sessions
        .iter()
        .flatten()
        .chain(schedule.arrivals.iter().map(|a| &a.plan))
        .map(PlanNode::num_operators)
        .sum();
    let offered = schedule.offered();
    let sim = SimConfig::default().with_coprocessors(2);
    let cfg = RunnerConfig::default().with_users(2).with_sharding(2, 0.0);
    let mut policy =
        DataDrivenChopping::with_manager(DataPlacementManager::lfu().with_sharding(2, 64 * 1024));
    let mut cache = CacheSet::for_topology(&sim.topology, sim.cache_policy);
    let outcome = Executor::new(db, sim)
        .run_with_cache(schedule, &mut policy, &cfg.exec_options(RunPhase::Measured), &mut cache)
        .expect("sharded run");
    assert_eq!(outcome.outcomes.len(), offered);
    let tasks: u64 = outcome.metrics.ops_completed.iter().map(|(_, &n)| n).sum();
    assert!(tasks > operators as u64, "no scan was sharded");
}

#[test]
fn a_run_leaves_every_table_column_uniquely_owned() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    run_sharded(&db, WorkloadRunner::sessions(&queries, 2));
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

/// Every operator of `plan`, in `flatten`'s (post)order.
fn ops_of(plan: &PlanNode) -> Vec<&Arc<Op>> {
    let mut ops: Vec<_> = plan.children().iter().flat_map(ops_of).collect();
    ops.push(plan.op());
    ops
}

#[test]
fn clones_and_flattened_tasks_hold_the_plans_own_ops() {
    let db = db();
    for plan in ssb::workload(&db).expect("SSB plans") {
        let ops = ops_of(&plan);
        assert_eq!(ops.len(), plan.num_operators());
        let clone = plan.clone();
        let tasks = flatten(&plan);
        assert_eq!(tasks.len(), ops.len());
        for ((op, cloned), task) in ops.iter().zip(ops_of(&clone)).zip(&tasks) {
            assert!(Arc::ptr_eq(op, cloned), "{} was copied by clone", op.label());
            assert!(Arc::ptr_eq(op, &task.op), "{} was copied by flatten", op.label());
        }
    }
}

#[test]
fn a_run_hands_every_op_back_to_its_template() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let counts = |queries: &[PlanNode]| -> Vec<usize> {
        queries.iter().flat_map(ops_of).map(Arc::strong_count).collect()
    };
    let before = counts(&queries);
    assert!(before.iter().all(|&c| c == 1), "a fresh template owns its ops");
    // Every operator under the roots is referenced by its template alone.
    let spines_shared =
        |queries: &[PlanNode]| queries.iter().all(|q| counts(q.children()).iter().all(|&c| c == 1));

    // Closed loop: the sessions share the templates while they wait.
    let sessions = WorkloadRunner::sessions(&queries, 2);
    assert!(queries.iter().all(|q| Arc::strong_count(q.op()) == 2));
    assert!(spines_shared(&queries));
    run_sharded(&db, sessions);
    assert_eq!(counts(&queries), before, "closed loop");

    // Open loop: an arrival schedule drawn from a mix of the templates.
    let mix = QueryMix::zipf(queries.clone(), 1.0);
    let serve = ServeConfig::new(
        ArrivalProcess::Poisson { rate_qps: 20_000.0 },
        VirtualTime::from_millis(2),
    );
    let arrivals = ServingRunner::arrivals(&mix, &serve);
    assert!(arrivals.len() > queries.len());
    let held: usize = counts(&queries).iter().sum();
    let expected = before.len() + queries.len() + arrivals.len();
    assert_eq!(held, expected, "one reference per arrival, to its root's op: nothing copied");
    assert!(spines_shared(&queries));
    run_sharded(&db, arrivals);
    drop(mix);
    assert_eq!(counts(&queries), before, "open loop");
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
            .map(|i| match &*t.schema().field(i).name {
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
