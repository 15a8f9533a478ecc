//! Flattened task graphs.
//!
//! The executor works on a flat, index-addressed form of the plan tree:
//! one [`TaskNode`] per operator, children before parents (postorder), the
//! root last. Query chopping (Section 5.2) falls out naturally: leaves
//! have no dependencies and enter the operator stream immediately; every
//! other task enters when its last child finishes.

use crate::batch::{Chunk, Group, LazyChunk, SelVec};
use crate::ops;
use crate::parallel::ParallelCtx;
use crate::plan::{JoinKind, Op, PlanNode};
use robustq_sim::OpClass;
use robustq_storage::Database;
use std::ops::Range;
use std::sync::Arc;

/// A standing query's window: the rows `[lo, hi)` of the named table a
/// tick reads ([`Op::scan_rows`]).
pub type Window<'a> = (&'a str, usize, usize);

/// Which shard pipeline of a fan-out a task belongs to: shard `index` of
/// `of` equal row-range partitions of the spine's leaf scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: u32,
    /// Total number of shards the operator was split into.
    pub of: u32,
}

impl ShardSpec {
    /// The half-open row range this shard covers out of `rows` total rows.
    /// Ranges of consecutive shards are disjoint, ordered and exhaustive.
    pub fn row_range(&self, rows: usize) -> Range<usize> {
        let of = self.of.max(1) as usize;
        let lo = rows * self.index as usize / of;
        let hi = rows * (self.index as usize + 1) / of;
        lo..hi
    }

    /// Bytes of this shard's slice of a `full`-byte column: the floor
    /// split of [`ShardSpec::row_range`], in bytes. A shard reads, stages
    /// and is charged exactly this much of each column; the slices of all
    /// `of` shards sum to `full`.
    pub fn slice_bytes(&self, full: u64) -> u64 {
        robustq_sim::partition_bytes(full, self.index, self.of)
    }
}

/// How much of its operator a task runs. Every task of a flattened plan
/// is [`Role::Whole`]; shard expansion at admission — never planning —
/// runs the one shared payload of a query's spine in parts instead
/// (DESIGN.md §6): shard pipeline `i` of `of` is the spine with its leaf
/// scan cut to partition `i`, beside its own copies of the build sides
/// the spine's joins read. A spine may be its leaf alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The whole operator.
    Whole,
    /// An operator on the spine of a shard pipeline. Its leaf scan
    /// evaluates the pushed predicate over its [`ShardSpec::row_range`]
    /// only and computes what the whole scan would over those rows (the
    /// output columns through the selection); every operator above runs
    /// whole over its pipeline's inputs. The executor hands on only the
    /// task's live columns, those read above it
    /// ([`LazyChunk::keep_live`]; DESIGN.md §6).
    Spine(ShardSpec),
    /// A copy, in one shard pipeline, of a task of a build side one of the
    /// spine's joins reads: runs whole and reads whole columns. It only
    /// *follows* its shard (to the shard's device); it reads no partition.
    Replica(ShardSpec),
    /// Merge barrier of a fan-out: concatenates its pipelines' (disjoint,
    /// ordered) outputs in shard order with [`LazyChunk::concat`], so the
    /// union is byte-identical to the unsharded output's live columns —
    /// same rows, same order, same string dictionaries. Reads no base
    /// column itself.
    Merge,
}

impl Role {
    /// The partition of its base columns a task reads: a spine task's
    /// (of those only the leaf scan reads any). Replicas and whole tasks
    /// read whole columns.
    pub fn partition(self) -> Option<ShardSpec> {
        match self {
            Role::Spine(s) => Some(s),
            _ => None,
        }
    }

    /// The shard pipeline a task belongs to, and so follows: a spine
    /// task's or a replica's.
    pub fn pipeline(self) -> Option<ShardSpec> {
        match self {
            Role::Spine(s) | Role::Replica(s) => Some(s),
            _ => None,
        }
    }
}

impl Op {
    /// Execute the kernel given the children's fully materialized outputs
    /// (build side first for joins), materializing the result. The
    /// one-operator-at-a-time interpreter [`crate::ops::execute_plan`] is
    /// this over a flattened plan; it shares the kernels with
    /// [`Op::execute_lazy`] but none of its selection-vector plumbing,
    /// which is what makes it the oracle the lazy executor is tested
    /// against.
    pub fn execute_ctx(
        &self,
        children: &[Chunk],
        db: &Database,
        ctx: ParallelCtx,
    ) -> Result<Chunk, String> {
        match self {
            Op::Scan { columns, predicate, .. } => {
                let chunk = self.scan_base(db)?;
                let out = ops::project::keep_columns(&chunk, columns)?;
                match predicate {
                    Some(p) => {
                        Ok(out.gather(ops::select::select(&chunk, None, p, ctx)?.positions()))
                    }
                    None => Ok(out),
                }
            }
            Op::Select { predicate } => {
                let sel = ops::select::select(&children[0], None, predicate, ctx)?;
                Ok(children[0].gather(sel.positions()))
            }
            Op::HashJoin { build_key, probe_key, kind } => {
                let (build, probe) = (&children[0], &children[1]);
                let (probe_idx, build_idx) = ops::join::hash_join(
                    (build, None),
                    (probe, None),
                    build_key,
                    probe_key,
                    *kind,
                    ctx,
                    None,
                )?;
                let out = probe.gather(&probe_idx);
                Ok(if *kind == JoinKind::Inner { out.zip(build.gather(&build_idx)) } else { out })
            }
            Op::Project { exprs } => ops::project::project(&children[0], None, exprs),
            Op::Aggregate { group_by, aggs } => {
                ops::agg::aggregate(&children[0], None, group_by, aggs, ctx)
            }
            Op::Sort { keys, limit } => ops::sort::sort(&children[0], keys, *limit),
        }
    }

    /// Execute the whole operator over lazily-filtered inputs, producing a
    /// lazy output — the executor's late-materialization path:
    /// [`Op::execute_windowed`] as [`Role::Whole`] with no window.
    pub fn execute_lazy(
        &self,
        children: &[LazyChunk],
        db: &Database,
        ctx: ParallelCtx,
    ) -> Result<LazyChunk, String> {
        self.execute_windowed(Role::Whole, children, db, ctx, None)
    }

    /// The lazy interpreter: this operator run as `role`, optionally
    /// restricted to a standing-query window. A scan reads the rows
    /// [`Op::scan_rows`] names — a window's `[lo, hi)` of the table it
    /// names (scans of other tables, e.g. static dimension tables, read
    /// everything), then a spine leaf's partition of those — out of the
    /// table's shared chunk, so a window covering the whole table is
    /// bit-identical to a plain run.
    ///
    /// No operator copies a column it does not read. A scan hands on the
    /// table's own (shared) columns, filtered ones behind a selection
    /// vector that a `Select` refines in place; a join composes the
    /// positions of every column group of both inputs with what matched, so
    /// its output is those groups side by side, neither side gathered;
    /// `Project`, `Aggregate` and `Sort` read the columns they name through
    /// [`LazyChunk::read`]. Whole rows are assembled where they leave the
    /// plan (and by a sort, of the rows it keeps). Every output is
    /// bit-identical to the materializing [`Op::execute_ctx`] on
    /// materialized children, names and error strings included, and
    /// reports the same logical `num_rows`/`byte_size`, so simulated timing
    /// and golden figures are unchanged.
    pub fn execute_windowed(
        &self,
        role: Role,
        children: &[LazyChunk],
        db: &Database,
        ctx: ParallelCtx,
        window: Option<Window<'_>>,
    ) -> Result<LazyChunk, String> {
        Ok(match self {
            // The spine's pipelines, in shard order: ordered, disjoint probe
            // ranges, so their concatenation is the whole spine's output.
            _ if role == Role::Merge => LazyChunk::concat(children)?,
            Op::Scan { columns, predicate, .. } => {
                let chunk = self.scan_base(db)?;
                // A leaf runs the one selection kernel over exactly the
                // rows it reads, or without a predicate those rows
                // themselves, as a run. The predicate reads the chunk of
                // every read column; the output shares only the output
                // columns with it.
                let rows = self.scan_rows(role, window, chunk.num_rows());
                let sel = match predicate {
                    Some(p) => ops::select::select_range(&chunk, rows, p, ctx)?,
                    None => SelVec::run(rows.start as u32..rows.end as u32),
                };
                scan_output(chunk, columns, sel)?
            }
            Op::Select { predicate } => LazyChunk::Groups(match children[0].groups() {
                // An already filtered input is refined (AND short-circuit),
                // not rescanned: the positions that survive are the output's.
                [Group { base, sel }] => {
                    let sel = ops::select::select(base, Some(sel), predicate, ctx)?;
                    vec![Group { base: Arc::clone(base), sel }]
                }
                // Else the predicate's columns, gathered, say which rows of
                // the stream every group keeps.
                _ => {
                    let names = names_of(|mut f| predicate.for_each_column(&mut f));
                    let named = children[0].gather(&names);
                    let keep = ops::select::select(&named, None, predicate, ctx)?;
                    children[0].compose(keep.into_positions())
                }
            }),
            Op::HashJoin { build_key, probe_key, kind } => {
                // Each key is read through the one group that holds it;
                // what matched then picks rows of every group alike.
                let (build, probe) = (&children[0], &children[1]);
                let (b, build_sel) = build.read(&[build_key]);
                let (p, probe_sel) = probe.read(&[probe_key]);
                let (probe_idx, build_idx) = ops::join::hash_join(
                    (&b, build_sel),
                    (&p, probe_sel),
                    build_key,
                    probe_key,
                    *kind,
                    ctx,
                    Some(db),
                )?;
                match kind {
                    JoinKind::Inner => LazyChunk::zip(probe, probe_idx, build, build_idx),
                    JoinKind::Semi | JoinKind::Anti => LazyChunk::Groups(probe.compose(probe_idx)),
                }
            }
            Op::Project { exprs } => {
                let names = names_of(|mut f| exprs.iter().for_each(|(_, e)| e.for_each_column(&mut f)));
                let (base, sel) = children[0].read(&names);
                ops::project::project(&base, sel, exprs)?.into()
            }
            Op::Aggregate { group_by, aggs } => {
                let names = names_of(|mut f| {
                    group_by.iter().for_each(|g| f(g));
                    aggs.iter().for_each(|a| a.input.for_each_column(&mut f));
                });
                let (base, sel) = children[0].read(&names);
                ops::agg::aggregate(&base, sel, group_by, aggs, ctx)?.into()
            }
            // The keys alone decide the order; only the rows kept are assembled.
            Op::Sort { keys, limit } => {
                let names = names_of(|f| keys.iter().for_each(|k| f(&k.column)));
                let (base, sel) = children[0].read(&names);
                let order = ops::sort::order(&base, sel, keys, *limit)?;
                children[0].rows_at(&order).into()
            }
        })
    }

    /// The base chunk of a scan: every column it reads, the table's own
    /// buffers, shared.
    fn scan_base(&self, db: &Database) -> Result<Chunk, String> {
        let (table, read_cols) = self.scan_access().expect("scan op");
        let t = db.table(table).ok_or_else(|| format!("no table {table}"))?;
        Chunk::from_table(t, read_cols)
    }

    /// The rows of its `rows`-row table a scan run as `role` reads: a
    /// window's `[lo, hi)` when `window` names the scan's table (every
    /// row otherwise), clamped to the table, then a spine leaf's
    /// [`ShardSpec::row_range`] of those. The one description of what a
    /// leaf reads: the kernel selects these rows, and admission estimates
    /// and charges their share (DESIGN.md §6).
    pub fn scan_rows(
        &self,
        role: Role,
        window: Option<Window<'_>>,
        rows: usize,
    ) -> Range<usize> {
        let (table, _) = self.scan_access().expect("scan op");
        let (lo, hi) = match window {
            Some((name, lo, hi)) if name == table => (lo.min(hi).min(rows), hi.min(rows)),
            _ => (0, rows),
        };
        match role.partition() {
            Some(shard) => {
                let part = shard.row_range(hi - lo);
                lo + part.start..lo + part.end
            }
            None => lo..hi,
        }
    }
}

/// The names `visit` hands its callback, in one list of exactly their
/// number (what an operator reads, in the order it names them).
fn names_of<'a>(visit: impl Fn(&mut dyn FnMut(&'a str))) -> Vec<&'a str> {
    let mut n = 0;
    visit(&mut |_| n += 1);
    let mut names = Vec::with_capacity(n);
    visit(&mut |name| names.push(name));
    names
}

/// The lazy output of a scan: the output `columns` of `base` seen
/// through `sel`, nothing gathered. Predicate-only columns stay behind in
/// `base`, so the logical byte size counts the output columns only; a
/// base that reads nothing else (the read list starts with the outputs)
/// is the output as it is. A selection covering every row is returned
/// dense.
fn scan_output(base: Chunk, columns: &[String], sel: SelVec) -> Result<LazyChunk, String> {
    let out = match base {
        base if base.num_columns() == columns.len() => base,
        base => ops::project::keep_columns(&base, columns)?,
    };
    Ok(match sel.len() < out.num_rows() {
        true => LazyChunk::Groups(vec![Group { base: Arc::new(out), sel }]),
        false => LazyChunk::Materialized(out),
    })
}

/// One node of a flattened plan: the plan's own operator, the part of it
/// this task runs, and its edges.
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// The operator payload, shared with the plan it was flattened from.
    pub op: Arc<Op>,
    /// How much of `op` this task runs.
    pub role: Role,
    /// Indices (within the same flattened plan) of the children, build
    /// side first for joins.
    pub children: Vec<usize>,
    /// Index of the parent; `None` for the root.
    pub parent: Option<usize>,
}

impl TaskNode {
    /// Cost-model class: the operator's, except that a merge only
    /// concatenates what its children computed.
    pub fn op_class(&self) -> OpClass {
        match self.role {
            Role::Merge => OpClass::Projection,
            _ => self.op.op_class(),
        }
    }

    /// For scans, in any role but the merge's: [`Op::scan_access`]. A
    /// merge reads no base column.
    pub fn scan_access(&self) -> Option<(&str, &[String])> {
        match self.role {
            Role::Merge => None,
            _ => self.op.scan_access(),
        }
    }
}

/// Flatten a plan tree into postorder task nodes, each holding the plan's
/// own `Arc<Op>`; the root is the last entry.
pub fn flatten(plan: &PlanNode) -> Vec<TaskNode> {
    fn rec(node: &PlanNode, out: &mut Vec<TaskNode>) -> usize {
        let children: Vec<usize> = node.children().iter().map(|c| rec(c, out)).collect();
        let idx = out.len();
        for &c in &children {
            out[c].parent = Some(idx);
        }
        out.push(TaskNode { op: Arc::clone(node.op()), role: Role::Whole, children, parent: None });
        idx
    }
    let mut out = Vec::with_capacity(plan.num_operators());
    rec(plan, &mut out);
    out
}

/// Run `step` over a flattened plan in postorder, handing every task the
/// outputs of its children (moved out: each node has exactly one parent),
/// and return the root's output.
pub fn run_postorder<T>(
    tasks: &[TaskNode],
    mut step: impl FnMut(&TaskNode, Vec<T>) -> Result<T, String>,
) -> Result<T, String> {
    let mut outputs: Vec<Option<T>> = tasks.iter().map(|_| None).collect();
    for (i, task) in tasks.iter().enumerate() {
        let children = task
            .children
            .iter()
            .map(|&c| outputs[c].take().expect("postorder guarantees children done"))
            .collect();
        outputs[i] = Some(step(task, children)?);
    }
    Ok(outputs.pop().flatten().expect("root is last in postorder"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::AggSpec;
    use crate::predicate::Predicate;

    fn plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .join(
                PlanNode::scan("date", ["d_datekey", "d_year"]),
                "lo_orderdate",
                "d_datekey",
            )
            .aggregate(["d_year"], vec![AggSpec::sum(Expr::col("lo_revenue"), "r")])
    }

    #[test]
    fn flatten_is_postorder_with_root_last() {
        let tasks = flatten(&plan());
        assert_eq!(tasks.len(), 4);
        let root = tasks.last().unwrap();
        assert!(matches!(*root.op, Op::Aggregate { .. }));
        assert!(root.parent.is_none());
        // Every child index precedes its parent.
        for (i, t) in tasks.iter().enumerate() {
            for &c in &t.children {
                assert!(c < i);
                assert_eq!(tasks[c].parent, Some(i));
            }
        }
    }

    #[test]
    fn join_children_are_build_then_probe() {
        let tasks = flatten(&plan());
        let join = tasks
            .iter()
            .find(|t| matches!(*t.op, Op::HashJoin { .. }))
            .unwrap();
        assert_eq!(join.children.len(), 2);
        let build = &tasks[join.children[0]];
        assert_eq!(build.scan_access().map(|(table, _)| table), Some("date"));
    }

    #[test]
    fn leaves_have_no_children() {
        let tasks = flatten(&plan());
        let leaves: Vec<_> = tasks.iter().filter(|t| t.children.is_empty()).collect();
        assert_eq!(leaves.len(), 2);
        assert!(leaves.iter().all(|t| matches!(*t.op, Op::Scan { .. })));
    }

    #[test]
    fn lazy_execution_matches_plan_execution() {
        use robustq_storage::gen::ssb::SsbGenerator;
        let db = SsbGenerator::new(1).with_rows_per_sf(500).generate();
        let p = plan();
        let direct = crate::ops::execute_plan(&p, &db).unwrap();

        let via_tasks =
            crate::ops::execute_plan_fused(&p, &db, ParallelCtx::serial()).unwrap();
        assert_eq!(direct, via_tasks);
    }

    #[test]
    fn shard_ranges_partition_the_rows() {
        for rows in [0usize, 1, 7, 100] {
            for of in [1u32, 2, 3, 4, 7] {
                let mut covered = 0;
                for index in 0..of {
                    let r = ShardSpec { index, of }.row_range(rows);
                    assert_eq!(r.start, covered);
                    covered = r.end;
                }
                assert_eq!(covered, rows, "rows={rows} of={of}");
            }
        }
    }

    #[test]
    fn a_spine_runs_in_parts_and_its_merge_is_the_whole_join() {
        use robustq_storage::gen::ssb::SsbGenerator;
        let db = SsbGenerator::new(1).with_rows_per_sf(101).generate();
        // Tasks: 0 date scan (build), 1 lineorder scan (probe), 2 join,
        // 3 aggregate.
        let tasks = flatten(&plan());
        let ctx = ParallelCtx::serial();
        let run = |t: usize, role, children: &[LazyChunk]| {
            tasks[t].op.execute_windowed(role, children, &db, ctx, None).unwrap()
        };
        let date = run(0, Role::Whole, &[]);
        let whole = run(2, Role::Whole, &[date, run(1, Role::Whole, &[])]);
        let parts: Vec<LazyChunk> = (0..3)
            .map(|index| {
                let spec = ShardSpec { index, of: 3 };
                let leaf = run(1, Role::Spine(spec), &[]);
                // A spine leaf hands on the scan's output columns only.
                assert_eq!(leaf.groups()[0].base.fields().len(), 2);
                run(2, Role::Spine(spec), &[run(0, Role::Replica(spec), &[]), leaf])
            })
            .collect();
        assert!(parts.iter().all(|p| p.num_rows() < whole.num_rows()));
        let merged = run(2, Role::Merge, &parts);
        assert_eq!((merged.num_rows(), merged.byte_size()), (whole.num_rows(), whole.byte_size()));
        assert_eq!(merged.clone().materialize(), whole.clone().materialize());
        let aggregate = |input| run(3, Role::Whole, &[input]).materialize();
        assert_eq!(aggregate(merged), aggregate(whole));
    }
}
