//! Session lifecycle and admission control.
//!
//! Sessions run closed-loop — each submits its next query when the
//! previous one completes — or open-loop, where a pre-computed arrival
//! schedule submits queries at fixed virtual-time instants regardless of
//! progress (DESIGN.md §10). Admission control (the reference mechanism
//! of Section 6.2.2) bounds how many queries execute concurrently;
//! queries waiting for admission accrue latency from their submission
//! instant. Under overload the queue-depth cap sheds submissions
//! instead of queueing unboundedly. Admission is also
//! where the placement policy speaks: a compile-time `plan_query` pass
//! at admission, and `place_ready` for every task the pass left
//! unannotated.

use crate::error::EngineError;
use crate::estimate;
use crate::exec::event_loop::{
    policy_ctx, Milestones, QueryState, Sim, Submission, TaskState,
};
use crate::exec::metrics::{FaultCounters, QueryOutcome};
use crate::exec::policy::{key_bytes, PolicyCtx, TaskInfo};
use crate::exec::task::{flatten, Role, ShardSpec, TaskNode, Window};
use crate::plan::{JoinKind, Op};
use robustq_sim::{DeviceId, Direction, VirtualTime};
use robustq_storage::Database;
use robustq_trace::{EstVec, PlacePhase, ShedReason, TraceEvent, TransferKind};
use std::sync::Arc;

/// The columns of its output a spine task hands on, with the share of its
/// estimated output width they make; `None`: every one.
type Live = Option<(Arc<[String]>, f64)>;

/// Rewrite a flattened task graph for intra-operator sharding (DESIGN.md
/// §6): one fan-out per query, of its **spine**.
///
/// The spine starts at the leaf scan that reads the most bytes of base
/// columns (under `window`, [`estimate::scan`]), if they are at least
/// `min_bytes`, and climbs through every ancestor it reaches as a
/// hash join's probe child (inner, semi or anti) or as a `Select`: the
/// row-wise operators, whose output over ordered, disjoint probe ranges
/// concatenates to their whole output. The spine's subtree — the spine
/// and the build sides its joins read — becomes `ways` shard pipelines:
/// the spine as [`Role::Spine`] tasks with the leaf cut to one partition,
/// beside [`Role::Replica`] copies of the build sides, reading whole
/// columns. One [`Role::Merge`] barrier takes the spine top's place in
/// the graph, just below the first operator that is not row-wise (an
/// aggregate, a sort, a join the spine is the build side of); a spine may
/// be its leaf alone. Every task runs the template's own shared `Op`.
/// Each spine task hands on only its [`live_columns`], listed by new
/// index in the second vector (`None`, or past its end: every column).
///
/// The rewrite preserves the postorder invariants (children before
/// parents, root last). It shapes the graph only: admission estimates
/// the graph it returns in one pass ([`estimate::postorder`]).
pub(crate) fn expand_shards(
    nodes: Vec<TaskNode>,
    ways: usize,
    min_bytes: f64,
    db: &Database,
    window: Option<Window<'_>>,
) -> (Vec<TaskNode>, Vec<Live>) {
    let leaf = (0..nodes.len())
        .filter(|&i| matches!(*nodes[i].op, Op::Scan { .. }))
        .map(|i| (i, estimate::scan(&nodes[i].op, db, window).input_bytes))
        .filter(|&(_, bytes)| bytes >= min_bytes)
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
    let Some((leaf, _)) = leaf.filter(|_| ways >= 2) else {
        return (nodes, Vec::new());
    };
    let mut on_spine = vec![false; nodes.len()];
    let mut top = leaf;
    on_spine[leaf] = true;
    while let Some(p) = nodes[top].parent {
        let row_wise = match *nodes[p].op {
            Op::HashJoin { .. } => nodes[p].children[1] == top,
            Op::Select { .. } => true,
            _ => false,
        };
        if !row_wise {
            break;
        }
        on_spine[p] = true;
        top = p;
    }
    // Postorder lays the spine top's subtree out contiguously, ending at
    // the top and starting at its leftmost leaf.
    let mut first = top;
    while let Some(&c) = nodes[first].children.first() {
        first = c;
    }
    let len = top + 1 - first;
    let merge = first + ways * len;
    let live = live_columns(&nodes, top, db);
    // New index of an old node outside the pipelines (the top's is the
    // merge's), and of old node `i` in pipeline `k`.
    let outside = |i: usize| if i < first { i } else { i + merge - top };
    let piped = |k: usize, i: usize| first + k * len + (i - first);
    let moved = |node: &TaskNode, role, index: &dyn Fn(usize) -> usize, parent| TaskNode {
        op: Arc::clone(&node.op),
        role,
        children: node.children.iter().map(|&c| index(c)).collect(),
        parent,
    };

    let whole = |node: &TaskNode| moved(node, Role::Whole, &outside, node.parent.map(outside));
    let mut out = Vec::with_capacity(merge + nodes.len() - top);
    let mut pruned = vec![None; first];
    out.extend(nodes[..first].iter().map(whole));
    for k in 0..ways {
        let spec = ShardSpec { index: k as u32, of: ways as u32 };
        for j in first..=top {
            let role = if on_spine[j] { Role::Spine(spec) } else { Role::Replica(spec) };
            let parent = match nodes[j].parent {
                Some(p) if j != top => piped(k, p),
                _ => merge,
            };
            out.push(moved(&nodes[j], role, &|c| piped(k, c), Some(parent)));
            pruned.push(live[j].clone());
        }
    }
    out.push(TaskNode {
        op: Arc::clone(&nodes[top].op),
        role: Role::Merge,
        children: (0..ways).map(|k| piped(k, top)).collect(),
        parent: nodes[top].parent.map(outside),
    });
    out.extend(nodes[top + 1..].iter().map(whole));
    (out, pruned)
}

/// The **live columns** of a fan-out's spine (DESIGN.md §6), by index of
/// `nodes`: for each spine task, below `top`, the columns of its output
/// an operator above it reads — a spine join's probe key, a `Select`'s
/// predicate, and above the top a join's key or a sort's keys, up to and
/// including the first aggregate or projection, whose keys and inputs
/// they are — with the share of its estimated output width they make
/// (the narrowest column's, when none is). `None` where every column is
/// live, and everywhere when no aggregate or projection closes the
/// query (its result is every column) or when a join of the query
/// renames a column ([`crate::batch::LazyChunk::zip`] suffixes a build
/// column its probe side already names): dropping one could change the
/// name a later join gives another. Without a rename a name is the same
/// column at every level.
fn live_columns(nodes: &[TaskNode], top: usize, db: &Database) -> Vec<Live> {
    let mut live = vec![None; nodes.len()];
    let mut read: Vec<&str> = Vec::new();
    let (mut below, mut above) = (top, nodes[top].parent);
    loop {
        let Some(p) = above else { return live };
        if !reads(&nodes[p], below, &mut read) {
            break;
        }
        (below, above) = (p, nodes[p].parent);
    }
    let Some(columns) = columns(nodes, db) else { return live };
    // Down the spine, from its top to its leaf.
    let mut j = top;
    loop {
        let out = &columns[j];
        let kept: Vec<&(&str, f64)> = out.iter().filter(|(name, _)| read.contains(name)).collect();
        if kept.len() < out.len() {
            let width: f64 = out.iter().map(|&(_, w)| w).sum();
            let kept_width = match kept.is_empty() {
                true => out.iter().map(|&(_, w)| w).fold(f64::INFINITY, f64::min),
                false => kept.iter().map(|&&(_, w)| w).sum(),
            };
            let share = if width > 0.0 { kept_width / width } else { 1.0 };
            live[j] = Some((kept.iter().map(|(name, _)| name.to_string()).collect(), share));
        }
        // A spine join's probe child, or a select's child, is on the spine.
        let Some(&child) = nodes[j].children.last() else { break };
        reads(&nodes[j], child, &mut read);
        j = child;
    }
    live
}

/// Note in `read` what `node` reads of its child `child`; whether it
/// hands that child's columns on (a semi or anti join hands on nothing of
/// its build side; an aggregate or a projection makes columns of its own).
fn reads<'a>(node: &'a TaskNode, child: usize, read: &mut Vec<&'a str>) -> bool {
    let mut note = |c| read.push(c);
    match &*node.op {
        Op::Select { predicate } => predicate.for_each_column(&mut note),
        Op::HashJoin { build_key, probe_key, kind } => {
            let probe = node.children[1] == child;
            note(if probe { probe_key } else { build_key });
            return probe || *kind == JoinKind::Inner;
        }
        Op::Sort { keys, .. } => keys.iter().for_each(|k| note(&k.column)),
        Op::Project { exprs } => {
            exprs.iter().for_each(|(_, e)| e.for_each_column(&mut note));
            return false;
        }
        Op::Aggregate { group_by, aggs } => {
            group_by.iter().for_each(|g| note(g));
            aggs.iter().for_each(|a| a.input.for_each_column(&mut note));
            return false;
        }
        Op::Scan { .. } => unreachable!("a scan has no child"),
    }
    true
}

/// Every task's output columns as `(name, width)`, the width as
/// `estimate::node` counts it; `None` when an inner join's build side
/// names a column its probe side already has, which the join renames.
fn columns<'a>(nodes: &'a [TaskNode], db: &Database) -> Option<Vec<Vec<(&'a str, f64)>>> {
    let mut out: Vec<Vec<(&'a str, f64)>> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let child = |i: usize| out[node.children[i]].clone();
        let eight = |name: &'a String| (name.as_str(), 8.0);
        let cols = match &*node.op {
            Op::Scan { table, columns, .. } => {
                let table = db.table(table);
                let width =
                    |c| table.and_then(|t| t.column(c)).map_or(0, |c| c.data_type().byte_width());
                columns.iter().map(|c| (c.as_str(), width(c) as f64)).collect()
            }
            Op::Select { .. } | Op::Sort { .. } => child(0),
            Op::HashJoin { kind: JoinKind::Inner, .. } => {
                let (mut cols, build) = (child(1), &out[node.children[0]]);
                if build.iter().any(|(name, _)| cols.iter().any(|(n, _)| n == name)) {
                    return None;
                }
                cols.extend(build);
                cols
            }
            Op::HashJoin { .. } => child(1),
            Op::Project { exprs } => exprs.iter().map(|(name, _)| eight(name)).collect(),
            Op::Aggregate { group_by, aggs } => {
                group_by.iter().chain(aggs.iter().map(|a| &a.output_name)).map(eight).collect()
            }
        };
        out.push(cols);
    }
    Some(out)
}

impl Sim<'_, '_> {
    /// Offer a submission to the admission queue, shedding it on the spot
    /// when the queue is at its depth cap (open-loop overload protection,
    /// DESIGN.md §10). Default options (`queue_cap == usize::MAX`) never
    /// shed, keeping closed-loop runs byte-identical to earlier releases.
    pub(crate) fn submit_query(&mut self, sub: Submission) {
        if self.admission_queue.len() >= self.opts.queue_cap {
            self.shed(sub);
        } else {
            self.admission_queue.push_back(sub);
        }
    }

    /// Drop a submission: count it, trace it, and — closed loop only —
    /// let the issuing session offer its next query anyway, so a shed
    /// never deadlocks a session's remaining stream.
    fn shed(&mut self, sub: Submission) {
        self.emit(TraceEvent::QueryShed {
            session: sub.session as u32,
            seq: sub.seq as u32,
            submit: sub.submit,
            reason: ShedReason::QueueFull,
            at: self.now,
        });
        self.submit_next(sub.session);
    }

    /// Closed loop: `session` submits the next query of its list, if it
    /// has one. Arrival and standing-query sessions are labels with no
    /// list, so for them this is a no-op.
    pub(crate) fn submit_next(&mut self, session: usize) {
        if let Some(plan) = self.sessions.get_mut(session).and_then(|s| s.pop_front()) {
            let seq = self.session_seq[session];
            self.session_seq[session] += 1;
            self.submit_query(Submission {
                session,
                seq,
                plan,
                submit: self.now,
                window: None,
                standing: None,
            });
        }
    }

    /// An open-loop arrival fires: offer it for admission.
    pub(crate) fn on_arrive(&mut self, arrival: usize) -> Result<(), EngineError> {
        let a = self.arrivals[arrival].take().expect("arrival fires once");
        debug_assert_eq!(a.at, self.now);
        self.submit_query(Submission {
            session: a.session as usize,
            seq: a.seq as usize,
            plan: a.plan,
            submit: a.at,
            window: None,
            standing: None,
        });
        self.process_admissions()
    }

    pub(crate) fn process_admissions(&mut self) -> Result<(), EngineError> {
        while self.active_queries < self.opts.max_concurrent_queries {
            let Some(sub) = self.admission_queue.pop_front() else {
                break;
            };
            self.admit_query(sub)?;
        }
        Ok(())
    }

    pub(crate) fn admit_query(&mut self, sub: Submission) -> Result<(), EngineError> {
        let Submission { session, seq, plan, submit: submit_time, window, standing } =
            sub;
        let query = self.queries.len();
        let base = self.tasks.len();
        // A windowed tick's scan of the fed table reads the window's rows
        // alone, and is shaped and estimated at them.
        let scanned = window.map(|w| w.rows(self.db));
        // Intra-operator sharding (DESIGN.md §6): qualifying leaf scans
        // fan out across the co-processor fleet. One shard per
        // co-processor at most — with fewer than two there is nothing to
        // spread, and the graph stays byte-identical to sharding off.
        let ways = self
            .opts
            .shard_ways
            .min(self.config.topology.device_count().saturating_sub(1));
        let (nodes, live) =
            expand_shards(flatten(&plan), ways, self.opts.shard_min_bytes, self.db, scanned);
        // One estimate per task, in one pass over the final graph.
        let share = |i: usize| live.get(i).and_then(|l| l.as_ref()).map_or(1.0, |&(_, s)| s);
        let estimates = estimate::postorder(&nodes, self.db, scanned, share);

        let mut live = live.into_iter();
        for (node, est) in nodes.into_iter().zip(estimates) {
            if let Some((columns, _)) = live.next().flatten() {
                self.live.insert(self.tasks.len(), columns);
            }
            let base_columns = match node.scan_access() {
                Some((table, cols)) => cols
                    .iter()
                    .map(|c| {
                        self.db
                            .require_column_id(table, c)
                            .map_err(|e| EngineError::Storage(e.to_string()))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                None => Vec::new(),
            };
            let class = node.op_class();
            // Edges become *global* task indices.
            let TaskNode { op, role, mut children, parent } = node;
            children.iter_mut().for_each(|c| *c += base);
            let parent = parent.map(|p| base + p);
            let pending = children.len();
            self.tasks.push(TaskState {
                op,
                role,
                class,
                query,
                children,
                parent,
                pending_children: pending,
                annotation: None,
                forced_cpu: false,
                epoch: 0,
                device: None,
                queued_at: VirtualTime::ZERO,
                start_time: VirtualTime::ZERO,
                kernel_duration: VirtualTime::ZERO,
                bytes_in: 0,
                est_bytes_in: est.input_bytes as u64,
                est_bytes_out: est.bytes as u64,
                remaining_ns: 0.0,
                milestones: Milestones::default(),
                stage_bytes: 0,
                staged_chunks: 0,
                base_columns,
                output: None,
                output_bytes: 0,
                output_rows: 0,
                output_device: None,
                load_contribution: VirtualTime::ZERO,
            });
        }
        let root = self.tasks.len() - 1;
        self.queries.push(QueryState {
            session,
            seq,
            root,
            window,
            submit_time,
            admit_time: self.now,
            faults: FaultCounters::default(),
            done: false,
        });
        self.active_queries += 1;
        self.emit(TraceEvent::QuerySubmit {
            query: query as u32,
            session: session as u32,
            seq: seq as u32,
            at: submit_time,
        });
        if let (Some(s), Some(w)) = (standing, window) {
            // Emitted at admission, once the execution has a query id.
            self.emit(TraceEvent::WindowFire {
                standing: s,
                tick: seq as u32,
                query: query as u32,
                lo: w.lo,
                hi: w.hi,
                at: submit_time,
            });
        }
        for merge in base..=root {
            if self.tasks[merge].role == Role::Merge {
                self.emit(TraceEvent::ShardFanout {
                    query: query as u32,
                    task: merge as u32,
                    shards: self.tasks[merge].children.len() as u32,
                    at: submit_time,
                });
            }
        }

        // Compile-time placement pass: every task sees its children's
        // estimated output bytes, laid out back to back in one buffer.
        let child_bytes = &mut self.scratch.child_bytes;
        child_bytes.clear();
        for t in base..=root {
            let children = &self.tasks[t].children;
            child_bytes.extend(children.iter().map(|&c| self.tasks[c].est_bytes_out));
        }
        let mut rest = &self.scratch.child_bytes[..];
        let infos: Vec<TaskInfo> = (base..=root)
            .map(|t| {
                let task = &self.tasks[t];
                let (bytes, tail) = rest.split_at(task.children.len());
                rest = tail;
                task.info(t, true, &[], bytes)
            })
            .collect();
        let ctx = policy_ctx!(self);
        let annotations = self.policy.plan_query(&infos, &ctx);
        debug_assert_eq!(annotations.len(), infos.len());
        for (t, a) in (base..=root).zip(annotations) {
            if let Some(p) = a {
                self.emit(TraceEvent::Placement {
                    query: query as u32,
                    task: t as u32,
                    op: self.tasks[t].class,
                    phase: PlacePhase::Compile,
                    est: EstVec::from_per_device(&p.est),
                    chosen: p.device,
                    reason: p.reason,
                    at: self.now,
                });
                // An accepted placement is load from now on, not from
                // when its inputs are ready: charge its estimate to the
                // device until `enqueue` swaps in the exact one.
                let task = &mut self.tasks[t];
                let charge = self.cost.duration(
                    task.class,
                    p.device.kind(),
                    task.est_bytes_in,
                    task.est_bytes_out,
                );
                task.annotation = Some(p.device);
                task.load_contribution = charge;
                self.devices.load[p.device] += charge;
            }
        }

        // Leaves enter the operator stream immediately.
        for t in base..=root {
            if self.tasks[t].children.is_empty() {
                self.make_ready(t)?;
            }
        }
        Ok(())
    }

    /// Bytes of its base columns a task reads (a leaf's; none for others),
    /// the rows [`Op::scan_rows`] names: its partition's
    /// [`ShardSpec::slice_bytes`] of each column, at its window's
    /// [`estimate::row_share`] of the table.
    pub(crate) fn leaf_bytes(&self, task: usize) -> u64 {
        let t = &self.tasks[task];
        let slice = |full| t.role.partition().map_or(full, |s| s.slice_bytes(full));
        let bytes: u64 = t.base_columns.iter().map(|&c| slice(self.db.column_size(c))).sum();
        let window = self.queries[t.query].window.map(|w| w.rows(self.db));
        (bytes as f64 * estimate::row_share(&t.op, window, self.db)) as u64
    }

    /// What `task` reads: its base columns' rows and its children's outputs.
    pub(crate) fn exact_bytes_in(&self, task: usize) -> u64 {
        let children = self.tasks[task].children.iter().map(|&c| self.tasks[c].output_bytes);
        self.leaf_bytes(task) + children.sum::<u64>()
    }

    pub(crate) fn make_ready(&mut self, task: usize) -> Result<(), EngineError> {
        self.tasks[task].bytes_in = self.exact_bytes_in(task);
        let device = if self.tasks[task].forced_cpu {
            DeviceId::Cpu
        } else if let Some(d) = self.tasks[task].annotation {
            d
        } else {
            let (devices, bytes) =
                (&mut self.scratch.child_devices, &mut self.scratch.child_bytes);
            devices.clear();
            bytes.clear();
            let t = &self.tasks[task];
            for &c in &t.children {
                devices.extend(self.tasks[c].output_device);
                bytes.push(self.tasks[c].output_bytes);
            }
            let info = t.info(task, false, devices, bytes);
            let ctx = policy_ctx!(self);
            let placed = self.policy.place_ready(&info, &ctx);
            self.emit(TraceEvent::Placement {
                query: self.tasks[task].query as u32,
                task: task as u32,
                op: self.tasks[task].class,
                phase: PlacePhase::Ready,
                est: EstVec::from_per_device(&placed.est),
                chosen: placed.device,
                reason: placed.reason,
                at: self.now,
            });
            placed.device
        };
        self.enqueue(task, device);
        self.dispatch(device)?;
        Ok(())
    }

    pub(crate) fn on_query_done(&mut self, query: usize) -> Result<(), EngineError> {
        let q = &mut self.queries[query];
        q.done = true;
        let QueryState { root, session, seq, submit_time, admit_time, faults, .. } = *q;
        let latency = self.now - submit_time;
        let output =
            self.tasks[root].output.take().expect("root output present").materialize();
        // Retire the queries below the oldest live one and their tasks:
        // what no consumer reads again goes (operator-at-a-time).
        let oldest_live = self.queries.retire_while(|q| q.done);
        self.tasks.retire_while(|t| t.query < oldest_live);
        self.emit(TraceEvent::QueryDone {
            query: query as u32,
            session: session as u32,
            seq: seq as u32,
            submit: submit_time,
            admit: admit_time,
            end: self.now,
            rows: output.num_rows() as u64,
        });
        self.outcomes.push(QueryOutcome {
            session,
            seq,
            latency,
            admit_wait: admit_time.saturating_sub(submit_time),
            rows: output.num_rows(),
            checksum: output.checksum(),
            faults,
            result: self.opts.capture_results.then_some(output),
        });
        self.active_queries -= 1;

        // Periodic data-placement background job (Section 3.2). The
        // policy may re-pin any co-processor cache; each newly cached
        // column crosses that device's host link.
        self.completed_since_update += 1;
        if self.opts.placement_update_period > 0
            && self.completed_since_update >= self.opts.placement_update_period
        {
            self.completed_since_update = 0;
            let new_keys = self.policy.update_data_placement(
                self.db,
                self.caches,
                &self.feed.col_epochs,
            );
            for (device, key) in new_keys {
                let bytes = key_bytes(self.db, key);
                // Background placement transfers are durable and not
                // attributed to any one query.
                self.xfer(
                    self.now,
                    device,
                    Direction::HostToDevice,
                    TransferKind::Placement,
                    bytes,
                    None,
                    false,
                );
                self.emit(TraceEvent::CacheInsert {
                    device,
                    key,
                    bytes,
                    at: self.now,
                });
            }
        }

        self.submit_next(session);
        self.process_admissions()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Estimate;
    use crate::expr::Expr;
    use crate::plan::{AggSpec, PlanNode};
    use crate::predicate::Predicate;
    use robustq_sim::OpClass;
    use robustq_storage::Table;

    /// Tasks: 0 date scan (build), 1 lineorder scan (probe), 2 join,
    /// 3 aggregate.
    fn plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .join(PlanNode::scan("date", ["d_datekey"]), "lo_orderdate", "d_datekey")
            .aggregate([] as [&str; 0], vec![AggSpec::sum(Expr::col("lo_revenue"), "r")])
    }

    fn ssb_db() -> Database {
        robustq_storage::gen::ssb::SsbGenerator::new(1).with_rows_per_sf(8_000).generate()
    }

    /// A sharded graph as admission builds it: [`expand_shards`], then the
    /// one estimate pass over what it returns, as `(input, output)` pairs;
    /// the share of its output width each task hands on (1: all of it).
    struct Expanded {
        nodes: Vec<TaskNode>,
        est: Vec<(f64, f64)>,
        live: Vec<Live>,
        share: Vec<f64>,
    }

    fn expand(
        plan: &PlanNode,
        ways: usize,
        min_bytes: f64,
        db: &Database,
        window: Option<Window<'_>>,
    ) -> Expanded {
        let (nodes, live) = expand_shards(flatten(plan), ways, min_bytes, db, window);
        let share: Vec<f64> = (0..nodes.len())
            .map(|i| live.get(i).and_then(|l| l.as_ref()).map_or(1.0, |&(_, s)| s))
            .collect();
        let est = estimate::postorder(&nodes, db, window, |i| share[i]);
        let est = est.iter().map(pair).collect();
        Expanded { nodes, est, live, share }
    }

    /// The unsharded plan's estimates, one per operator.
    fn whole(plan: &PlanNode, db: &Database) -> Vec<Estimate> {
        estimate::postorder(&flatten(plan), db, None, |_| 1.0)
    }

    fn pair(e: &Estimate) -> (f64, f64) {
        (e.input_bytes, e.bytes)
    }

    fn assert_postorder(nodes: &[TaskNode]) {
        assert!(nodes.last().unwrap().parent.is_none(), "root last");
        for (i, n) in nodes.iter().enumerate() {
            for &c in &n.children {
                assert!(c < i, "child {c} after its parent {i}");
                assert_eq!(nodes[c].parent, Some(i));
            }
            assert!(n.parent.is_some() || i == nodes.len() - 1, "task {i} is orphaned");
        }
    }

    #[test]
    fn fewer_than_two_ways_or_too_few_bytes_leave_the_graph_alone() {
        let db = ssb_db();
        let w: Vec<(f64, f64)> = whole(&plan(), &db).iter().map(pair).collect();
        let largest = estimate::scan(&flatten(&plan())[1].op, &db, None).input_bytes;
        for (ways, min_bytes) in [(0, 0.0), (1, 0.0), (2, largest + 1.0)] {
            let x = expand(&plan(), ways, min_bytes, &db, None);
            assert_eq!(x.est, w, "ways {ways}, min {min_bytes} B");
            assert!(x.nodes.iter().all(|n| n.role == Role::Whole));
            assert!(x.live.is_empty());
        }
    }

    /// The roles of `nodes`, with `Spine` and `Replica` of shard 0..of
    /// written as one letter each and the shard index.
    fn roles(nodes: &[TaskNode]) -> Vec<String> {
        nodes
            .iter()
            .map(|n| match n.role {
                Role::Whole => "W".to_string(),
                Role::Spine(s) => format!("P{}", s.index),
                Role::Replica(s) => format!("R{}", s.index),
                Role::Merge => "M".to_string(),
            })
            .collect()
    }

    #[test]
    fn a_spine_climbs_the_probe_side_and_stops_at_an_aggregate() {
        let (db, plan) = (ssb_db(), plan());
        let template = flatten(&plan);
        let largest = estimate::scan(&template[1].op, &db, None).input_bytes;
        let Expanded { nodes, est, share, .. } = expand(&plan, 2, largest, &db, None);
        assert_postorder(&nodes);
        // Two pipelines of (date replica, lineorder shard, join), then
        // the merge where the join stood, under the aggregate.
        assert_eq!(roles(&nodes), ["R0", "P0", "P0", "R1", "P1", "P1", "M", "W"]);
        for (k, pipeline) in [0, 3].into_iter().enumerate() {
            assert_eq!(nodes[pipeline + 2].children, [pipeline, pipeline + 1], "pipeline {k}");
            assert_eq!(nodes[pipeline + 2].parent, Some(6));
        }
        assert_eq!(nodes[6].children, [2, 5]);
        assert_eq!(nodes[7].children, [6]);
        // Replicas and spine tasks share the template's `Arc`s: no
        // payload is copied, and the merge runs the spine top's `Op`.
        for (new, old) in [(0, 0), (3, 0), (1, 1), (4, 1), (2, 2), (5, 2), (6, 2), (7, 3)] {
            assert!(Arc::ptr_eq(&nodes[new].op, &template[old].op), "task {new}");
        }
        // Spine tasks split their estimates, replicas keep theirs whole,
        // and the merge consumes and reproduces the spine top's live
        // output, which the aggregate reads.
        let [date, fact, join, agg] = [0, 1, 2, 3].map(|i| whole(&plan, &db)[i]);
        assert!(share[2] < 1.0 && share[2] == share[5], "the joins hand on `lo_revenue` alone");
        assert_eq!([est[0], est[3]], [pair(&date); 2]);
        assert_eq!([est[1], est[4]], [(fact.input_bytes / 2.0, fact.bytes / 2.0); 2]);
        let spine_join = (date.bytes + fact.bytes / 2.0, join.bytes * share[2] / 2.0);
        assert_eq!([est[2], est[5]], [spine_join; 2], "a join reads its whole replica");
        let merged = join.bytes * share[2];
        assert_eq!(est[6], (merged, merged));
        assert_eq!(est[7], (merged, agg.bytes));
    }

    /// (lineorder ⋈ supplier) is the build side of a join probed by
    /// `date`: tasks 0 supplier, 1 lineorder, 2 join, 3 date, 4 join.
    fn build_side_plan() -> PlanNode {
        let inner = PlanNode::scan("lineorder", ["lo_orderdate", "lo_suppkey"]).join(
            PlanNode::scan("supplier", ["s_suppkey"]),
            "lo_suppkey",
            "s_suppkey",
        );
        PlanNode::scan("date", ["d_datekey"]).join(inner, "d_datekey", "lo_orderdate")
    }

    #[test]
    fn a_spine_stops_where_it_is_a_build_side() {
        let (db, plan) = (ssb_db(), build_side_plan());
        let template = flatten(&plan);
        let Expanded { nodes, est, live, .. } = expand(&plan, 2, 0.0, &db, None);
        assert_postorder(&nodes);
        assert_eq!(roles(&nodes), ["R0", "P0", "P0", "R1", "P1", "P1", "M", "W", "W"]);
        // The merge is the outer join's build side, `date` its probe.
        assert_eq!(nodes[8].children, [6, 7]);
        assert!(Arc::ptr_eq(&nodes[6].op, &template[2].op));
        assert!(Arc::ptr_eq(&nodes[7].op, &template[3].op));
        // No aggregate or projection closes the query: nothing is pruned.
        assert!(live.iter().all(Option::is_none));
        let w = whole(&plan, &db);
        assert_eq!(est[6], (w[2].bytes, w[2].bytes));
        assert_eq!([est[7], est[8]], [pair(&w[3]), pair(&w[4])]);
    }

    /// Tasks: 0 supplier, 1 lineorder, 2 semi join, 3 select, 4 aggregate.
    fn semi_select_plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_suppkey", "lo_revenue"])
            .join_kind(
                PlanNode::scan("supplier", ["s_suppkey"]),
                "lo_suppkey",
                "s_suppkey",
                JoinKind::Semi,
            )
            .select(Predicate::between("lo_revenue", 1, 100))
            .aggregate([] as [&str; 0], vec![AggSpec::sum(Expr::col("lo_revenue"), "r")])
    }

    #[test]
    fn a_semi_join_and_a_select_ride_the_spine() {
        let (db, plan) = (ssb_db(), semi_select_plan());
        let Expanded { nodes, est, share, .. } = expand(&plan, 3, 0.0, &db, None);
        assert_postorder(&nodes);
        let pipeline = |k: u32| ["R", "P", "P", "P"].map(|role| format!("{role}{k}"));
        let want: Vec<String> =
            (0..3).flat_map(pipeline).chain(["M".to_string(), "W".to_string()]).collect();
        assert_eq!(roles(&nodes), want);
        assert_eq!(nodes[12].children, [3, 7, 11], "the merge takes each pipeline's select");
        let w = whole(&plan, &db);
        assert!(share[2] < 1.0 && share[3] < 1.0, "both hand on `lo_revenue` alone");
        let select = w[3].bytes * share[3];
        assert_eq!(est[12], (select, select));
        let semi = w[2].bytes * share[2] / 3.0;
        let spine_semi = (w[0].bytes + w[1].bytes / 3.0, semi);
        assert_eq!(est[2], spine_semi, "a semi join reads its whole replica");
        assert_eq!(est[3], (semi, select / 3.0));
        assert_eq!(est[8], pair(&w[0]), "a replica keeps its estimate whole");
    }

    /// `lineorder`, the largest scan, is the build side of the only join,
    /// so its spine is the scan alone; `date` — large enough to shard too
    /// — is not sharded: one fan-out per query.
    fn leaf_alone_plan() -> PlanNode {
        PlanNode::scan("date", ["d_datekey"]).join(
            PlanNode::scan("lineorder", ["lo_orderdate"])
                .filter(Predicate::between("lo_discount", 1, 3)),
            "d_datekey",
            "lo_orderdate",
        )
    }

    #[test]
    fn a_spine_that_is_its_leaf_alone_fans_out_under_the_scan_merge() {
        let (db, plan) = (ssb_db(), leaf_alone_plan());
        let template = flatten(&plan);
        let date = estimate::scan(&template[1].op, &db, None).input_bytes;
        let Expanded { nodes, est, .. } = expand(&plan, 3, date, &db, None);
        assert_postorder(&nodes);
        assert_eq!(roles(&nodes), ["P0", "P1", "P2", "M", "W", "W"]);
        for n in &nodes[..4] {
            assert!(Arc::ptr_eq(&n.op, &template[0].op));
        }
        assert_eq!(nodes[3].children, [0, 1, 2]);
        assert_eq!(nodes[5].children, [3, 4], "the merge stands where the scan stood");
        let w = whole(&plan, &db);
        assert_eq!(est[..3], [(w[0].input_bytes / 3.0, w[0].bytes / 3.0); 3]);
        assert_eq!(est[3], (w[0].bytes, w[0].bytes));
        assert_eq!([est[4], est[5]], [pair(&w[1]), pair(&w[2])]);
    }

    /// Tasks: 0 date, 1 customer, 2 lineorder, 3 join, 4 join, 5 aggregate.
    fn pruned_plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_custkey", "lo_orderdate", "lo_revenue"])
            .join(PlanNode::scan("customer", ["c_custkey", "c_nation"]), "lo_custkey", "c_custkey")
            .join(PlanNode::scan("date", ["d_datekey", "d_year"]), "lo_orderdate", "d_datekey")
            .aggregate(["c_nation", "d_year"], vec![AggSpec::sum(Expr::col("lo_revenue"), "r")])
    }

    /// A copy of `db` whose `lineorder` holds only its rows `[lo, hi)`:
    /// the static database a tick over that window is equivalent to.
    fn cut(db: &Database, lo: usize, hi: usize) -> Database {
        let mut out = Database::new();
        for t in db.tables() {
            let columns = match t.name() {
                "lineorder" => {
                    (0..t.num_columns()).map(|i| Arc::new(t.column_slice(i, lo, hi))).collect()
                }
                _ => t.columns().to_vec(),
            };
            let table = Table::from_shared(t.name(), t.schema().clone(), columns).unwrap();
            out.add_table(table).unwrap();
        }
        out
    }

    /// Every task with children reads what they hand on: its input
    /// estimate is the sum of their output estimates, in every fixture,
    /// sharded or not, and in a window tick. A pipeline join reads its
    /// replica build side whole; above a windowed scan every operator
    /// reads the window's share, as the same query over a database that
    /// holds only the window's rows is estimated.
    #[test]
    fn every_task_reads_its_childrens_estimated_output() {
        let db = ssb_db();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        let fixtures = [
            ("aggregate", plan()),
            ("build side", build_side_plan()),
            ("semi join", semi_select_plan()),
            ("leaf alone", leaf_alone_plan()),
            ("pruned", pruned_plan()),
        ];
        // The whole table, a window inside it, and one that runs past its end.
        let windows =
            [None, Some(("lineorder", 1_000, 5_000)), Some(("lineorder", 6_000, 9_000))];
        for (fixture, plan) in &fixtures {
            for window in windows {
                let equivalent = window.map(|(_, lo, hi)| cut(&db, lo, hi.min(8_000)));
                for ways in [1, 2, 3] {
                    let at = format!("{fixture}, {ways} ways, window {window:?}");
                    let tick = expand(plan, ways, 0.0, &db, window);
                    for (i, node) in tick.nodes.iter().enumerate() {
                        if node.children.is_empty() {
                            continue;
                        }
                        let read = tick.est[i].0;
                        let of: f64 = node.children.iter().map(|&c| tick.est[c].1).sum();
                        assert!(close(read, of), "{at}, task {i}: reads {read} B of {of} B");
                    }
                    let Some(cut) = &equivalent else { continue };
                    let static_run = expand(plan, ways, 0.0, cut, None);
                    assert_eq!(roles(&tick.nodes), roles(&static_run.nodes), "{at}");
                    for (i, (a, b)) in tick.est.iter().zip(&static_run.est).enumerate() {
                        let same = close(a.0, b.0) && close(a.1, b.1);
                        assert!(same, "{at}, task {i}: {a:?}, not {b:?}");
                    }
                }
            }
        }
    }

    /// Each pruned spine task is estimated at its estimated rows × its
    /// live width, and the merge and the aggregate above it at the top's.
    #[test]
    fn a_pruned_spine_task_is_estimated_at_its_live_width() {
        let db = ssb_db();
        let estimated = whole(&pruned_plan(), &db);
        let Expanded { nodes, est, live, .. } = expand(&pruned_plan(), 2, 0.0, &db, None);
        let pipeline = |k: u32| ["R", "R", "P", "P", "P"].map(|role| format!("{role}{k}"));
        let want: Vec<String> =
            (0..2).flat_map(pipeline).chain(["M".into(), "W".into()]).collect();
        assert_eq!(roles(&nodes), want);
        let width = |columns: &[String]| -> f64 {
            let column = |c: &str| db.tables().iter().find_map(|t| t.column(c)).unwrap();
            columns.iter().map(|c| column(c).data_type().byte_width() as f64).sum()
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        for pipeline in [0, 5] {
            let listed = |t: usize| live.get(pipeline + t).cloned().flatten().map(|(c, _)| c);
            assert_eq!(listed(2), None, "the leaf's columns are all read above it");
            let joins = [
                (3, ["lo_orderdate", "lo_revenue", "c_nation"]),
                (4, ["lo_revenue", "c_nation", "d_year"]),
            ];
            for (t, want) in joins {
                let kept = listed(t).expect("a pruned join");
                assert_eq!(&kept[..], want, "task {t}");
                assert_eq!(width(&kept), 16.0);
                let want = estimated[t].rows / 2.0 * width(&kept);
                let got = est[pipeline + t].1;
                assert!(close(got, want), "task {t}: {got} B, not {want} B");
            }
        }
        let top = estimated[4].rows * 16.0;
        assert!(close(est[10].0, top) && close(est[10].1, top), "the merge: {:?}", est[10]);
        assert!(close(est[11].0, top), "the aggregate reads the merge");
        assert!(live.get(10).cloned().flatten().is_none(), "the merge hands on what it merged");
    }

    #[test]
    fn a_merge_reads_no_base_column() {
        let db = ssb_db();
        for (plan, ways) in [(plan(), 2), (plan().select(Predicate::between("r", 1, 2)), 3)] {
            let nodes = expand(&plan, ways, 0.0, &db, None).nodes;
            assert_postorder(&nodes);
            for node in &nodes {
                match node.role {
                    // No access-statistics hit and nothing to stage for the
                    // merge: admission derives a task's base columns from
                    // `scan_access`.
                    Role::Merge => {
                        assert_eq!(node.scan_access(), None);
                        assert_eq!(node.op_class(), OpClass::Projection);
                    }
                    // A pipeline task reads what its operator reads.
                    _ => {
                        assert_eq!(node.scan_access(), node.op.scan_access());
                        assert_eq!(node.op_class(), node.op.op_class());
                    }
                }
            }
            assert_eq!(nodes.iter().filter(|n| n.role == Role::Merge).count(), 1);
        }
    }
}
