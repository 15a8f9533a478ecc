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
    policy_ctx, Milestones, QueryState, QueryWindow, Sim, Status, Submission, TaskState,
};
use crate::exec::metrics::{FaultCounters, QueryOutcome};
use crate::exec::policy::{key_bytes, PolicyCtx, TaskInfo};
use crate::exec::task::{flatten, Role, ShardSpec, TaskNode};
use crate::plan::{JoinKind, Op};
use robustq_sim::{DeviceId, Direction, VirtualTime};
use robustq_storage::Database;
use robustq_trace::{EstVec, PlacePhase, ShedReason, TraceEvent, TransferKind};
use std::sync::Arc;

/// The columns of its output a spine task hands on; `None`: every one.
type Live = Option<Arc<[String]>>;

/// Rewrite a flattened task graph for intra-operator sharding (DESIGN.md
/// §6): one fan-out per query, of its **spine**.
///
/// The spine starts at the largest leaf scan whose estimated input is at
/// least `min_bytes` and climbs through every ancestor it reaches as a
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
/// index in the third vector (`None`, or past its end: every column).
///
/// The rewrite preserves the postorder invariants (children before
/// parents, root last) and leaves the `(input, output)` byte estimates
/// aligned: a spine task outputs `1/ways` of its estimate, counting its
/// live width only, a replica keeps its estimate whole, a pipeline task
/// with children reads the sum of their outputs (a spine join its whole
/// replica build side and its split probe side), and the merge consumes
/// and reproduces the spine top's live output.
pub(crate) fn expand_shards(
    nodes: Vec<TaskNode>,
    mut estimates: Vec<(f64, f64)>,
    ways: usize,
    min_bytes: f64,
    db: &Database,
) -> (Vec<TaskNode>, Vec<(f64, f64)>, Vec<Live>) {
    let leaf = (0..nodes.len())
        .filter(|&i| matches!(*nodes[i].op, Op::Scan { .. }) && estimates[i].0 >= min_bytes)
        .max_by(|&a, &b| estimates[a].0.total_cmp(&estimates[b].0).then(b.cmp(&a)));
    let Some(leaf) = leaf.filter(|_| ways >= 2) else {
        return (nodes, estimates, Vec::new());
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
    // A pruned spine task's estimate counts its live width: what it drops
    // leaves its output, and what the top drops the merge's parent's input
    // (a pipeline task's input is summed from its children below).
    let live = live_columns(&nodes, top, db);
    for (j, live) in live.iter().enumerate() {
        let Some((_, share)) = live else { continue };
        let kept = estimates[j].1 * share;
        let dropped = estimates[j].1 - kept;
        estimates[j].1 = kept;
        if let Some(p) = nodes[j].parent.filter(|_| j == top) {
            estimates[p].0 -= dropped;
        }
    }
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

    let mut out = Vec::with_capacity(merge + nodes.len() - top);
    let mut est = Vec::with_capacity(out.capacity());
    let mut pruned = vec![None; first];
    for i in 0..first {
        out.push(moved(&nodes[i], Role::Whole, &outside, nodes[i].parent.map(outside)));
        est.push(estimates[i]);
    }
    for k in 0..ways {
        let spec = ShardSpec { index: k as u32, of: ways as u32 };
        for j in first..=top {
            let role = if on_spine[j] { Role::Spine(spec) } else { Role::Replica(spec) };
            let parent = match nodes[j].parent {
                Some(p) if j != top => piped(k, p),
                _ => merge,
            };
            out.push(moved(&nodes[j], role, &|c| piped(k, c), Some(parent)));
            pruned.push(live[j].as_ref().map(|(columns, _)| Arc::clone(columns)));
            let (input, output) = estimates[j];
            let split = if on_spine[j] { ways as f64 } else { 1.0 };
            let input = match nodes[j].children.is_empty() {
                true => input / split,
                false => nodes[j].children.iter().map(|&c| est[piped(k, c)].1).sum(),
            };
            est.push((input, output / split));
        }
    }
    out.push(TaskNode {
        op: Arc::clone(&nodes[top].op),
        role: Role::Merge,
        children: (0..ways).map(|k| piped(k, top)).collect(),
        parent: nodes[top].parent.map(outside),
    });
    est.push((estimates[top].1, estimates[top].1));
    for i in top + 1..nodes.len() {
        out.push(moved(&nodes[i], Role::Whole, &outside, nodes[i].parent.map(outside)));
        est.push(estimates[i]);
    }
    (out, est, pruned)
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
fn live_columns(
    nodes: &[TaskNode],
    top: usize,
    db: &Database,
) -> Vec<Option<(Arc<[String]>, f64)>> {
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

    /// An open-loop arrival fires: take the scheduled submission and
    /// offer it for admission.
    pub(crate) fn on_arrive(&mut self, arrival: usize) -> Result<(), EngineError> {
        let sub = self.arrivals[arrival].take().expect("arrival fires once");
        debug_assert_eq!(sub.submit, self.now);
        self.submit_query(sub);
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
        let nodes = flatten(&plan);
        // One estimate per operator, in one pass. Windowed ticks scan only
        // the window's slice of the feed table: scale those leaves so
        // sharding and compile-time placement see the pruned input, not
        // the whole (ever-growing) table.
        let estimates = estimate::postorder(&nodes, self.db)
            .iter()
            .zip(&nodes)
            .map(|(e, node)| {
                let frac = self.windowed_fraction(&node.op, window);
                (e.input_bytes * frac, e.bytes * frac)
            })
            .collect();
        // Intra-operator sharding (DESIGN.md §6): qualifying leaf scans
        // fan out across the co-processor fleet. One shard per
        // co-processor at most — with fewer than two there is nothing to
        // spread, and the graph stays byte-identical to sharding off.
        let ways = self
            .opts
            .shard_ways
            .min(self.config.topology.device_count().saturating_sub(1));
        let (nodes, estimates, live) =
            expand_shards(nodes, estimates, ways, self.opts.shard_min_bytes, self.db);

        let mut live = live.into_iter();
        for (node, est) in nodes.into_iter().zip(estimates) {
            if let Some(columns) = live.next().flatten() {
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
                status: Status::Pending,
                device: None,
                queued_at: VirtualTime::ZERO,
                start_time: VirtualTime::ZERO,
                kernel_duration: VirtualTime::ZERO,
                bytes_in: 0,
                est_bytes_in: est.0 as u64,
                est_bytes_out: est.1 as u64,
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
        // Closed-loop sessions are admitted in the order they happen to
        // finish; arrivals and ticks in the order of the schedule.
        let sessions = self.sessions.len();
        let turn = if session < sessions { seq * sessions + session } else { query };
        self.queries.push(QueryState {
            session,
            seq,
            turn,
            root,
            window,
            submit_time,
            admit_time: self.now,
        });
        self.query_faults.push(FaultCounters::default());
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
        let q = &self.queries[query];
        let mut rest = &self.scratch.child_bytes[..];
        let infos: Vec<TaskInfo> = (base..=root)
            .map(|t| {
                let task = &self.tasks[t];
                let (bytes, tail) = rest.split_at(task.children.len());
                rest = tail;
                task.info(t, q, true, &[], bytes)
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

    /// Fraction of the windowed table a tick actually reads: the rows of
    /// `[lo, hi)` the table holds, over all of its rows.
    pub(crate) fn window_fraction(&self, w: QueryWindow) -> f64 {
        let rows = self.db.tables()[w.table as usize].num_rows();
        if rows == 0 {
            return 1.0;
        }
        rows.min(w.hi as usize).saturating_sub(w.lo as usize) as f64 / rows as f64
    }

    /// The share of `op`'s input a query windowed by `window` reads: the
    /// window's slice for a scan of the fed table, everything otherwise.
    fn windowed_fraction(&self, op: &Op, window: Option<QueryWindow>) -> f64 {
        match (op, window) {
            (Op::Scan { table, .. }, Some(w))
                if self.db.table_position(table) == Some(w.table as usize) =>
            {
                self.window_fraction(w)
            }
            _ => 1.0,
        }
    }

    /// Bytes of `task`'s base columns it reads: each column whole, or its
    /// partition's [`ShardSpec::slice_bytes`] of each.
    pub(crate) fn base_bytes(&self, task: usize) -> u64 {
        let t = &self.tasks[task];
        let slice = |full| t.role.partition().map_or(full, |s| s.slice_bytes(full));
        t.base_columns.iter().map(|&c| slice(self.db.column_size(c))).sum()
    }

    pub(crate) fn exact_bytes_in(&self, task: usize) -> u64 {
        let t = &self.tasks[task];
        if t.children.is_empty() {
            // A windowed tick's feed-table scan reads only the window's
            // slice of each base column.
            let win_frac = self.windowed_fraction(&t.op, self.queries[t.query].window);
            (self.base_bytes(task) as f64 * win_frac) as u64
        } else {
            t.children.iter().map(|&c| self.tasks[c].output_bytes).sum()
        }
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
            let info = t.info(task, &self.queries[t.query], false, devices, bytes);
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
        let q = &self.queries[query];
        let root = q.root;
        let session = q.session;
        let seq = q.seq;
        let submit_time = q.submit_time;
        let admit_time = q.admit_time;
        let latency = self.now - submit_time;
        let output =
            self.tasks[root].output.take().expect("root output present").materialize();
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
            faults: self.query_faults[query],
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
    use crate::expr::Expr;
    use crate::plan::{AggSpec, PlanNode};
    use crate::predicate::Predicate;
    use crate::estimate;
    use robustq_sim::OpClass;

    /// Tasks: 0 date scan (build), 1 lineorder scan (probe), 2 join,
    /// 3 aggregate.
    fn plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .join(PlanNode::scan("date", ["d_datekey"]), "lo_orderdate", "d_datekey")
            .aggregate([] as [&str; 0], vec![AggSpec::sum(Expr::col("lo_revenue"), "r")])
    }

    const ESTIMATES: [(f64, f64); 4] = [(80.0, 40.0), (900.0, 300.0), (340.0, 60.0), (60.0, 8.0)];

    /// [`expand_shards`] over a database without tables: no column has a
    /// width, so a pruned task keeps its (split) estimate.
    fn expand(
        nodes: Vec<TaskNode>,
        estimates: Vec<(f64, f64)>,
        ways: usize,
        min_bytes: f64,
    ) -> (Vec<TaskNode>, Vec<(f64, f64)>) {
        let (nodes, est, _) = expand_shards(nodes, estimates, ways, min_bytes, &Database::new());
        (nodes, est)
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
    fn fewer_than_two_ways_leaves_the_graph_alone() {
        for ways in [0, 1] {
            let (nodes, est) = expand(flatten(&plan()), ESTIMATES.to_vec(), ways, 0.0);
            assert_eq!(est, ESTIMATES);
            assert!(nodes.iter().all(|n| n.role == Role::Whole));
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
        let plan = plan();
        let whole = flatten(&plan);
        let (nodes, est) = expand(whole.clone(), ESTIMATES.to_vec(), 2, 100.0);
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
            assert!(Arc::ptr_eq(&nodes[new].op, &whole[old].op), "task {new}");
        }
        // Spine tasks split their estimates, replicas keep theirs whole,
        // and the merge consumes and reproduces the spine top's output.
        let [date, _, join, agg] = ESTIMATES;
        assert_eq!(est[0], date);
        assert_eq!(est[3], date);
        assert_eq!([est[1], est[4]], [(450.0, 150.0); 2]);
        assert_eq!([est[2], est[5]], [(190.0, 30.0); 2], "a join reads its whole replica");
        assert_eq!(est[6], (join.1, join.1));
        assert_eq!(est[7], agg);
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

    const BUILD_SIDE_ESTIMATES: [(f64, f64); 5] =
        [(50.0, 50.0), (900.0, 900.0), (950.0, 700.0), (80.0, 80.0), (780.0, 90.0)];

    #[test]
    fn a_spine_stops_where_it_is_a_build_side() {
        let whole = flatten(&build_side_plan());
        let estimates = BUILD_SIDE_ESTIMATES;
        let (nodes, est) = expand(whole.clone(), estimates.to_vec(), 2, 0.0);
        assert_postorder(&nodes);
        assert_eq!(roles(&nodes), ["R0", "P0", "P0", "R1", "P1", "P1", "M", "W", "W"]);
        // The merge is the outer join's build side, `date` its probe.
        assert_eq!(nodes[8].children, [6, 7]);
        assert!(Arc::ptr_eq(&nodes[6].op, &whole[2].op));
        assert!(Arc::ptr_eq(&nodes[7].op, &whole[3].op));
        assert_eq!(est[6], (700.0, 700.0));
        assert_eq!([est[7], est[8]], [estimates[3], estimates[4]]);
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

    const SEMI_SELECT_ESTIMATES: [(f64, f64); 5] =
        [(40.0, 40.0), (900.0, 900.0), (940.0, 300.0), (300.0, 30.0), (30.0, 8.0)];

    #[test]
    fn a_semi_join_and_a_select_ride_the_spine() {
        let estimates = SEMI_SELECT_ESTIMATES;
        let (nodes, est) = expand(flatten(&semi_select_plan()), estimates.to_vec(), 3, 0.0);
        assert_postorder(&nodes);
        let pipeline = |k: u32| ["R", "P", "P", "P"].map(|role| format!("{role}{k}"));
        let want: Vec<String> =
            (0..3).flat_map(pipeline).chain(["M".to_string(), "W".to_string()]).collect();
        assert_eq!(roles(&nodes), want);
        assert_eq!(nodes[12].children, [3, 7, 11], "the merge takes each pipeline's select");
        assert_eq!(est[12], (30.0, 30.0));
        assert_eq!(est[2], (340.0, 100.0), "a semi join reads its whole replica");
        assert_eq!(est[3], (100.0, 10.0));
        assert_eq!(est[8], estimates[0], "a replica keeps its estimate whole");
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

    const LEAF_ALONE_ESTIMATES: [(f64, f64); 3] = [(900.0, 300.0), (200.0, 200.0), (500.0, 60.0)];

    #[test]
    fn a_spine_that_is_its_leaf_alone_fans_out_under_the_scan_merge() {
        let whole = flatten(&leaf_alone_plan());
        let estimates = LEAF_ALONE_ESTIMATES;
        let (nodes, est) = expand(whole.clone(), estimates.to_vec(), 3, 100.0);
        assert_postorder(&nodes);
        assert_eq!(roles(&nodes), ["P0", "P1", "P2", "M", "W", "W"]);
        for n in &nodes[..4] {
            assert!(Arc::ptr_eq(&n.op, &whole[0].op));
        }
        assert_eq!(nodes[3].children, [0, 1, 2]);
        assert_eq!(nodes[5].children, [3, 4], "the merge stands where the scan stood");
        assert_eq!(est[..3], [(300.0, 100.0); 3]);
        assert_eq!(est[3], (300.0, 300.0));
        assert_eq!([est[4], est[5]], [estimates[1], estimates[2]]);
    }

    fn ssb_db() -> Database {
        robustq_storage::gen::ssb::SsbGenerator::new(1).with_rows_per_sf(8_000).generate()
    }

    /// Tasks: 0 date, 1 customer, 2 lineorder, 3 join, 4 join, 5 aggregate.
    fn pruned_plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_custkey", "lo_orderdate", "lo_revenue"])
            .join(PlanNode::scan("customer", ["c_custkey", "c_nation"]), "lo_custkey", "c_custkey")
            .join(PlanNode::scan("date", ["d_datekey", "d_year"]), "lo_orderdate", "d_datekey")
            .aggregate(["c_nation", "d_year"], vec![AggSpec::sum(Expr::col("lo_revenue"), "r")])
    }

    /// Every task with children reads what they hand on: its input
    /// estimate is the sum of their output estimates, in every fixture.
    /// A pipeline join reads its replica build side whole.
    #[test]
    fn every_task_reads_its_childrens_estimated_output() {
        let aligned = |nodes: &[TaskNode], est: &[(f64, f64)], fixture: &str| {
            for (i, node) in nodes.iter().enumerate().filter(|(_, n)| !n.children.is_empty()) {
                let read: f64 = node.children.iter().map(|&c| est[c].1).sum();
                let close = (est[i].0 - read).abs() <= 1e-9 * read.abs();
                assert!(close, "{fixture}, task {i}: reads {} B of {read} B", est[i].0);
            }
        };
        let check = |fixture, plan: PlanNode, estimates: &[(f64, f64)], ways, min_bytes| {
            let (nodes, est) = expand(flatten(&plan), estimates.to_vec(), ways, min_bytes);
            aligned(&nodes, &est, fixture);
        };
        check("aggregate", plan(), &ESTIMATES, 2, 100.0);
        check("build side", build_side_plan(), &BUILD_SIDE_ESTIMATES, 2, 0.0);
        check("semi join", semi_select_plan(), &SEMI_SELECT_ESTIMATES, 3, 0.0);
        check("leaf alone", leaf_alone_plan(), &LEAF_ALONE_ESTIMATES, 3, 100.0);
        let db = ssb_db();
        let whole = flatten(&pruned_plan());
        let estimates = estimate::postorder(&whole, &db);
        let estimates = estimates.iter().map(|e| (e.input_bytes, e.bytes)).collect();
        let (nodes, est, _) = expand_shards(whole, estimates, 2, 0.0, &db);
        aligned(&nodes, &est, "pruned");
    }

    /// Each pruned spine task is estimated at its estimated rows × its
    /// live width, and the merge and the aggregate above it at the top's.
    #[test]
    fn a_pruned_spine_task_is_estimated_at_its_live_width() {
        let db = ssb_db();
        let whole = flatten(&pruned_plan());
        let estimated = estimate::postorder(&whole, &db);
        let estimates = estimated.iter().map(|e| (e.input_bytes, e.bytes)).collect();
        let (nodes, est, live) = expand_shards(whole, estimates, 2, 0.0, &db);
        let pipeline = |k: u32| ["R", "R", "P", "P", "P"].map(|role| format!("{role}{k}"));
        let want: Vec<String> = (0..2).flat_map(pipeline).chain(["M".into(), "W".into()]).collect();
        assert_eq!(roles(&nodes), want);
        let width = |columns: &[String]| -> f64 {
            let column = |c: &str| db.tables().iter().find_map(|t| t.column(c)).unwrap();
            columns.iter().map(|c| column(c).data_type().byte_width() as f64).sum()
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        for pipeline in [0, 5] {
            let listed = |t: usize| live.get(pipeline + t).cloned().flatten();
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
        for (plan, ways) in [(plan(), 2), (plan().select(Predicate::between("r", 1, 2)), 3)] {
            let whole = flatten(&plan);
            let estimates = ESTIMATES.iter().copied().cycle().take(whole.len()).collect();
            let (nodes, _) = expand(whole, estimates, ways, 0.0);
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
