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
use crate::exec::policy::{PolicyCtx, TaskInfo};
use crate::exec::task::{flatten, Role, ShardSpec, TaskNode};
use crate::plan::Op;
use robustq_sim::{DeviceId, Direction, VirtualTime};
use robustq_storage::ColumnId;
use robustq_trace::{EstVec, PlacePhase, ShedReason, TraceEvent, TransferKind};
use std::sync::Arc;

/// Rewrite a flattened task graph for intra-operator sharding: every leaf
/// scan whose estimated input is at least `min_bytes` becomes `ways`
/// [`Role::Shard`] tasks plus one [`Role::Merge`] barrier that takes the
/// scan's place in the graph — all of them the scan's own shared `Op`.
/// The rewrite preserves the postorder invariants (children before
/// parents, root last) and leaves the `(input, output)` byte estimates
/// aligned: shards get `1/ways` of the scan's, the merge consumes and
/// reproduces the scan's output estimate.
pub(crate) fn expand_shards(
    nodes: Vec<TaskNode>,
    estimates: Vec<(f64, f64)>,
    ways: usize,
    min_bytes: f64,
) -> (Vec<TaskNode>, Vec<(f64, f64)>) {
    if ways < 2 {
        return (nodes, estimates);
    }
    let mut out: Vec<TaskNode> = Vec::with_capacity(nodes.len());
    let mut est: Vec<(f64, f64)> = Vec::with_capacity(nodes.len());
    // New index of each old node (the merge barrier stands in for a
    // sharded scan); edges are remapped in the pass below.
    let mut remap: Vec<usize> = Vec::with_capacity(nodes.len());
    for (mut node, e) in nodes.into_iter().zip(estimates) {
        if matches!(*node.op, Op::Scan { .. }) && e.0 >= min_bytes {
            let merge = out.len() + ways;
            for index in 0..ways {
                out.push(TaskNode {
                    op: Arc::clone(&node.op),
                    role: Role::Shard(ShardSpec { index: index as u32, of: ways as u32 }),
                    children: Vec::new(),
                    parent: Some(merge),
                });
                est.push((e.0 / ways as f64, e.1 / ways as f64));
            }
            node.role = Role::Merge;
            est.push((e.1, e.1));
        } else {
            est.push(e);
        }
        remap.push(out.len());
        out.push(node);
    }
    for &n in &remap {
        let node = &mut out[n];
        node.parent = node.parent.map(|p| remap[p]);
        match node.role {
            Role::Merge => node.children = (n - ways..n).collect(),
            _ => node.children.iter_mut().for_each(|c| *c = remap[*c]),
        }
    }
    (out, est)
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
        let (nodes, estimates) =
            expand_shards(nodes, estimates, ways, self.opts.shard_min_bytes);

        for (node, est) in nodes.into_iter().zip(estimates) {
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
        self.queries.push(QueryState {
            session,
            seq,
            root,
            first_task: base,
            window,
            standing,
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
                self.tasks[t].annotation = Some(p.device);
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

    pub(crate) fn exact_bytes_in(&self, task: usize) -> u64 {
        let t = &self.tasks[task];
        if t.children.is_empty() {
            // A windowed tick's feed-table scan reads only the window's
            // slice of each base column.
            let win_frac = self.windowed_fraction(&t.op, self.queries[t.query].window);
            let full: u64 =
                t.base_columns.iter().map(|&c| self.db.column_size(c)).sum();
            let full = (full as f64 * win_frac) as u64;
            // A shard reads only its row-range slice of each base column.
            match t.role.shard() {
                Some(s) => (full as f64 * s.fraction()) as u64,
                None => full,
            }
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
                // Partition keys home a byte-range slice of the column;
                // whole-column keys move it in full.
                let full = self.db.column_size(ColumnId(key.column_id()));
                let bytes = match key.partition_of() {
                    Some((index, of)) => robustq_sim::partition_bytes(full, index, of),
                    None => full,
                };
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
            let (nodes, est) = expand_shards(flatten(&plan()), ESTIMATES.to_vec(), ways, 0.0);
            assert_eq!(est, ESTIMATES);
            assert!(nodes.iter().all(|n| n.role == Role::Whole));
        }
    }

    #[test]
    fn shards_and_their_merge_run_the_scans_own_op() {
        let plan = plan();
        let whole = flatten(&plan);
        // Only the lineorder scan is big enough to shard.
        let (nodes, est) = expand_shards(whole.clone(), ESTIMATES.to_vec(), 3, 100.0);
        assert_postorder(&nodes);
        let roles: Vec<Role> = nodes.iter().map(|n| n.role).collect();
        let shard = |index| Role::Shard(ShardSpec { index, of: 3 });
        assert_eq!(
            roles,
            [Role::Whole, shard(0), shard(1), shard(2), Role::Merge, Role::Whole, Role::Whole]
        );
        // No payload is copied: shards and merge share the scan's `Arc`,
        // every other task keeps its own.
        for n in &nodes[1..=4] {
            assert!(Arc::ptr_eq(&n.op, &whole[1].op));
        }
        for (new, old) in [(0, 0), (5, 2), (6, 3)] {
            assert!(Arc::ptr_eq(&nodes[new].op, &whole[old].op));
        }
        // The merge stands where the scan stood: probe side of the join.
        assert_eq!(nodes[4].children, [1, 2, 3]);
        assert_eq!(nodes[5].children, [0, 4]);
        // Shards split the scan's estimates; the merge consumes and
        // reproduces its output.
        assert_eq!(est[1..=3], [(300.0, 100.0); 3]);
        assert_eq!(est[4], (300.0, 300.0));
        assert_eq!([est[0], est[5], est[6]], [ESTIMATES[0], ESTIMATES[2], ESTIMATES[3]]);
    }

    #[test]
    fn a_merge_reads_no_base_column() {
        let (nodes, _) = expand_shards(flatten(&plan()), ESTIMATES.to_vec(), 2, 0.0);
        assert_postorder(&nodes);
        // Both scans sharded: shard, shard, merge, twice over.
        for scan in [&nodes[0..3], &nodes[3..6]] {
            let read = scan[0].op.scan_access();
            assert!(read.is_some());
            for shard in &scan[..2] {
                assert_eq!(shard.scan_access(), read, "a shard reads what its scan reads");
                assert_eq!(shard.op_class(), OpClass::Selection);
            }
            // No access-statistics hit and nothing to stage for the merge:
            // admission derives a task's base columns from `scan_access`.
            assert_eq!(scan[2].role, Role::Merge);
            assert_eq!(scan[2].scan_access(), None);
            assert_eq!(scan[2].op_class(), OpClass::Projection);
        }
    }
}
