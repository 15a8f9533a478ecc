//! Chrome `trace_event` JSON export (Perfetto-loadable).
//!
//! One process (`pid` 1) with one lane (`tid`) per device for operator
//! spans, one per transfer direction, auxiliary lanes for heap, cache,
//! fault and placement events, and one lane per session carrying `B`/`E`
//! query spans. Timestamps are virtual-time microseconds with
//! nanosecond-resolution fractions.
//!
//! Device lanes use `X` (complete) events; concurrent kernels *overlap*
//! within a lane, which is the processor-sharing model rendered
//! faithfully rather than a bug. Transfer lanes never overlap (the link
//! is FIFO per direction). Session lanes are strictly nested: queries of
//! one session run closed-loop, so every `B` closes before the next
//! opens — the balance property `trace-lint` checks. Open-loop serving
//! (DESIGN.md §10) breaks that guarantee — one session may have several
//! queries in flight — so a query span that overlaps an earlier span on
//! its session lane degrades to an `X` (complete) event, keeping `B`/`E`
//! nesting balanced; shed queries appear as instants on their lane.

use crate::event::{OpOutcome, TraceEvent, TransferKind};
use crate::json::write_escaped;
use robustq_sim::DeviceId;
use std::fmt::Write as _;

/// Lane (`tid`) assignments within the single trace process.
///
/// The first co-processor keeps the historical lane numbers (2..=6), so
/// a K = 1 trace is byte-identical to the pre-topology exporter. Each
/// further co-processor gets its own block of five lanes starting at
/// [`lane::EXTRA_DEVICES`]; the shared fault/placement lanes and the
/// session lanes keep their fixed slots.
mod lane {
    pub const CPU_OPS: u64 = 1;
    pub const GPU_OPS: u64 = 2;
    pub const H2D: u64 = 3;
    pub const D2H: u64 = 4;
    pub const HEAP: u64 = 5;
    pub const CACHE: u64 = 6;
    pub const FAULTS: u64 = 7;
    pub const PLACEMENT: u64 = 8;
    /// Shard fan-out/merge spans (DESIGN.md §6). The label is emitted
    /// lazily on the first shard event, so unsharded exports stay
    /// byte-identical to earlier releases.
    pub const SHARDS: u64 = 9;
    /// Lane blocks of co-processors 2.. start here, [`BLOCK`] lanes
    /// each (co-processor ordinal `o ≥ 2` occupies
    /// `EXTRA_DEVICES + (o-2)*BLOCK ..`, staying below [`SESSIONS`]
    /// for any realistic fleet).
    pub const EXTRA_DEVICES: u64 = 10;
    /// Lanes per co-processor block: ops, h2d, d2h, heap, cache.
    pub const BLOCK: u64 = 5;
    /// Feed activity (appends, segment seals, window fires; DESIGN.md
    /// §6). Named lazily on the first feed event, so batch exports stay
    /// byte-identical to earlier releases.
    pub const FEED: u64 = 99;
    /// Session lanes start here: `tid = SESSIONS + session`.
    pub const SESSIONS: u64 = 100;
}

/// Per-device lane roles within a co-processor's block.
#[derive(Clone, Copy)]
enum Role {
    Ops,
    H2d,
    D2h,
    Heap,
    Cache,
}

impl Role {
    fn offset(self) -> u64 {
        match self {
            Role::Ops => 0,
            Role::H2d => 1,
            Role::D2h => 2,
            Role::Heap => 3,
            Role::Cache => 4,
        }
    }

    fn lane_name(self, device: DeviceId) -> String {
        match self {
            Role::Ops => format!("{device} kernels"),
            Role::H2d => format!("link host→{device}"),
            Role::D2h => format!("link {device}→host"),
            Role::Heap => format!("{device} heap"),
            Role::Cache => format!("{device} column cache"),
        }
    }
}

/// The lane of `role` for co-processor `device`.
fn device_lane(device: DeviceId, role: Role) -> u64 {
    debug_assert!(device.is_coprocessor());
    let ordinal = device.index() as u64; // 1-based among co-processors
    if ordinal == 1 {
        match role {
            Role::Ops => lane::GPU_OPS,
            Role::H2d => lane::H2D,
            Role::D2h => lane::D2H,
            Role::Heap => lane::HEAP,
            Role::Cache => lane::CACHE,
        }
    } else {
        lane::EXTRA_DEVICES + (ordinal - 2) * lane::BLOCK + role.offset()
    }
}

/// Sort key preserving lane-local ordering requirements at equal
/// timestamps: metadata first, then `E` before anything that may open or
/// occupy the lane, `B` last.
fn phase_rank(ph: char) -> u8 {
    match ph {
        'M' => 0,
        'E' => 1,
        'X' => 2,
        'C' => 3,
        'i' => 4,
        'B' => 5,
        _ => 6,
    }
}

struct Emitted {
    ts_ns: u64,
    ph: char,
    seq: usize,
    json: String,
}

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push(out: &mut Vec<Emitted>, ts_ns: u64, ph: char, json: String) {
    let seq = out.len();
    out.push(Emitted { ts_ns, ph, seq, json });
}

fn complete_event(
    name: &str,
    cat: &str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
    args: &str,
) -> String {
    let mut s = String::new();
    s.push_str("{\"name\":");
    write_escaped(&mut s, name);
    let _ = write!(
        s,
        ",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}",
        us(start_ns),
        us(end_ns.saturating_sub(start_ns)),
    );
    s
}

fn instant_event(name: &str, cat: &str, tid: u64, ts_ns: u64, args: &str) -> String {
    let mut s = String::new();
    s.push_str("{\"name\":");
    write_escaped(&mut s, name);
    let _ = write!(
        s,
        ",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}",
        us(ts_ns),
    );
    s
}

fn thread_name(tid: u64, name: &str) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":"
    );
    write_escaped(&mut s, name);
    s.push_str("}}");
    s
}

/// Push the five lane labels of a ≥ 2nd co-processor on first sight
/// (the first co-processor's labels are emitted upfront with the
/// historical wording, keeping K = 1 exports byte-identical).
fn ensure_device_lanes(out: &mut Vec<Emitted>, seen: &mut Vec<DeviceId>, device: DeviceId) {
    if device.index() <= 1 || seen.contains(&device) {
        return;
    }
    seen.push(device);
    for role in [Role::Ops, Role::H2d, Role::D2h, Role::Heap, Role::Cache] {
        push(
            out,
            0,
            'M',
            thread_name(device_lane(device, role), &role.lane_name(device)),
        );
    }
}

/// Render `events` as a Chrome `trace_event` JSON document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out: Vec<Emitted> = Vec::with_capacity(events.len() + 16);

    // Lane labels.
    push(&mut out, 0, 'M', thread_name(lane::CPU_OPS, "CPU kernels"));
    push(&mut out, 0, 'M', thread_name(lane::GPU_OPS, "GPU kernels"));
    push(&mut out, 0, 'M', thread_name(lane::H2D, "link host→device"));
    push(&mut out, 0, 'M', thread_name(lane::D2H, "link device→host"));
    push(&mut out, 0, 'M', thread_name(lane::HEAP, "GPU heap"));
    push(&mut out, 0, 'M', thread_name(lane::CACHE, "GPU column cache"));
    push(&mut out, 0, 'M', thread_name(lane::FAULTS, "fault injections"));
    push(&mut out, 0, 'M', thread_name(lane::PLACEMENT, "placement decisions"));
    // Per-session lane occupancy: the latest `end` rendered so far. A
    // span starting before that overlaps (open-loop concurrency within
    // one session) and must not open a `B` the balance check would trip
    // on; it renders as an `X` instead.
    let mut session_busy: Vec<(u32, u64)> = Vec::new();
    let mut sessions_seen: Vec<u32> = Vec::new();
    let mut devices_seen: Vec<DeviceId> = Vec::new();
    let mut shard_lane_named = false;
    let mut feed_lane_named = false;
    // Fan-out instants by (query, merge task), so the merge can emit the
    // full shard span (fan-out → merge completion) as one `X` event.
    let mut fanouts: Vec<((u32, u32), u64)> = Vec::new();

    for ev in events {
        match *ev {
            TraceEvent::QuerySubmit { .. } => {
                // Latency is visible as the B/E span; submissions add an
                // instant on the session lane only once the lane exists
                // (QueryDone names it), so skip — spans carry `submit`.
            }
            TraceEvent::QueryDone { query, session, seq, submit, admit, end, rows } => {
                if !sessions_seen.contains(&session) {
                    sessions_seen.push(session);
                    push(
                        &mut out,
                        0,
                        'M',
                        thread_name(
                            lane::SESSIONS + session as u64,
                            &format!("session {session}"),
                        ),
                    );
                }
                let tid = lane::SESSIONS + session as u64;
                let name = format!("query {query} (seq {seq})");
                let start_ns = submit.as_nanos();
                let end_ns = end.as_nanos();
                let busy = match session_busy.iter().position(|(s, _)| *s == session) {
                    Some(i) => &mut session_busy[i],
                    None => {
                        session_busy.push((session, 0));
                        session_busy.last_mut().expect("just pushed")
                    }
                };
                if start_ns < busy.1 {
                    // Overlaps an already-rendered span on this session
                    // lane (open-loop concurrency): `X` keeps `B`/`E`
                    // nesting balanced.
                    let args = format!(
                        "\"query\":{query},\"rows\":{rows},\"admit_wait_us\":{}",
                        us(admit.as_nanos().saturating_sub(start_ns)),
                    );
                    push(
                        &mut out,
                        start_ns,
                        'X',
                        complete_event(&name, "query", tid, start_ns, end_ns, &args),
                    );
                } else {
                    let mut b = String::new();
                    b.push_str("{\"name\":");
                    write_escaped(&mut b, &name);
                    let _ = write!(
                        b,
                        ",\"cat\":\"query\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"query\":{query}}}}}",
                        us(start_ns),
                    );
                    push(&mut out, start_ns, 'B', b);
                    let mut e = String::new();
                    e.push_str("{\"name\":");
                    write_escaped(&mut e, &name);
                    let _ = write!(
                        e,
                        ",\"cat\":\"query\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"rows\":{rows}}}}}",
                        us(end_ns),
                    );
                    push(&mut out, end_ns, 'E', e);
                }
                busy.1 = busy.1.max(end_ns);
            }
            TraceEvent::QueryShed { session, seq, submit, reason, at } => {
                if !sessions_seen.contains(&session) {
                    sessions_seen.push(session);
                    push(
                        &mut out,
                        0,
                        'M',
                        thread_name(
                            lane::SESSIONS + session as u64,
                            &format!("session {session}"),
                        ),
                    );
                }
                let args = format!(
                    "\"seq\":{seq},\"reason\":\"{reason:?}\",\"submit_us\":{}",
                    us(submit.as_nanos()),
                );
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        &format!("shed ({reason:?})"),
                        "query",
                        lane::SESSIONS + session as u64,
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::OpSpan {
                query,
                task,
                op,
                device,
                start,
                end,
                bytes_in,
                bytes_out,
                rows_out,
                outcome,
                queued_at,
            } => {
                let tid = if device == DeviceId::Cpu {
                    lane::CPU_OPS
                } else {
                    ensure_device_lanes(&mut out, &mut devices_seen, device);
                    device_lane(device, Role::Ops)
                };
                let (name, outcome_s) = match outcome {
                    OpOutcome::Completed => (format!("{op:?}"), "completed"),
                    OpOutcome::Aborted { injected: true } => {
                        (format!("{op:?} ✗ (injected abort)"), "aborted-injected")
                    }
                    OpOutcome::Aborted { injected: false } => {
                        (format!("{op:?} ✗ (abort)"), "aborted")
                    }
                };
                let args = format!(
                    "\"query\":{query},\"task\":{task},\"bytes_in\":{bytes_in},\"bytes_out\":{bytes_out},\"rows_out\":{rows_out},\"queue_wait_us\":{},\"outcome\":\"{outcome_s}\"",
                    us(start.as_nanos().saturating_sub(queued_at.as_nanos())),
                );
                push(
                    &mut out,
                    start.as_nanos(),
                    'X',
                    complete_event(&name, "op", tid, start.as_nanos(), end.as_nanos(), &args),
                );
            }
            TraceEvent::Transfer {
                device, dir, kind, query, bytes, start, end, service, faulted, ..
            } => {
                ensure_device_lanes(&mut out, &mut devices_seen, device);
                let tid = match dir {
                    robustq_sim::Direction::HostToDevice => device_lane(device, Role::H2d),
                    robustq_sim::Direction::DeviceToHost => device_lane(device, Role::D2h),
                };
                let kind_s = match kind {
                    TransferKind::Input => "input",
                    TransferKind::Result => "result",
                    TransferKind::Placement => "placement",
                };
                let name = if faulted {
                    format!("{kind_s} ✗ ({bytes} B)")
                } else {
                    format!("{kind_s} ({bytes} B)")
                };
                let queued_ns = end.as_nanos().saturating_sub(service.as_nanos());
                let mut args = format!(
                    "\"bytes\":{bytes},\"kind\":\"{kind_s}\",\"faulted\":{faulted},\"requested_us\":{}",
                    us(start.as_nanos()),
                );
                if query != TraceEvent::NO_QUERY {
                    let _ = write!(args, ",\"query\":{query}");
                }
                // Render the slot actually occupying the FIFO (queueing
                // behind earlier transfers excluded), so lane spans never
                // overlap.
                push(
                    &mut out,
                    queued_ns,
                    'X',
                    complete_event(&name, "xfer", tid, queued_ns, end.as_nanos(), &args),
                );
            }
            TraceEvent::CacheProbe { device, key, bytes, hit, at } => {
                ensure_device_lanes(&mut out, &mut devices_seen, device);
                let name = if hit { "hit" } else { "miss" };
                let args = format!("\"key\":{},\"bytes\":{bytes}", key.0);
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        name,
                        "cache",
                        device_lane(device, Role::Cache),
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::CacheInsert { device, key, bytes, at } => {
                ensure_device_lanes(&mut out, &mut devices_seen, device);
                let args = format!("\"key\":{},\"bytes\":{bytes}", key.0);
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        "insert",
                        "cache",
                        device_lane(device, Role::Cache),
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::CacheEvict { device, key, bytes, at } => {
                ensure_device_lanes(&mut out, &mut devices_seen, device);
                let args = format!("\"key\":{},\"bytes\":{bytes}", key.0);
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        "evict",
                        "cache",
                        device_lane(device, Role::Cache),
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::HeapAlloc { device, used, at, .. }
            | TraceEvent::HeapFree { device, used, at, .. } => {
                ensure_device_lanes(&mut out, &mut devices_seen, device);
                // The first co-processor keeps the historical counter
                // name; further devices get their ordinal in the name.
                let name = if device.index() == 1 {
                    "gpu_heap_used".to_string()
                } else {
                    format!("gpu{}_heap_used", device.index())
                };
                let mut s = String::new();
                let _ = write!(
                    s,
                    "{{\"name\":\"{name}\",\"cat\":\"heap\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"bytes\":{used}}}}}",
                    us(at.as_nanos()),
                    device_lane(device, Role::Heap),
                );
                push(&mut out, at.as_nanos(), 'C', s);
            }
            TraceEvent::Fault { kind, query, at } => {
                let mut args = format!("\"kind\":\"{kind:?}\"");
                if query != TraceEvent::NO_QUERY {
                    let _ = write!(args, ",\"query\":{query}");
                }
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        &format!("{kind:?}"),
                        "fault",
                        lane::FAULTS,
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::Retry { query, backoff, at } => {
                let mut args = format!("\"backoff_us\":{}", us(backoff.as_nanos()));
                if query != TraceEvent::NO_QUERY {
                    let _ = write!(args, ",\"query\":{query}");
                }
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event("retry", "fault", lane::FAULTS, at.as_nanos(), &args),
                );
            }
            TraceEvent::ShardFanout { query, task, shards, at } => {
                if !shard_lane_named {
                    shard_lane_named = true;
                    push(&mut out, 0, 'M', thread_name(lane::SHARDS, "shard fan-out"));
                }
                fanouts.push(((query, task), at.as_nanos()));
                let args = format!("\"query\":{query},\"task\":{task},\"shards\":{shards}");
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        &format!("fanout q{query} t{task}"),
                        "shard",
                        lane::SHARDS,
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::ShardMerge { query, task, shards, rows, bytes, start, end } => {
                if !shard_lane_named {
                    shard_lane_named = true;
                    push(&mut out, 0, 'M', thread_name(lane::SHARDS, "shard fan-out"));
                }
                // The outer span runs from fan-out (falling back to the
                // merge start for truncated streams) to merge completion;
                // the nested span is the merge kernel itself.
                let open = fanouts
                    .iter()
                    .find(|(k, _)| *k == (query, task))
                    .map_or(start.as_nanos(), |&(_, ts)| ts);
                let args = format!("\"query\":{query},\"task\":{task},\"shards\":{shards}");
                push(
                    &mut out,
                    open,
                    'X',
                    complete_event(
                        &format!("shard q{query} t{task}"),
                        "shard",
                        lane::SHARDS,
                        open,
                        end.as_nanos(),
                        &args,
                    ),
                );
                let margs = format!(
                    "\"query\":{query},\"task\":{task},\"shards\":{shards},\"rows\":{rows},\"bytes\":{bytes}"
                );
                push(
                    &mut out,
                    start.as_nanos(),
                    'X',
                    complete_event(
                        &format!("merge q{query} t{task}"),
                        "shard",
                        lane::SHARDS,
                        start.as_nanos(),
                        end.as_nanos(),
                        &margs,
                    ),
                );
            }
            TraceEvent::Placement { query, task, op, phase, est, chosen, reason, at } => {
                let mut args = format!(
                    "\"query\":{query},\"task\":{task},\"phase\":\"{phase:?}\",\"est_cpu_us\":{},\"est_gpu_us\":{}",
                    us(est.get(DeviceId::Cpu).as_nanos()),
                    us(est.get(DeviceId::Gpu).as_nanos()),
                );
                // Devices past the classic pair only appear when the
                // policy actually estimated them (K = 1 stays identical).
                for (d, t) in est.iter().skip(2) {
                    let _ = write!(args, ",\"est_gpu{}_us\":{}", d.index(), us(t.as_nanos()));
                }
                let _ = write!(args, ",\"chosen\":\"{chosen}\",\"reason\":\"{reason:?}\"");
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        &format!("{op:?} → {chosen}"),
                        "placement",
                        lane::PLACEMENT,
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::ModelUpdate { query, task, op, device, predicted, actual, at } => {
                // Refinements ride the placement lane: they are the cost
                // model's side of the placement conversation.
                let args = format!(
                    "\"query\":{query},\"task\":{task},\"device\":\"{device}\",\"predicted_us\":{},\"actual_us\":{}",
                    us(predicted.as_nanos()),
                    us(actual.as_nanos()),
                );
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        &format!("{op:?} model update"),
                        "model",
                        lane::PLACEMENT,
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::OpStaged { query, task, device, chunks, chunk_bytes, at } => {
                ensure_device_lanes(&mut out, &mut devices_seen, device);
                let args = format!(
                    "\"query\":{query},\"task\":{task},\"chunks\":{chunks},\"chunk_bytes\":{chunk_bytes}"
                );
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        &format!("staged ×{chunks}"),
                        "staging",
                        device_lane(device, Role::Heap),
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::Append { table, rows, bytes, epoch, at } => {
                if !feed_lane_named {
                    feed_lane_named = true;
                    push(&mut out, 0, 'M', thread_name(lane::FEED, "feed"));
                }
                let args = format!(
                    "\"table\":{table},\"rows\":{rows},\"bytes\":{bytes},\"epoch\":{epoch}"
                );
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        &format!("append +{rows} e{epoch}"),
                        "feed",
                        lane::FEED,
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::EpochSeal { table, segment, rows, epoch, at } => {
                if !feed_lane_named {
                    feed_lane_named = true;
                    push(&mut out, 0, 'M', thread_name(lane::FEED, "feed"));
                }
                let args = format!(
                    "\"table\":{table},\"segment\":{segment},\"rows\":{rows},\"epoch\":{epoch}"
                );
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        &format!("seal s{segment} e{epoch}"),
                        "feed",
                        lane::FEED,
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
            TraceEvent::WindowFire { standing, tick, query, lo, hi, at } => {
                if !feed_lane_named {
                    feed_lane_named = true;
                    push(&mut out, 0, 'M', thread_name(lane::FEED, "feed"));
                }
                let args = format!(
                    "\"standing\":{standing},\"tick\":{tick},\"query\":{query},\"lo\":{lo},\"hi\":{hi}"
                );
                push(
                    &mut out,
                    at.as_nanos(),
                    'i',
                    instant_event(
                        &format!("fire s{standing} w{tick}"),
                        "feed",
                        lane::FEED,
                        at.as_nanos(),
                        &args,
                    ),
                );
            }
        }
    }

    out.sort_by(|a, b| {
        a.ts_ns
            .cmp(&b.ts_ns)
            .then(phase_rank(a.ph).cmp(&phase_rank(b.ph)))
            .then(a.seq.cmp(&b.seq))
    });

    let mut doc = String::new();
    doc.push_str("{\"traceEvents\":[\n");
    for (i, e) in out.iter().enumerate() {
        if i > 0 {
            doc.push_str(",\n");
        }
        doc.push_str(&e.json);
    }
    doc.push_str(
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"robustq-trace\",\"clock\":\"virtual\"}}",
    );
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EstVec;
    use crate::json::parse;
    use robustq_sim::{DeviceId, Direction, OpClass, VirtualTime};

    fn sample() -> Vec<TraceEvent> {
        let t = VirtualTime::from_micros;
        vec![
            TraceEvent::QuerySubmit { query: 0, session: 0, seq: 0, at: t(0) },
            TraceEvent::OpSpan {
                query: 0,
                task: 0,
                op: OpClass::Selection,
                device: DeviceId::Gpu,
                queued_at: t(0),
                start: t(1),
                end: t(5),
                bytes_in: 100,
                bytes_out: 10,
                rows_out: 2,
                outcome: crate::event::OpOutcome::Completed,
            },
            TraceEvent::Transfer {
                device: DeviceId::Gpu,
                dir: Direction::HostToDevice,
                kind: TransferKind::Input,
                query: 0,
                bytes: 100,
                start: t(1),
                end: t(2),
                service: VirtualTime::from_nanos(800),
                faulted: false,
                waste: VirtualTime::ZERO,
            },
            TraceEvent::QueryDone {
                query: 0,
                session: 0,
                seq: 0,
                submit: t(0),
                admit: t(0),
                end: t(6),
                rows: 2,
            },
        ]
    }

    #[test]
    fn export_is_valid_json() {
        let doc = chrome_trace_json(&sample());
        let v = parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.len() >= 4 + 8, "spans + metadata present");
        for e in events {
            assert!(e.get("ph").is_some() && e.get("ts").is_some());
        }
    }

    #[test]
    fn query_spans_are_balanced_b_e_pairs() {
        let doc = chrome_trace_json(&sample());
        let v = parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("query"))
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, vec!["B", "E"]);
    }

    #[test]
    fn placement_records_both_estimates() {
        let ev = TraceEvent::Placement {
            query: 1,
            task: 2,
            op: OpClass::HashJoin,
            phase: crate::event::PlacePhase::Ready,
            est: EstVec::pair(VirtualTime::from_micros(10), VirtualTime::from_micros(4)),
            chosen: DeviceId::Gpu,
            reason: crate::event::PlaceReason::CostModel,
            at: VirtualTime::from_micros(3),
        };
        let doc = chrome_trace_json(&[ev]);
        let v = parse(&doc).unwrap();
        let e = v
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("placement"))
            .unwrap();
        let args = e.get("args").unwrap();
        assert_eq!(args.get("est_cpu_us").unwrap().as_num(), Some(10.0));
        assert_eq!(args.get("est_gpu_us").unwrap().as_num(), Some(4.0));
        assert_eq!(args.get("chosen").unwrap().as_str(), Some("GPU"));
    }

    #[test]
    fn overlapping_session_spans_degrade_to_complete_events() {
        let t = VirtualTime::from_micros;
        // Open-loop: session 0 has two queries in flight. Completion
        // order is end order, so the long span [0, 10] arrives after the
        // nested [5, 8] one.
        let events = vec![
            TraceEvent::QueryDone {
                query: 1,
                session: 0,
                seq: 1,
                submit: t(5),
                admit: t(5),
                end: t(8),
                rows: 1,
            },
            TraceEvent::QueryDone {
                query: 0,
                session: 0,
                seq: 0,
                submit: t(0),
                admit: t(2),
                end: t(10),
                rows: 1,
            },
            TraceEvent::QueryShed {
                session: 0,
                seq: 2,
                submit: t(9),
                reason: crate::event::ShedReason::QueueFull,
                at: t(9),
            },
        ];
        let doc = chrome_trace_json(&events);
        crate::lint::lint_chrome_trace(&doc).expect("balanced despite overlap");
        let v = parse(&doc).unwrap();
        let parsed = v.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = parsed
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("query"))
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        // First-rendered span keeps B/E; the overlapping one is an X;
        // the shed query is an instant. (Sorted by ts: X@0, B@5, E@8, i@9.)
        assert_eq!(phases, vec!["X", "B", "E", "i"]);
        let x = parsed
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(
            x.get("args").unwrap().get("admit_wait_us").unwrap().as_num(),
            Some(2.0)
        );
        let shed = parsed
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("shed (QueueFull)"))
            .unwrap();
        assert_eq!(
            shed.get("args").unwrap().get("reason").unwrap().as_str(),
            Some("QueueFull")
        );
    }

    #[test]
    fn second_coprocessor_gets_its_own_lane_block() {
        let t = VirtualTime::from_micros;
        let g2 = DeviceId::coprocessor(2);
        let events = vec![
            TraceEvent::OpSpan {
                query: 0,
                task: 0,
                op: OpClass::Selection,
                device: g2,
                queued_at: t(0),
                start: t(1),
                end: t(5),
                bytes_in: 100,
                bytes_out: 10,
                rows_out: 2,
                outcome: crate::event::OpOutcome::Completed,
            },
            TraceEvent::Transfer {
                device: g2,
                dir: Direction::HostToDevice,
                kind: TransferKind::Input,
                query: 0,
                bytes: 100,
                start: t(0),
                end: t(1),
                service: VirtualTime::from_nanos(500),
                faulted: false,
                waste: VirtualTime::ZERO,
            },
        ];
        let doc = chrome_trace_json(&events);
        let v = parse(&doc).unwrap();
        let parsed = v.get("traceEvents").unwrap().as_arr().unwrap();
        // The GPU2 block's lane labels were emitted.
        let names: Vec<String> = parsed
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .map(str::to_string)
            })
            .collect();
        assert!(names.iter().any(|n| n == "GPU2 kernels"));
        assert!(names.iter().any(|n| n == "link host→GPU2"));
        assert!(names.iter().any(|n| n == "GPU2 column cache"));
        // The op span landed on the block's ops lane, not the GPU1 lane.
        let op = parsed
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("op"))
            .unwrap();
        assert_eq!(
            op.get("tid").unwrap().as_num(),
            Some(lane::EXTRA_DEVICES as f64)
        );
        let xfer = parsed
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("xfer"))
            .unwrap();
        assert_eq!(
            xfer.get("tid").unwrap().as_num(),
            Some((lane::EXTRA_DEVICES + 1) as f64)
        );
    }
}
