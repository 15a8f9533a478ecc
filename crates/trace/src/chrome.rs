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
//!
//! The exporter is three parts: one `match` maps each event to at most
//! two `Record`s; the lane namer gives a lane its one `thread_name`
//! record the first time the lane is used; the renderer writes each
//! record once into one text buffer, keeping only its sort key and byte
//! range, and finally writes the sorted ranges out.

use crate::event::{OpOutcome, TraceEvent, TransferKind};
use crate::json::write_escaped;
use robustq_sim::{DeviceId, Direction, VirtualTime};
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Display, Write as _};
use std::io;
use std::ops::Range;

/// Lane (`tid`) assignments within the single trace process.
///
/// The first co-processor keeps the historical lane numbers (2..=6), so
/// a K = 1 trace is byte-identical to the pre-topology exporter. Each
/// further co-processor gets its own block of five lanes starting at
/// [`lane::EXTRA_DEVICES`]; the shared fault/placement lanes and the
/// session lanes keep their fixed slots.
mod lane {
    pub const CPU_OPS: u64 = 1;
    /// The first co-processor's block.
    pub const GPU: u64 = 2;
    pub const FAULTS: u64 = 7;
    pub const PLACEMENT: u64 = 8;
    /// Shard fan-out/merge spans (DESIGN.md §6), named on first use.
    pub const SHARDS: u64 = 9;
    /// Blocks of co-processors 2.. start here, [`BLOCK`] lanes each
    /// (ordinal `o ≥ 2` occupies `EXTRA_DEVICES + (o-2)*BLOCK ..`).
    pub const EXTRA_DEVICES: u64 = 10;
    pub const BLOCK: u64 = 5;
    /// Feed activity (appends, seals, window fires), named on first use.
    pub const FEED: u64 = 99;
    /// Session lanes start here: `tid = SESSIONS + session`.
    pub const SESSIONS: u64 = 100;
}

/// Lane offsets within a co-processor's block.
mod role {
    pub const OPS: u64 = 0;
    pub const H2D: u64 = 1;
    pub const D2H: u64 = 2;
    pub const HEAP: u64 = 3;
    pub const CACHE: u64 = 4;
}

/// Lanes named up front — the first co-processor's block with the
/// historical wording, keeping K = 1 exports byte-identical.
const FIXED_LANES: [(u64, &str); 8] = [
    (lane::CPU_OPS, "CPU kernels"),
    (lane::GPU + role::OPS, "GPU kernels"),
    (lane::GPU + role::H2D, "link host→device"),
    (lane::GPU + role::D2H, "link device→host"),
    (lane::GPU + role::HEAP, "GPU heap"),
    (lane::GPU + role::CACHE, "GPU column cache"),
    (lane::FAULTS, "fault injections"),
    (lane::PLACEMENT, "placement decisions"),
];

/// A further co-processor's block labels, as `prefix{device}suffix`.
const BLOCK_LABELS: [(&str, &str); 5] = [
    ("", " kernels"),
    ("link host→", ""),
    ("link ", "→host"),
    ("", " heap"),
    ("", " column cache"),
];

/// Text not yet rendered: a record's name or arguments.
type Text<'a> = fmt::Arguments<'a>;

/// One Chrome record before rendering.
struct Record<'a> {
    ts: u64,
    ph: char,
    lane: u64,
    name: Text<'a>,
    /// Empty for metadata, which carries no category.
    cat: &'static str,
    dur: Option<u64>,
    /// The members of the `args` object, without braces.
    args: Text<'a>,
}

/// An `X` (complete) record over `[start, end]`, in nanoseconds.
fn span<'a>(
    cat: &'static str,
    lane: u64,
    start: u64,
    end: u64,
    name: Text<'a>,
    args: Text<'a>,
) -> Record<'a> {
    let dur = Some(end.saturating_sub(start));
    Record { ts: start, ph: 'X', lane, name, cat, dur, args }
}

/// An `i` (instant) record at `at`.
fn instant<'a>(
    cat: &'static str,
    lane: u64,
    at: VirtualTime,
    name: Text<'a>,
    args: Text<'a>,
) -> Record<'a> {
    Record { ts: at.as_nanos(), ph: 'i', lane, name, cat, dur: None, args }
}

/// Virtual nanoseconds as microseconds with three decimals.
fn us(ns: u64) -> impl Display {
    fmt::from_fn(move |f| write!(f, "{}.{:03}", ns / 1_000, ns % 1_000))
}

/// `v` when `cond`, nothing otherwise.
fn when<T: Display>(cond: bool, v: T) -> impl Display {
    fmt::from_fn(move |f| if cond { v.fmt(f) } else { Ok(()) })
}

/// The `,"query":q` argument of events that may carry no query.
fn query_arg(query: u32) -> impl Display {
    when(query != TraceEvent::NO_QUERY, fmt::from_fn(move |f| write!(f, ",\"query\":{query}")))
}

/// Order at equal timestamps, the position of `ph` in `MEXCiB`:
/// metadata first, then `E` before anything that may open or occupy the
/// lane, `B` last.
fn phase_rank(ph: char) -> u8 {
    "MEXCiB".find(ph).unwrap_or(6) as u8
}

/// The exporter's state over one event stream.
#[derive(Default)]
struct Exporter {
    /// Every rendered record, back to back.
    text: String,
    /// Per record: timestamp, phase rank and byte range. The range start
    /// grows with emission order, so it is also the tie-breaking seq.
    keys: Vec<(u64, u8, Range<usize>)>,
    /// A record's name before it is escaped into `text`.
    name: String,
    /// Lanes that carry their `thread_name` record.
    named: HashSet<u64>,
    /// Per session, the latest span end rendered on its lane. A span
    /// starting before it overlaps (open-loop concurrency within one
    /// session) and renders as an `X`, so `B`/`E` nesting stays balanced.
    busy: HashMap<u32, u64>,
    /// Fan-out instants by (query, merge task): the merge renders the
    /// whole shard span, fan-out → merge completion, as one `X`.
    fanouts: HashMap<(u32, u32), u64>,
}

impl Exporter {
    /// Render `r` into the buffer and keep its sort key.
    fn emit(&mut self, r: Record<'_>) {
        let start = self.text.len();
        self.name.clear();
        let _ = self.name.write_fmt(r.name);
        let t = &mut self.text;
        t.push_str("{\"name\":");
        write_escaped(t, &self.name);
        if !r.cat.is_empty() {
            let _ = write!(t, ",\"cat\":\"{}\"", r.cat);
        }
        let scope = when(r.ph == 'i', "\"s\":\"t\",");
        let _ = write!(t, ",\"ph\":\"{}\",{scope}\"ts\":{}", r.ph, us(r.ts));
        if let Some(dur) = r.dur {
            let _ = write!(t, ",\"dur\":{}", us(dur));
        }
        let _ = write!(t, ",\"pid\":1,\"tid\":{},\"args\":{{{}}}}}", r.lane, r.args);
        self.keys.push((r.ts, phase_rank(r.ph), start..self.text.len()));
    }

    /// `tid`, emitting its `thread_name` record on first use.
    fn lane(&mut self, tid: u64, label: impl Display) -> u64 {
        if self.named.insert(tid) {
            let mut quoted = String::new();
            write_escaped(&mut quoted, &label.to_string());
            let (name, args) = (format_args!("thread_name"), format_args!("\"name\":{quoted}"));
            self.emit(Record { ts: 0, ph: 'M', lane: tid, name, cat: "", dur: None, args });
        }
        tid
    }

    fn session_lane(&mut self, session: u32) -> u64 {
        self.lane(lane::SESSIONS + session as u64, format_args!("session {session}"))
    }

    /// The lane at `role` of co-processor `device`, naming the device's
    /// whole block on its first use.
    fn device_lane(&mut self, device: DeviceId, role: u64) -> u64 {
        debug_assert!(device.is_coprocessor());
        let block = match device.index() as u64 {
            1 => lane::GPU,
            o => lane::EXTRA_DEVICES + (o - 2) * lane::BLOCK,
        };
        if !self.named.contains(&block) {
            for (offset, (pre, post)) in (0..).zip(BLOCK_LABELS) {
                self.lane(block + offset, format_args!("{pre}{device}{post}"));
            }
        }
        block + role
    }

    /// Map one event to its records.
    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            // Latency is visible as the B/E span, which carries `submit`.
            TraceEvent::QuerySubmit { .. } => {}
            TraceEvent::QueryDone { query, session, seq, submit, admit, end, rows } => {
                let lane = self.session_lane(session);
                let (start, end) = (submit.as_nanos(), end.as_nanos());
                let busy = self.busy.entry(session).or_insert(0);
                let overlaps = start < *busy;
                *busy = (*busy).max(end);
                let name = format_args!("query {query} (seq {seq})");
                if overlaps {
                    let wait = us(admit.as_nanos().saturating_sub(start));
                    let args =
                        format_args!("\"query\":{query},\"rows\":{rows},\"admit_wait_us\":{wait}");
                    self.emit(span("query", lane, start, end, name, args));
                } else {
                    let (cat, dur, args) = ("query", None, format_args!("\"query\":{query}"));
                    self.emit(Record { ts: start, ph: 'B', lane, name, cat, dur, args });
                    let args = format_args!("\"rows\":{rows}");
                    self.emit(Record { ts: end, ph: 'E', lane, name, cat, dur, args });
                }
            }
            TraceEvent::QueryShed { session, seq, submit, reason, at } => {
                let lane = self.session_lane(session);
                let submit = us(submit.as_nanos());
                let args =
                    format_args!("\"seq\":{seq},\"reason\":\"{reason:?}\",\"submit_us\":{submit}");
                self.emit(instant("query", lane, at, format_args!("shed ({reason:?})"), args));
            }
            TraceEvent::OpSpan {
                query, task, op, device, start, end, bytes_in, bytes_out, rows_out, outcome,
                queued_at,
            } => {
                let lane = match device {
                    DeviceId::Cpu => lane::CPU_OPS,
                    _ => self.device_lane(device, role::OPS),
                };
                let (mark, outcome) = match outcome {
                    OpOutcome::Completed => ("", "completed"),
                    OpOutcome::Aborted { injected: true } => {
                        (" ✗ (injected abort)", "aborted-injected")
                    }
                    OpOutcome::Aborted { injected: false } => (" ✗ (abort)", "aborted"),
                };
                let (start, end) = (start.as_nanos(), end.as_nanos());
                let wait = us(start.saturating_sub(queued_at.as_nanos()));
                let args = format_args!(
                    "\"query\":{query},\"task\":{task},\"bytes_in\":{bytes_in},\"bytes_out\":{bytes_out},\"rows_out\":{rows_out},\"queue_wait_us\":{wait},\"outcome\":\"{outcome}\""
                );
                self.emit(span("op", lane, start, end, format_args!("{op:?}{mark}"), args));
            }
            TraceEvent::Transfer {
                device, dir, kind, query, bytes, start, end, service, faulted, ..
            } => {
                let lane = self.device_lane(device, match dir {
                    Direction::HostToDevice => role::H2D,
                    Direction::DeviceToHost => role::D2H,
                });
                let kind = match kind {
                    TransferKind::Input => "input",
                    TransferKind::Result => "result",
                    TransferKind::Placement => "placement",
                };
                let name = format_args!("{kind}{} ({bytes} B)", when(faulted, " ✗"));
                let (requested, query) = (us(start.as_nanos()), query_arg(query));
                let args = format_args!(
                    "\"bytes\":{bytes},\"kind\":\"{kind}\",\"faulted\":{faulted},\"requested_us\":{requested}{query}"
                );
                // Render the slot actually occupying the FIFO (queueing
                // behind earlier transfers excluded), so lane spans never
                // overlap.
                let end = end.as_nanos();
                let start = end.saturating_sub(service.as_nanos());
                self.emit(span("xfer", lane, start, end, name, args));
            }
            TraceEvent::CacheProbe { device, key, bytes, at, .. }
            | TraceEvent::CacheInsert { device, key, bytes, at }
            | TraceEvent::CacheEvict { device, key, bytes, at } => {
                let name = match *ev {
                    TraceEvent::CacheProbe { hit: true, .. } => "hit",
                    TraceEvent::CacheProbe { .. } => "miss",
                    TraceEvent::CacheInsert { .. } => "insert",
                    _ => "evict",
                };
                let lane = self.device_lane(device, role::CACHE);
                let args = format_args!("\"key\":{},\"bytes\":{bytes}", key.0);
                self.emit(instant("cache", lane, at, format_args!("{name}"), args));
            }
            TraceEvent::HeapAlloc { device, used, at, .. }
            | TraceEvent::HeapFree { device, used, at, .. } => {
                let lane = self.device_lane(device, role::HEAP);
                // The first co-processor keeps the historical counter
                // name; further devices get their ordinal in the name.
                let n = device.index();
                let name = format_args!("gpu{}_heap_used", when(n > 1, n));
                let (ts, cat, args) = (at.as_nanos(), "heap", format_args!("\"bytes\":{used}"));
                self.emit(Record { ts, ph: 'C', lane, name, cat, dur: None, args });
            }
            TraceEvent::Fault { kind, query, at } => {
                let args = format_args!("\"kind\":\"{kind:?}\"{}", query_arg(query));
                self.emit(instant("fault", lane::FAULTS, at, format_args!("{kind:?}"), args));
            }
            TraceEvent::Retry { query, backoff, at } => {
                let (backoff, query) = (us(backoff.as_nanos()), query_arg(query));
                let args = format_args!("\"backoff_us\":{backoff}{query}");
                self.emit(instant("fault", lane::FAULTS, at, format_args!("retry"), args));
            }
            TraceEvent::ShardFanout { query, task, shards, at } => {
                let lane = self.lane(lane::SHARDS, "shard fan-out");
                self.fanouts.entry((query, task)).or_insert(at.as_nanos());
                let name = format_args!("fanout q{query} t{task}");
                let args = format_args!("\"query\":{query},\"task\":{task},\"shards\":{shards}");
                self.emit(instant("shard", lane, at, name, args));
            }
            TraceEvent::ShardMerge { query, task, shards, rows, bytes, start, end } => {
                let lane = self.lane(lane::SHARDS, "shard fan-out");
                // The outer span runs from fan-out (falling back to the
                // merge start for truncated streams) to merge completion;
                // the nested span is the merge kernel itself.
                let (start, end) = (start.as_nanos(), end.as_nanos());
                let open = self.fanouts.get(&(query, task)).copied().unwrap_or(start);
                let name = format_args!("shard q{query} t{task}");
                let args = format_args!("\"query\":{query},\"task\":{task},\"shards\":{shards}");
                self.emit(span("shard", lane, open, end, name, args));
                let name = format_args!("merge q{query} t{task}");
                let args = format_args!(
                    "\"query\":{query},\"task\":{task},\"shards\":{shards},\"rows\":{rows},\"bytes\":{bytes}"
                );
                self.emit(span("shard", lane, start, end, name, args));
            }
            TraceEvent::Placement { query, task, op, phase, est, chosen, reason, at } => {
                let cpu = us(est.get(DeviceId::Cpu).as_nanos());
                let gpu = us(est.get(DeviceId::Gpu).as_nanos());
                // Devices past the classic pair only appear when the
                // policy actually estimated them (K = 1 stays identical).
                let further = fmt::from_fn(|f| {
                    est.iter().skip(2).try_for_each(|(d, t)| {
                        write!(f, ",\"est_gpu{}_us\":{}", d.index(), us(t.as_nanos()))
                    })
                });
                let name = format_args!("{op:?} → {chosen}");
                let args = format_args!(
                    "\"query\":{query},\"task\":{task},\"phase\":\"{phase:?}\",\"est_cpu_us\":{cpu},\"est_gpu_us\":{gpu}{further},\"chosen\":\"{chosen}\",\"reason\":\"{reason:?}\""
                );
                self.emit(instant("placement", lane::PLACEMENT, at, name, args));
            }
            // Refinements ride the placement lane: they are the cost
            // model's side of the placement conversation.
            TraceEvent::ModelUpdate { query, task, op, device, predicted, actual, at } => {
                let (predicted, actual) = (us(predicted.as_nanos()), us(actual.as_nanos()));
                let name = format_args!("{op:?} model update");
                let args = format_args!(
                    "\"query\":{query},\"task\":{task},\"device\":\"{device}\",\"predicted_us\":{predicted},\"actual_us\":{actual}"
                );
                self.emit(instant("model", lane::PLACEMENT, at, name, args));
            }
            TraceEvent::OpStaged { query, task, device, chunks, chunk_bytes, at } => {
                let lane = self.device_lane(device, role::HEAP);
                let args = format_args!(
                    "\"query\":{query},\"task\":{task},\"chunks\":{chunks},\"chunk_bytes\":{chunk_bytes}"
                );
                self.emit(instant("staging", lane, at, format_args!("staged ×{chunks}"), args));
            }
            TraceEvent::Append { table, rows, bytes, epoch, at } => {
                let lane = self.lane(lane::FEED, "feed");
                let args = format_args!(
                    "\"table\":{table},\"rows\":{rows},\"bytes\":{bytes},\"epoch\":{epoch}"
                );
                self.emit(instant("feed", lane, at, format_args!("append +{rows} e{epoch}"), args));
            }
            TraceEvent::EpochSeal { table, segment, rows, epoch, at } => {
                let lane = self.lane(lane::FEED, "feed");
                let name = format_args!("seal s{segment} e{epoch}");
                let args = format_args!(
                    "\"table\":{table},\"segment\":{segment},\"rows\":{rows},\"epoch\":{epoch}"
                );
                self.emit(instant("feed", lane, at, name, args));
            }
            TraceEvent::WindowFire { standing, tick, query, lo, hi, at } => {
                let lane = self.lane(lane::FEED, "feed");
                let name = format_args!("fire s{standing} w{tick}");
                let args = format_args!(
                    "\"standing\":{standing},\"tick\":{tick},\"query\":{query},\"lo\":{lo},\"hi\":{hi}"
                );
                self.emit(instant("feed", lane, at, name, args));
            }
        }
    }
}

/// Write `events` to `w` as a Chrome `trace_event` JSON document. The
/// writer sees one small write per record; hand it a buffered one.
pub fn write_chrome_trace(events: &[TraceEvent], mut w: impl io::Write) -> io::Result<()> {
    let mut ex = Exporter::default();
    for (tid, label) in FIXED_LANES {
        ex.lane(tid, label);
    }
    for ev in events {
        ex.event(ev);
    }
    ex.keys.sort_unstable_by_key(|(ts, rank, bytes)| (*ts, *rank, bytes.start));
    w.write_all(b"{\"traceEvents\":[\n")?;
    for (i, (_, _, bytes)) in ex.keys.iter().enumerate() {
        if i > 0 {
            w.write_all(b",\n")?;
        }
        w.write_all(ex.text[bytes.clone()].as_bytes())?;
    }
    w.write_all(
        b"\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"robustq-trace\",\"clock\":\"virtual\"}}",
    )
}

/// Render `events` as a Chrome `trace_event` JSON document: the `String`
/// adapter over [`write_chrome_trace`].
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut doc = Vec::new();
    write_chrome_trace(events, &mut doc).expect("writing to a Vec cannot fail");
    String::from_utf8(doc).expect("the exporter writes UTF-8")
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
