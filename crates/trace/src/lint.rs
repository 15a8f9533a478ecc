//! Validation of exported Chrome `trace_event` documents.
//!
//! `trace-lint` (the `robustq-bench` bin wrapping [`lint_chrome_trace`])
//! checks what a timeline viewer silently tolerates but CI should not:
//!
//! 1. the document is well-formed JSON with a `traceEvents` array,
//! 2. every event carries `name`/`ph`/`ts`/`pid`/`tid` of the right
//!    types (and `dur >= 0` for `X` events),
//! 3. timestamps are monotone non-decreasing per `(pid, tid)` lane,
//! 4. `B`/`E` span nesting is balanced per lane (every `E` matches the
//!    most recent open `B`, nothing left open at the end),
//! 5. shard spans are well-formed (DESIGN.md §6): every `X` span named
//!    `shard q<q> t<t>` — one sharded operator's fan-out → merge window —
//!    contains, on the same lane, a matching `merge q<q> t<t>` span, and
//!    every merge span lies inside its fan-out span (no orphan merges),
//! 6. every lane that carries a non-metadata record is named by exactly
//!    one `thread_name` record, and no lane is named twice.

use crate::json::{parse, Json};
use std::collections::BTreeMap;

/// Summary of a successfully linted document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintReport {
    /// Events in `traceEvents` (including metadata records).
    pub events: usize,
    /// Distinct `(pid, tid)` lanes.
    pub lanes: usize,
    /// `X` (complete) events checked.
    pub complete_spans: usize,
    /// Matched `B`/`E` pairs.
    pub span_pairs: usize,
    /// Shard fan-out spans validated against their merges.
    pub shard_spans: usize,
}

fn field_num(e: &Json, key: &str) -> Result<f64, String> {
    e.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("event missing numeric '{key}': {e:?}"))
}

fn field_str<'a>(e: &'a Json, key: &str) -> Result<&'a str, String> {
    e.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("event missing string '{key}': {e:?}"))
}

/// Lint `src` as a Chrome `trace_event` JSON document.
pub fn lint_chrome_trace(src: &str) -> Result<LintReport, String> {
    let doc = parse(src).map_err(|e| format!("malformed JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("document has no traceEvents array")?;

    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut open_spans: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut complete_spans = 0usize;
    let mut span_pairs = 0usize;
    // Shard/merge `X` spans keyed by (lane, "q<q> t<t>" id) with their
    // [start, end] intervals, cross-checked after the pass. Endpoints are
    // held in integer nanoseconds — the exporter emits exact
    // µs-with-3-decimals timestamps, and summing `ts + dur` in f64 can
    // put two spans sharing a real endpoint one ULP apart, which exact
    // containment checks would misread as an overhang.
    let mut shard_x: Vec<((u64, u64), String, i64, i64)> = Vec::new();
    let mut merge_x: Vec<((u64, u64), String, i64, i64)> = Vec::new();
    let ns = |us: f64| (us * 1_000.0).round() as i64;
    let mut thread_names: BTreeMap<(u64, u64), usize> = BTreeMap::new();

    for (i, e) in events.iter().enumerate() {
        let name = field_str(e, "name").map_err(|err| format!("event {i}: {err}"))?;
        let ph = field_str(e, "ph").map_err(|err| format!("event {i}: {err}"))?;
        let ts = field_num(e, "ts").map_err(|err| format!("event {i}: {err}"))?;
        let pid = field_num(e, "pid").map_err(|err| format!("event {i}: {err}"))? as u64;
        let tid = field_num(e, "tid").map_err(|err| format!("event {i}: {err}"))? as u64;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i} ('{name}'): bad ts {ts}"));
        }
        let lane = (pid, tid);
        if ph == "M" {
            if name == "thread_name" {
                *thread_names.entry(lane).or_default() += 1;
            }
            continue; // metadata records are exempt from lane ordering
        }
        if let Some(&prev) = last_ts.get(&lane) {
            if ts < prev {
                return Err(format!(
                    "event {i} ('{name}'): ts {ts} < {prev} — lane (pid {pid}, tid {tid}) not monotone"
                ));
            }
        }
        last_ts.insert(lane, ts);
        match ph {
            "X" => {
                let dur = field_num(e, "dur").map_err(|err| format!("event {i}: {err}"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i} ('{name}'): bad dur {dur}"));
                }
                if let Some(id) = name.strip_prefix("shard q") {
                    shard_x.push((lane, id.to_string(), ns(ts), ns(ts) + ns(dur)));
                } else if let Some(id) = name.strip_prefix("merge q") {
                    merge_x.push((lane, id.to_string(), ns(ts), ns(ts) + ns(dur)));
                }
                complete_spans += 1;
            }
            "B" => open_spans.entry(lane).or_default().push(name.to_string()),
            "E" => {
                let stack = open_spans.entry(lane).or_default();
                match stack.pop() {
                    Some(open) if open == name => span_pairs += 1,
                    Some(open) => {
                        return Err(format!(
                            "event {i}: 'E' for '{name}' closes '{open}' — spans interleave on lane (pid {pid}, tid {tid})"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: 'E' for '{name}' with no open span on lane (pid {pid}, tid {tid})"
                        ))
                    }
                }
            }
            "i" | "C" => {}
            other => {
                return Err(format!("event {i} ('{name}'): unsupported ph '{other}'"))
            }
        }
    }

    for ((pid, tid), stack) in &open_spans {
        if let Some(open) = stack.last() {
            return Err(format!(
                "span '{open}' left open on lane (pid {pid}, tid {tid})"
            ));
        }
    }

    // Shard-span rules: every fan-out span contains a matching merge on
    // its lane, and every merge nests inside its fan-out span.
    for (lane, id, lo, hi) in &shard_x {
        let matched = merge_x.iter().any(|(ml, mid, mlo, mhi)| {
            ml == lane && mid == id && *mlo >= *lo && *mhi <= *hi
        });
        if !matched {
            return Err(format!(
                "shard span 'shard q{id}' has no nested 'merge q{id}' on lane (pid {}, tid {})",
                lane.0, lane.1
            ));
        }
    }
    for (lane, id, lo, hi) in &merge_x {
        let contained = shard_x.iter().any(|(sl, sid, slo, shi)| {
            sl == lane && sid == id && *lo >= *slo && *hi <= *shi
        });
        if !contained {
            return Err(format!(
                "merge span 'merge q{id}' has no enclosing 'shard q{id}' span on lane (pid {}, tid {})",
                lane.0, lane.1
            ));
        }
    }

    // Lane naming: one `thread_name` per used lane, none named twice.
    if let Some((pid, tid)) = last_ts.keys().find(|lane| !thread_names.contains_key(lane)) {
        return Err(format!(
            "lane (pid {pid}, tid {tid}) carries records but has no thread_name"
        ));
    }
    if let Some(((pid, tid), n)) = thread_names.iter().find(|(_, n)| **n > 1) {
        return Err(format!("lane (pid {pid}, tid {tid}) has {n} thread_name records"));
    }

    Ok(LintReport {
        events: events.len(),
        lanes: last_ts.len(),
        complete_spans,
        span_pairs,
        shard_spans: shard_x.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::chrome_trace_json;
    use crate::event::{OpOutcome, TraceEvent};
    use robustq_sim::{DeviceId, OpClass, VirtualTime};

    #[test]
    fn lints_exporter_output() {
        let t = VirtualTime::from_micros;
        let events = vec![
            TraceEvent::OpSpan {
                query: 0,
                task: 0,
                op: OpClass::Selection,
                device: DeviceId::Cpu,
                queued_at: t(0),
                start: t(0),
                end: t(2),
                bytes_in: 1,
                bytes_out: 1,
                rows_out: 1,
                outcome: OpOutcome::Completed,
            },
            TraceEvent::QueryDone {
                query: 0,
                session: 0,
                seq: 0,
                submit: t(0),
                admit: t(0),
                end: t(3),
                rows: 1,
            },
        ];
        let report = lint_chrome_trace(&chrome_trace_json(&events)).expect("clean lint");
        assert_eq!(report.complete_spans, 1);
        assert_eq!(report.span_pairs, 1);
        assert!(report.lanes >= 2);
    }

    #[test]
    fn rejects_non_monotone_lanes() {
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"i","s":"t","ts":5.0,"pid":1,"tid":1,"args":{}},
            {"name":"b","ph":"i","s":"t","ts":4.0,"pid":1,"tid":1,"args":{}}
        ]}"#;
        let err = lint_chrome_trace(doc).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn rejects_unbalanced_spans() {
        let open = r#"{"traceEvents":[
            {"name":"q","ph":"B","ts":1.0,"pid":1,"tid":7,"args":{}}
        ]}"#;
        assert!(lint_chrome_trace(open).unwrap_err().contains("left open"));

        let crossed = r#"{"traceEvents":[
            {"name":"q1","ph":"B","ts":1.0,"pid":1,"tid":7,"args":{}},
            {"name":"q2","ph":"B","ts":2.0,"pid":1,"tid":7,"args":{}},
            {"name":"q1","ph":"E","ts":3.0,"pid":1,"tid":7,"args":{}}
        ]}"#;
        assert!(lint_chrome_trace(crossed).unwrap_err().contains("interleave"));

        let orphan = r#"{"traceEvents":[
            {"name":"q","ph":"E","ts":1.0,"pid":1,"tid":7,"args":{}}
        ]}"#;
        assert!(lint_chrome_trace(orphan).unwrap_err().contains("no open span"));
    }

    #[test]
    fn lints_shard_spans_from_the_exporter() {
        let t = VirtualTime::from_micros;
        let events = vec![
            TraceEvent::ShardFanout { query: 0, task: 4, shards: 2, at: t(0) },
            TraceEvent::ShardMerge {
                query: 0,
                task: 4,
                shards: 2,
                rows: 10,
                bytes: 80,
                start: t(3),
                end: t(5),
            },
        ];
        let report = lint_chrome_trace(&chrome_trace_json(&events)).expect("clean lint");
        assert_eq!(report.shard_spans, 1);
        assert_eq!(report.complete_spans, 2);
    }

    #[test]
    fn rejects_shard_span_without_merge() {
        let doc = r#"{"traceEvents":[
            {"name":"shard q0 t4","ph":"X","ts":1.0,"dur":5.0,"pid":1,"tid":9,"args":{}}
        ]}"#;
        let err = lint_chrome_trace(doc).unwrap_err();
        assert!(err.contains("no nested 'merge"), "{err}");
    }

    #[test]
    fn rejects_merge_outside_its_shard_span() {
        let escaped = r#"{"traceEvents":[
            {"name":"shard q0 t4","ph":"X","ts":1.0,"dur":2.0,"pid":1,"tid":9,"args":{}},
            {"name":"merge q0 t4","ph":"X","ts":2.0,"dur":4.0,"pid":1,"tid":9,"args":{}}
        ]}"#;
        let err = lint_chrome_trace(escaped).unwrap_err();
        assert!(err.contains("no nested 'merge"), "{err}");

        let orphan = r#"{"traceEvents":[
            {"name":"merge q0 t4","ph":"X","ts":2.0,"dur":1.0,"pid":1,"tid":9,"args":{}}
        ]}"#;
        let err = lint_chrome_trace(orphan).unwrap_err();
        assert!(err.contains("no enclosing 'shard"), "{err}");
    }

    #[test]
    fn rejects_a_used_lane_without_a_thread_name() {
        let unnamed = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","ts":0.000,"pid":1,"tid":1,"args":{"name":"a"}},
            {"name":"x","ph":"i","s":"t","ts":1.0,"pid":1,"tid":1,"args":{}},
            {"name":"y","ph":"i","s":"t","ts":1.0,"pid":1,"tid":2,"args":{}}
        ]}"#;
        let err = lint_chrome_trace(unnamed).unwrap_err();
        assert!(err.contains("tid 2) carries records but has no thread_name"), "{err}");
    }

    #[test]
    fn rejects_a_lane_named_twice() {
        let twice = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","ts":0.000,"pid":1,"tid":1,"args":{"name":"a"}},
            {"name":"thread_name","ph":"M","ts":0.000,"pid":1,"tid":1,"args":{"name":"b"}},
            {"name":"x","ph":"i","s":"t","ts":1.0,"pid":1,"tid":1,"args":{}}
        ]}"#;
        let err = lint_chrome_trace(twice).unwrap_err();
        assert!(err.contains("tid 1) has 2 thread_name records"), "{err}");
        // A name with no records beside it is harmless; only a second one fails.
        let idle = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","ts":0.000,"pid":1,"tid":3,"args":{"name":"c"}}
        ]}"#;
        assert!(lint_chrome_trace(idle).is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(lint_chrome_trace("not json").is_err());
        assert!(lint_chrome_trace("{}").unwrap_err().contains("traceEvents"));
        let no_ts = r#"{"traceEvents":[{"name":"a","ph":"i","pid":1,"tid":1}]}"#;
        assert!(lint_chrome_trace(no_ts).unwrap_err().contains("'ts'"));
        let bad_dur = r#"{"traceEvents":[{"name":"a","ph":"X","ts":1.0,"dur":-2.0,"pid":1,"tid":1}]}"#;
        assert!(lint_chrome_trace(bad_dur).unwrap_err().contains("bad dur"));
    }
}
