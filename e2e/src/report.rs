//! The metrics the benchmark reports: their names, units and directions
//! (the same tables `BENCHMARK.json` declares — a unit test holds the two
//! together), and the record of one run.

use crate::stats::Quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better)` of every end-to-end metric. The regression bounds
/// live in `BENCHMARK.json` alone; `--compare` reads them from there.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("wall_queries_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("virt_goodput_qps", "1/s", "higher"),
    ("virt_latency_p50_ms", "ms", "lower"),
    ("virt_latency_tail_ms", "ms", "lower"),
    ("virt_speedup_vs_cpu_only", "ratio", "higher"),
];

/// `(name, unit, better)` of every per-layer metric, layer by layer.
pub const PER_LAYER: [(&str, &str, &str); 70] = [
    // storage
    ("storage.gen_mrows_per_s", "Mrows/s", "higher"),
    ("storage.append_mrows_per_s", "Mrows/s", "higher"),
    ("storage.build_ms", "ms", "lower"),
    ("storage.db_mb", "MB", "lower"),
    ("storage.appends", "count", "higher"),
    ("storage.append_rows", "count", "higher"),
    ("storage.epoch_seals", "count", "higher"),
    // sql
    ("sql.tokenize_us_p50", "us", "lower"),
    ("sql.parse_us_p50", "us", "lower"),
    ("sql.plan_us_p50", "us", "lower"),
    ("sql.stmt_wall_us_p50", "us", "lower"),
    ("sql.stmt_wall_us_tail", "us", "lower"),
    ("sql.front_end_share_pct", "%", "lower"),
    ("sql.statements", "count", "higher"),
    ("sql.errors", "count", "lower"),
    // core
    ("core.placement_decisions", "count", "lower"),
    ("core.coproc_op_share_pct", "%", "higher"),
    ("core.model_updates", "count", "higher"),
    ("core.model_abs_err_p50_us", "us", "lower"),
    ("core.wall_ddc_over_cpu_only", "ratio", "lower"),
    // engine::exec
    ("exec.wall_us_per_query", "us", "lower"),
    ("exec.wall_ns_per_event", "ns", "lower"),
    ("exec.non_kernel_wall_share_pct", "%", "lower"),
    ("exec.admit_wait_p50_us", "us", "lower"),
    ("exec.admit_wait_tail_us", "us", "lower"),
    ("exec.op_queue_wait_p50_us", "us", "lower"),
    ("exec.op_aborts", "count", "lower"),
    ("exec.wasted_ms", "ms", "lower"),
    ("exec.shard_wall_share_pct", "%", "lower"),
    ("exec.shard_fanouts", "count", "higher"),
    ("exec.shard_merges", "count", "higher"),
    ("exec.shard_merge_p50_us", "us", "lower"),
    ("exec.staged_ops", "count", "higher"),
    ("exec.busy_share_cpu_pct", "%", "lower"),
    // engine::ops / simd / parallel
    ("ops.kernels_only_wall_ms", "ms", "lower"),
    ("ops.kernels_unfused_wall_ms", "ms", "lower"),
    ("ops.scan_mrows_per_s", "Mrows/s", "higher"),
    ("ops.parallel_speedup_x", "ratio", "higher"),
    ("ops.workers_effective", "count", "higher"),
    // sim
    ("sim.cache_hit_pct", "%", "higher"),
    ("sim.cache_evictions", "count", "lower"),
    ("sim.h2d_mb", "MB", "lower"),
    ("sim.d2h_mb", "MB", "lower"),
    ("sim.transfer_service_p50_us", "us", "lower"),
    ("sim.heap_peak_mb", "MB", "lower"),
    ("sim.heap_leaked_b", "B", "lower"),
    // trace
    ("trace.events", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.overhead_iqr_pct", "%", "lower"),
    ("trace.export_ms", "ms", "lower"),
    ("trace.registry_ms", "ms", "lower"),
    ("trace.reconciled", "count", "higher"),
    // serve
    ("serve.schedule_gen_ms", "ms", "lower"),
    ("serve.offered", "count", "higher"),
    ("serve.shed_share", "ratio", "lower"),
    ("serve.generator_lateness_us", "us", "lower"),
    ("serve.rate_lo.tail_ms", "ms", "lower"),
    ("serve.rate_hi.tail_ms", "ms", "lower"),
    ("serve.rate_over.tail_ms", "ms", "lower"),
    ("serve.rate_over.shed_share", "ratio", "lower"),
    ("serve.max_rate_in_slo_qps", "1/s", "higher"),
    ("serve.arrival_tail_ms", "ms", "lower"),
    ("stream.tick_p50_ms", "ms", "lower"),
    ("stream.tick_tail_ms", "ms", "lower"),
    ("stream.ticks_done_share", "ratio", "higher"),
    // workloads
    ("workloads.warmup_share_pct", "%", "lower"),
    // the measurement itself
    ("harness.slices", "count", "higher"),
    ("harness.slice_spread_pct", "%", "lower"),
    ("harness.virtual_identical", "count", "higher"),
];

/// The four workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ssb_scan_heavy",
        "closed loop over the largest fact table, K=2 sharded: wall time follows the bytes (kernels, shard gather and merge, materialisation), not the event count",
    ),
    (
        "ssb_serve_open",
        "open loop at a fixed rate on 1k rows: thousands of small queries, so per-event work (event loop, admission, placement, cache and heap bookkeeping) sets wall time",
    ),
    (
        "sql_adhoc",
        "one statement at a time from SQL text to result: isolates the front end and per-statement executor cost",
    ),
    (
        "ssb_stream_ingest",
        "appends and window ticks beside ad-hoc reads: storage writes, cache invalidation and recurring placement",
    ),
];

/// Values of one metric table, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a declared metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` over `table`, in table
    /// order; an error names the first declared metric without a value.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }
}

pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.0, m.1)).collect()
}

pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
}

/// Everything one run of one workload found.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub smoke: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed gate failed.
    pub failures: Vec<String>,
    pub end_to_end: Metrics,
    /// Empty unless the run was traced.
    pub per_layer: Metrics,
    pub setup_walls_s: Vec<f64>,
    pub slice_walls_s: Vec<f64>,
    /// Percentile and sample count behind `virt_latency_tail_ms`.
    pub tail_percentile: f64,
    pub latency_samples: usize,
    /// Fingerprint of every virtual number and result checksum of the
    /// measured slice; equal seeds must give equal fingerprints.
    pub virtual_fingerprint: u64,
    pub workers_effective: usize,
}

impl Report {
    pub fn slice_quartiles(&self) -> Quartiles {
        Quartiles::of(&self.slice_walls_s)
    }

    /// The slices' quartiles lie further apart than a tenth of the median.
    pub fn noisy(&self) -> bool {
        self.slice_quartiles().spread() > crate::stats::NOISY_SPREAD
    }

    /// The result line the benchmark contract asks for.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let metrics = if traced {
            self.per_layer.to_json(&per_layer_table())?
        } else {
            self.end_to_end.to_json(&end_to_end_table())?
        };
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct, self.attempted, self.failed
        ))
    }
}

fn array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// The host a run was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    /// Ask the toolchain and git; "unknown" where they do not answer
    /// (the benchmark's driver runs outside any git repository).
    pub fn detect() -> Host {
        let ask = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: ask("rustc", &["--version"]),
            commit: ask("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// One line of the `--out` file: the whole report as a JSON object.
pub fn report_json(r: &Report, host: &Host) -> Result<String, String> {
    let q = r.slice_quartiles();
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"workload\": \"{}\", \"seed\": {}, \"smoke\": {}",
        r.workload, r.seed, r.smoke
    );
    let _ = write!(
        out,
        ", \"host\": {{\"nproc\": {}, \"workers_effective\": {}, \"rustc\": ",
        host.nproc, r.workers_effective
    );
    crate::layers::write_json_string(&mut out, &host.rustc);
    out.push_str(", \"commit\": ");
    crate::layers::write_json_string(&mut out, &host.commit);
    out.push('}');
    let _ = write!(
        out,
        ", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [",
        r.correct, r.attempted, r.failed
    );
    for (i, f) in r.failures.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        crate::layers::write_json_string(&mut out, f);
    }
    let _ = write!(
        out,
        "], \"slices\": {}, \"slice_walls_s\": {}, \"slice_q1_s\": {}, \"slice_median_s\": {}, \
         \"slice_q3_s\": {}, \"noisy\": {}, \"setup_walls_s\": {}",
        r.slice_walls_s.len(),
        array(&r.slice_walls_s),
        q.q1,
        q.median,
        q.q3,
        r.noisy(),
        array(&r.setup_walls_s),
    );
    let _ = write!(
        out,
        ", \"tail_percentile\": {}, \"latency_samples\": {}, \"virtual_fingerprint\": \"{:016x}\"",
        r.tail_percentile, r.latency_samples, r.virtual_fingerprint
    );
    let _ = write!(
        out,
        ", \"end_to_end\": {}",
        r.end_to_end.to_json(&end_to_end_table())?
    );
    if r.per_layer.get(PER_LAYER[0].0).is_some() {
        let _ = write!(
            out,
            ", \"per_layer\": {}",
            r.per_layer.to_json(&per_layer_table())?
        );
    }
    out.push('}');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{parse_json, Json};
    use crate::stats::valid_name;

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "count")));
        for (name, unit) in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(unit_ok),
                "{unit}"
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }

    /// `BENCHMARK.json` at the root of the repository declares exactly
    /// the tables above.
    #[test]
    fn benchmark_json_declares_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_owned();
        let list = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap().to_vec();

        let table = |k: &str| -> Vec<_> {
            list(k)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect()
        };
        let ours = |t: &[(&str, &str, &str)]| -> Vec<_> {
            t.iter()
                .map(|m| (m.0.to_owned(), m.1.to_owned(), m.2.to_owned()))
                .collect()
        };
        assert_eq!(table("end_to_end"), ours(&END_TO_END));
        assert_eq!(table("per_layer"), ours(&PER_LAYER));

        // The contract's limits on a bound; set-up carries the largest.
        let bound = |m: &Json| m.get("bound").and_then(Json::as_num).unwrap();
        let bounds: Vec<f64> = list("end_to_end").iter().map(bound).collect();
        assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
        assert!(bounds.iter().all(|b| *b <= bounds[0]), "setup_s is first");

        let declared: Vec<_> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let whys: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.0.to_owned(), w.1.to_owned()))
            .collect();
        assert_eq!(declared, whys);
    }

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        assert!(
            r.result_line(false).is_err(),
            "a missing metric is an error"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            r.end_to_end.set(m.0, 1.5 + i as f64);
        }
        let line = parse_json(&r.result_line(false).unwrap()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_num), Some(3.0));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").and_then(Json::as_num), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
