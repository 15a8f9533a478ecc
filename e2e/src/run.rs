//! One run of one workload: set-up, timed slices, CPU-only reference,
//! traced pass, layer probes — then the gates and the metrics.

use crate::layers::{self, Done, ParallelCtx, Slice, Strat};
use crate::report::{Metrics, Report};
use crate::spans::Spans;
use crate::stats::{self, Fnv, Quartiles};
use crate::workloads::{self, Workload};
use std::collections::HashMap;

pub struct RunArgs {
    pub seed: u64,
    /// How long the timed phase lasts, in seconds.
    pub seconds: f64,
    /// Follow every timed slice with a traced twin, then run the layer
    /// probes.
    pub trace: bool,
    /// Tiny inputs and two slices: exercises every phase in about a second.
    pub smoke: bool,
}

/// Set-up is repeated and its median reported, so that one slow page-fault
/// storm does not decide `setup_s` (the driver's contract asks for several
/// set-ups in a run; README.md quotes it).
const SETUP_REPS: usize = 3;
/// Slices of the timed phase: at least this many, however long they take…
const MIN_SLICES: usize = 5;
/// …and no more than this many, however short.
const MAX_SLICES: usize = 64;
/// The latency limit of the open-loop workload, on its tail percentile:
/// 0.1 ms of virtual time.
const SLO_LIMIT_NS: u64 = 100_000;
/// A probe is called at least this often — one call is one draw of the
/// host's noise — and the median call reported…
const PROBE_REPS: usize = 3;
/// …and a probe shorter than this is repeated until it adds up to it.
const MIN_PROBE_S: f64 = 0.2;

/// Gates that failed, and how many operations each failed.
#[derive(Default)]
struct Gates {
    failed: u64,
    failures: Vec<String>,
    incorrect: bool,
}

impl Gates {
    /// `count` operations failed without any output being wrong (shed
    /// arrivals): they count as failed, the run stays correct.
    fn failed_ops(&mut self, count: u64, what: &str) {
        if count > 0 {
            self.failed += count;
            self.failures.push(format!("{count} {what}"));
        }
    }

    /// An output or an invariant is wrong.
    fn wrong(&mut self, count: u64, what: &str) {
        if count > 0 {
            self.incorrect = true;
            self.failed_ops(count, what);
        }
    }

    fn require(&mut self, ok: bool, what: &str) {
        self.wrong(u64::from(!ok), what);
    }
}

/// Everything virtual about a slice — counters, latencies, checksums — in
/// one word. Identical slices, and runs of one seed, must agree on it.
fn fingerprint(s: &Slice) -> u64 {
    let c = &s.counters;
    let mut f = Fnv::new();
    for w in [
        s.executed,
        s.offered,
        s.offered_ticks,
        s.staged_ops,
        s.model_abs_err_ns.len() as u64,
        c.makespan_ns,
        c.h2d_bytes,
        c.d2h_bytes,
        c.aborts,
        c.wasted_ns,
        c.busy_cpu_ns,
        c.busy_all_ns,
        c.ops_cpu,
        c.ops_all,
        c.heap_peak_b,
        c.heap_leaked_b,
        c.cache_hits,
        c.cache_misses,
        c.shed,
    ] {
        f.word(w);
    }
    for d in &s.done {
        for w in [
            u64::from(d.tick),
            d.session as u64,
            d.seq as u64,
            d.latency_ns,
            d.admit_wait_ns,
            d.rows as u64,
            d.checksum,
        ] {
            f.word(w);
        }
    }
    f.0
}

/// Queries both passes completed whose results differ.
fn differing_results(a: &[Done], b: &[Done]) -> u64 {
    let key = |d: &Done| (d.tick, d.session, d.seq);
    let theirs: HashMap<_, _> = b.iter().map(|d| (key(d), (d.rows, d.checksum))).collect();
    a.iter()
        .filter(|d| {
            theirs
                .get(&key(d))
                .is_some_and(|&r| r != (d.rows, d.checksum))
        })
        .count() as u64
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn median_s(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// Call `f` at least [`PROBE_REPS`] times and until the calls add up to
/// [`MIN_PROBE_S`], inside one span; the last output and the median call,
/// in seconds.
fn probe<T>(
    spans: &mut Spans,
    name: &'static str,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let timed = |_: &mut Spans| {
        let mut walls = Vec::new();
        loop {
            let started = std::time::Instant::now();
            let out = std::hint::black_box(f())?;
            walls.push(started.elapsed().as_secs_f64());
            let enough = walls.iter().sum::<f64>() >= MIN_PROBE_S || walls.len() >= 1_000;
            if walls.len() >= PROBE_REPS && enough {
                return Ok((out, median_s(&walls)));
            }
        }
    };
    spans.time(name, timed).0
}

fn latencies(done: &[Done], keep: impl Fn(&Done) -> bool) -> Vec<u64> {
    done.iter()
        .filter(|d| keep(d))
        .map(|d| d.latency_ns)
        .collect()
}

const MS: f64 = 1e-6;
const US: f64 = 1e-3;

/// Whether an open-loop pass met the latency limit: its tail — every shed
/// arrival counted as missing the limit — within it, at most 1 % shed, and
/// the backlog drained soon after the last arrival.
fn within_slo(slice: &Slice, horizon_ns: u64) -> bool {
    let mut lat = latencies(&slice.done, |_| true);
    lat.extend(std::iter::repeat_n(u64::MAX, slice.counters.shed as usize));
    let shed_share = slice.counters.shed as f64 / slice.offered.max(1) as f64;
    let drained = slice.counters.makespan_ns <= horizon_ns + 10 * SLO_LIMIT_NS;
    stats::tail(&lat).value <= SLO_LIMIT_NS && shed_share <= 0.01 && drained
}

pub fn run<W: Workload>(args: &RunArgs, spans: &mut Spans) -> Result<Report, String> {
    let mut gates = Gates::default();
    let ddc = Strat::DataDrivenChopping;

    // Phase 1 — set-up, warm-up slice included: users pay for the page
    // faults, the allocator growth and the first column transfers once.
    let mut setup_walls = Vec::new();
    let mut prepared = None;
    for rep in 0..if args.smoke { 1 } else { SETUP_REPS } {
        // One data set alive at a time, as in a run that sets up once.
        drop(prepared.take());
        spans.set_slice(Some(rep));
        let (out, secs) = spans.time("setup", |spans| -> Result<(W, Slice), String> {
            let w = W::prepare(args.seed, args.smoke, spans)?;
            let warm = spans
                .time("setup.warmup_slice", |s| w.pass(ddc, false, s))
                .0?;
            Ok((w, warm))
        });
        setup_walls.push(secs);
        prepared = Some(out?);
    }
    let (w, measured) = prepared.expect("at least one set-up");
    let print = fingerprint(&measured);

    // Phase 2 — identical slices until `seconds` have been measured. The
    // work per slice is fixed, so every slice must reproduce the warm-up
    // slice's virtual numbers and checksums exactly. Phase 4 is woven in:
    // with `trace`, every slice is followed by its traced twin, so that the
    // two sides of `trace.overhead_pct` see the same host.
    let min_slices = if args.smoke { 2 } else { MIN_SLICES };
    let mut slice_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced = None;
    let mut drifted = 0;
    let started = spans.now();
    while slice_walls.len() < min_slices
        || (!args.smoke && spans.now() - started < args.seconds && slice_walls.len() < MAX_SLICES)
    {
        spans.set_slice(Some(slice_walls.len()));
        let (slice, secs) = spans.time("slice", |s| w.pass(ddc, false, s));
        drifted += u64::from(fingerprint(&slice?) != print);
        slice_walls.push(secs);
        if args.trace {
            // One trace ring alive at a time.
            drop(traced.take());
            let (slice, secs) = spans.time("traced", |s| w.pass(ddc, true, s));
            let slice = slice?;
            drifted += u64::from(fingerprint(&slice) != print);
            traced_walls.push(secs);
            traced = Some(slice);
        }
    }
    spans.set_slice(None);
    gates.wrong(
        drifted,
        "slices whose virtual metrics or checksums differ from the first",
    );
    let slice_wall = median_s(&slice_walls);
    let rss_mb = peak_rss_mb()?;

    // Phase 3 — the same slice under CPU-only.
    let (reference, reference_wall) = spans.time("reference", |s| w.pass(Strat::CpuOnly, false, s));
    let reference = reference?;
    gates.wrong(
        differing_results(&measured.done, &reference.done),
        "results differ from the CPU-only reference",
    );

    // The gates on the measured slice.
    let (wrong, _) = spans.time("check_direct", |_| w.check_direct(&measured));
    gates.wrong(wrong?, "results differ from direct execution");
    let c = &measured.counters;
    gates.require(
        measured.offered == measured.done.len() as u64 + c.shed,
        "offered != completed + shed",
    );
    gates.require(c.heap_leaked_b == 0, "co-processor heap leaked");
    gates.failed_ops(c.shed, "arrivals or ticks shed");

    let mut report = Report {
        workload: W::NAME,
        seed: args.seed,
        smoke: args.smoke,
        attempted: measured.offered.max(1),
        setup_walls_s: setup_walls.clone(),
        slice_walls_s: slice_walls.clone(),
        virtual_fingerprint: print,
        workers_effective: layers::workers_effective(w.parallel(), layers::fact_rows(w.db())),
        ..Report::default()
    };

    let all = latencies(&measured.done, |_| true);
    let tail = stats::tail(&all);
    report.tail_percentile = tail.percentile;
    report.latency_samples = tail.samples;
    let makespan_s = c.makespan_ns as f64 / 1e9;
    let e2e = &mut report.end_to_end;
    e2e.set("setup_s", median_s(&setup_walls));
    e2e.set("wall_queries_per_s", measured.executed as f64 / slice_wall);
    e2e.set("peak_rss_mb", rss_mb);
    e2e.set("virt_goodput_qps", measured.done.len() as f64 / makespan_s);
    e2e.set("virt_latency_p50_ms", stats::p50(&all) as f64 * MS);
    e2e.set("virt_latency_tail_ms", tail.value as f64 * MS);
    e2e.set(
        "virt_speedup_vs_cpu_only",
        reference.counters.makespan_ns as f64 / c.makespan_ns as f64,
    );

    if let Some(traced) = traced {
        let walls = Walls {
            slices: &slice_walls,
            traced: &traced_walls,
            reference: reference_wall,
        };
        let layer = layer_metrics(&w, &measured, &traced, walls, spans, &mut gates)?;
        report.per_layer = layer;
        let spread = Quartiles::of(&slice_walls).spread();
        report
            .per_layer
            .set("harness.slices", slice_walls.len() as f64);
        report
            .per_layer
            .set("harness.slice_spread_pct", 100.0 * spread);
        report.per_layer.set(
            "harness.virtual_identical",
            f64::from(u8::from(drifted == 0)),
        );
        report
            .per_layer
            .set("ops.workers_effective", report.workers_effective as f64);
    }

    report.correct = !gates.incorrect;
    report.failed = gates.failed.min(report.attempted);
    report.failures = gates.failures;
    Ok(report)
}

/// Wall times of the phases the per-layer metrics are ratios of.
struct Walls<'a> {
    /// The timed slices and, pair by pair, their traced twins.
    slices: &'a [f64],
    traced: &'a [f64],
    reference: f64,
}

/// What the last traced slice recorded (phase 4), and phase 5: the probes.
fn layer_metrics<W: Workload>(
    w: &W,
    measured: &Slice,
    traced: &Slice,
    walls: Walls,
    spans: &mut Spans,
    gates: &mut Gates,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let c = &measured.counters;
    let slice_wall = median_s(walls.slices);
    let traced_wall = median_s(walls.traced);

    let trace = traced
        .trace
        .as_ref()
        .ok_or("traced pass recorded no trace")?;
    gates.require(trace.dropped == 0, "trace ring overflowed");
    gates.require(
        traced.reconciled,
        "RunMetrics::from_events differs from the reported metrics",
    );
    // Traced over untraced, pair by pair: a slow spell of the host slows
    // both sides of a pair, and the median pair forgets the worst of them.
    let overheads: Vec<f64> = walls
        .traced
        .iter()
        .zip(walls.slices)
        .map(|(t, u)| 100.0 * (t / u - 1.0))
        .collect();
    let overhead = Quartiles::of(&overheads);

    let (counters, registry_s) = spans.time("trace.registry", |_| layers::registry_counters(trace));
    let (_, export_s) = spans.time("trace.export", |_| layers::chrome_export_len(trace));
    let samples = layers::event_samples(trace);
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;

    m.set("trace.events", trace.events.len() as f64);
    m.set("trace.dropped", trace.dropped as f64);
    m.set("trace.overhead_pct", overhead.median);
    m.set("trace.overhead_iqr_pct", overhead.q3 - overhead.q1);
    m.set("trace.export_ms", export_s * 1e3);
    m.set("trace.registry_ms", registry_s * 1e3);
    m.set("trace.reconciled", f64::from(u8::from(traced.reconciled)));

    // Phase 5 — probes: one layer's public API on this workload's inputs.
    let plans = w.kernel_plans()?;
    type Kernels = fn(&layers::Plan, &layers::Database, ParallelCtx) -> Result<(), String>;
    let kernels = |name, run: Kernels, ctx, spans: &mut Spans| -> Result<f64, String> {
        let pass = || plans.iter().try_for_each(|(plan, db)| run(plan, db, ctx));
        Ok(probe(spans, name, pass)?.1)
    };
    let fused = "ops.kernels_only";
    let kernels_wall = kernels(fused, layers::kernels_only, w.parallel(), spans)?;
    let speedup = if w.parallel().is_serial() {
        1.0
    } else {
        kernels(fused, layers::kernels_only, ParallelCtx::serial(), spans)? / kernels_wall
    };
    let unfused = "ops.kernels_unfused";
    let unfused_wall = kernels(unfused, layers::kernels_unfused, w.parallel(), spans)?;

    // The slice unsharded, where the workload shards: the same results,
    // without the wall time that fan-out, gather and merge add.
    let (whole, whole_wall) = probe(spans, "workloads.unsharded", || w.unsharded_pass())?;
    let shard_share = match whole {
        Some(whole) => {
            gates.wrong(
                differing_results(&measured.done, &whole.done),
                "results differ between the sharded and the unsharded pass",
            );
            100.0 * (1.0 - whole_wall / slice_wall)
        }
        None => 0.0,
    };

    let (warm, warmup_wall) = probe(spans, "workloads.warmup_only", || w.warmup_only())?;
    let warmup_wall = if warm == 0 { 0.0 } else { warmup_wall };
    let gen_rows = workloads::gen_probe_rows(w.db());
    let (_, gen_s) = probe(spans, "storage.generate_probe", || {
        Ok(layers::gen_ssb(gen_rows, 1))
    })?;
    let rate_passes = w.rate_passes(spans)?;
    let sql = w.sql_stages(spans)?;

    // storage
    // (The median of no spans is 0: the metric does not apply.)
    let build_s = median_s(&spans.lengths("storage.build_stream"));
    m.set("storage.gen_mrows_per_s", gen_rows as f64 / gen_s / 1e6);
    let append_rate = if build_s > 0.0 {
        w.appended_rows() as f64 / build_s / 1e6
    } else {
        0.0
    };
    m.set("storage.append_mrows_per_s", append_rate);
    m.set("storage.build_ms", build_s * 1e3);
    m.set("storage.db_mb", layers::db_bytes(w.db()) as f64 / 1e6);
    m.set("storage.appends", counter("appends"));
    m.set("storage.append_rows", counter("append_rows"));
    m.set("storage.epoch_seals", counter("epoch_seals"));

    // sql
    let stmt_ns: Vec<u64> = sql
        .statement_us
        .iter()
        .map(|us| (us * 1e3) as u64)
        .collect();
    let front_end: f64 = sql.parse_us.iter().chain(&sql.plan_us).sum();
    let statements: f64 = sql.statement_us.iter().sum();
    m.set("sql.tokenize_us_p50", median_s(&sql.tokenize_us));
    m.set("sql.parse_us_p50", median_s(&sql.parse_us));
    m.set("sql.plan_us_p50", median_s(&sql.plan_us));
    m.set("sql.stmt_wall_us_p50", median_s(&sql.statement_us));
    m.set(
        "sql.stmt_wall_us_tail",
        stats::tail(&stmt_ns).value as f64 * US,
    );
    m.set(
        "sql.front_end_share_pct",
        if statements > 0.0 {
            100.0 * front_end / statements
        } else {
            0.0
        },
    );
    m.set("sql.statements", sql.statement_us.len() as f64);
    m.set("sql.errors", sql.errors as f64);
    gates.wrong(
        sql.errors,
        "valid statements the SQL front end or executor refused",
    );

    // core
    m.set("core.placement_decisions", counter("placement_decisions"));
    m.set(
        "core.coproc_op_share_pct",
        100.0 * (c.ops_all - c.ops_cpu) as f64 / c.ops_all.max(1) as f64,
    );
    m.set("core.model_updates", measured.model_abs_err_ns.len() as f64);
    m.set(
        "core.model_abs_err_p50_us",
        stats::p50(&measured.model_abs_err_ns) as f64 * US,
    );
    m.set("core.wall_ddc_over_cpu_only", slice_wall / walls.reference);

    // engine::exec
    let per_query = slice_wall / measured.executed.max(1) as f64;
    // Kernel time as the executor spends it: one operator at a time.
    let per_query_kernels = unfused_wall / plans.len().max(1) as f64;
    let admit: Vec<u64> = measured.done.iter().map(|d| d.admit_wait_ns).collect();
    m.set("exec.wall_us_per_query", per_query * 1e6);
    m.set(
        "exec.wall_ns_per_event",
        traced_wall * 1e9 / trace.events.len().max(1) as f64,
    );
    m.set(
        "exec.non_kernel_wall_share_pct",
        100.0 * (1.0 - per_query_kernels / per_query),
    );
    m.set("exec.admit_wait_p50_us", stats::p50(&admit) as f64 * US);
    m.set(
        "exec.admit_wait_tail_us",
        stats::tail(&admit).value as f64 * US,
    );
    m.set(
        "exec.op_queue_wait_p50_us",
        stats::p50(&samples.op_queue_wait_ns) as f64 * US,
    );
    m.set("exec.op_aborts", c.aborts as f64);
    m.set("exec.wasted_ms", c.wasted_ns as f64 * MS);
    m.set("exec.shard_wall_share_pct", shard_share);
    m.set("exec.shard_fanouts", counter("shard_fanouts"));
    m.set("exec.shard_merges", counter("shard_merges"));
    m.set(
        "exec.shard_merge_p50_us",
        stats::p50(&samples.shard_merge_ns) as f64 * US,
    );
    m.set("exec.staged_ops", measured.staged_ops as f64);
    m.set(
        "exec.busy_share_cpu_pct",
        100.0 * c.busy_cpu_ns as f64 / c.busy_all_ns.max(1) as f64,
    );

    // engine::ops / simd / parallel
    m.set("ops.kernels_only_wall_ms", kernels_wall * 1e3);
    m.set("ops.kernels_unfused_wall_ms", unfused_wall * 1e3);
    m.set(
        "ops.scan_mrows_per_s",
        w.scanned_rows() as f64 / kernels_wall / 1e6,
    );
    m.set("ops.parallel_speedup_x", speedup);

    // sim
    let probes = c.cache_hits + c.cache_misses;
    m.set(
        "sim.cache_hit_pct",
        100.0 * c.cache_hits as f64 / probes.max(1) as f64,
    );
    m.set("sim.cache_evictions", counter("cache_evictions"));
    m.set("sim.h2d_mb", c.h2d_bytes as f64 / 1e6);
    m.set("sim.d2h_mb", c.d2h_bytes as f64 / 1e6);
    m.set(
        "sim.transfer_service_p50_us",
        stats::p50(&samples.transfer_service_ns) as f64 * US,
    );
    m.set("sim.heap_peak_mb", c.heap_peak_b as f64 / 1e6);
    m.set("sim.heap_leaked_b", c.heap_leaked_b as f64);

    // serve
    m.set(
        "serve.schedule_gen_ms",
        median_s(&spans.lengths("serve.arrivals")) * 1e3,
    );
    m.set("serve.offered", measured.offered as f64);
    m.set(
        "serve.shed_share",
        c.shed as f64 / measured.offered.max(1) as f64,
    );
    // Arrivals are events of the virtual clock: the generator cannot run late.
    m.set("serve.generator_lateness_us", 0.0);
    let mut in_slo = match w.slo_rate() {
        Some((rate, horizon_ns)) if within_slo(measured, horizon_ns) => rate,
        _ => 0.0,
    };
    // The passes come in the order lo, hi, over (or not at all).
    let tails = [
        "serve.rate_lo.tail_ms",
        "serve.rate_hi.tail_ms",
        "serve.rate_over.tail_ms",
    ];
    for (i, name) in tails.into_iter().enumerate() {
        let lat = rate_passes
            .get(i)
            .map_or(Vec::new(), |p| latencies(&p.slice.done, |_| true));
        m.set(name, stats::tail(&lat).value as f64 * MS);
    }
    let over_shed = rate_passes.get(2).map_or(0.0, |p| {
        p.slice.counters.shed as f64 / p.slice.offered.max(1) as f64
    });
    m.set("serve.rate_over.shed_share", over_shed);
    for p in &rate_passes {
        let balanced = p.slice.offered == p.slice.done.len() as u64 + p.slice.counters.shed;
        gates.require(balanced, "offered != completed + shed in a rate pass");
        if within_slo(&p.slice, p.horizon_ns) {
            in_slo = in_slo.max(p.rate_qps);
        }
    }
    m.set("serve.max_rate_in_slo_qps", in_slo);
    let adhoc = latencies(&measured.done, |d| !d.tick);
    let ticks = latencies(&measured.done, |d| d.tick);
    m.set(
        "serve.arrival_tail_ms",
        stats::tail(&adhoc).value as f64 * MS,
    );
    m.set("stream.tick_p50_ms", stats::p50(&ticks) as f64 * MS);
    m.set("stream.tick_tail_ms", stats::tail(&ticks).value as f64 * MS);
    let ticks_done = if measured.offered_ticks > 0 {
        ticks.len() as f64 / measured.offered_ticks as f64
    } else {
        0.0
    };
    m.set("stream.ticks_done_share", ticks_done);

    // workloads
    m.set(
        "workloads.warmup_share_pct",
        100.0 * warmup_wall / slice_wall,
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{end_to_end_table, per_layer_table};
    use crate::workloads::{ScanHeavy, ServeOpen, SqlAdhoc, StreamIngest};

    fn smoke<W: Workload>(seed: u64, trace: bool) -> Report {
        let args = RunArgs {
            seed,
            seconds: 1.0,
            trace,
            smoke: true,
        };
        run::<W>(&args, &mut Spans::new()).expect(W::NAME)
    }

    /// Every phase of every workload at toy scale: all gates hold and
    /// every declared metric comes out.
    fn smoke_passes<W: Workload>() {
        let r = smoke::<W>(1, true);
        assert!(r.correct && r.failed == 0, "{}: {:?}", W::NAME, r.failures);
        assert_eq!(r.slice_walls_s.len(), 2);
        assert!(r.end_to_end.to_json(&end_to_end_table()).is_ok());
        assert!(r.per_layer.to_json(&per_layer_table()).is_ok());
        assert_eq!(r.per_layer.get("trace.reconciled"), Some(1.0));
        assert_eq!(r.per_layer.get("trace.dropped"), Some(0.0));
        assert_eq!(r.per_layer.get("sim.heap_leaked_b"), Some(0.0));
        assert_eq!(r.per_layer.get("harness.virtual_identical"), Some(1.0));
        for (name, _) in end_to_end_table() {
            assert!(
                r.end_to_end.get(name).unwrap() > 0.0,
                "{name} must never be 0"
            );
        }
    }

    #[test]
    fn scan_heavy_smoke() {
        smoke_passes::<ScanHeavy>();
        let r = smoke::<ScanHeavy>(1, true);
        assert!(r.per_layer.get("exec.shard_merges").unwrap() > 0.0);
    }

    #[test]
    fn serve_open_smoke() {
        smoke_passes::<ServeOpen>();
        let r = smoke::<ServeOpen>(1, true);
        assert!(r.per_layer.get("serve.rate_over.shed_share").unwrap() > 0.0);
    }

    #[test]
    fn sql_adhoc_smoke() {
        smoke_passes::<SqlAdhoc>();
        let r = smoke::<SqlAdhoc>(1, true);
        assert_eq!(r.per_layer.get("sql.errors"), Some(0.0));
        assert!(r.per_layer.get("sql.front_end_share_pct").unwrap() > 0.0);
    }

    #[test]
    fn stream_ingest_smoke() {
        smoke_passes::<StreamIngest>();
        let r = smoke::<StreamIngest>(1, true);
        assert!(r.per_layer.get("storage.appends").unwrap() > 0.0);
        assert_eq!(r.per_layer.get("stream.ticks_done_share"), Some(1.0));
    }

    #[test]
    fn virtual_metrics_follow_the_seed_and_nothing_else() {
        const VIRTUAL: [&str; 4] = [
            "virt_goodput_qps",
            "virt_latency_p50_ms",
            "virt_latency_tail_ms",
            "virt_speedup_vs_cpu_only",
        ];
        let (a, b, c) = (
            smoke::<ServeOpen>(5, false),
            smoke::<ServeOpen>(5, false),
            smoke::<ServeOpen>(6, false),
        );
        assert_eq!(a.virtual_fingerprint, b.virtual_fingerprint);
        for name in VIRTUAL {
            let bits = |r: &Report| r.end_to_end.get(name).unwrap().to_bits();
            assert_eq!(bits(&a), bits(&b), "{name} must repeat bit for bit");
        }
        // Another seed draws another schedule.
        assert_ne!(a.virtual_fingerprint, c.virtual_fingerprint);
    }

    #[test]
    fn gates_count_failures_and_tell_wrong_from_refused() {
        let mut g = Gates::default();
        g.failed_ops(3, "arrivals shed");
        assert!(!g.incorrect && g.failed == 3);
        g.require(true, "fine");
        g.wrong(2, "results differ");
        assert!(g.incorrect && g.failed == 5 && g.failures.len() == 2);

        let done = |seq, checksum| Done {
            tick: false,
            session: 0,
            seq,
            latency_ns: 1,
            admit_wait_ns: 0,
            rows: 1,
            checksum,
        };
        // Seq 2 is missing on one side (shed there): not a difference.
        let (a, b) = (
            [done(0, 7), done(1, 8), done(2, 9)],
            [done(0, 7), done(1, 5)],
        );
        assert_eq!(differing_results(&a, &b), 1);
    }
}
