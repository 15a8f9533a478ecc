//! `e2e` — the repository's benchmark of record: four workloads from SQL
//! text (or a planned template) to checked result, on both clocks, each
//! layer timed from outside. See README.md beside this package.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out f.jsonl] [--spans f.json]
//! e2e --smoke [--workload <name>]          every phase at toy scale
//! e2e --compare a.jsonl b.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod compare;
mod layers;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use report::{Host, Report, END_TO_END, PER_LAYER, WORKLOADS};
use run::RunArgs;
use spans::Spans;
use std::io::Write as _;
use workloads::{ScanHeavy, ServeOpen, SqlAdhoc, StreamIngest, Workload};

struct Args {
    workload: Option<String>,
    run: RunArgs,
    out: Option<String>,
    spans: Option<String>,
    compare: Option<(String, String)>,
    benchmark: String,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        run: RunArgs {
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        },
        out: None,
        spans: None,
        compare: None,
        benchmark: "BENCHMARK.json".to_owned(),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                args.run.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.run.seconds > 0.0 && args.run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                }
            }
            "--smoke" => args.run.smoke = true,
            "--out" => args.out = Some(value()?),
            "--spans" => args.spans = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--benchmark" => args.benchmark = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.0 == name) {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    if args.compare.is_none() && args.workload.is_none() && !args.run.smoke {
        return Err("give --workload <name>, --smoke or --compare <a> <b>".to_owned());
    }
    Ok(args)
}

fn run_workload(name: &str, args: &RunArgs, spans: &mut Spans) -> Result<Report, String> {
    match name {
        ScanHeavy::NAME => run::run::<ScanHeavy>(args, spans),
        ServeOpen::NAME => run::run::<ServeOpen>(args, spans),
        SqlAdhoc::NAME => run::run::<SqlAdhoc>(args, spans),
        StreamIngest::NAME => run::run::<StreamIngest>(args, spans),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Every metric by name and unit, for people.
fn print_report(r: &Report, traced: bool) {
    let q = r.slice_quartiles();
    println!(
        "# {} seed {}: {} slices, median {:.4} s (q1 {:.4}, q3 {:.4}, spread {:.1} %{})",
        r.workload,
        r.seed,
        r.slice_walls_s.len(),
        q.median,
        q.q1,
        q.q3,
        100.0 * q.spread(),
        if r.noisy() { ", NOISY" } else { "" },
    );
    for m in END_TO_END {
        if let Some(v) = r.end_to_end.get(m.0) {
            println!("{:<34} {:>16.6} {}", m.0, v, m.1);
        }
    }
    println!(
        "# virt_latency_tail_ms is p{} of {} latencies; virtual fingerprint {:016x}",
        r.tail_percentile, r.latency_samples, r.virtual_fingerprint
    );
    if traced {
        for m in PER_LAYER {
            if let Some(v) = r.per_layer.get(m.0) {
                println!("{:<34} {:>16.6} {}", m.0, v, m.1);
            }
        }
    }
    let layer = |name| r.per_layer.get(name);
    if let (Some(overhead), Some(iqr)) =
        (layer("trace.overhead_pct"), layer("trace.overhead_iqr_pct"))
    {
        if iqr > overhead.abs() {
            println!(
                "# trace.overhead_pct is UNRESOLVED: its pairs lie {iqr:.1} points apart, \
                 further than it lies from 0"
            );
        }
    }
    for f in &r.failures {
        println!("# FAILED: {f}");
    }
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot write {path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if let Some((a, b)) = &args.compare {
        return compare::compare(a, b, &args.benchmark);
    }
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let host = args.out.as_ref().map(|_| Host::detect());
    let mut all_correct = true;
    let mut last_line = String::new();
    let mut span_files = Vec::new();
    for name in names {
        let mut spans = Spans::new();
        let report = run_workload(name, &args.run, &mut spans)?;
        print_report(&report, args.run.trace);
        if let (Some(path), Some(host)) = (&args.out, &host) {
            append_line(path, &report::report_json(&report, host)?)?;
        }
        span_files.push(spans.to_json(name));
        all_correct &= report.correct;
        last_line = report.result_line(args.run.trace)?;
    }
    if let Some(path) = &args.spans {
        let doc = format!("[\n{}\n]\n", span_files.join(",\n"));
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{last_line}");
    Ok(all_correct)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    }
}
