//! Regenerate the paper's figures.
//!
//! ```text
//! cargo run -p robustq-bench --release --bin figures            # all figures
//! cargo run -p robustq-bench --release --bin figures -- fig14   # one figure
//! cargo run -p robustq-bench --release --bin figures -- --json fig14
//! cargo run -p robustq-bench --release --bin figures -- --trace out.json fig14
//! ROBUSTQ_EFFORT=full cargo run -p robustq-bench --release --bin figures
//! ```
//!
//! `--trace PATH` additionally performs one traced SSB reference run and
//! writes its Chrome `trace_event` JSON to PATH (load it in Perfetto, or
//! validate it with the `trace-lint` binary).

use robustq_bench::args::ArgStream;
use robustq_bench::{
    all_figures, export_trace, figure_by_id, traced_reference_run, Effort, FigTable, FIGURE_IDS,
};
use robustq_engine::EngineError;

fn emit(table: &FigTable, json: bool) {
    if json {
        println!("{}", table.to_json());
    } else {
        println!("{table}");
    }
}

struct Args {
    json: bool,
    trace_path: Option<String>,
    ids: Vec<String>,
}

fn parse_args() -> Result<Args, EngineError> {
    let mut args = Args { json: false, trace_path: None, ids: Vec::new() };
    let mut it = ArgStream::from_env();
    while let Some(arg) = it.next_flag() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--trace" => args.trace_path = Some(it.value("--trace")?),
            _ => args.ids.push(arg),
        }
    }
    Ok(args)
}

fn main() {
    let effort = Effort::from_env();
    let Args { json, trace_path, ids } = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("figures: {e}");
            std::process::exit(2);
        }
    };

    let mut failed = false;
    if ids.is_empty() && trace_path.is_none() {
        for table in all_figures(effort) {
            emit(&table, json);
        }
    } else {
        for id in &ids {
            match figure_by_id(id, effort) {
                Some(table) => emit(&table, json),
                None => {
                    eprintln!("unknown figure {id:?}; known: {}", FIGURE_IDS.join(", "));
                    failed = true;
                }
            }
        }
    }

    if let Some(path) = trace_path {
        let report = traced_reference_run(effort);
        let trace = report.trace.as_ref().expect("traced run records events");
        if export_trace("figures", &path, trace) > 0 {
            std::process::exit(1);
        }
    }
    if failed {
        std::process::exit(2);
    }
}
