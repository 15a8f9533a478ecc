//! Regenerate the paper's figures, then the ablation studies.
//!
//! ```text
//! cargo run -p robustq-bench --release --bin figures            # all figures and ablations
//! cargo run -p robustq-bench --release --bin figures -- fig14   # one figure
//! cargo run -p robustq-bench --release --bin figures -- ablation-multigpu
//! cargo run -p robustq-bench --release --bin figures -- --json fig14
//! cargo run -p robustq-bench --release --bin figures -- --trace out.json fig14
//! cargo run -p robustq-bench --release --bin figures -- --verdicts > docs/verdicts-quick.txt
//! ROBUSTQ_EFFORT=full cargo run -p robustq-bench --release --bin figures
//! ```
//!
//! `--verdicts` prints, instead of the tables, one line per claim of
//! `robustq_bench::claims::CLAIMS` — id, source, status, the measured
//! witness — read off every figure and the three committed sweep files
//! in the working directory; it exits 1 if any claim fails its status.
//!
//! `--trace PATH` additionally performs one traced SSB reference run,
//! passes it through the sweep driver's check list (`robustq_bench::sweep`)
//! and writes its Chrome `trace_event` JSON to PATH (load it in Perfetto,
//! or validate it with the `trace-lint` binary).

use robustq_bench::args::{or_exit, ArgStream, CommonArgs};
use robustq_bench::claims::{self, CLAIMS};
use robustq_bench::sweep::Driver;
use robustq_bench::table::read_tables;
use robustq_bench::{
    all_figures, figure_by_id, traced_reference_run, Effort, FigTable, Figure, FIGURES,
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
    verdicts: bool,
    trace_path: Option<String>,
    ids: Vec<String>,
}

fn parse_args() -> Result<Args, EngineError> {
    let mut args = Args { json: false, verdicts: false, trace_path: None, ids: Vec::new() };
    let mut it = ArgStream::from_env();
    while let Some(arg) = it.next_flag() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--verdicts" => args.verdicts = true,
            "--trace" => args.trace_path = Some(it.value("--trace")?),
            _ => args.ids.push(arg),
        }
    }
    Ok(args)
}

/// Check every claim against the figures and the committed sweep files;
/// returns whether all of them have the status the list gives them.
fn verdicts(effort: Effort) -> Result<bool, EngineError> {
    let mut tables = all_figures(effort);
    for file in claims::BENCH_FILES {
        tables.extend(read_tables(file)?);
    }
    Ok(claims::report(CLAIMS, &tables))
}

fn main() {
    let effort = Effort::from_env();
    let Args { json, verdicts: only_verdicts, trace_path, ids } = or_exit("figures", parse_args());
    if only_verdicts {
        std::process::exit(!or_exit("figures", verdicts(effort)) as i32);
    }

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
                    let known: Vec<&str> = FIGURES.iter().map(Figure::id).collect();
                    eprintln!("unknown figure {id:?}; known: {}", known.join(", "));
                    failed = true;
                }
            }
        }
    }

    if let Some(path) = trace_path {
        // The sweep driver's check list, which exports the trace.
        let common = CommonArgs { trace: Some(path), ..CommonArgs::new("") };
        let failed = Driver::new("figures", &common).check(&traced_reference_run(effort));
        for msg in &failed {
            eprintln!("figures: FAIL: {msg}");
        }
        if !failed.is_empty() {
            std::process::exit(1);
        }
    }
    if failed {
        std::process::exit(2);
    }
}
