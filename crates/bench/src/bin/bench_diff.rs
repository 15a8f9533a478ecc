//! Gate the committed benchmark files.
//!
//! Four modes read a sweep bin's `{"tables": [...]}` document and check
//! the rows of `robustq_bench::claims::CLAIMS` made on its tables — one
//! line per claim; a `Holds` row that does not hold, a `KnownViolation`
//! row that does, or a claim with nothing to compare fails the gate
//! (DESIGN.md §12):
//!
//! * **default** — `multigpu-ssb` and `multigpu-tpch` of
//!   `BENCH_multigpu.json`: sharding pays with K (DESIGN.md §6), no
//!   robust strategy falls behind the CPU;
//! * **`--staging`** — `multigpu-staging` of the same file (DESIGN.md §6);
//! * **`--serving`** — `serving-ssb` of `BENCH_serving.json`, the p99
//!   under open-loop load (DESIGN.md §10);
//! * **`--streaming`** — `streaming-ssb` of `BENCH_streaming.json`, every
//!   window tick completing at a bounded tail (DESIGN.md §10).
//!
//! **`--kernels`** reads the differently shaped wall-clock
//! `BENCH_kernels.json` (DESIGN.md §5): at 8 workers on the 10M-row
//! inputs `select` and `aggregate` must hold a ≥ 3× speedup over their
//! scalar references (margin below the ≥ 4× the committed JSON records,
//! so a slow CI host doesn't flake), and **no** kernel may dip below
//! 0.95× at any sweep point.
//!
//! ```text
//! cargo run -p robustq-bench --release --bin bench-diff -- BENCH_multigpu.json
//! cargo run -p robustq-bench --release --bin bench-diff -- --staging BENCH_multigpu.json
//! cargo run -p robustq-bench --release --bin bench-diff -- --kernels BENCH_kernels.json
//! ```
//!
//! Exit codes: 0 the gate holds, 1 it does not (or the file is
//! malformed), 2 the arguments or the file could not be read.

use robustq_bench::args::ArgStream;
use robustq_bench::claims::{report, CLAIMS};
use robustq_bench::table::tables_from_json;
use robustq_engine::EngineError;
use robustq_trace::json::{parse, Json};

/// What to gate: the default file and, for the claim modes, the tables
/// whose claims are checked (none: the kernel gate).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Mode {
    file: &'static str,
    tables: &'static [&'static str],
}

const SCALING: Mode =
    Mode { file: "BENCH_multigpu.json", tables: &["multigpu-ssb", "multigpu-tpch"] };
const STAGING: Mode = Mode { file: "BENCH_multigpu.json", tables: &["multigpu-staging"] };
const SERVING: Mode = Mode { file: "BENCH_serving.json", tables: &["serving-ssb"] };
const STREAMING: Mode = Mode { file: "BENCH_streaming.json", tables: &["streaming-ssb"] };
const KERNELS: Mode = Mode { file: "BENCH_kernels.json", tables: &[] };

/// The mode and the file to read.
fn parse_args(mut it: ArgStream) -> Result<(Mode, String), EngineError> {
    let mut path = None;
    let mut mode = None;
    while let Some(flag) = it.next_flag() {
        let picked = match flag.as_str() {
            "--serving" => SERVING,
            "--kernels" => KERNELS,
            "--staging" => STAGING,
            "--streaming" => STREAMING,
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(other.to_string());
                continue;
            }
            other => return Err(ArgStream::unknown_flag(other)),
        };
        if mode.is_some_and(|m| m != picked) {
            return Err(EngineError::config(
                "--serving, --kernels, --staging and --streaming are mutually exclusive",
            ));
        }
        mode = Some(picked);
    }
    let mode = mode.unwrap_or(SCALING);
    Ok((mode, path.unwrap_or_else(|| mode.file.to_string())))
}

/// Check every claim made on `mode`'s tables against the document `src`,
/// one line each; whether all of them passed.
fn check_claims(mode: Mode, src: &str) -> Result<bool, EngineError> {
    let tables = tables_from_json(src)?;
    Ok(report(CLAIMS.iter().filter(|c| mode.tables.contains(&c.table)), &tables))
}

/// Member `name` of the JSON object `of` as `read` sees it, or a config
/// error saying what is `missing`.
fn member<'a, T>(
    of: &'a Json,
    name: &str,
    read: fn(&'a Json) -> Option<T>,
    missing: impl std::fmt::Display,
) -> Result<T, EngineError> {
    of.get(name).and_then(read).ok_or_else(|| EngineError::config(missing.to_string()))
}

/// Speedup floors for the kernel gate (`--kernels`).
const KERNEL_HEADLINE_MIN: f64 = 3.0;
const KERNEL_FLOOR: f64 = 0.95;
const KERNEL_HEADLINE_ROWS: f64 = 10_000_000.0;
const KERNEL_HEADLINE_WORKERS: f64 = 8.0;

/// The kernel gate: every `(kernel, rows, workers)` speedup must stay
/// above `KERNEL_FLOOR`, and `select` / `aggregate` at 8 workers on the
/// 10M-row input must stay above `KERNEL_HEADLINE_MIN`.
fn check_kernels(doc: &Json) -> Result<bool, EngineError> {
    let entries = member(doc, "entries", Json::as_arr, "document has no 'entries' array")?;
    let mut ok = true;
    let mut headline_seen = 0usize;
    for (i, entry) in entries.iter().enumerate() {
        let workers =
            member(entry, "workers", Json::as_num, format_args!("entry {i} has no 'workers'"))?;
        let results =
            member(entry, "results", Json::as_arr, format_args!("entry {i} has no 'results'"))?;
        for (j, r) in results.iter().enumerate() {
            let at = format!("entry {i} result {j}");
            let field = |name: &str| {
                member(r, name, Json::as_num, format_args!("{at} has no numeric {name:?}"))
            };
            let kernel = member(r, "kernel", Json::as_str, format_args!("{at} has no 'kernel'"))?;
            let rows = field("rows")?;
            let speedup = field("speedup")?;
            let headline = (kernel == "select" || kernel == "aggregate")
                && rows == KERNEL_HEADLINE_ROWS
                && workers == KERNEL_HEADLINE_WORKERS;
            headline_seen += headline as usize;
            let min = if headline { KERNEL_HEADLINE_MIN } else { KERNEL_FLOOR };
            let holds = speedup >= min;
            ok &= holds;
            println!(
                "kernels: {kernel:<26} rows={rows:>10.0} workers={workers:.0} \
                 speedup {speedup:.3} (floor {min}){}",
                if holds { "" } else { "  FAIL" },
            );
        }
    }
    if headline_seen < 2 {
        return Err(EngineError::config(format!(
            "no 8-worker 10M-row select/aggregate entries found (saw \
             {headline_seen}) — regenerate BENCH_kernels.json with the full sweep"
        )));
    }
    Ok(ok)
}

/// Report `why` on stderr and exit with `code` (2: could not start,
/// 1: the gate did not pass).
fn die(code: i32, why: impl std::fmt::Display) -> ! {
    eprintln!("bench-diff: {why}");
    std::process::exit(code)
}

fn main() {
    let (mode, path) = parse_args(ArgStream::from_env()).unwrap_or_else(|e| die(2, e));
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(2, format_args!("{path}: {e}")));
    let verdict = if mode == KERNELS {
        parse(&src)
            .map_err(|e| EngineError::config(format!("malformed JSON: {e}")))
            .and_then(|doc| check_kernels(&doc))
    } else {
        check_claims(mode, &src)
    };
    match verdict {
        Ok(true) => println!("bench-diff: ok — {path} passes its gate"),
        Ok(false) => die(1, format_args!("FAIL: {path} does not pass its gate (lines marked FAIL)")),
        Err(e) => die(1, format_args!("{path}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Mode, String), EngineError> {
        parse_args(ArgStream::from_args(args.iter().map(|s| s.to_string())))
    }

    #[test]
    fn modes_pick_their_default_files_and_exclude_each_other() {
        assert_eq!(parse(&[]).unwrap(), (SCALING, "BENCH_multigpu.json".to_string()));
        assert_eq!(parse(&["--staging"]).unwrap().1, "BENCH_multigpu.json");
        assert_eq!(parse(&["--serving"]).unwrap(), (SERVING, "BENCH_serving.json".to_string()));
        assert_eq!(parse(&["--streaming", "x.json"]).unwrap(), (STREAMING, "x.json".to_string()));
        assert_eq!(parse(&["--kernels"]).unwrap().0, KERNELS);
        assert!(parse(&["--serving", "--kernels"]).is_err());
        assert!(parse(&["--max-ratio", "0.9"]).is_err(), "a claim's margin is in its row");
    }

    /// The committed file passes its gate; one edited cell fails it.
    fn gate_trips(mode: Mode, from: &str, to: &str) {
        let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), mode.file);
        let src = std::fs::read_to_string(path).unwrap();
        assert_eq!(check_claims(mode, &src), Ok(true), "{}", mode.file);
        assert_eq!(src.matches(from).count(), 1, "{from} names one row");
        assert_eq!(check_claims(mode, &src.replace(from, to)), Ok(false), "{from}");
    }

    #[test]
    fn each_gate_fails_on_one_edited_cell() {
        // Sharding stops paying: K = 4 no faster than K = 1.
        gate_trips(
            SCALING,
            r#""4", "Data-Driven Chopping + Shard", "0.083""#,
            r#""4", "Data-Driven Chopping + Shard", "0.300""#,
        );
        // GPU Only stops spreading over the fleet: K = 4 as slow as K = 1.
        gate_trips(SCALING, r#""4", "GPU Only", "0.595""#, r#""4", "GPU Only", "1.313""#);
        // One oversize fallback under staging.
        gate_trips(
            STAGING,
            r#""4", "Chopping", "on", "0.387", "0", "0""#,
            r#""4", "Chopping", "on", "0.387", "0", "1""#,
        );
        // The learned strategy's p99 above GPU Only's at the highest rate.
        gate_trips(SERVING, r#""0.637", "0.826", "0.901""#, r#""0.637", "0.826", "9.010""#);
        // More sheds than Chopping's 20 at K = 1 and 0.5 ms windows.
        gate_trips(
            STREAMING,
            r#""1", "Data-Driven Chopping", "0.500", "16", "16", "259", "10""#,
            r#""1", "Data-Driven Chopping", "0.500", "16", "16", "259", "21""#,
        );
        // One window tick missed.
        gate_trips(
            STREAMING,
            r#""4", "Data-Driven Chopping", "0.500", "16", "16""#,
            r#""4", "Data-Driven Chopping", "0.500", "16", "15""#,
        );
    }

    #[test]
    fn a_file_without_the_gated_table_fails() {
        let empty = r#"{"tables": []}"#;
        assert_eq!(check_claims(SERVING, empty), Ok(false));
        assert!(check_claims(SERVING, "{").is_err());
    }
}
