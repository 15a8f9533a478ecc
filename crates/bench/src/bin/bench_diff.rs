//! Gate benchmark claims on the JSON the sweep bins write.
//!
//! Five modes, all deterministic (the sim has no noise, so the margins
//! guard against cost-model tweaks eroding a win, not against jitter):
//!
//! * **Default** — the multi-GPU scaling claim on `BENCH_multigpu.json`
//!   (DESIGN.md §6): on the SSB sweep, at least one sharding-enabled
//!   strategy must bring the max-K makespan *below* its own K = 1
//!   baseline within `--max-ratio` (default 0.95) — adding
//!   co-processors has to pay.
//! * **`--serving`** — the open-loop robustness claim on
//!   `BENCH_serving.json` (DESIGN.md §10): at the *highest tested
//!   arrival rate*, Data-Driven Chopping's p99 latency must not exceed
//!   GPU Only's at any K (`--max-ratio` defaults to 1.0 here) — the
//!   learned strategy has to hold the tail precisely when the system
//!   is saturated.
//! * **`--kernels`** — the CPU kernel claim on `BENCH_kernels.json`
//!   (DESIGN.md §5): at 8 workers on the 10M-row inputs, `select` and
//!   `aggregate` must hold a ≥ 3× speedup over their scalar references
//!   (margin below the ≥ 4× the committed JSON records, so a slow CI
//!   host doesn't flake), and **no** kernel may dip below 0.95× at any
//!   sweep point — optimizations must never regress a sibling kernel.
//! * **`--streaming`** — the standing-query robustness claim on
//!   `BENCH_streaming.json` (DESIGN.md §10): at the *tightest tested
//!   window period*, Data-Driven Chopping must complete every scheduled
//!   window tick and its tick p99 must not exceed GPU Only's
//!   (`--max-ratio` defaults to 1.0) at any K — the learned strategy
//!   has to keep standing results fresh precisely when the window
//!   cadence is most demanding.
//! * **`--adaptive`** — the adaptive-placement claim on the
//!   `multigpu-adaptive` table (DESIGN.md §7, written by
//!   `multigpu --adaptive`): every staged (adaptive) row must record
//!   *zero* oversize fallbacks — chunked staging has to absorb the
//!   over-heap operators the regime manufactures — and no more aborts
//!   than its static sibling; and wherever both models record
//!   est-vs-actual samples, the adaptive median relative error must be
//!   *strictly below* the static one. Both comparisons must be
//!   non-vacuous (some static row must abort, some pair must be
//!   numeric).
//!
//! ```text
//! cargo run -p robustq-bench --release --bin bench-diff -- BENCH_multigpu.json
//! cargo run -p robustq-bench --release --bin bench-diff -- --max-ratio 0.9 BENCH_multigpu.json
//! cargo run -p robustq-bench --release --bin bench-diff -- --serving BENCH_serving.json
//! cargo run -p robustq-bench --release --bin bench-diff -- --streaming BENCH_streaming.json
//! cargo run -p robustq-bench --release --bin bench-diff -- --kernels BENCH_kernels.json
//! cargo run -p robustq-bench --release --bin bench-diff -- --adaptive BENCH_multigpu.json
//! ```

use std::collections::{BTreeMap, BTreeSet};

use robustq_bench::args::ArgStream;
use robustq_engine::EngineError;
use robustq_trace::json::{parse, Json};

/// Which claim to gate (`--serving` etc.; the default is sharded scaling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Scaling,
    Serving,
    Kernels,
    Adaptive,
    Streaming,
}

struct Args {
    path: String,
    max_ratio: f64,
    mode: Mode,
}

fn parse_args(mut it: ArgStream) -> Result<Args, EngineError> {
    let mut path = None;
    let mut max_ratio = None;
    let mut mode = None;
    while let Some(flag) = it.next_flag() {
        let picked = match flag.as_str() {
            "--serving" => Mode::Serving,
            "--kernels" => Mode::Kernels,
            "--adaptive" => Mode::Adaptive,
            "--streaming" => Mode::Streaming,
            "--max-ratio" => {
                let ratio: f64 = it.parsed("--max-ratio")?;
                // A zero ratio would fail every gate vacuously.
                if !(ratio > 0.0 && ratio <= 1.0) {
                    return Err(EngineError::config("--max-ratio must be in (0, 1]"));
                }
                max_ratio = Some(ratio);
                continue;
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(other.to_string());
                continue;
            }
            other => return Err(ArgStream::unknown_flag(other)),
        };
        if mode.is_some_and(|m| m != picked) {
            return Err(EngineError::config(
                "--serving, --kernels, --adaptive and --streaming are mutually exclusive",
            ));
        }
        mode = Some(picked);
    }
    let mode = mode.unwrap_or(Mode::Scaling);
    let (default_path, default_ratio) = match mode {
        Mode::Serving => ("BENCH_serving.json", 1.0),
        Mode::Streaming => ("BENCH_streaming.json", 1.0),
        Mode::Kernels => ("BENCH_kernels.json", 0.95),
        Mode::Scaling | Mode::Adaptive => ("BENCH_multigpu.json", 0.95),
    };
    Ok(Args {
        path: path.unwrap_or_else(|| default_path.to_string()),
        max_ratio: max_ratio.unwrap_or(default_ratio),
        mode,
    })
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

/// One row of a FigTable, its cells addressed by column name.
struct Row<'a> {
    id: &'a str,
    index: usize,
    columns: &'a [Json],
    cells: &'a [Json],
}

impl Row<'_> {
    /// The cell under column `col`.
    fn str(&self, col: &str) -> Result<&str, EngineError> {
        let (id, i) = (self.id, self.index);
        let c = self.columns.iter().position(|c| c.as_str() == Some(col)).ok_or_else(|| {
            EngineError::config(format!("table {id:?} has no column {col:?}"))
        })?;
        self.cells.get(c).and_then(Json::as_str).ok_or_else(|| {
            EngineError::config(format!("table {id:?} row {i} col {c} missing"))
        })
    }

    /// The cell under column `col`, as a number.
    fn num(&self, col: &str) -> Result<f64, EngineError> {
        self.str(col)?.parse().map_err(|e| {
            let (id, i) = (self.id, self.index);
            EngineError::config(format!("table {id:?} row {i}: bad {col}: {e}"))
        })
    }

    /// The `(K, strategy)` pair every gated table keys its rows by.
    fn point(&self) -> Result<(u64, String), EngineError> {
        Ok((self.num("K")? as u64, self.str("Strategy")?.to_string()))
    }
}

/// The rows of the FigTable named `id` inside the `{"tables": [...]}`
/// document.
fn rows<'a>(doc: &'a Json, id: &'a str) -> Result<Vec<Row<'a>>, EngineError> {
    let table = member(doc, "tables", Json::as_arr, "document has no 'tables' array")?
        .iter()
        .find(|t| t.get("id").and_then(Json::as_str) == Some(id))
        .ok_or_else(|| EngineError::config(format!("no table with id {id:?}")))?;
    let field = |name: &str| {
        member(table, name, Json::as_arr, format_args!("table {id:?} has no '{name}'"))
    };
    let columns = field("columns")?;
    field("rows")?
        .iter()
        .enumerate()
        .map(|(index, row)| {
            let cells = row.as_arr().ok_or_else(|| {
                EngineError::config(format!("table {id:?} row {index} is not an array"))
            })?;
            Ok(Row { id, index, columns, cells })
        })
        .collect()
}

/// Check one workload table; returns whether any sharded strategy
/// scales to max K within `max_ratio`, printing every ratio.
fn check_table(doc: &Json, id: &str, max_ratio: f64) -> Result<bool, EngineError> {
    // (strategy label, K) -> makespan ms.
    let mut spans = BTreeMap::new();
    for row in rows(doc, id)? {
        let (k, label) = row.point()?;
        spans.insert((label, k), row.num("Makespan [ms]")?);
    }
    let ks: BTreeSet<u64> = spans.keys().map(|(_, k)| *k).collect();
    let (Some(&min_k), Some(&max_k)) = (ks.first(), ks.last()) else {
        return Err(EngineError::config("empty table"));
    };
    if max_k <= min_k {
        return Err(EngineError::config(format!(
            "table {id:?} has a single K={min_k} — nothing to diff (run the \
             sweep with --ks 1,2,4)"
        )));
    }
    let mut any_scales = false;
    let mut saw_sharded = false;
    for ((label, _), base) in spans.iter().filter(|((_, k), _)| *k == min_k) {
        let Some(at_max) = spans.get(&(label.clone(), max_k)) else {
            continue;
        };
        let ratio = at_max / base;
        let sharded = label.ends_with("+ Shard");
        let scales = sharded && ratio <= max_ratio;
        saw_sharded |= sharded;
        any_scales |= scales;
        println!(
            "{id}: {label:<30} K={min_k} {base:.3}ms -> K={max_k} {at_max:.3}ms \
             (ratio {ratio:.3}){}",
            if scales { "  SCALES" } else { "" },
        );
    }
    if !saw_sharded {
        return Err(EngineError::config(format!(
            "table {id:?} has no sharded rows — run the sweep with --shard"
        )));
    }
    Ok(any_scales)
}

/// `(K, strategy) -> sweep point -> measurement`: the shape the serving
/// (point = arrival rate) and streaming (point = window period) tables
/// are gated in.
type Sweep<T> = BTreeMap<(u64, String), BTreeMap<u64, T>>;

/// Every sweep point some row of `sweep` was measured at.
fn points<T>(sweep: &Sweep<T>) -> impl Iterator<Item = u64> + '_ {
    sweep.values().flat_map(|by_point| by_point.keys().copied())
}

/// Every K of `sweep` with its `(Data-Driven Chopping, GPU Only)`
/// measurements at sweep point `point` (`at` names the point in errors).
fn contenders<T: Copy>(
    sweep: &Sweep<T>,
    point: u64,
    at: &str,
) -> Result<Vec<(u64, T, T)>, EngineError> {
    let ks: BTreeSet<u64> = sweep.keys().map(|(k, _)| *k).collect();
    ks.into_iter()
        .map(|k| {
            let get = |strategy: &str| {
                sweep
                    .get(&(k, strategy.to_string()))
                    .and_then(|by_point| by_point.get(&point))
                    .copied()
                    .ok_or_else(|| {
                        EngineError::config(format!("no {strategy:?} row at K={k} {at}"))
                    })
            };
            Ok((k, get("Data-Driven Chopping")?, get("GPU Only")?))
        })
        .collect()
}

/// The serving gate: at the highest tested rate, for every K,
/// `p99(Data-Driven Chopping) <= max_ratio × p99(GPU Only)`.
fn check_serving(doc: &Json, id: &str, max_ratio: f64) -> Result<bool, EngineError> {
    let mut p99s: Sweep<f64> = Sweep::new();
    for row in rows(doc, id)? {
        p99s.entry(row.point()?)
            .or_default()
            .insert(row.num("Rate [qps]")? as u64, row.num("p99 [ms]")?);
    }
    let max_rate = points(&p99s).max().ok_or_else(|| EngineError::config("empty table"))?;
    let mut ok = true;
    for (k, dd, gpu) in contenders(&p99s, max_rate, &format!("rate={max_rate}"))? {
        let holds = dd <= max_ratio * gpu;
        ok &= holds;
        println!(
            "{id}: K={k} rate={max_rate}: Data-Driven Chopping p99 {dd:.3}ms vs \
             GPU Only p99 {gpu:.3}ms (ratio {:.3}){}",
            dd / gpu,
            if holds { "  HOLDS" } else { "  FAIL" },
        );
    }
    Ok(ok)
}

/// One `streaming-ssb` row: scheduled/completed ticks and tick p99.
#[derive(Debug, Clone, Copy)]
struct StreamingRow {
    ticks: u64,
    done: u64,
    tick_p99: f64,
}

/// The streaming gate: at the tightest window period, for every K,
/// Data-Driven Chopping completes every scheduled tick and
/// `tick-p99(Data-Driven Chopping) <= max_ratio × tick-p99(GPU Only)`.
fn check_streaming(doc: &Json, id: &str, max_ratio: f64) -> Result<bool, EngineError> {
    // Window periods are keyed in microseconds so they stay integral.
    let mut by_window: Sweep<StreamingRow> = Sweep::new();
    for row in rows(doc, id)? {
        let window_us = (row.num("Window [ms]")? * 1e3).round() as u64;
        let measured = StreamingRow {
            ticks: row.num("Ticks")? as u64,
            done: row.num("Ticks done")? as u64,
            tick_p99: row.num("Tick p99 [ms]")?,
        };
        by_window.entry(row.point()?).or_default().insert(window_us, measured);
    }
    let min_window =
        points(&by_window).min().ok_or_else(|| EngineError::config("empty table"))?;
    let mut ok = true;
    for (k, dd, gpu) in contenders(&by_window, min_window, &format!("window={min_window}us"))? {
        let complete = dd.done == dd.ticks;
        let tail = dd.tick_p99 <= max_ratio * gpu.tick_p99;
        ok &= complete && tail;
        println!(
            "{id}: K={k} window={:.3}ms: Data-Driven Chopping ticks {}/{} p99 \
             {:.3}ms vs GPU Only p99 {:.3}ms (ratio {:.3}){}",
            min_window as f64 / 1e3,
            dd.done,
            dd.ticks,
            dd.tick_p99,
            gpu.tick_p99,
            dd.tick_p99 / gpu.tick_p99,
            if complete && tail { "  HOLDS" } else { "  FAIL" },
        );
    }
    Ok(ok)
}

/// One `multigpu-adaptive` row per cost model at a sweep point.
#[derive(Debug, Clone, Copy)]
struct AdaptiveRow {
    aborts: u64,
    oversize: u64,
    median_err: Option<f64>,
}

/// The adaptive gate (DESIGN.md §7) on the `multigpu-adaptive`
/// table: staged rows absorb every over-heap operator (zero oversize
/// fallbacks), never abort more than their static siblings, and beat
/// the static model's median est-vs-actual error wherever both report.
fn check_adaptive(doc: &Json, id: &str) -> Result<bool, EngineError> {
    // (K, strategy) -> per-model rows.
    let mut points = BTreeMap::<(u64, String), BTreeMap<String, AdaptiveRow>>::new();
    for row in rows(doc, id)? {
        let measured = AdaptiveRow {
            aborts: row.num("Aborts")? as u64,
            oversize: row.num("Oversize")? as u64,
            median_err: row.str("MedianErr %")?.parse().ok(), // "-" when no samples
        };
        points
            .entry(row.point()?)
            .or_default()
            .insert(row.str("Model")?.to_string(), measured);
    }
    if points.is_empty() {
        return Err(EngineError::config(format!("table {id:?} has no rows")));
    }
    let mut ok = true;
    let mut static_aborted = false;
    let mut err_pairs = 0usize;
    for ((k, strategy), models) in &points {
        let get = |m: &str| {
            models.get(m).copied().ok_or_else(|| {
                EngineError::config(format!(
                    "table {id:?}: no {m:?} row at K={k} {strategy}"
                ))
            })
        };
        let st = get("static")?;
        let ad = get("adaptive")?;
        static_aborted |= st.aborts > 0;
        let staged_ok = ad.oversize == 0 && ad.aborts <= st.aborts;
        ok &= staged_ok;
        let err_ok = match (st.median_err, ad.median_err) {
            (Some(se), Some(ae)) => {
                err_pairs += 1;
                ae < se
            }
            _ => true, // plan-time strategies record no samples
        };
        ok &= err_ok;
        println!(
            "{id}: K={k} {strategy:<10} aborts {} -> {} oversize {} \
             median-err {} -> {}{}",
            st.aborts,
            ad.aborts,
            ad.oversize,
            st.median_err.map_or("-".into(), |e| format!("{e:.2}%")),
            ad.median_err.map_or("-".into(), |e| format!("{e:.2}%")),
            if staged_ok && err_ok { "  HOLDS" } else { "  FAIL" },
        );
    }
    if !static_aborted {
        return Err(EngineError::config(format!(
            "table {id:?}: no static row aborts — the regime is vacuous \
             (heap too large for the workload?)"
        )));
    }
    if err_pairs == 0 {
        return Err(EngineError::config(format!(
            "table {id:?}: no sweep point reports est-vs-actual error for \
             both models — nothing to compare"
        )));
    }
    Ok(ok)
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

/// Report one gate's verdict: the claim that `holds` on stdout, or what
/// `broke` it (or kept it from being checked) on stderr with exit code 1.
fn gate(path: &str, verdict: Result<bool, EngineError>, holds: &str, broke: &str) {
    match verdict {
        Ok(true) => println!("bench-diff: ok — {holds}"),
        Ok(false) => die(1, format_args!("FAIL: {broke}")),
        Err(e) => die(1, format_args!("{path}: {e}")),
    }
}

fn main() {
    let args = parse_args(ArgStream::from_env()).unwrap_or_else(|e| die(2, e));
    let (path, ratio) = (args.path.as_str(), args.max_ratio);
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(2, format_args!("{path}: {e}")));
    let doc = parse(&src).unwrap_or_else(|e| die(1, format_args!("{path}: malformed JSON: {e}")));
    match args.mode {
        Mode::Kernels => gate(
            path,
            check_kernels(&doc),
            &format!(
                "kernel speedups hold ({KERNEL_HEADLINE_MIN}x headline, {KERNEL_FLOOR}x floor)"
            ),
            &format!(
                "a kernel speedup fell below its floor (headline \
                 {KERNEL_HEADLINE_MIN}x, global {KERNEL_FLOOR}x)"
            ),
        ),
        Mode::Serving => gate(
            path,
            check_serving(&doc, "serving-ssb", ratio),
            "serving robustness criterion holds at the highest tested rate",
            &format!(
                "Data-Driven Chopping p99 exceeds {ratio} x GPU Only p99 at the \
                 highest tested arrival rate"
            ),
        ),
        Mode::Streaming => gate(
            path,
            check_streaming(&doc, "streaming-ssb", ratio),
            "streaming robustness criterion holds at the tightest tested window period",
            &format!(
                "Data-Driven Chopping missed window ticks or its tick p99 exceeds \
                 {ratio} x GPU Only's at the tightest tested window period"
            ),
        ),
        Mode::Adaptive => gate(
            path,
            check_adaptive(&doc, "multigpu-adaptive"),
            "adaptive placement criterion holds (staging absorbs over-heap \
             operators, adaptive error undercuts static)",
            "a staged row recorded an oversize fallback, aborted more than its \
             static sibling, or did not beat the static median est-vs-actual error",
        ),
        Mode::Scaling => {
            // SSB carries the success criterion; TPC-H is reported for context.
            let ssb = check_table(&doc, "multigpu-ssb", ratio);
            if matches!(ssb, Ok(true)) {
                if let Err(e) = check_table(&doc, "multigpu-tpch", ratio) {
                    eprintln!("bench-diff: note: tpch table skipped: {e}");
                }
            }
            gate(
                path,
                ssb,
                "sharded scaling criterion holds",
                &format!(
                    "no sharded strategy reaches max-K makespan <= {ratio} x its \
                     K=1 baseline on SSB"
                ),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, EngineError> {
        parse_args(ArgStream::from_args(args.iter().map(|s| s.to_string())))
    }

    #[test]
    fn max_ratio_is_half_open_at_zero() {
        for bad in ["0", "-0.5", "1.5", "NaN"] {
            let err = parse(&["--max-ratio", bad]).err().expect(bad);
            assert!(err.to_string().contains("(0, 1]"), "{bad}: {err}");
        }
        assert_eq!(parse(&["--max-ratio", "1"]).unwrap().max_ratio, 1.0);
        assert_eq!(parse(&["--max-ratio", "0.9"]).unwrap().max_ratio, 0.9);
    }
}
