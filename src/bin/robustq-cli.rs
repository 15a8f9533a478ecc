//! Interactive SQL shell over the simulated co-processor machine.
//!
//! ```text
//! cargo run --release --bin robustq-cli
//! ```
//!
//! Meta-commands start with `\`; anything else is parsed as SQL and
//! executed on the current database under the selected placement
//! strategy. The co-processor cache persists across queries, so repeated
//! queries demonstrate the cold→hot transition interactively. Reads from
//! stdin, so scripts pipe in:
//!
//! ```text
//! echo '\gen ssb 1
//! select count(*) as n from lineorder' | cargo run --release --bin robustq-cli
//! ```

use robustq::core::Strategy;
use robustq::engine::{ExecOptions, Executor, PlacementPolicy};
use robustq::sim::{CacheSet, SimConfig};
use robustq::sql::plan_sql;
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::gen::tpch::TpchGenerator;
use robustq::storage::Database;
use std::io::{BufRead, Write};

struct Session {
    db: Option<Database>,
    sim: SimConfig,
    strategy: Strategy,
    policy: Box<dyn PlacementPolicy>,
    cache: CacheSet,
    queries_run: usize,
}

impl Session {
    fn new() -> Self {
        let sim = SimConfig::default();
        let cache = CacheSet::for_topology(&sim.topology, sim.cache_policy);
        Session {
            db: None,
            sim,
            strategy: Strategy::DataDrivenChopping,
            policy: Strategy::DataDrivenChopping.build(),
            cache,
            queries_run: 0,
        }
    }

    fn reset_machine(&mut self) {
        self.policy = self.strategy.build();
        self.cache = CacheSet::for_topology(&self.sim.topology, self.sim.cache_policy);
    }

    fn command(&mut self, line: &str) -> Result<String, String> {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        match cmd {
            "\\help" | "\\h" | "\\?" => Ok(HELP.to_string()),
            "\\gen" => {
                let kind = parts.next().ok_or("usage: \\gen ssb|tpch <sf> [rows_per_sf]")?;
                let sf: u32 = parts
                    .next()
                    .unwrap_or("1")
                    .parse()
                    .map_err(|_| "scale factor must be an integer".to_string())?;
                let rows: usize = parts
                    .next()
                    .map(|r| r.parse().map_err(|_| "rows_per_sf must be an integer"))
                    .transpose()?
                    .unwrap_or(10_000);
                let db = match kind {
                    "ssb" => SsbGenerator::new(sf).with_rows_per_sf(rows).generate(),
                    "tpch" => TpchGenerator::new(sf).with_rows_per_sf(rows).generate(),
                    other => return Err(format!("unknown benchmark {other}")),
                };
                let summary = format!(
                    "generated {kind} SF{sf}: {} tables, {} KiB",
                    db.tables().len(),
                    db.byte_size() / 1024
                );
                self.db = Some(db);
                self.reset_machine();
                Ok(summary)
            }
            "\\strategy" => {
                let name = parts.next().ok_or(STRATEGY_USAGE)?;
                self.strategy = match name {
                    "cpu" => Strategy::CpuOnly,
                    "gpu" => Strategy::GpuPreferred,
                    "critical-path" | "critical" => Strategy::CriticalPath,
                    "data-driven" | "dd" => Strategy::DataDriven,
                    "runtime" | "rt" => Strategy::RuntimePlacement,
                    "chopping" | "chop" => Strategy::Chopping,
                    "ddc" | "data-driven-chopping" => Strategy::DataDrivenChopping,
                    other => return Err(format!("unknown strategy {other}\n{STRATEGY_USAGE}")),
                };
                self.reset_machine();
                Ok(format!("strategy set to {}", self.strategy.name()))
            }
            "\\gpu" => {
                let mem_kib: u64 = parts
                    .next()
                    .ok_or("usage: \\gpu <memory KiB> <cache KiB>")?
                    .parse()
                    .map_err(|_| "memory must be an integer (KiB)".to_string())?;
                let cache_kib: u64 = parts
                    .next()
                    .ok_or("usage: \\gpu <memory KiB> <cache KiB>")?
                    .parse()
                    .map_err(|_| "cache must be an integer (KiB)".to_string())?;
                if cache_kib > mem_kib {
                    return Err("cache cannot exceed device memory".into());
                }
                self.sim = self
                    .sim
                    .clone()
                    .with_gpu_memory(mem_kib * 1024)
                    .with_gpu_cache(cache_kib * 1024);
                self.reset_machine();
                Ok(format!("co-processor: {mem_kib} KiB memory, {cache_kib} KiB cache"))
            }
            "\\compress" => {
                let db = self.db.as_mut().ok_or("no database; run \\gen first")?;
                match parts.next() {
                    Some("on") => {
                        let ratio = db.apply_compression();
                        Ok(format!("transparent compression on (ratio {ratio:.2}x)"))
                    }
                    Some("off") => {
                        db.clear_compression();
                        Ok("transparent compression off".to_string())
                    }
                    _ => Err("usage: \\compress on|off".into()),
                }
            }
            "\\tables" => {
                let db = self.db.as_ref().ok_or("no database; run \\gen first")?;
                let mut out = String::new();
                for t in db.tables() {
                    out.push_str(&format!(
                        "{}: {} rows, {} columns, {} KiB\n",
                        t.name(),
                        t.num_rows(),
                        t.num_columns(),
                        t.byte_size() / 1024
                    ));
                }
                Ok(out.trim_end().to_string())
            }
            "\\schema" => {
                let db = self.db.as_ref().ok_or("no database; run \\gen first")?;
                let name = parts.next().ok_or("usage: \\schema <table>")?;
                let t = db.table(name).ok_or_else(|| format!("no table {name}"))?;
                let mut out = String::new();
                for f in t.schema().fields() {
                    out.push_str(&format!("{} {}\n", f.name, f.data_type));
                }
                Ok(out.trim_end().to_string())
            }
            other => Err(format!("unknown command {other}; try \\help")),
        }
    }

    fn query(&mut self, sql: &str) -> Result<String, String> {
        let db = self.db.as_ref().ok_or("no database; run \\gen first")?;
        let plan = plan_sql(sql, db).map_err(|e| e.to_string())?;
        let executor = Executor::new(db, self.sim.clone());
        let opts = ExecOptions { capture_results: true, ..Default::default() };
        let out = executor.run_with_cache(
            vec![vec![plan]],
            self.policy.as_mut(),
            &opts,
            &mut self.cache,
        )?;
        self.queries_run += 1;
        let outcome = &out.outcomes[0];
        let result = outcome.result.as_ref().expect("captured");

        let mut text = String::new();
        let names: Vec<&str> = result.fields().iter().map(|f| &*f.name).collect();
        text.push_str(&names.join(" | "));
        text.push('\n');
        let shown = result.num_rows().min(20);
        for i in 0..shown {
            let row: Vec<String> = result.row(i).iter().map(|v| v.to_string()).collect();
            text.push_str(&row.join(" | "));
            text.push('\n');
        }
        if result.num_rows() > shown {
            text.push_str(&format!("... ({} rows total)\n", result.num_rows()));
        }
        text.push_str(&format!(
            "-- {} under {}: {} virtual (CPU ops {}, GPU ops {}, \
             CPU→GPU {}, aborts {})",
            if result.num_rows() == 1 { "1 row" } else { "rows" },
            self.policy.name(),
            outcome.latency,
            out.metrics.ops_completed[robustq_sim::DeviceId::Cpu],
            out.metrics.ops_completed[robustq_sim::DeviceId::Gpu],
            out.metrics.h2d_time,
            out.metrics.aborts,
        ));
        Ok(text)
    }

    fn handle(&mut self, line: &str) -> Result<String, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            return Ok(String::new());
        }
        if line.starts_with('\\') {
            self.command(line)
        } else {
            self.query(line)
        }
    }
}

const HELP: &str = "\
\\gen ssb|tpch <sf> [rows_per_sf]   generate a benchmark database
\\strategy <name>                   cpu | gpu | critical | dd | rt | chop | ddc
\\gpu <memory KiB> <cache KiB>      resize the simulated co-processor
\\compress on|off                   transparent column compression (Sec 6.3)
\\tables                            list tables
\\schema <table>                    show a table's columns
\\quit                              exit
anything else                      executed as SQL";

const STRATEGY_USAGE: &str =
    "usage: \\strategy cpu|gpu|critical|dd|rt|chop|ddc";

fn main() {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let interactive = std::env::args().all(|a| a != "--no-banner");
    if interactive {
        println!("robustq shell — \\help for commands, \\quit to exit");
    }
    let mut session = Session::new();
    let mut lines = stdin.lock().lines();
    loop {
        if interactive {
            print!("robustq> ");
            let _ = stdout.flush();
        }
        let Some(Ok(line)) = lines.next() else { break };
        if line.trim() == "\\quit" || line.trim() == "\\q" {
            break;
        }
        match session.handle(&line) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{out}"),
            Err(e) => println!("error: {e}"),
        }
    }
}
