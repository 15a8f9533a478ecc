//! The sweep driver (DESIGN.md §12). A sweep is a table id and title, a
//! column list, a grid of points — each co-processor count of `--ks` ×
//! swept value × contender — and one run closure. [`Driver`] owns the
//! loops, the traced point, the check list every point passes
//! ([`Driver::check`]), the Chrome export, printing, writing `--out` and
//! the exit status; `chaos` and `figures --trace` call its check list.

use std::fmt::Debug;
use std::io::Write;

use robustq_engine::RunMetrics;
use robustq_serve::StreamingReport;
use robustq_trace::TraceData;
use robustq_workloads::{chaos, ResultFingerprints, RunReport};

use crate::args::CommonArgs;
use crate::table::{tables_json, FigTable};

/// One sweep point: a co-processor count, a swept value and a contender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<V, C> {
    pub k: usize,
    pub value: V,
    pub contender: C,
}

/// A table column: its header, and its cell read off a point and its
/// report.
pub type Column<V, C, R> = (&'static str, fn(&Point<V, C>, &R) -> String);

/// One sweep: a table with a row per point, K outermost, then value,
/// then contender.
pub struct Sweep<'a, V, C, R> {
    pub id: String,
    pub title: String,
    pub columns: &'a [Column<V, C, R>],
    pub values: &'a [V],
    pub contenders: &'a [C],
    /// The value and contender `--trace` traces at the largest K, if any.
    pub traced: Option<(V, C)>,
    /// What each query returned, where every point must return what the
    /// sweep's first point did: placement may move work, never change
    /// answers.
    pub same_results: Option<fn(&R) -> ResultFingerprints>,
}

/// What the check list reads of a point's report.
pub trait Checked {
    /// Queries offered, queries completed, the run's metrics, and its
    /// event stream when it was traced.
    fn run(&self) -> (usize, usize, &RunMetrics, Option<&TraceData>);
}

impl Checked for RunReport {
    fn run(&self) -> (usize, usize, &RunMetrics, Option<&TraceData>) {
        (self.offered, self.completed(), &self.metrics, self.trace.as_ref())
    }
}

/// A streaming run offers window ticks beside its arrivals.
impl Checked for StreamingReport {
    fn run(&self) -> (usize, usize, &RunMetrics, Option<&TraceData>) {
        let offered = self.offered_arrivals + self.offered_ticks;
        (offered, self.completed(), &self.metrics, self.trace.as_ref())
    }
}

/// One bin's sweeps: their tables and every failed check.
pub struct Driver {
    bin: &'static str,
    common: CommonArgs,
    tables: Vec<FigTable>,
    /// Each failed check, naming its sweep and point.
    failures: Vec<String>,
}

impl Driver {
    /// A driver for `bin` over the shared flags' `--ks`, `--out` and
    /// `--trace`.
    pub fn new(bin: &'static str, common: &CommonArgs) -> Self {
        Driver { bin, common: common.clone(), tables: Vec::new(), failures: Vec::new() }
    }

    /// Run every point of `sweep` through `run` (told whether to trace
    /// it), check each report and append its row; failures are reported
    /// on stderr as they happen.
    pub fn sweep<V, C, R>(
        &mut self,
        sweep: Sweep<V, C, R>,
        mut run: impl FnMut(&Point<V, C>, bool) -> R,
    ) where
        V: Copy + PartialEq + Debug,
        C: Copy + PartialEq + Debug,
        R: Checked,
    {
        let headers = sweep.columns.iter().map(|(header, _)| *header);
        let mut table = FigTable::new(sweep.id, sweep.title).with_columns(headers);
        let mut first = None;
        // Only the largest K is traced, and only with `--trace`.
        let traced_k = self.common.trace.as_ref().and(self.common.ks.iter().copied().max());
        for k in self.common.ks.clone() {
            for &value in sweep.values {
                for &contender in sweep.contenders {
                    let point = Point { k, value, contender };
                    let traced = Some(k) == traced_k && sweep.traced == Some((value, contender));
                    let report = run(&point, traced);
                    let mut failed = self.check(&report);
                    if let Some(results) = sweep.same_results.map(|results| results(&report)) {
                        if *first.get_or_insert_with(|| results.clone()) != results {
                            failed.push("results drifted from the sweep's first point".into());
                        }
                    }
                    for msg in failed {
                        let failure = format!("{} {point:?}: {msg}", table.id);
                        eprintln!("{}: FAIL: {failure}", self.bin);
                        self.failures.push(failure);
                    }
                    table.push_row(sweep.columns.iter().map(|(_, cell)| cell(&point, &report)));
                }
            }
        }
        self.tables.push(table);
    }

    /// The check list every sweep point passes (a sweep adds the
    /// same-results check): each offered query completed or was shed;
    /// the run kept [`chaos::conservation`] (heap drained, transfer
    /// accounting equal to the interconnect's own); and a traced run
    /// dropped no event, replays to the reported metrics in release too,
    /// and is exported to `--trace`. Returns what failed.
    pub fn check(&self, report: &impl Checked) -> Vec<String> {
        let (offered, completed, m, trace) = report.run();
        let mut failed = Vec::new();
        if offered != completed + m.shed as usize {
            failed.push(format!("offered {offered} != completed {completed} + shed {}", m.shed));
        }
        failed.extend(chaos::conservation(m));
        let (Some(trace), Some(path)) = (trace, &self.common.trace) else { return failed };
        // A truncated stream would under-report, in the export and in
        // anything replayed from it.
        if trace.dropped > 0 {
            failed.push(format!("trace ring overflowed ({} events dropped)", trace.dropped));
        } else if RunMetrics::from_events(&trace.events) != *m {
            failed.push("trace-derived metrics diverge".to_string());
        }
        // The Chrome export; its status goes to stderr, stdout stays the bin's.
        let written = std::fs::File::create(path).and_then(|file| {
            let mut w = std::io::BufWriter::new(file);
            robustq_trace::write_chrome_trace(&trace.events, &mut w)?;
            w.flush()
        });
        match written {
            Ok(()) => {
                eprintln!("{}: wrote {} trace events to {path}", self.bin, trace.events.len())
            }
            Err(e) => failed.push(format!("cannot write {path}: {e}")),
        }
        failed
    }

    /// Write `tables` to `--out` as the `{"tables": [...]}` document
    /// `bench-diff` reads, confirming with `wrote …` on stdout. Returns 1
    /// for a failed write (reported on stderr), else 0.
    pub fn write(&self, tables: &[FigTable]) -> u64 {
        let out = &self.common.out;
        if let Err(e) = std::fs::write(out, tables_json(tables)) {
            eprintln!("{}: cannot write {out}: {e}", self.bin);
            return 1;
        }
        println!("wrote {out}");
        0
    }

    /// Print the tables, [`write`](Driver::write) them, and exit with
    /// status 1 if a check or the write failed.
    pub fn finish(self) {
        for table in &self.tables {
            println!("{table}");
        }
        let failures = self.failures.len() as u64 + self.write(&self.tables);
        if failures > 0 {
            eprintln!("{}: {failures} failure(s)", self.bin);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_core::Strategy;
    use robustq_sim::SimConfig;
    use robustq_storage::gen::ssb::SsbGenerator;
    use robustq_workloads::{ssb, RunnerConfig, WorkloadRunner};

    const COLUMNS: [Column<(), Strategy, RunReport>; 3] = [
        ("K", |p, _| p.k.to_string()),
        ("Strategy", |_, r| r.strategy.to_string()),
        ("Completed", |_, r| r.completed().to_string()),
    ];

    /// An edit to one point's report before the driver checks it.
    type Doctor = fn(&mut RunReport);

    const DOCTORED: Point<(), Strategy> =
        Point { k: 2, value: (), contender: Strategy::CpuOnly };

    /// What one sweep did: the driver, the points traced, and the points
    /// after whose check the trace file had been (re)written.
    struct Outcome {
        driver: Driver,
        traced: Vec<usize>,
        writes: Vec<usize>,
    }

    /// A 1 k-row SSB sweep at K ∈ {1, 2} over CPU Only and Data-Driven
    /// Chopping, checked for same results and tracing Data-Driven
    /// Chopping (at K = 2, the largest) into a temporary file; `doctor` edits the report of
    /// [`DOCTORED`] before the driver checks it.
    fn sweep(name: &str, doctor: Doctor) -> Outcome {
        let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
        let queries = ssb::workload(&db).expect("SSB plans");
        let path = std::env::temp_dir()
            .join(format!("robustq-sweep-{name}-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let common = CommonArgs {
            ks: vec![1, 2],
            trace: Some(path.display().to_string()),
            ..CommonArgs::new("unwritten.json")
        };
        let mut driver = Driver::new("sweep-test", &common);
        let (mut traced, mut writes, mut points) = (Vec::new(), Vec::new(), 0);
        let sweep = Sweep {
            id: "sweep-test".to_string(),
            title: "driver under test".to_string(),
            columns: &COLUMNS,
            values: &[()],
            contenders: &[Strategy::CpuOnly, Strategy::DataDrivenChopping],
            traced: Some(((), Strategy::DataDrivenChopping)),
            same_results: Some(RunReport::result_fingerprints),
        };
        driver.sweep(sweep, |p, trace| {
            if std::fs::remove_file(&path).is_ok() {
                writes.push(points - 1);
            }
            if trace {
                traced.push(points);
            }
            points += 1;
            let mut cfg = RunnerConfig::default().with_users(2);
            cfg.trace = trace;
            let runner = WorkloadRunner::new(&db, SimConfig::default().with_coprocessors(p.k));
            let mut report = runner.run(&queries, p.contender, &cfg).expect("sweep run");
            if *p == DOCTORED {
                doctor(&mut report);
            }
            report
        });
        if std::fs::remove_file(&path).is_ok() {
            writes.push(points - 1);
        }
        Outcome { driver, traced, writes }
    }

    #[test]
    fn one_point_is_traced_and_written_once_and_rows_fill_the_columns() {
        let Outcome { driver, traced, writes } = sweep("clean", |_| {});
        assert_eq!(driver.failures, Vec::<String>::new());
        // K = 2 Data-Driven Chopping is the fourth point.
        assert_eq!(traced, [3]);
        assert_eq!(writes, [3]);
        let [table] = &driver.tables[..] else { panic!("one sweep, one table") };
        assert_eq!(table.rows.len(), 4);
        assert!(table.rows.iter().all(|row| row.len() == COLUMNS.len()));
    }

    #[test]
    fn a_doctored_report_is_one_failure_naming_its_point() {
        let cases: [(&str, Doctor); 3] = [
            ("offered 14 != completed 13 + shed 0", |r| r.offered += 1),
            ("heap leaked 64 bytes", |r| r.metrics.gpu_heap_leaked = 64),
            ("results drifted", |r| r.outcomes[0].checksum ^= 1),
        ];
        for (want, doctor) in cases {
            let failures = sweep("doctored", doctor).driver.failures;
            assert_eq!(failures.len(), 1, "{want}: {failures:?}");
            assert!(failures[0].contains(&format!("{DOCTORED:?}")), "{failures:?}");
            assert!(failures[0].contains(want), "{want}: {failures:?}");
        }
    }
}
