//! Shared CLI parsing for the bench binaries.
//!
//! * [`ArgStream`] — a cursor over `std::env::args()` with typed value
//!   extraction ([`ArgStream::parsed`], [`ArgStream::parsed_list`]),
//!   reporting failures as [`EngineError::Config`]; [`or_exit`] turns one
//!   into the bin's exit status 2.
//! * [`CommonArgs`] — the flags shared across bins (`--out`, `--trace`,
//!   `--ks`, `--rows`, `--users`), parsed *identically* everywhere: a bin
//!   constructs one with its defaults and [`CommonArgs::parse`]s the
//!   arguments, matching only on its own flags.
//!
//! ```no_run
//! use robustq_bench::args::{ArgStream, CommonArgs};
//! # fn main() -> Result<(), robustq_engine::EngineError> {
//! let mut shard = false;
//! let common = CommonArgs::new("BENCH_example.json").parse(ArgStream::from_env(), |flag, _| {
//!     shard |= flag == "--shard";
//!     Ok(flag == "--shard")
//! })?;
//! # Ok(()) }
//! ```

use std::fmt::Display;
use std::str::FromStr;

use robustq_engine::EngineError;
use robustq_serve::BYTES_PER_ARRIVAL;

/// A cursor over the process' CLI arguments (program name skipped).
#[derive(Debug)]
pub struct ArgStream {
    it: std::vec::IntoIter<String>,
}

impl ArgStream {
    /// A stream over `std::env::args()`, program name skipped.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// A stream over explicit arguments (tests).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        ArgStream { it: args.into_iter().collect::<Vec<_>>().into_iter() }
    }

    /// The next argument, expected to be a flag (or positional operand).
    pub fn next_flag(&mut self) -> Option<String> {
        self.it.next()
    }

    /// The value operand of flag `name`.
    pub fn value(&mut self, name: &str) -> Result<String, EngineError> {
        self.it
            .next()
            .ok_or_else(|| EngineError::config(format!("{name} needs a value")))
    }

    /// The value operand of flag `name`, parsed as `T`.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Result<T, EngineError>
    where
        T::Err: Display,
    {
        self.value(name)?
            .parse()
            .map_err(|e| EngineError::config(format!("{name}: {e}")))
    }

    /// The value operand of flag `name`, parsed as a non-empty
    /// comma-separated list of `T`.
    pub fn parsed_list<T: FromStr>(&mut self, name: &str) -> Result<Vec<T>, EngineError>
    where
        T::Err: Display,
    {
        let list: Vec<T> = self
            .value(name)?
            .split(',')
            .map(|v| v.parse().map_err(|e| EngineError::config(format!("{name}: {e}"))))
            .collect::<Result<_, _>>()?;
        if list.is_empty() {
            return Err(EngineError::config(format!("{name} needs a comma list")));
        }
        Ok(list)
    }

    /// The error every bin reports for an unrecognized flag.
    pub fn unknown_flag(flag: &str) -> EngineError {
        EngineError::config(format!("unknown flag {flag:?}"))
    }
}

/// `parsed`, or — a usage error — its message on stderr under `bin`'s
/// name and exit status 2.
pub fn or_exit<T>(bin: &str, parsed: Result<T, EngineError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(2)
    })
}

/// The memory one open-loop sweep point's arrivals may hold: 4 GiB, a
/// quarter of a 16 GB host.
pub const ARRIVAL_MEMORY: u64 = 4 << 30;

/// The most arrivals one open-loop sweep point may expect: as many as
/// [`ARRIVAL_MEMORY`] holds at [`BYTES_PER_ARRIVAL`] each, about 6.7 M. A
/// run builds its whole arrival list up front and keeps every arrival's
/// outcome until it returns, so a huge but finite rate or horizon would
/// exhaust memory.
pub const MAX_ARRIVALS: f64 = (ARRIVAL_MEMORY / BYTES_PER_ARRIVAL) as f64;

/// A config error naming `flag` unless a Poisson stream of `rate_qps`
/// over `horizon_ns` expects at most [`MAX_ARRIVALS`] arrivals.
pub fn check_arrivals(flag: &str, rate_qps: f64, horizon_ns: u64) -> Result<(), EngineError> {
    let expected = rate_qps * horizon_ns as f64 / 1e9;
    if expected > MAX_ARRIVALS {
        return Err(EngineError::config(format!(
            "{flag}: a point expects {expected:.3e} arrivals, more than the {MAX_ARRIVALS:.3e} a run may build"
        )));
    }
    Ok(())
}

/// The flags shared by the sweep bins, with per-bin defaults.
///
/// Semantics are identical everywhere: `--out PATH` (result JSON),
/// `--trace PATH` (Chrome export), `--ks A,B,..` (co-processor counts,
/// each ≥ 1), `--rows N` (rows per scale factor), `--users N`
/// (closed-loop sessions).
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Output path for the result JSON document.
    pub out: String,
    /// Chrome trace export path (`--trace`), when requested.
    pub trace: Option<String>,
    /// Co-processor counts to sweep.
    pub ks: Vec<usize>,
    /// Rows per scale factor for the generated database.
    pub rows: usize,
    /// Parallel closed-loop user sessions.
    pub users: usize,
}

impl CommonArgs {
    /// Shared flags with defaults: result JSON to `out`, no trace,
    /// K ∈ {1, 2, 4}, 8 000 rows, 4 users.
    pub fn new(out: &str) -> Self {
        CommonArgs {
            out: out.to_string(),
            trace: None,
            ks: vec![1, 2, 4],
            rows: 8_000,
            users: 4,
        }
    }

    /// Parse `it` to the end: each shared flag into `self`, every other
    /// flag through the bin's `own`, which pulls the flag's value from the
    /// stream and returns `Ok(false)` for a flag it does not know either.
    pub fn parse(
        mut self,
        mut it: ArgStream,
        mut own: impl FnMut(&str, &mut ArgStream) -> Result<bool, EngineError>,
    ) -> Result<Self, EngineError> {
        while let Some(flag) = it.next_flag() {
            match flag.as_str() {
                "--out" => self.out = it.value("--out")?,
                "--trace" => self.trace = Some(it.value("--trace")?),
                "--ks" => {
                    self.ks = it.parsed_list("--ks")?;
                    if self.ks.contains(&0) {
                        return Err(EngineError::config(
                            "--ks needs a comma list of counts ≥ 1",
                        ));
                    }
                }
                "--rows" => self.rows = it.parsed("--rows")?,
                "--users" => self.users = it.parsed("--users")?,
                own_flag if own(own_flag, &mut it)? => {}
                other => return Err(ArgStream::unknown_flag(other)),
            }
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(args: &[&str]) -> ArgStream {
        ArgStream::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_most_arrivals_a_point_may_expect_fit_its_memory() {
        assert!(MAX_ARRIVALS as u64 * BYTES_PER_ARRIVAL <= ARRIVAL_MEMORY);
        assert!((MAX_ARRIVALS as u64 + 1) * BYTES_PER_ARRIVAL > ARRIVAL_MEMORY);
    }

    /// Parse `args` with no bin flags of its own.
    fn shared(args: &[&str]) -> Result<CommonArgs, EngineError> {
        CommonArgs::new("x.json").parse(stream(args), |_, _| Ok(false))
    }

    #[test]
    fn common_flags_parse_identically() {
        let common = shared(&[
            "--out", "o.json", "--trace", "t.json", "--ks", "1,2", "--rows", "500",
            "--users", "3",
        ])
        .unwrap();
        assert_eq!(common.out, "o.json");
        assert_eq!(common.trace.as_deref(), Some("t.json"));
        assert_eq!(common.ks, vec![1, 2]);
        assert_eq!(common.rows, 500);
        assert_eq!(common.users, 3);
    }

    #[test]
    fn bin_specific_flags_fall_through() {
        // `--seeds` is the chaos bin's own flag, not a shared one.
        let mut own = Vec::new();
        let args = stream(&["--shard", "--ks", "2", "--seeds", "7"]);
        let common = CommonArgs::new("x.json")
            .parse(args, |flag, it| {
                match flag {
                    "--shard" => own.push(flag.to_string()),
                    "--seeds" => own.push(it.value("--seeds")?),
                    _ => return Ok(false),
                }
                Ok(true)
            })
            .unwrap();
        assert_eq!(own, ["--shard", "7"]);
        assert_eq!(common.ks, vec![2]);
        let err = shared(&["--shard"]).unwrap_err();
        assert!(err.to_string().contains("unknown flag \"--shard\""), "{err}");
    }

    #[test]
    fn bad_values_are_config_errors() {
        let err = shared(&["--users", "many"]).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err}");
        let err = shared(&["--ks", "1,0"]).unwrap_err();
        assert!(err.to_string().contains("≥ 1"), "{err}");
        let err = shared(&["--out"]).unwrap_err();
        assert!(err.to_string().contains("needs a value"), "{err}");
    }

    #[test]
    fn typed_list_parsing() {
        let mut it = stream(&["--rates", "1.5,2.5"]);
        assert_eq!(it.next_flag().as_deref(), Some("--rates"));
        let rates: Vec<f64> = it.parsed_list("--rates").unwrap();
        assert_eq!(rates, vec![1.5, 2.5]);
    }
}
