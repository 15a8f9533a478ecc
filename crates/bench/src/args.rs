//! Shared CLI parsing for the bench binaries.
//!
//! * [`ArgStream`] — a cursor over `std::env::args()` with typed value
//!   extraction ([`ArgStream::parsed`], [`ArgStream::parsed_list`]),
//!   reporting failures as [`EngineError::Config`]; [`or_exit`] turns one
//!   into the bin's exit status 2.
//! * [`CommonArgs`] — the flags shared across bins (`--out`, `--trace`,
//!   `--ks`, `--rows`, `--users`), parsed *identically* everywhere: a bin
//!   constructs one with its defaults, offers every flag to
//!   [`CommonArgs::accept`] first, and only matches on its own flags.
//!
//! ```no_run
//! use robustq_bench::args::{ArgStream, CommonArgs};
//! # fn main() -> Result<(), robustq_engine::EngineError> {
//! let mut common = CommonArgs::new("BENCH_example.json");
//! let mut shard = false;
//! let mut it = ArgStream::from_env();
//! while let Some(flag) = it.next_flag() {
//!     if common.accept(&flag, &mut it)? {
//!         continue;
//!     }
//!     match flag.as_str() {
//!         "--shard" => shard = true,
//!         other => return Err(ArgStream::unknown_flag(other)),
//!     }
//! }
//! # Ok(()) }
//! ```

use std::fmt::Display;
use std::str::FromStr;

use robustq_engine::EngineError;

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

    /// Override the default K list.
    pub fn with_ks(mut self, ks: &[usize]) -> Self {
        self.ks = ks.to_vec();
        self
    }

    /// Override the default row count.
    pub fn with_rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Override the default user count.
    pub fn with_users(mut self, users: usize) -> Self {
        self.users = users;
        self
    }

    /// Consume `flag` if it is one of the shared flags, pulling its
    /// value from `it`. Returns `Ok(false)` for bin-specific flags.
    pub fn accept(&mut self, flag: &str, it: &mut ArgStream) -> Result<bool, EngineError> {
        match flag {
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
            _ => return Ok(false),
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(args: &[&str]) -> ArgStream {
        ArgStream::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn common_flags_parse_identically() {
        let mut common = CommonArgs::new("default.json");
        let mut it = stream(&[
            "--out", "o.json", "--trace", "t.json", "--ks", "1,2", "--rows", "500",
            "--users", "3",
        ]);
        while let Some(flag) = it.next_flag() {
            assert!(common.accept(&flag, &mut it).unwrap(), "{flag} is shared");
        }
        assert_eq!(common.out, "o.json");
        assert_eq!(common.trace.as_deref(), Some("t.json"));
        assert_eq!(common.ks, vec![1, 2]);
        assert_eq!(common.rows, 500);
        assert_eq!(common.users, 3);
    }

    #[test]
    fn bin_specific_flags_fall_through() {
        let mut common = CommonArgs::new("x.json");
        // `--seeds` is the chaos bin's own flag, not a shared one.
        for own in ["--shard", "--seeds"] {
            let mut it = stream(&[own]);
            let flag = it.next_flag().unwrap();
            assert!(!common.accept(&flag, &mut it).unwrap(), "{own}");
        }
    }

    #[test]
    fn bad_values_are_config_errors() {
        let mut common = CommonArgs::new("x.json");
        let mut it = stream(&["--users", "many"]);
        let flag = it.next_flag().unwrap();
        let err = common.accept(&flag, &mut it).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err}");

        let mut it = stream(&["1,0"]);
        let err = common.accept("--ks", &mut it).unwrap_err();
        assert!(err.to_string().contains("≥ 1"), "{err}");

        let mut it = stream(&[]);
        let err = common.accept("--out", &mut it).unwrap_err();
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
