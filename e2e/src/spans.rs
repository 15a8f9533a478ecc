//! The harness's own wall-clock spans.
//!
//! Every call into a layer and every phase of a run is wrapped in
//! [`Spans::time`]: name, start, end, the span that was open when it
//! started (its parent) and the slice it belongs to. Spans stay in memory
//! and are written once, at the end, with `--spans <file>`. A layer's self
//! time is its span minus the part its children cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Slice index within the phase, when the span belongs to one.
    pub slice: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Spans {
    origin: Instant,
    open: Vec<usize>,
    all: Vec<Span>,
    slice: Option<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            open: Vec::new(),
            all: Vec::new(),
            slice: None,
        }
    }

    /// Tag the spans recorded from now on with a slice index.
    pub fn set_slice(&mut self, slice: Option<usize>) {
        self.slice = slice;
    }

    /// Seconds since the harness started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// span's length in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let index = self.all.len();
        let start_s = self.now();
        self.all.push(Span {
            name,
            parent: self.open.last().copied(),
            slice: self.slice,
            start_s,
            end_s: start_s,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_s = self.now();
        self.all[index].end_s = end_s;
        (out, end_s - start_s)
    }

    /// Lengths of every span called `name`, in recording order.
    pub fn lengths(&self, name: &str) -> Vec<f64> {
        self.all
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// A span's length minus what its direct children cover.
    pub fn self_time(&self, index: usize) -> f64 {
        let children: f64 = self
            .all
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::secs)
            .sum();
        self.all[index].secs() - children
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.all.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{workload}\", \
                 \"parent\": {}, \"slice\": {}, \"start_s\": {:.9}, \"end_s\": {:.9}, \
                 \"self_s\": {:.9}}}",
                s.name,
                opt(s.parent),
                opt(s.slice),
                s.start_s,
                s.end_s,
                self.self_time(i),
            );
            out.push_str(if i + 1 < self.all.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.set_slice(Some(3));
        let ((), outer) = spans.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let all = &spans.all;
        assert_eq!(all.len(), 2);
        assert_eq!(
            (all[0].name, all[0].parent, all[0].slice),
            ("outer", None, Some(3))
        );
        assert_eq!((all[1].name, all[1].parent), ("inner", Some(0)));
        assert!(all[1].secs() >= 0.005 && outer >= all[1].secs());
        assert!((spans.self_time(0) - (all[0].secs() - all[1].secs())).abs() < 1e-12);
        assert_eq!(spans.lengths("inner").len(), 1);
        let json = spans.to_json("w");
        assert!(json.contains("\"parent\": 0") && json.contains("\"workload\": \"w\""));
    }
}
