//! `e2e --compare a.jsonl b.jsonl`: per workload × end-to-end metric, how
//! far side b's median lies from side a's, against the bound
//! `BENCHMARK.json` fixes for that metric.
//!
//! Each file holds one report per line, as `--out` appends them: one run
//! or many (other seeds, repetitions). A pairing is `unresolved`, not
//! unchanged, when a side's own runs lie further apart than the bound — or,
//! for a side of one run, when that run flagged its slices as noisy.

use crate::layers::{parse_json, Json};
use crate::stats::Quartiles;
use std::collections::{BTreeMap, BTreeSet};

/// What one `--out` line says about one run.
struct Run {
    workload: String,
    seed: u64,
    noisy: bool,
    fingerprint: String,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path} line {}: {what}", n + 1);
        let doc = parse_json(line).map_err(|e| bad(&e))?;
        let text = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_owned);
        let Some(Json::Obj(table)) = doc.get("end_to_end") else {
            return Err(bad("no end_to_end object"));
        };
        let metrics = table
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
            .collect();
        runs.push(Run {
            workload: text("workload").ok_or_else(|| bad("no workload"))?,
            seed: doc
                .get("seed")
                .and_then(Json::as_num)
                .ok_or_else(|| bad("no seed"))? as u64,
            noisy: doc.get("noisy") == Some(&Json::Bool(true)),
            fingerprint: text("virtual_fingerprint").unwrap_or_default(),
            metrics,
        });
    }
    if runs.is_empty() {
        return Err(format!("{path} holds no report"));
    }
    Ok(runs)
}

/// `(name, better, bound)` of the end-to-end metrics `BENCHMARK.json` declares.
fn bounds(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no end_to_end"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_num);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_owned(), b.to_owned(), x)),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect()
}

/// The verdict on one pairing.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// `worse` is the share of side a's median by which side b is worse
/// (negative: better); `spread_*` each side's interquartile range as a
/// share of its median.
pub fn verdict(worse: f64, bound: f64, spread_a: f64, spread_b: f64, noisy: bool) -> Verdict {
    if noisy || spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints the table; `Ok(false)` when any pairing regressed.
pub fn compare(a_path: &str, b_path: &str, benchmark: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(benchmark)?;
    let workloads: BTreeSet<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    let mut regressed = false;

    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse %", "bound %"
    );
    for w in workloads {
        let side = |runs: &'_ [Run]| -> Vec<usize> {
            (0..runs.len()).filter(|&i| runs[i].workload == w).collect()
        };
        let (ia, ib) = (side(&a), side(&b));
        if ib.is_empty() {
            println!("{w:<18} only in {a_path}");
            continue;
        }
        for (name, better, bound) in &bounds {
            let values = |runs: &[Run], idx: &[usize]| -> Vec<f64> {
                idx.iter()
                    .filter_map(|&i| runs[i].metrics.get(name).copied())
                    .collect()
            };
            let (va, vb) = (values(&a, &ia), values(&b, &ib));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (Quartiles::of(&va), Quartiles::of(&vb));
            let change = (qb.median - qa.median) / qa.median;
            let worse = if better == "lower" { change } else { -change };
            // A side of several runs is judged by its own spread; a lone
            // run has none, so its `noisy` flag (slices further apart than
            // a tenth of their median) stands in for it on the wall clock.
            let spread = |q: &Quartiles, n: usize| if n > 1 { q.spread() } else { 0.0 };
            let lone = |runs: &[Run], idx: &[usize]| idx.len() == 1 && runs[idx[0]].noisy;
            let noisy = name == "wall_queries_per_s" && (lone(&a, &ia) || lone(&b, &ib));
            let v = verdict(
                worse,
                *bound,
                spread(&qa, va.len()),
                spread(&qb, vb.len()),
                noisy,
            );
            regressed |= v == Verdict::Regressed;
            println!(
                "{w:<18} {name:<26} {:>14.6} {:>14.6} {:>9.3} {:>7.1}  {}",
                qa.median,
                qb.median,
                100.0 * worse,
                100.0 * bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // A change meant only to speed up the host must leave every
        // virtual number and checksum of a seed as it was.
        let prints = |runs: &[Run], idx: &[usize]| -> BTreeMap<u64, String> {
            idx.iter()
                .map(|&i| (runs[i].seed, runs[i].fingerprint.clone()))
                .collect()
        };
        let (pa, pb) = (prints(&a, &ia), prints(&b, &ib));
        let shared: Vec<_> = pa.keys().filter(|s| pb.contains_key(s)).collect();
        let same = shared.iter().filter(|s| pa[s] == pb[s]).count();
        println!(
            "{w:<18} virtual metrics and checksums identical on {same} of {} shared seeds",
            shared.len()
        );
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.02, 0.10, 0.01, 0.01, false), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.10, 0.01, 0.01, false), Verdict::Ok);
        assert_eq!(verdict(0.12, 0.10, 0.01, 0.01, false), Verdict::Regressed);
        assert_eq!(verdict(0.12, 0.10, 0.11, 0.01, false), Verdict::Unresolved);
        assert_eq!(verdict(0.00, 0.10, 0.01, 0.01, true), Verdict::Unresolved);
    }
}
