//! Hash join kernel (inner, semi, anti).
//!
//! [`hash_join`] reads both sides as row streams `(chunk, Option<&SelVec>)`
//! — only selected rows (all rows when `None`) have keys extracted — and
//! returns what matched as stream-index pairs: it copies no column, and
//! neither side is gathered before or after it. The build side is looked
//! up through its base column's [`KeyIndex`](robustq_storage::KeyIndex)
//! when it has one and the stream reads enough of it, else indexed once
//! into a flat-array `JoinTable` on the calling thread; the probe loop —
//! one per key type (`ProbeKeys`), resolved outside it — runs per morsel
//! of the stream.

use crate::batch::{Chunk, SelVec};
use crate::ops::hashtbl::JoinTable;
use crate::parallel::{with_scratch, KernelClass, ParallelCtx};
use crate::plan::JoinKind;
use robustq_storage::{ColumnData, DataType, Database};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

thread_local! {
    /// Build keys of a per-query [`JoinTable`].
    static KEYS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Base row + 1 → build stream index + 1, for a key index read through
    /// a selection.
    static RANKS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The probe key column, read into the canonical 64-bit key space of the
/// build side.
///
/// Each key is computed on demand, so only rows the probe actually visits
/// ever get one. Integer pairs compare as integers and anything involving
/// a float compares through `f64` bits. String pairs reuse the build
/// side's dictionary codes directly as keys: when both columns share one
/// dictionary `Arc` (common after gathers/filters of the same base column)
/// probe codes pass through with no per-call map at all; otherwise only
/// the two *dictionaries* are reconciled (O(|dicts|), not O(rows)) and
/// probe codes translate through that table. Probe-only strings map to
/// `u64::MAX`, which no build key of a string join — a `u32` code — equals;
/// it is no sentinel anywhere else (an integer −1 is the same bits).
enum ProbeKeys<'a> {
    /// String column: dictionary codes, optionally translated into the
    /// build dictionary's code space.
    Codes {
        /// Per-row probe codes.
        codes: &'a [u32],
        /// `map[probe_code] -> build key`; `None` when the dictionaries
        /// are the same `Arc` and codes are directly comparable.
        map: Option<Vec<u64>>,
    },
    /// Numeric column keyed by `f64` bit pattern.
    F64(&'a ColumnData),
    /// Integer column keyed by value.
    I32(&'a [i32]),
    /// Integer column keyed by value.
    I64(&'a [i64]),
}

impl ProbeKeys<'_> {
    /// The keys of an integer column, in the key space of an integer build
    /// side; `None` for any other column.
    fn integers(col: &ColumnData) -> Option<ProbeKeys<'_>> {
        match col {
            ColumnData::Int32(v) => Some(ProbeKeys::I32(v)),
            ColumnData::Int64(v) => Some(ProbeKeys::I64(v)),
            ColumnData::Float64(_) | ColumnData::Str(_) => None,
        }
    }

    /// Probe the stream indices `m` through `lookup` ([`Lookup::probe`]): the
    /// key type is resolved here, once per morsel instead of once per
    /// probed row, and every arm gets a row loop of its own.
    fn probe(
        &self,
        m: Range<usize>,
        row: impl Fn(usize) -> u32,
        lookup: &impl Lookup,
        kind: JoinKind,
        out: Positions<'_>,
    ) {
        match self {
            ProbeKeys::Codes { codes, map: None } => {
                lookup.probe(|r| codes[r] as u64, m, row, kind, out)
            }
            ProbeKeys::Codes { codes, map: Some(map) } => {
                lookup.probe(|r| map[codes[r] as usize], m, row, kind, out)
            }
            ProbeKeys::F64(c) => lookup.probe(|r| c.get_f64(r).to_bits(), m, row, kind, out),
            ProbeKeys::I32(v) => lookup.probe(|r| v[r] as i64 as u64, m, row, kind, out),
            ProbeKeys::I64(v) => lookup.probe(|r| v[r] as u64, m, row, kind, out),
        }
    }
}

/// Fill `bkeys` with the keys of the build stream `(build, build_sel)` and
/// return the probe-side per-row extractor, or the type error of an
/// incomparable key pair.
fn probe_key_extractor<'a>(
    build: &ColumnData,
    build_sel: Option<&SelVec>,
    probe: &'a ColumnData,
    bkeys: &mut Vec<u64>,
) -> Result<ProbeKeys<'a>, String> {
    fn fill(bkeys: &mut Vec<u64>, sel: Option<&SelVec>, rows: usize, key: impl Fn(usize) -> u64) {
        match sel {
            Some(s) => bkeys.extend(s.positions().iter().map(|&p| key(p as usize))),
            None => bkeys.extend((0..rows).map(key)),
        }
    }
    match (build, probe) {
        (ColumnData::Str(b), ColumnData::Str(p)) => {
            fill(bkeys, build_sel, build.len(), |i| b.codes()[i] as u64);
            let map = if Arc::ptr_eq(b.dict(), p.dict()) {
                None
            } else {
                let intern: BTreeMap<&str, u64> = b
                    .dict()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.as_str(), i as u64))
                    .collect();
                Some(
                    p.dict()
                        .iter()
                        .map(|s| intern.get(s.as_str()).copied().unwrap_or(u64::MAX))
                        .collect(),
                )
            };
            Ok(ProbeKeys::Codes { codes: p.codes(), map })
        }
        (ColumnData::Str(_), _) | (_, ColumnData::Str(_)) => {
            Err("cannot join a string column with a numeric column".into())
        }
        _ if build.data_type() == DataType::Float64
            || probe.data_type() == DataType::Float64 =>
        {
            fill(bkeys, build_sel, build.len(), |i| build.get_f64(i).to_bits());
            Ok(ProbeKeys::F64(probe))
        }
        _ => {
            match build {
                ColumnData::Int32(v) => fill(bkeys, build_sel, build.len(), |i| v[i] as i64 as u64),
                ColumnData::Int64(v) => fill(bkeys, build_sel, build.len(), |i| v[i] as u64),
                _ => unreachable!("integer types checked"),
            }
            Ok(ProbeKeys::integers(probe).expect("integer types checked"))
        }
    }
}

/// Where a probe appends: probe stream indices, and build rows beside
/// them for `Inner`.
type Positions<'a> = (&'a mut Vec<u32>, &'a mut Vec<u32>);

/// Probe rows handled per on-stack output block.
const BLOCK: usize = 256;

/// How a probe finds the build stream indices of a key.
trait Lookup: Sync {
    /// Probe the stream indices `m` — `row` maps one to the probe row its
    /// key is read at: the identity for a dense probe, the position list's
    /// entry for a selected one — appending what qualifies.
    ///
    /// `Inner` appends matching `(stream index, build index)` pairs;
    /// `Semi`/`Anti` append surviving stream indices only (and never touch
    /// the build indices). Indices come out in input order and the matches
    /// of one probe row in increasing build index, so per-morsel outputs
    /// concatenate into exactly the row-at-a-time result.
    fn probe(
        &self,
        key: impl Fn(usize) -> u64,
        m: Range<usize>,
        row: impl Fn(usize) -> u32,
        kind: JoinKind,
        out: Positions<'_>,
    );
}

/// A per-query table: exact where it is, else along its chains.
impl Lookup for JoinTable<'_> {
    fn probe(
        &self,
        key: impl Fn(usize) -> u64,
        m: Range<usize>,
        row: impl Fn(usize) -> u32,
        kind: JoinKind,
        (probe_pos, build_pos): Positions<'_>,
    ) {
        if let Some(only) = self.exact() {
            return Exact(only).probe(key, m, row, kind, (probe_pos, build_pos));
        }
        let keep = kind != JoinKind::Anti;
        for i in m {
            let k = key(row(i) as usize);
            match kind {
                JoinKind::Inner => self.for_each_match(k, |b| {
                    probe_pos.push(i as u32);
                    build_pos.push(b);
                }),
                _ if self.contains(k) == keep => probe_pos.push(i as u32),
                _ => {}
            }
        }
    }
}

/// An exact lookup — no build key repeats (every foreign-key join): the
/// one build stream index of a key plus one, 0 if there is none.
///
/// A probe row then yields at most one position, so it is written
/// unconditionally into a fixed block and kept by advancing the count: no
/// data-dependent branch, no per-row `push`, and the output grows by what
/// matched, not by what was probed.
struct Exact<F>(F);

impl<F: Fn(u64) -> u32 + Sync> Lookup for Exact<F> {
    fn probe(
        &self,
        key: impl Fn(usize) -> u64,
        m: Range<usize>,
        row: impl Fn(usize) -> u32,
        kind: JoinKind,
        (probe_pos, build_pos): Positions<'_>,
    ) {
        let keep = kind != JoinKind::Anti;
        let (mut probes, mut builds) = ([0u32; BLOCK], [0u32; BLOCK]);
        for lo in m.clone().step_by(BLOCK) {
            let mut n = 0;
            for i in lo..m.end.min(lo + BLOCK) {
                let hit = (self.0)(key(row(i) as usize));
                probes[n] = i as u32;
                builds[n] = hit.wrapping_sub(1);
                n += usize::from((hit != 0) == keep);
            }
            probe_pos.extend_from_slice(&probes[..n]);
            if kind == JoinKind::Inner {
                build_pos.extend_from_slice(&builds[..n]);
            }
        }
    }
}

/// Hash join `probe ⋈ build` on `probe_key = build_key` over the row
/// streams `(chunk, sel)` of both sides — every row when `sel` is `None` —
/// as positions: indices into the probe stream, in stream order, and for
/// `Inner` the build stream index each matched beside them. Whoever wants
/// rows gathers the columns it reads at them; this function copies none.
///
/// * `Inner`: one pair per match, a probe row's in increasing build index.
/// * `Semi`: probe rows with at least one match (no build indices).
/// * `Anti`: probe rows with no match (no build indices).
///
/// When the build key is a base column of `db` whose integer keys are
/// unique, and the build stream reads it whole or through a strictly
/// increasing selection at least as long as the probe, an integer probe
/// goes through the column's own [`KeyIndex`](robustq_storage::KeyIndex)
/// (`Database::key_index`, built by the first such join) — a selection's
/// positions ranked once per call — and no table is built. Any other join indexes its build
/// keys into a per-query table: directly addressed when their range is
/// small against both sides' rows, hashed otherwise (`JoinTable`). Workers
/// append what matched to their arenas, so the positions cost memory by
/// the join's output, never by its input.
pub fn hash_join(
    (build, build_sel): (&Chunk, Option<&SelVec>),
    (probe, probe_sel): (&Chunk, Option<&SelVec>),
    build_key: &str,
    probe_key: &str,
    kind: JoinKind,
    ctx: ParallelCtx,
    db: Option<&Database>,
) -> Result<(Vec<u32>, Vec<u32>), String> {
    let bcol = build.require_column(build_key)?;
    let pcol = probe.require_column(probe_key)?;
    let probed = probe_sel.map_or(probe.num_rows(), SelVec::len);
    let stream = (probe_sel, probed, kind, ctx);
    // The build column's own index, for an integer probe of no more rows
    // than the build stream reads.
    let indexed = match (ProbeKeys::integers(pcol), db) {
        (Some(keys), Some(db)) if build_sel.is_none_or(|s| s.len() >= probed) => {
            db.key_index(bcol).map(|index| (keys, index))
        }
        _ => None,
    };
    if let Some((keys, index)) = indexed {
        let lookup = index.lookup();
        // Read whole (or not probed at all), the index answers by itself.
        let Some(sel) = build_sel.filter(|_| probed > 0) else {
            return probe_stream(&keys, &Exact(lookup), stream);
        };
        let ranked = with_scratch(&RANKS, |ranks| {
            rank(sel, bcol.len(), ranks)
                .then(|| probe_stream(&keys, &Exact(|k| ranks[lookup(k) as usize]), stream))
        });
        if let Some(pairs) = ranked {
            return pairs;
        }
    }
    with_scratch(&KEYS, |bkeys| {
        bkeys.clear();
        let keys = probe_key_extractor(bcol, build_sel, pcol, bkeys)?;
        probe_stream(&keys, &JoinTable::build(bkeys, probed), stream)
    })
}

/// Fill `ranks` so that `ranks[row + 1]` is the stream index of base row
/// `row` in `sel` plus one, 0 where `sel` skips the row — and `ranks[0]`,
/// where a key no row has looks, is 0. False if `sel` is not strictly
/// increasing (a composed selection may repeat a row).
fn rank(sel: &SelVec, rows: usize, ranks: &mut Vec<u32>) -> bool {
    ranks.clear();
    ranks.resize(rows + 1, 0);
    let mut next = 0;
    for (i, &p) in sel.positions().iter().enumerate() {
        if p < next {
            return false;
        }
        ranks[p as usize + 1] = i as u32 + 1;
        next = p + 1;
    }
    true
}

/// The probe stream — its selection (`None`: dense), its length, the join
/// kind and the parallelism it runs with.
type Stream<'a> = (Option<&'a SelVec>, usize, JoinKind, ParallelCtx);

/// Probe every row of the stream through `lookup`, morsel by morsel.
fn probe_stream(
    keys: &ProbeKeys<'_>,
    lookup: &impl Lookup,
    (probe_sel, probed, kind, ctx): Stream<'_>,
) -> Result<(Vec<u32>, Vec<u32>), String> {
    // A run (a predicate-free shard's rows) is probed as an offset: its
    // positions are never listed.
    let probe_morsel = |m: Range<usize>, out: Positions<'_>| match probe_sel {
        Some(s) => match s.as_run() {
            Some(run) => keys.probe(m, |i| run.start + i as u32, lookup, kind, out),
            None => {
                let positions = s.positions();
                keys.probe(m, |i| positions[i], lookup, kind, out)
            }
        },
        None => keys.probe(m, |i| i as u32, lookup, kind, out),
    };
    match kind {
        JoinKind::Inner => ctx.run_morsels_arena(
            probed,
            KernelClass::Join,
            |m, out: &mut (Vec<u32>, Vec<u32>)| {
                probe_morsel(m, (&mut out.0, &mut out.1));
                Ok(())
            },
        ),
        // Semi/anti probes emit stream indices only, so the arena is
        // a single stream and the build-side sink stays empty.
        JoinKind::Semi | JoinKind::Anti => {
            let kept = ctx.run_morsels_arena(
                probed,
                KernelClass::Join,
                |m, out: &mut Vec<u32>| {
                    probe_morsel(m, (out, &mut Vec::new()));
                    Ok(())
                },
            )?;
            Ok((kept, Vec::new()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use robustq_storage::{DictColumn, Field, Value};

    /// The dense serial join and the rows it matched, as the
    /// materializing interpreter gathers them.
    fn join(
        build: &Chunk,
        probe: &Chunk,
        build_key: &str,
        probe_key: &str,
        kind: JoinKind,
    ) -> Result<Chunk, String> {
        let (build, probe) = ((build, None), (probe, None));
        let pairs = hash_join(build, probe, build_key, probe_key, kind, ParallelCtx::serial(), None)?;
        Ok(reference::joined_rows(build, probe, &pairs, kind))
    }

    fn build_side() -> Chunk {
        Chunk::new(
            vec![
                Field::new("id", DataType::Int32),
                Field::new("name", DataType::Str),
            ],
            vec![
                ColumnData::Int32(vec![1, 2, 2]),
                ColumnData::Str(DictColumn::from_strings(["a", "b", "b2"])),
            ],
        )
    }

    fn probe_side() -> Chunk {
        Chunk::new(
            vec![
                Field::new("fk", DataType::Int32),
                Field::new("v", DataType::Float64),
            ],
            vec![
                ColumnData::Int32(vec![2, 3, 1]),
                ColumnData::Float64(vec![20.0, 30.0, 10.0]),
            ],
        )
    }

    #[test]
    fn inner_join_matches_and_duplicates() {
        let out =
            join(&build_side(), &probe_side(), "id", "fk", JoinKind::Inner).unwrap();
        // fk=2 matches two build rows, fk=3 none, fk=1 one.
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 4);
        let rows = out.sorted_rows();
        assert!(rows.contains(&vec![
            Value::Int32(1),
            Value::Float64(10.0),
            Value::Int32(1),
            Value::from("a")
        ]));
    }

    #[test]
    fn semi_join_keeps_probe_schema() {
        let out =
            join(&build_side(), &probe_side(), "id", "fk", JoinKind::Semi).unwrap();
        assert_eq!(out.num_columns(), 2);
        assert_eq!(out.num_rows(), 2); // fk=2 and fk=1 (no duplication)
    }

    #[test]
    fn anti_join_keeps_non_matching() {
        let out =
            join(&build_side(), &probe_side(), "id", "fk", JoinKind::Anti).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int32(3));
    }

    #[test]
    fn string_key_join_across_dictionaries() {
        let build = Chunk::new(
            vec![Field::new("n", DataType::Str)],
            vec![ColumnData::Str(DictColumn::from_strings(["FRANCE", "GERMANY"]))],
        );
        let probe = Chunk::new(
            vec![Field::new("n2", DataType::Str)],
            vec![ColumnData::Str(DictColumn::from_strings([
                "GERMANY", "RUSSIA", "FRANCE", "GERMANY",
            ]))],
        );
        let out = join(&build, &probe, "n", "n2", JoinKind::Inner).unwrap();
        assert_eq!(out.num_rows(), 3);
        let semi = join(&build, &probe, "n", "n2", JoinKind::Anti).unwrap();
        assert_eq!(semi.num_rows(), 1);
        assert_eq!(semi.row(0)[0], Value::from("RUSSIA"));
    }

    #[test]
    fn string_key_join_with_shared_dictionary() {
        // A gather shares the dictionary Arc, so this exercises the
        // code-reuse fast path (no interning map at all).
        let base = Chunk::new(
            vec![Field::new("n", DataType::Str)],
            vec![ColumnData::Str(DictColumn::from_strings([
                "FRANCE", "GERMANY", "RUSSIA",
            ]))],
        );
        let build = base.gather(&[0, 1]);
        let probe = base.gather(&[1, 2, 0, 1]);
        let out = join(&build, &probe, "n", "n", JoinKind::Inner).unwrap();
        assert_eq!(out.num_rows(), 3);
        let anti = join(&build, &probe, "n", "n", JoinKind::Anti).unwrap();
        assert_eq!(anti.num_rows(), 1);
        assert_eq!(anti.row(0)[0], Value::from("RUSSIA"));
    }

    #[test]
    fn mixed_int_float_keys_join_numerically() {
        let build = Chunk::new(
            vec![Field::new("k", DataType::Float64)],
            vec![ColumnData::Float64(vec![1.0, 2.0])],
        );
        let probe = Chunk::new(
            vec![Field::new("k2", DataType::Int32)],
            vec![ColumnData::Int32(vec![2, 5])],
        );
        let out = join(&build, &probe, "k", "k2", JoinKind::Inner).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn string_vs_numeric_key_is_an_error() {
        let build = Chunk::new(
            vec![Field::new("s", DataType::Str)],
            vec![ColumnData::Str(DictColumn::from_strings(["x"]))],
        );
        assert!(
            join(&build, &probe_side(), "s", "fk", JoinKind::Inner).is_err()
        );
    }

    #[test]
    fn empty_sides() {
        let empty_build = build_side().gather(&[]);
        let out =
            join(&empty_build, &probe_side(), "id", "fk", JoinKind::Inner).unwrap();
        assert_eq!(out.num_rows(), 0);
        let out =
            join(&empty_build, &probe_side(), "id", "fk", JoinKind::Anti).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    /// Every `(build_sel, probe_sel, ctx)` form equals the reference on
    /// the same streams, for all kinds, results and errors. The build
    /// stream is read through positions a join could have composed:
    /// unordered and repeating.
    fn assert_matches_reference(build: &Chunk, probe: &Chunk, bk: &str, pk: &str) {
        let n = probe.num_rows() as u32;
        let sel = SelVec::new((0..n).filter(|i| i % 3 != 0).collect());
        let b = build.num_rows() as u32;
        let composed = SelVec::all(b as usize).compose(&(0..b).rev().chain(0..b / 2).collect::<Vec<_>>());
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            for (build_sel, probe_sel) in [(None, None), (None, Some(&sel)), (Some(&composed), Some(&sel))] {
                let gathered = build_sel.map_or_else(|| build.clone(), |s| build.gather(s.positions()));
                let want = reference::hash_join(&gathered, probe, probe_sel, bk, pk, kind);
                for (workers, morsel) in [(1, 65_536), (3, 13), (8, 1)] {
                    let ctx =
                        ParallelCtx { workers, morsel_rows: morsel, min_rows_per_worker: 0 };
                    let (build, probe) = ((build, build_sel), (probe, probe_sel));
                    let got = hash_join(build, probe, bk, pk, kind, ctx, None)
                        .map(|pairs| reference::joined_rows(build, probe, &pairs, kind));
                    assert_eq!(
                        got,
                        want,
                        "{kind:?} sel={} workers={workers}",
                        probe_sel.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn matches_reference_all_kinds() {
        // Pseudo-random keys with duplicates and misses on both sides so the
        // table exercises chained buckets and empty lookups.
        let n = 257usize;
        let bkeys: Vec<i64> = (0..n).map(|i| ((i * 37) % 83) as i64).collect();
        let pkeys: Vec<i64> = (0..n * 2).map(|i| ((i * 53) % 120) as i64).collect();
        let build = Chunk::new(
            vec![
                Field::new("k", DataType::Int64),
                Field::new("bv", DataType::Int32),
            ],
            vec![
                ColumnData::Int64(bkeys),
                ColumnData::Int32((0..n as i32).collect()),
            ],
        );
        let probe = Chunk::new(
            vec![
                Field::new("fk", DataType::Int64),
                Field::new("pv", DataType::Int32),
            ],
            vec![
                ColumnData::Int64(pkeys),
                ColumnData::Int32((0..(n * 2) as i32).collect()),
            ],
        );
        assert_matches_reference(&build, &probe, "k", "fk");
    }

    #[test]
    fn string_keys_across_dictionaries_match_reference() {
        // Distinct dictionaries exercise the probe-key translation table
        // inside the morsel loop; probe-only strings never match.
        let strs = |n: usize, m: usize| {
            Chunk::new(
                vec![Field::new("s", DataType::Str)],
                vec![ColumnData::Str(DictColumn::from_strings(
                    (0..n).map(|i| format!("k{}", (i * 13) % m)),
                ))],
            )
        };
        assert_matches_reference(&strs(40, 11), &strs(333, 17), "s", "s");
    }

    #[test]
    fn empty_and_error_paths_match_reference() {
        assert_matches_reference(&build_side().gather(&[]), &probe_side(), "id", "fk");
        assert_matches_reference(&build_side(), &probe_side().gather(&[]), "id", "fk");
        // String vs numeric keys, unknown build and probe columns.
        assert_matches_reference(&build_side(), &probe_side(), "name", "fk");
        assert_matches_reference(&build_side(), &probe_side(), "zz", "fk");
        assert_matches_reference(&build_side(), &probe_side(), "id", "zz");
        assert!(join(&build_side(), &probe_side(), "name", "fk", JoinKind::Inner).is_err());
    }
}
