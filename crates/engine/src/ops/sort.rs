//! Sort / top-k kernel.
//!
//! Comparison keys are precomputed once per column — numeric columns as
//! `f64`, string columns as lexicographic *ranks* among the dictionary
//! codes the sorted rows hold — so the comparator never allocates and
//! never re-reads values.

use crate::batch::{Chunk, SelVec};
use crate::plan::{SortKey, SortOrder};
use robustq_storage::ColumnData;
use std::cmp::Ordering;

/// Order-preserving numeric keys for the row stream `(col, sel)`: `f64`
/// for numerics, rank for strings. Only the codes the stream holds are
/// ranked: a few result rows carry a base table's whole dictionary (it is
/// shared, not rebuilt), and sorting that would cost more than the sort.
fn order_keys(col: &ColumnData, sel: Option<&SelVec>) -> Vec<f64> {
    let positions = sel.map(SelVec::positions);
    let rows = 0..positions.map_or(col.len(), <[u32]>::len);
    let row = |i: usize| positions.map_or(i, |p| p[i] as usize);
    match col {
        ColumnData::Str(d) => {
            let codes: Vec<u32> = rows.map(|i| d.codes()[row(i)]).collect();
            let mut held = codes.clone();
            held.sort_unstable();
            held.dedup();
            held.sort_by(|&a, &b| d.dict()[a as usize].cmp(&d.dict()[b as usize]));
            let mut rank = vec![0u32; d.dict().len()];
            for (r, &code) in held.iter().enumerate() {
                rank[code as usize] = r as u32;
            }
            codes.iter().map(|&c| rank[c as usize] as f64).collect()
        }
        _ => rows.map(|i| col.get_f64(row(i))).collect(),
    }
}

/// The stable order of the row stream `(chunk, sel)` by `keys`, as indices
/// into the stream, optionally truncated to the first `limit`.
pub fn order(
    chunk: &Chunk,
    sel: Option<&SelVec>,
    keys: &[SortKey],
    limit: Option<usize>,
) -> Result<Vec<u32>, String> {
    // Validate keys up front so errors mention the key, not a row.
    let cols: Vec<(Vec<f64>, SortOrder)> = keys
        .iter()
        .map(|k| Ok((order_keys(chunk.require_column(&k.column)?, sel), k.order)))
        .collect::<Result<_, String>>()?;
    let rows = sel.map_or(chunk.num_rows(), SelVec::len);
    let mut idx: Vec<u32> = (0..rows as u32).collect();
    idx.sort_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        for (vals, order) in &cols {
            let ord = vals[a].partial_cmp(&vals[b]).unwrap_or(Ordering::Equal);
            let ord = match order {
                SortOrder::Asc => ord,
                SortOrder::Desc => ord.reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    if let Some(l) = limit {
        idx.truncate(l);
    }
    Ok(idx)
}

/// Sort `chunk` by `keys` (stable), optionally truncating to `limit` rows.
pub fn sort(chunk: &Chunk, keys: &[SortKey], limit: Option<usize>) -> Result<Chunk, String> {
    Ok(chunk.gather(&order(chunk, None, keys, limit)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_storage::{DataType, DictColumn, Field, Value};

    fn chunk() -> Chunk {
        Chunk::new(
            vec![
                Field::new("k", DataType::Int32),
                Field::new("s", DataType::Str),
            ],
            vec![
                ColumnData::Int32(vec![3, 1, 2, 1]),
                ColumnData::Str(DictColumn::from_strings(["c", "b", "a", "a"])),
            ],
        )
    }

    #[test]
    fn ascending_sort() {
        let out = sort(&chunk(), &[SortKey::asc("k")], None).unwrap();
        let ks: Vec<_> = (0..4).map(|i| out.row(i)[0].clone()).collect();
        assert_eq!(
            ks,
            vec![Value::Int32(1), Value::Int32(1), Value::Int32(2), Value::Int32(3)]
        );
    }

    #[test]
    fn multi_key_with_directions() {
        let out =
            sort(&chunk(), &[SortKey::asc("k"), SortKey::desc("s")], None).unwrap();
        assert_eq!(out.row(0), vec![Value::Int32(1), Value::from("b")]);
        assert_eq!(out.row(1), vec![Value::Int32(1), Value::from("a")]);
    }

    #[test]
    fn string_sort_uses_lexicographic_order_not_code_order() {
        // Dictionary order is first-seen ("c" gets code 0); sorting must
        // still be lexicographic.
        let out = sort(&chunk(), &[SortKey::asc("s")], None).unwrap();
        assert_eq!(out.row(0)[1], Value::from("a"));
        assert_eq!(out.row(3)[1], Value::from("c"));
    }

    #[test]
    fn a_few_rows_of_a_large_shared_dictionary_sort_by_their_strings() {
        // 100 rows gathered from a 1 000-entry dictionary (a gather shares
        // it), every tenth string twice: ranks come from the codes at
        // hand, the order is the strings', ties keep input order.
        let name = |i: u32| format!("name-{:04}", i.wrapping_mul(7919) % 1000);
        let base = Chunk::new(
            vec![Field::new("s", DataType::Str), Field::new("row", DataType::Int32)],
            vec![
                ColumnData::Str(DictColumn::from_strings((0..1000).map(name))),
                ColumnData::Int32((0..1000).collect()),
            ],
        );
        let rows: Vec<u32> = (0..100).map(|i| (i - i % 10 / 9) * 9).collect();
        let chunk = base.gather(&rows);
        let mut want: Vec<(String, u32)> = rows.iter().map(|&r| (name(r), r)).collect();
        for (keys, reverse) in [(SortKey::asc("s"), false), (SortKey::desc("s"), true)] {
            want.sort_by(|a, b| if reverse { b.0.cmp(&a.0) } else { a.0.cmp(&b.0) });
            let out = sort(&chunk, &[keys], None).unwrap();
            let got: Vec<(String, u32)> = (0..out.num_rows())
                .map(|i| (out.row(i)[0].to_string(), out.row(i)[1].as_i64().unwrap() as u32))
                .collect();
            assert_eq!(got, want);
        }
        // Through positions: the order of the stream, as stream indices.
        let sel = SelVec::new((0..100).filter(|i| i % 3 == 0).collect());
        let through = order(&chunk, Some(&sel), &[SortKey::asc("s")], Some(5)).unwrap();
        let dense = order(&chunk.gather(sel.positions()), None, &[SortKey::asc("s")], Some(5));
        assert_eq!(through, dense.unwrap());
    }

    #[test]
    fn top_k_truncates() {
        let out = sort(&chunk(), &[SortKey::desc("k")], Some(2)).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.row(0)[0], Value::Int32(3));
    }

    #[test]
    fn limit_larger_than_input_is_fine() {
        let out = sort(&chunk(), &[SortKey::asc("k")], Some(100)).unwrap();
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn missing_key_is_error() {
        assert!(sort(&chunk(), &[SortKey::asc("zz")], None).is_err());
    }

    #[test]
    fn stability_preserves_input_order_on_ties() {
        let c = Chunk::new(
            vec![
                Field::new("k", DataType::Int32),
                Field::new("tag", DataType::Int32),
            ],
            vec![
                ColumnData::Int32(vec![1, 1, 1, 1]),
                ColumnData::Int32(vec![10, 20, 30, 40]),
            ],
        );
        let out = sort(&c, &[SortKey::asc("k")], None).unwrap();
        let tags: Vec<i64> = (0..4).map(|i| out.row(i)[1].as_i64().unwrap()).collect();
        assert_eq!(tags, vec![10, 20, 30, 40]);
    }
}
