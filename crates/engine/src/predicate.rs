//! Filter predicates, evaluated to row masks or selection vectors.
//!
//! Covers the predicate forms of the SSB and TPC-H query subset: scalar
//! comparisons, `BETWEEN`, `IN` lists, string prefix/suffix matching
//! (`LIKE 'x%'` / `LIKE '%x'`), column-to-column comparison (TPC-H Q5's
//! `c_nationkey = s_nationkey`, Q4's `l_commitdate < l_receiptdate`) and
//! boolean combinations.
//!
//! A [`Predicate`] is compiled once per chunk into a [`CompiledPred`]
//! (columns resolved, literals converted, dictionary match tables built)
//! that tests one row at a time and emits qualifying `u32` positions
//! directly — no intermediate `Vec<bool>`. Conjunctions and disjunctions
//! short-circuit per row, so a *data-dependent* error (NaN in a numeric
//! comparison, incomparable column pair) is raised only for rows that
//! reach it; static errors (unknown column, type mismatch) surface at
//! compile time, before any row is touched. The production selection
//! kernel (`ops::select`) runs the block form of the same predicate
//! ([`crate::simd`]) and falls back to `CompiledPred` for the shapes the
//! block compiler does not cover.

use crate::batch::Chunk;
use robustq_storage::{ColumnData, Value};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    pub(crate) fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// SQL symbol of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A filter predicate over one chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column <op> literal`.
    Cmp {
        /// Filtered column.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal operand.
        value: Value,
    },
    /// `column BETWEEN lo AND hi` (inclusive).
    Between {
        /// Filtered column.
        column: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `column IN (values…)`.
    InList {
        /// Filtered column.
        column: String,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// `column LIKE 'prefix%'`.
    StrPrefix {
        /// Filtered string column.
        column: String,
        /// Required prefix.
        prefix: String,
    },
    /// `column LIKE '%suffix'`.
    StrSuffix {
        /// Filtered string column.
        column: String,
        /// Required suffix.
        suffix: String,
    },
    /// `left <op> right` between two columns of the same chunk.
    ColCmp {
        /// Left column.
        left: String,
        /// Comparison operator.
        op: CmpOp,
        /// Right column.
        right: String,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Always true (used as a neutral element by plan builders).
    True,
}

impl Predicate {
    /// `column = value`.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp { column: column.into(), op: CmpOp::Eq, value: value.into() }
    }

    /// `column <op> value`.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp { column: column.into(), op, value: value.into() }
    }

    /// `column BETWEEN lo AND hi`.
    pub fn between(
        column: impl Into<String>,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
    ) -> Predicate {
        Predicate::Between { column: column.into(), lo: lo.into(), hi: hi.into() }
    }

    /// `column IN (values…)`.
    pub fn in_list<V: Into<Value>>(
        column: impl Into<String>,
        values: impl IntoIterator<Item = V>,
    ) -> Predicate {
        Predicate::InList {
            column: column.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Conjunction (empty input is `TRUE`, one input collapses).
    pub fn and(preds: impl IntoIterator<Item = Predicate>) -> Predicate {
        let v: Vec<Predicate> = preds.into_iter().collect();
        match v.len() {
            0 => Predicate::True,
            1 => v.into_iter().next().expect("len checked"),
            _ => Predicate::And(v),
        }
    }

    /// Disjunction.
    pub fn or(preds: impl IntoIterator<Item = Predicate>) -> Predicate {
        Predicate::Or(preds.into_iter().collect())
    }

    /// Names of all columns the predicate reads.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        self.for_each_column(&mut |n| {
            if !out.iter().any(|o| o == n) {
                out.push(n.to_owned());
            }
        });
        out
    }

    /// Visit every column reference in predicate order, repeats included,
    /// without allocating.
    pub fn for_each_column<'a, F: FnMut(&'a str)>(&'a self, f: &mut F) {
        match self {
            Predicate::Cmp { column, .. }
            | Predicate::Between { column, .. }
            | Predicate::InList { column, .. }
            | Predicate::StrPrefix { column, .. }
            | Predicate::StrSuffix { column, .. } => f(column),
            Predicate::ColCmp { left, right, .. } => {
                f(left);
                f(right);
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.for_each_column(f);
                }
            }
            Predicate::Not(p) => p.for_each_column(f),
            Predicate::True => {}
        }
    }
}

/// `lo <= x <= hi` with the same incomparability semantics as
/// [`CompiledPred::test`]: any `NaN` on either bound check is an error
/// (the low bound is checked first).
#[inline]
fn range_contains(x: f64, lo: f64, hi: f64) -> Result<bool, String> {
    let ge = x
        .partial_cmp(&lo)
        .ok_or_else(|| "NaN in comparison".to_string())?
        != Ordering::Less;
    let le = x
        .partial_cmp(&hi)
        .ok_or_else(|| "NaN in comparison".to_string())?
        != Ordering::Greater;
    Ok(ge && le)
}

/// A predicate compiled against one chunk: column references resolved,
/// literals converted and dictionary match tables precomputed, leaving a
/// cheap per-row test. Static errors (unknown column, type mismatch)
/// surface here, before any row is touched.
pub(crate) enum CompiledPred<'a> {
    /// Constant outcome (`TRUE`, and the neutral cases).
    Always(bool),
    /// Truth table over the dictionary codes of a string column.
    Codes {
        /// Per-row dictionary codes.
        codes: &'a [u32],
        /// `table[code]` = does the row match.
        table: Vec<bool>,
    },
    /// `column <op> rhs` over a numeric column.
    Num { col: &'a ColumnData, op: CmpOp, rhs: f64 },
    /// `lo <= column <= hi` over a numeric column.
    NumRange { col: &'a ColumnData, lo: f64, hi: f64 },
    /// `column IN (values…)` over a numeric column.
    NumIn { col: &'a ColumnData, values: Vec<f64> },
    /// `left <op> right` between two columns (names kept for errors).
    Cols {
        left: &'a ColumnData,
        right: &'a ColumnData,
        op: CmpOp,
        lname: &'a str,
        rname: &'a str,
    },
    /// Conjunction; `test` short-circuits on the first false conjunct.
    All(Vec<CompiledPred<'a>>),
    /// Disjunction; `test` short-circuits on the first true branch.
    AnyOf(Vec<CompiledPred<'a>>),
    /// Negation.
    Neg(Box<CompiledPred<'a>>),
}

impl<'a> CompiledPred<'a> {
    /// Resolve `pred` against `chunk`.
    pub(crate) fn compile(
        pred: &'a Predicate,
        chunk: &'a Chunk,
    ) -> Result<CompiledPred<'a>, String> {
        match pred {
            Predicate::True => Ok(CompiledPred::Always(true)),
            Predicate::Cmp { column, op, value } => {
                let col = chunk.require_column(column)?;
                match (col, value) {
                    (ColumnData::Str(d), Value::Str(s)) => Ok(CompiledPred::Codes {
                        codes: d.codes(),
                        table: d
                            .dict()
                            .iter()
                            .map(|entry| op.matches(entry.as_str().cmp(s.as_str())))
                            .collect(),
                    }),
                    (ColumnData::Str(_), other) => {
                        Err(format!("cannot compare string column with {other:?}"))
                    }
                    (col, v) => {
                        let rhs = v.as_f64().ok_or_else(|| {
                            format!("cannot compare numeric column with {v:?}")
                        })?;
                        Ok(CompiledPred::Num { col, op: *op, rhs })
                    }
                }
            }
            Predicate::Between { column, lo, hi } => {
                let col = chunk.require_column(column)?;
                match col {
                    ColumnData::Str(d) => {
                        let lo = match lo {
                            Value::Str(s) => s.as_str(),
                            other => {
                                return Err(format!(
                                    "cannot compare string column with {other:?}"
                                ))
                            }
                        };
                        let hi = match hi {
                            Value::Str(s) => s.as_str(),
                            other => {
                                return Err(format!(
                                    "cannot compare string column with {other:?}"
                                ))
                            }
                        };
                        Ok(CompiledPred::Codes {
                            codes: d.codes(),
                            table: d
                                .dict()
                                .iter()
                                .map(|e| e.as_str() >= lo && e.as_str() <= hi)
                                .collect(),
                        })
                    }
                    _ => {
                        let lo = lo.as_f64().ok_or_else(|| {
                            format!("cannot compare numeric column with {lo:?}")
                        })?;
                        let hi = hi.as_f64().ok_or_else(|| {
                            format!("cannot compare numeric column with {hi:?}")
                        })?;
                        Ok(CompiledPred::NumRange { col, lo, hi })
                    }
                }
            }
            Predicate::InList { column, values } => {
                let col = chunk.require_column(column)?;
                match col {
                    ColumnData::Str(d) => {
                        let mut table = vec![false; d.dict().len()];
                        for v in values {
                            let s = match v {
                                Value::Str(s) => s.as_str(),
                                other => {
                                    return Err(format!(
                                        "cannot compare string column with {other:?}"
                                    ))
                                }
                            };
                            for (t, entry) in table.iter_mut().zip(d.dict().iter()) {
                                *t |= entry.as_str() == s;
                            }
                        }
                        Ok(CompiledPred::Codes { codes: d.codes(), table })
                    }
                    _ => {
                        let values = values
                            .iter()
                            .map(|v| {
                                v.as_f64().ok_or_else(|| {
                                    format!("cannot compare numeric column with {v:?}")
                                })
                            })
                            .collect::<Result<Vec<f64>, _>>()?;
                        Ok(CompiledPred::NumIn { col, values })
                    }
                }
            }
            Predicate::StrPrefix { column, prefix } => {
                compile_str_match(chunk, column, |s| s.starts_with(prefix.as_str()))
            }
            Predicate::StrSuffix { column, suffix } => {
                compile_str_match(chunk, column, |s| s.ends_with(suffix.as_str()))
            }
            Predicate::ColCmp { left, op, right } => Ok(CompiledPred::Cols {
                left: chunk.require_column(left)?,
                right: chunk.require_column(right)?,
                op: *op,
                lname: left,
                rname: right,
            }),
            Predicate::And(ps) => Ok(CompiledPred::All(
                ps.iter()
                    .map(|p| CompiledPred::compile(p, chunk))
                    .collect::<Result<_, _>>()?,
            )),
            Predicate::Or(ps) => Ok(CompiledPred::AnyOf(
                ps.iter()
                    .map(|p| CompiledPred::compile(p, chunk))
                    .collect::<Result<_, _>>()?,
            )),
            Predicate::Not(p) => {
                Ok(CompiledPred::Neg(Box::new(CompiledPred::compile(p, chunk)?)))
            }
        }
    }

    /// Does row `row` match? Data-dependent failures (NaN comparisons,
    /// incomparable column pairs) are reported per row.
    #[inline]
    pub(crate) fn test(&self, row: usize) -> Result<bool, String> {
        match self {
            CompiledPred::Always(b) => Ok(*b),
            CompiledPred::Codes { codes, table } => Ok(table[codes[row] as usize]),
            CompiledPred::Num { col, op, rhs } => {
                let ord = col
                    .get_f64(row)
                    .partial_cmp(rhs)
                    .ok_or_else(|| "NaN in comparison".to_string())?;
                Ok(op.matches(ord))
            }
            CompiledPred::NumRange { col, lo, hi } => {
                range_contains(col.get_f64(row), *lo, *hi)
            }
            CompiledPred::NumIn { col, values } => {
                let v = col.get_f64(row);
                let mut found = false;
                for rhs in values {
                    match v.partial_cmp(rhs) {
                        Some(ord) => found |= ord == Ordering::Equal,
                        None => return Err("NaN in comparison".to_string()),
                    }
                }
                Ok(found)
            }
            CompiledPred::Cols { left, right, op, lname, rname } => {
                let ord = left
                    .get(row)
                    .partial_cmp_value(&right.get(row))
                    .ok_or_else(|| format!("incomparable columns {lname}, {rname}"))?;
                Ok(op.matches(ord))
            }
            CompiledPred::All(ps) => {
                for p in ps {
                    if !p.test(row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            CompiledPred::AnyOf(ps) => {
                for p in ps {
                    if p.test(row)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            CompiledPred::Neg(p) => Ok(!p.test(row)?),
        }
    }

    /// Append qualifying positions of the dense range `rows` to `out`.
    ///
    /// The leaf shapes that dominate the SSB/TPC-H filters (dictionary
    /// tables, numeric range and comparison over `i32`/`f64` columns) get
    /// tight specialized loops; everything else goes through
    /// [`CompiledPred::test`].
    pub(crate) fn append_range(
        &self,
        rows: Range<usize>,
        out: &mut Vec<u32>,
    ) -> Result<(), String> {
        match self {
            CompiledPred::Always(true) => {
                out.extend(rows.map(|i| i as u32));
                Ok(())
            }
            CompiledPred::Always(false) => Ok(()),
            CompiledPred::Codes { codes, table } => {
                for i in rows {
                    if table[codes[i] as usize] {
                        out.push(i as u32);
                    }
                }
                Ok(())
            }
            CompiledPred::NumRange { col: ColumnData::Int32(v), lo, hi } => {
                for i in rows {
                    if range_contains(v[i] as f64, *lo, *hi)? {
                        out.push(i as u32);
                    }
                }
                Ok(())
            }
            CompiledPred::NumRange { col: ColumnData::Float64(v), lo, hi } => {
                for i in rows {
                    if range_contains(v[i], *lo, *hi)? {
                        out.push(i as u32);
                    }
                }
                Ok(())
            }
            _ => {
                for i in rows {
                    if self.test(i)? {
                        out.push(i as u32);
                    }
                }
                Ok(())
            }
        }
    }

    /// Append the entries of `positions` that match to `out`, in order.
    pub(crate) fn append_filtered(
        &self,
        positions: &[u32],
        out: &mut Vec<u32>,
    ) -> Result<(), String> {
        for &p in positions {
            if self.test(p as usize)? {
                out.push(p);
            }
        }
        Ok(())
    }
}

fn compile_str_match<'a>(
    chunk: &'a Chunk,
    column: &str,
    pred: impl Fn(&str) -> bool,
) -> Result<CompiledPred<'a>, String> {
    match chunk.require_column(column)? {
        ColumnData::Str(d) => Ok(CompiledPred::Codes {
            codes: d.codes(),
            table: d.dict().iter().map(|s| pred(s)).collect(),
        }),
        _ => Err(format!("column {column} is not a string column")),
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { column, op, value } => {
                write!(f, "{column} {} {value}", op.symbol())
            }
            Predicate::Between { column, lo, hi } => {
                write!(f, "{column} BETWEEN {lo} AND {hi}")
            }
            Predicate::InList { column, values } => {
                write!(f, "{column} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str(")")
            }
            Predicate::StrPrefix { column, prefix } => {
                write!(f, "{column} LIKE '{prefix}%'")
            }
            Predicate::StrSuffix { column, suffix } => {
                write!(f, "{column} LIKE '%{suffix}'")
            }
            Predicate::ColCmp { left, op, right } => {
                write!(f, "{left} {} {right}", op.symbol())
            }
            Predicate::And(ps) => {
                f.write_str("(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
            Predicate::Or(ps) => {
                f.write_str("(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
            Predicate::Not(p) => write!(f, "NOT {p}"),
            Predicate::True => f.write_str("TRUE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select::{select, select_range};
    use crate::parallel::ParallelCtx;
    use crate::reference;
    use robustq_storage::{DataType, DictColumn, Field};

    /// One `bool` per row through the production selection kernel, which
    /// both reference evaluators must agree with.
    trait Evaluate {
        fn evaluate(&self, c: &Chunk) -> Result<Vec<bool>, String>;
    }

    impl Evaluate for Predicate {
        fn evaluate(&self, c: &Chunk) -> Result<Vec<bool>, String> {
            let sel = select(c, None, self, ParallelCtx::serial());
            assert_eq!(sel, reference::select_positions(c, None, self), "{self}");
            let mut mask = vec![false; c.num_rows()];
            for &p in sel?.positions() {
                mask[p as usize] = true;
            }
            assert_eq!(Ok(&mask), reference::mask(self, c).as_ref(), "{self}");
            Ok(mask)
        }
    }

    fn chunk() -> Chunk {
        Chunk::new(
            vec![
                Field::new("q", DataType::Int32),
                Field::new("d", DataType::Int32),
                Field::new("region", DataType::Str),
            ],
            vec![
                ColumnData::Int32(vec![10, 25, 30, 40]),
                ColumnData::Int32(vec![1, 4, 6, 9]),
                ColumnData::Str(DictColumn::from_strings([
                    "ASIA", "EUROPE", "ASIA", "AMERICA",
                ])),
            ],
        )
    }

    #[test]
    fn numeric_comparisons() {
        let c = chunk();
        assert_eq!(
            Predicate::cmp("q", CmpOp::Lt, 30).evaluate(&c).unwrap(),
            vec![true, true, false, false]
        );
        assert_eq!(
            Predicate::cmp("q", CmpOp::Ge, 30).evaluate(&c).unwrap(),
            vec![false, false, true, true]
        );
        assert_eq!(
            Predicate::cmp("q", CmpOp::Ne, 25).evaluate(&c).unwrap(),
            vec![true, false, true, true]
        );
    }

    #[test]
    fn between_is_inclusive() {
        let c = chunk();
        assert_eq!(
            Predicate::between("d", 4, 6).evaluate(&c).unwrap(),
            vec![false, true, true, false]
        );
    }

    #[test]
    fn string_equality_and_in_list() {
        let c = chunk();
        assert_eq!(
            Predicate::eq("region", "ASIA").evaluate(&c).unwrap(),
            vec![true, false, true, false]
        );
        assert_eq!(
            Predicate::in_list("region", ["ASIA", "AMERICA"]).evaluate(&c).unwrap(),
            vec![true, false, true, true]
        );
    }

    #[test]
    fn string_range_lexicographic() {
        let c = chunk();
        // ASIA <= x <= EUROPE
        assert_eq!(
            Predicate::between("region", "ASIA", "EUROPE").evaluate(&c).unwrap(),
            vec![true, true, true, false]
        );
    }

    #[test]
    fn prefix_suffix() {
        let c = chunk();
        assert_eq!(
            Predicate::StrPrefix { column: "region".into(), prefix: "A".into() }
                .evaluate(&c)
                .unwrap(),
            vec![true, false, true, true]
        );
        assert_eq!(
            Predicate::StrSuffix { column: "region".into(), suffix: "PE".into() }
                .evaluate(&c)
                .unwrap(),
            vec![false, true, false, false]
        );
    }

    #[test]
    fn col_to_col_comparison() {
        let c = chunk();
        // q > d everywhere
        assert_eq!(
            Predicate::ColCmp { left: "q".into(), op: CmpOp::Gt, right: "d".into() }
                .evaluate(&c)
                .unwrap(),
            vec![true; 4]
        );
    }

    #[test]
    fn boolean_combinations() {
        let c = chunk();
        let p = Predicate::and([
            Predicate::cmp("q", CmpOp::Ge, 25),
            Predicate::eq("region", "ASIA"),
        ]);
        assert_eq!(p.evaluate(&c).unwrap(), vec![false, false, true, false]);

        let p = Predicate::or([
            Predicate::eq("region", "EUROPE"),
            Predicate::cmp("q", CmpOp::Gt, 35),
        ]);
        assert_eq!(p.evaluate(&c).unwrap(), vec![false, true, false, true]);

        let p = Predicate::Not(Box::new(Predicate::eq("region", "ASIA")));
        assert_eq!(p.evaluate(&c).unwrap(), vec![false, true, false, true]);
    }

    #[test]
    fn and_of_nothing_is_true() {
        let c = chunk();
        assert_eq!(Predicate::and([]).evaluate(&c).unwrap(), vec![true; 4]);
    }

    #[test]
    fn referenced_columns_collected() {
        let p = Predicate::and([
            Predicate::eq("a", 1),
            Predicate::or([Predicate::eq("b", 2), Predicate::eq("a", 3)]),
        ]);
        assert_eq!(p.referenced_columns(), vec!["a".to_string(), "b".into()]);
    }

    #[test]
    fn range_selection_matches_full_slice() {
        let c = chunk();
        let preds = [
            Predicate::cmp("q", CmpOp::Lt, 30),
            Predicate::between("d", 4, 6),
            Predicate::in_list("region", ["ASIA", "AMERICA"]),
            Predicate::StrPrefix { column: "region".into(), prefix: "A".into() },
            Predicate::StrSuffix { column: "region".into(), suffix: "PE".into() },
            Predicate::ColCmp { left: "q".into(), op: CmpOp::Gt, right: "d".into() },
            Predicate::and([
                Predicate::cmp("q", CmpOp::Ge, 25),
                Predicate::Not(Box::new(Predicate::eq("region", "ASIA"))),
            ]),
            Predicate::True,
        ];
        for p in &preds {
            let full = p.evaluate(&c).unwrap();
            for start in 0..4 {
                for end in start..=4 {
                    let sel =
                        select_range(&c, start..end, p, ParallelCtx::serial()).unwrap();
                    let want: Vec<u32> =
                        (start..end).filter(|&i| full[i]).map(|i| i as u32).collect();
                    assert_eq!(sel.positions(), want, "{p} over {start}..{end}");
                }
            }
        }
    }

    #[test]
    fn type_errors_are_reported() {
        let c = chunk();
        assert!(Predicate::eq("region", 4).evaluate(&c).is_err());
        assert!(Predicate::eq("q", "x").evaluate(&c).is_err());
        assert!(Predicate::eq("missing", 1).evaluate(&c).is_err());
    }
}
