//! Scalar expressions, evaluated column-at-a-time.
//!
//! Expressions cover what the SSB/TPC-H query subset needs: column
//! references, numeric literals, the four arithmetic operators and integer
//! division (`year(yyyymmdd) = col // 10000`). Evaluation is columnar over
//! the row stream `(chunk, Option<&SelVec>)` the kernels read: an
//! expression over an `n`-row stream produces an `n`-row column.

use crate::batch::{Chunk, SelVec};
use robustq_storage::{ColumnData, DataType};
use std::fmt;

/// A scalar expression over the columns of one chunk.
///
/// Arithmetic composes through the `std::ops` traits: `a + b`, `a - b`,
/// `a * b` and `a / b` build AST nodes (they do not compute).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column of the input chunk, by name.
    Col(String),
    /// A numeric literal.
    Lit(f64),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division.
    Div(Box<Expr>, Box<Expr>),
    /// Truncating integer division (both operands rounded toward zero
    /// first). `IntDiv(Col("l_shipdate"), 10000)` extracts the year from a
    /// `yyyymmdd` date.
    IntDiv(Box<Expr>, f64),
}

impl Expr {
    /// A column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// A numeric literal.
    pub fn lit(v: f64) -> Expr {
        Expr::Lit(v)
    }

    /// `self // divisor` with truncation.
    pub fn int_div(self, divisor: f64) -> Expr {
        Expr::IntDiv(Box::new(self), divisor)
    }

    /// Extract the year from a `yyyymmdd`-encoded date column.
    pub fn year_of(col: impl Into<String>) -> Expr {
        Expr::col(col).int_div(10_000.0)
    }

    /// Visit every column reference in expression order, repeats included,
    /// without allocating (what an operator reads of a lazy input).
    pub fn for_each_column<'a, F: FnMut(&'a str)>(&'a self, f: &mut F) {
        match self {
            Expr::Col(n) => f(n),
            Expr::Lit(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.for_each_column(f);
                b.for_each_column(f);
            }
            Expr::IntDiv(a, _) => a.for_each_column(f),
        }
    }

    /// The result type of the expression over `chunk`.
    ///
    /// A bare column reference keeps its type; any arithmetic yields
    /// `Float64` except [`Expr::IntDiv`], which yields `Int64`.
    pub fn result_type(&self, chunk: &Chunk) -> Result<DataType, String> {
        match self {
            Expr::Col(n) => chunk
                .column_type(n)
                .ok_or_else(|| format!("no column {n} in chunk")),
            Expr::Lit(_) => Ok(DataType::Float64),
            Expr::IntDiv(_, _) => Ok(DataType::Int64),
            _ => Ok(DataType::Float64),
        }
    }

    /// Evaluate over the row stream `(chunk, sel)` — every row of `chunk`
    /// when `sel` is `None`, else the selected rows in position order —
    /// producing one value per row of the stream.
    ///
    /// Expressions are row-wise pure, so this equals gathering the chunk
    /// at `sel` and evaluating densely, without materializing the gathered
    /// input columns: only the column leaves read through the selection.
    pub fn evaluate(
        &self,
        chunk: &Chunk,
        sel: Option<&SelVec>,
    ) -> Result<ColumnData, String> {
        match self {
            Expr::Col(n) => {
                let col = chunk.require_column(n)?;
                Ok(match sel {
                    None => col.clone(),
                    Some(s) => col.gather(s.positions()),
                })
            }
            Expr::IntDiv(a, d) => {
                let vals = a.evaluate_f64(chunk, sel)?;
                Ok(ColumnData::Int64(
                    vals.into_iter().map(|v| (v / *d).trunc() as i64).collect(),
                ))
            }
            _ => Ok(ColumnData::Float64(self.evaluate_f64(chunk, sel)?)),
        }
    }

    /// [`Expr::evaluate`] to a dense `f64` vector (numeric expressions
    /// only), one value per row of the stream `(chunk, sel)`.
    pub fn evaluate_f64(
        &self,
        chunk: &Chunk,
        sel: Option<&SelVec>,
    ) -> Result<Vec<f64>, String> {
        match self {
            Expr::Col(name) => {
                let col = chunk.require_column(name)?;
                if col.data_type() == DataType::Str {
                    return Err(format!("column {name} is not numeric"));
                }
                Ok(match sel {
                    None => (0..chunk.num_rows()).map(|i| col.get_f64(i)).collect(),
                    Some(s) => {
                        s.positions().iter().map(|&p| col.get_f64(p as usize)).collect()
                    }
                })
            }
            Expr::Lit(v) => Ok(vec![*v; sel.map_or(chunk.num_rows(), SelVec::len)]),
            Expr::Add(a, b) => binary(a, b, chunk, sel, |x, y| x + y),
            Expr::Sub(a, b) => binary(a, b, chunk, sel, |x, y| x - y),
            Expr::Mul(a, b) => binary(a, b, chunk, sel, |x, y| x * y),
            Expr::Div(a, b) => binary(a, b, chunk, sel, |x, y| x / y),
            Expr::IntDiv(a, d) => {
                let vals = a.evaluate_f64(chunk, sel)?;
                Ok(vals.into_iter().map(|v| (v / *d).trunc()).collect())
            }
        }
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }
}

fn binary(
    a: &Expr,
    b: &Expr,
    chunk: &Chunk,
    sel: Option<&SelVec>,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Vec<f64>, String> {
    let mut x = a.evaluate_f64(chunk, sel)?;
    let y = b.evaluate_f64(chunk, sel)?;
    for (xi, yi) in x.iter_mut().zip(y) {
        *xi = f(*xi, yi);
    }
    Ok(x)
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(n) => f.write_str(n),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::IntDiv(a, d) => write!(f, "({a} // {d})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_storage::Field;

    fn chunk() -> Chunk {
        Chunk::new(
            vec![
                Field::new("price", DataType::Float64),
                Field::new("disc", DataType::Int32),
                Field::new("date", DataType::Int32),
            ],
            vec![
                ColumnData::Float64(vec![100.0, 200.0]),
                ColumnData::Int32(vec![5, 10]),
                ColumnData::Int32(vec![19_940_215, 19_971_231]),
            ],
        )
    }

    #[test]
    fn arithmetic_revenue_expression() {
        // l_extendedprice * (1 - l_discount/100)
        let e = Expr::col("price")
            * (Expr::lit(1.0) - Expr::col("disc") / Expr::lit(100.0));
        let v = e.evaluate_f64(&chunk(), None).unwrap();
        assert_eq!(v, vec![95.0, 180.0]);
    }

    #[test]
    fn year_extraction() {
        let e = Expr::year_of("date");
        match e.evaluate(&chunk(), None).unwrap() {
            ColumnData::Int64(v) => assert_eq!(v, vec![1994, 1997]),
            other => panic!("expected Int64, got {other:?}"),
        }
    }

    #[test]
    fn bare_column_keeps_type() {
        let e = Expr::col("disc");
        assert_eq!(e.result_type(&chunk()).unwrap(), DataType::Int32);
        match e.evaluate(&chunk(), None).unwrap() {
            ColumnData::Int32(v) => assert_eq!(v, vec![5, 10]),
            other => panic!("expected Int32, got {other:?}"),
        }
    }

    #[test]
    fn missing_column_is_an_error() {
        let e = Expr::col("nope");
        assert!(e.evaluate(&chunk(), None).is_err());
        assert!(e.result_type(&chunk()).is_err());
    }

    #[test]
    fn string_column_in_arithmetic_is_an_error() {
        use robustq_storage::DictColumn;
        let c = Chunk::new(
            vec![Field::new("s", DataType::Str)],
            vec![ColumnData::Str(DictColumn::from_strings(["a"]))],
        );
        assert!((Expr::col("s") + Expr::lit(1.0)).evaluate_f64(&c, None).is_err());
    }

    #[test]
    fn display_roundtrip_shape() {
        let e = (Expr::col("a") + Expr::lit(2.0)) * Expr::col("b");
        assert_eq!(e.to_string(), "((a + 2) * b)");
    }
}
