//! Projection kernel.

use crate::batch::{Chunk, SelVec};
use crate::expr::Expr;
use robustq_storage::Field;
use std::sync::Arc;

/// Compute named expressions over the row stream `(chunk, sel)`: all rows
/// of `chunk` when `sel` is `None`, else the selected rows in position
/// order — bit-identical to projecting the gathered chunk, but only the
/// columns each expression reads are ever touched, and a bare column of a
/// dense stream is shared, not copied.
pub fn project(
    chunk: &Chunk,
    sel: Option<&SelVec>,
    exprs: &[(String, Expr)],
) -> Result<Chunk, String> {
    let mut fields = Vec::with_capacity(exprs.len());
    let mut columns = Vec::with_capacity(exprs.len());
    for (name, expr) in exprs {
        let ty = expr.result_type(chunk)?;
        let shared = match (expr, sel) {
            (Expr::Col(c), None) => chunk.index_of(c).map(|i| Arc::clone(&chunk.columns()[i])),
            _ => None,
        };
        let col = match shared {
            Some(col) => col,
            None => Arc::new(expr.evaluate(chunk, sel)?),
        };
        fields.push(Field::new(name.as_str(), ty));
        columns.push(col);
    }
    Ok(Chunk::from_shared(fields, columns))
}

/// Keep only the named columns, in the given order. The result shares
/// the kept columns with `chunk`: O(columns), no row is copied.
pub fn keep_columns(chunk: &Chunk, names: &[impl AsRef<str>]) -> Result<Chunk, String> {
    let mut fields = Vec::with_capacity(names.len());
    let mut columns = Vec::with_capacity(names.len());
    for name in names {
        let name = name.as_ref();
        let idx = chunk
            .index_of(name)
            .ok_or_else(|| format!("no column {name} in chunk"))?;
        fields.push(chunk.fields()[idx].clone());
        columns.push(Arc::clone(&chunk.columns()[idx]));
    }
    Ok(Chunk::from_shared(fields, columns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_storage::{ColumnData, DataType, Value};

    fn chunk() -> Chunk {
        Chunk::new(
            vec![
                Field::new("a", DataType::Int32),
                Field::new("b", DataType::Float64),
            ],
            vec![
                ColumnData::Int32(vec![1, 2]),
                ColumnData::Float64(vec![10.0, 20.0]),
            ],
        )
    }

    #[test]
    fn computes_expressions() {
        let out = project(
            &chunk(),
            None,
            &[
                ("double_b".into(), Expr::col("b") * Expr::lit(2.0)),
                ("a".into(), Expr::col("a")),
            ],
        )
        .unwrap();
        assert_eq!(out.num_columns(), 2);
        assert_eq!(out.row(1), vec![Value::Float64(40.0), Value::Int32(2)]);
    }

    #[test]
    fn keep_columns_reorders() {
        let out = keep_columns(&chunk(), &["b", "a"]).unwrap();
        assert_eq!(&*out.fields()[0].name, "b");
        assert_eq!(&*out.fields()[1].name, "a");
        assert!(keep_columns(&chunk(), &["zz"]).is_err());
    }

    #[test]
    fn missing_column_is_error() {
        assert!(project(&chunk(), None, &[("x".into(), Expr::col("zz"))]).is_err());
    }
}
