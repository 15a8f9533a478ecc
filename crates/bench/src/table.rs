//! Result tables.

use robustq_engine::EngineError;
use robustq_trace::json::{self, Json};
use std::fmt;

/// One regenerated figure/table: a header plus aligned rows, in the same
/// shape (series/columns) the paper plots.
#[derive(Debug, Clone)]
pub struct FigTable {
    /// Figure id, e.g. `"fig14a"`.
    pub id: String,
    /// What the paper's figure shows.
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl FigTable {
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        FigTable {
            id: id.into(),
            title: title.into(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    pub fn with_columns<S: Into<String>>(
        mut self,
        cols: impl IntoIterator<Item = S>,
    ) -> Self {
        self.columns = cols.into_iter().map(Into::into).collect();
        self
    }

    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        // A hard check: a ragged table would be misread by column name.
        assert_eq!(row.len(), self.columns.len(), "{}: row width mismatch", self.id);
        self.rows.push(row);
    }

    /// Index of column `name`; an unknown column is a config error, never
    /// an empty series.
    pub fn column(&self, name: &str) -> Result<usize, EngineError> {
        self.columns.iter().position(|c| c == name).ok_or_else(|| {
            EngineError::config(format!("table {:?} has no column {name:?}", self.id))
        })
    }

    /// Read back one table object of [`FigTable::to_json`]'s shape. Every
    /// cell must be a string and every row as wide as the header.
    pub fn from_json(table: &Json) -> Result<FigTable, EngineError> {
        let bad = |what: &str| EngineError::config(format!("malformed table: {what}"));
        let text = |j: &Json, what: &str| j.as_str().map(String::from).ok_or_else(|| bad(what));
        let strings = |j: &Json, what: &str| -> Result<Vec<String>, EngineError> {
            j.as_arr().ok_or_else(|| bad(what))?.iter().map(|c| text(c, what)).collect()
        };
        let field = |name: &str| table.get(name).ok_or_else(|| bad(name));
        let id = text(field("id")?, "id")?;
        let columns = strings(field("columns")?, "columns")?;
        let rows = field("rows")?.as_arr().ok_or_else(|| bad("rows"))?;
        let rows: Vec<Vec<String>> =
            rows.iter().map(|r| strings(r, "rows")).collect::<Result<_, _>>()?;
        if let Some(i) = rows.iter().position(|r| r.len() != columns.len()) {
            return Err(EngineError::config(format!(
                "table {id:?} row {i} has {} cells under {} columns",
                rows[i].len(),
                columns.len()
            )));
        }
        Ok(FigTable { id, title: text(field("title")?, "title")?, columns, rows })
    }

    /// Serialize the table as pretty-printed JSON (for plotting scripts).
    ///
    /// Hand-rolled (the build has no registry access for serde): two-space
    /// indent, fields in declaration order, full string escaping.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str("  \"columns\": ");
        out.push_str(&json_string_array(&self.columns));
        out.push_str(",\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(&json_string_array(row));
        }
        out.push_str(if self.rows.is_empty() { "]\n}" } else { "\n  ]\n}" });
        out
    }

    /// The numeric cells of one column, top to bottom (for assertions in
    /// tests; panics on an unknown column).
    pub fn column_values(&self, col: &str) -> Vec<f64> {
        let c = self.column(col).expect("a column of this table");
        self.rows.iter().filter_map(|r| r[c].parse().ok()).collect()
    }
}

impl fmt::Display for FigTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        Ok(())
    }
}

/// Format virtual milliseconds with three decimals.
pub fn ms(t: robustq_sim::VirtualTime) -> String {
    format!("{:.3}", t.as_millis_f64())
}

/// Escape `s` as a JSON string literal (with surrounding quotes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::write_escaped(&mut out, s);
    out
}

fn json_string_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", cells.join(", "))
}

/// Wrap tables in the `{"tables": [...]}` document every sweep bin
/// writes and `bench-diff` reads.
pub fn tables_json(tables: &[FigTable]) -> String {
    let mut json = String::from("{\n  \"tables\": [");
    for (i, t) in tables.iter().enumerate() {
        json.push_str(if i == 0 { "\n" } else { ",\n" });
        for line in t.to_json().lines() {
            json.push_str("    ");
            json.push_str(line);
            json.push('\n');
        }
        json.pop(); // keep the closing brace on its own indented line
    }
    json.push_str("\n  ]\n}\n");
    json
}

/// The tables of a [`tables_json`] document.
pub fn tables_from_json(src: &str) -> Result<Vec<FigTable>, EngineError> {
    let doc = json::parse(src).map_err(|e| EngineError::config(format!("malformed JSON: {e}")))?;
    let tables = doc.get("tables").and_then(Json::as_arr);
    let tables = tables.ok_or_else(|| EngineError::config("document has no 'tables' array"))?;
    tables.iter().map(FigTable::from_json).collect()
}

/// The tables of the [`tables_json`] document a sweep bin wrote to `path`.
pub fn read_tables(path: &str) -> Result<Vec<FigTable>, EngineError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| EngineError::config(format!("{path}: {e}")))?;
    tables_from_json(&src).map_err(|e| EngineError::config(format!("{path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_sim::VirtualTime;

    #[test]
    fn build_and_query() {
        let mut t = FigTable::new("figX", "demo").with_columns(["a", "b"]);
        t.push_row(["1.5", "x"]);
        t.push_row(["2.5", "y"]);
        assert_eq!(t.column_values("a"), vec![1.5, 2.5]);
        assert!(t.column_values("b").is_empty(), "non-numeric cells");
    }

    #[test]
    fn display_aligns() {
        let mut t = FigTable::new("f", "t").with_columns(["col", "x"]);
        t.push_row(["1", "22"]);
        let s = t.to_string();
        assert!(s.contains("== f — t =="));
        assert!(s.contains("col"));
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(VirtualTime::from_micros(1500)), "1.500");
    }

    #[test]
    fn json_has_expected_structure() {
        let mut t = FigTable::new("figX", "demo").with_columns(["a", "b"]);
        t.push_row(["1", "x"]);
        let json = t.to_json();
        assert!(json.contains("\"id\": \"figX\""), "{json}");
        assert!(json.contains("\"columns\": [\"a\", \"b\"]"), "{json}");
        assert!(json.contains("[\"1\", \"x\"]"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn tables_json_wraps_documents() {
        let mut t = FigTable::new("figX", "demo").with_columns(["a"]);
        t.push_row(["1"]);
        let doc = tables_json(std::slice::from_ref(&t));
        assert!(doc.starts_with("{\n  \"tables\": ["), "{doc}");
        assert!(doc.contains("\"id\": \"figX\""), "{doc}");
        assert!(doc.ends_with("]\n}\n"), "{doc}");
    }

    #[test]
    fn json_round_trips_and_rejects_ragged_rows() {
        let mut t = FigTable::new("figX", "de\"mo").with_columns(["a", "b"]);
        t.push_row(["1", "-"]);
        let back = tables_from_json(&tables_json(std::slice::from_ref(&t))).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!((&back[0].id, &back[0].title), (&t.id, &t.title));
        assert_eq!((&back[0].columns, &back[0].rows), (&t.columns, &t.rows));

        let ragged = tables_json(&[t]).replace("[\"1\", \"-\"]", "[\"1\"]");
        let err = tables_from_json(&ragged).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err}");
        assert!(err.to_string().contains("row 0 has 1 cells under 2 columns"), "{err}");
        for bad in ["{", "{}", "{\"tables\": [{\"id\": \"x\"}]}"] {
            assert!(matches!(tables_from_json(bad), Err(EngineError::Config(_))), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn a_ragged_row_is_refused() {
        FigTable::new("figX", "demo").with_columns(["a", "b"]).push_row(["1"]);
    }

    #[test]
    fn unknown_columns_are_config_errors() {
        let t = FigTable::new("figX", "demo").with_columns(["a"]);
        assert_eq!(t.column("a").unwrap(), 0);
        let err = t.column("zz").unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err}");
    }

    #[test]
    fn json_empty_table_is_wellformed() {
        let t = FigTable::new("f", "t");
        let json = t.to_json();
        assert!(json.contains("\"columns\": []"), "{json}");
        assert!(json.contains("\"rows\": []"), "{json}");
    }
}
