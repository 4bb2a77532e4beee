//! CSV export for `phastlane figure` (`--csv <path>`): a machine-readable
//! copy of the table a figure prints, for plotting outside the terminal.

use std::fmt::Write as _;
use std::path::Path;

/// An in-memory CSV table.
#[derive(Debug, Clone, Default)]
pub struct CsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column names.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        CsvTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn push<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
    }

    /// Serializes to CSV text (RFC-4180-style quoting where needed).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            let encoded: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            writeln!(out, "{}", encoded.join(",")).expect("writing to String cannot fail");
        };
        write_row(&self.header, &mut out);
        for r in &self.rows {
            write_row(r, &mut out);
        }
        out
    }

    /// Writes the CSV to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

fn quote(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_csv() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push(["1", "2"]);
        t.push(["x", "y"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\nx,y\n");
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn quoting_rules() {
        let mut t = CsvTable::new(["v"]);
        t.push(["has,comma"]);
        t.push(["has\"quote"]);
        t.push(["plain"]);
        assert_eq!(t.to_csv(), "v\n\"has,comma\"\n\"has\"\"quote\"\nplain\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push(["only-one"]);
    }

    #[test]
    fn file_roundtrip() {
        let mut t = CsvTable::new(["k", "v"]);
        t.push(["speedup", "1.48"]);
        let dir = std::env::temp_dir().join("phastlane_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        t.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), t.to_csv());
    }
}
