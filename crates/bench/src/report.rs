//! Report formatting: aligned console tables that are simultaneously
//! written as TSV files under `reports/` for downstream plotting.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple column-aligned table that renders to the console and to TSV.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Creates a report with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Report {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row (cells are pre-formatted).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
    }

    /// Appends a free-form note printed under the table.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the aligned console form.
    #[must_use]
    pub(crate) fn to_console(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Renders the TSV form (title and notes as `#` comments).
    #[must_use]
    pub(crate) fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        for note in &self.notes {
            let _ = writeln!(out, "# note: {note}");
        }
        let _ = writeln!(out, "{}", self.header.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }

    /// Prints the console form and writes the TSV form to
    /// `<dir>/<name>.tsv`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the report file cannot be written.
    pub fn emit(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        println!("{}", self.to_console());
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.tsv"));
        std::fs::write(&path, self.to_tsv())?;
        Ok(path)
    }
}

/// Writes a gateway telemetry snapshot as pretty JSON to
/// `<dir>/<name>_telemetry.json`, next to the TSV report of the same name,
/// so every gateway-driven report ships with the exact runtime accounting
/// (per-service and per-provider counters, re-plan events) behind it.
///
/// # Errors
///
/// Returns an I/O error if the snapshot file cannot be written.
pub fn emit_telemetry(
    dir: &Path,
    name: &str,
    snapshot: &qce_runtime::MetricsSnapshot,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}_telemetry.json"));
    let json = serde_json::to_string_pretty(snapshot)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Formats a float with a fixed number of decimals.
#[must_use]
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a probability as a percentage.
#[must_use]
pub fn fmt_pct(p: f64) -> String {
    format!("{:.1}%", p * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn console_and_tsv_render() {
        let mut r = Report::new("Demo", &["name", "value"]);
        r.row(["alpha", "1"]);
        r.row(["beta-long", "2"]);
        r.note("hello");
        let console = r.to_console();
        assert!(console.contains("== Demo =="));
        assert!(console.contains("alpha"));
        assert!(console.contains("note: hello"));
        let tsv = r.to_tsv();
        assert!(tsv.starts_with("# Demo"));
        assert!(tsv.contains("name\tvalue"));
        assert!(tsv.contains("beta-long\t2"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut r = Report::new("Demo", &["a", "b"]);
        r.row(["only-one"]);
    }

    #[test]
    fn emit_writes_tsv() {
        let dir = std::env::temp_dir().join(format!("qce-report-{}", std::process::id()));
        let mut r = Report::new("T", &["x"]);
        r.row(["1"]);
        let path = r.emit(&dir, "test").unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains('1'));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(0.973), "97.3%");
    }

    #[test]
    fn emit_telemetry_writes_parseable_json() {
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("qce-telemetry-{}", std::process::id()));
        let clock: Arc<dyn qce_runtime::Clock> = Arc::new(qce_runtime::VirtualClock::new());
        let telemetry = qce_runtime::Telemetry::new(clock, 16);
        telemetry.record_request(
            "svc",
            qce_runtime::QosClass::Interactive,
            true,
            std::time::Duration::from_millis(3),
            50.0,
            false,
            None,
        );
        let path = emit_telemetry(&dir, "demo", &telemetry.snapshot()).unwrap();
        assert!(path.ends_with("demo_telemetry.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: qce_runtime::MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.service("svc").unwrap().invocations, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
