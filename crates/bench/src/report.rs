//! Report plumbing shared by all experiments: aligned console tables,
//! TSV persistence, and shape assertions.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One experiment's output: titled sections of tabular series plus notes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment id (e.g. "fig9a").
    pub id: String,
    /// Human title.
    pub title: String,
    sections: Vec<Section>,
    notes: Vec<String>,
    checks: Vec<(String, bool)>,
}

#[derive(Debug, Clone)]
struct Section {
    heading: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Start a report.
    pub(crate) fn new(id: &str, title: &str) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            ..Default::default()
        }
    }

    /// Begin a new table section.
    pub(crate) fn section(&mut self, heading: &str, columns: &[&str]) {
        self.sections.push(Section {
            heading: heading.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        });
    }

    /// Append a row to the current section.
    pub(crate) fn row(&mut self, cells: &[String]) {
        let section = self
            .sections
            .last_mut()
            .expect("row() before any section()");
        assert_eq!(cells.len(), section.columns.len(), "column count mismatch");
        section.rows.push(cells.to_vec());
    }

    /// Convenience: formatted row.
    pub(crate) fn rowf(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Attach a free-form note (printed after the tables).
    pub(crate) fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Record a shape check. Panics immediately when it fails so that
    /// `run_all` cannot silently produce wrong-shaped figures.
    pub(crate) fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
        assert!(ok, "[{}] shape check failed: {name}", self.id);
    }

    /// Record a check that `value` lies in `[lo, hi]`.
    pub(crate) fn check_range(&mut self, name: &str, value: f64, lo: f64, hi: f64) {
        let ok = value >= lo && value <= hi;
        self.checks.push((format!("{name} = {value:.3}"), ok));
        assert!(
            ok,
            "[{}] shape check failed: {name} = {value} outside [{lo}, {hi}]",
            self.id
        );
    }

    /// Render the report as text.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== {} — {}", self.id, self.title);
        for s in &self.sections {
            let _ = writeln!(out, "\n-- {}", s.heading);
            // Column widths.
            let mut widths: Vec<usize> = s.columns.iter().map(|c| c.len()).collect();
            for row in &s.rows {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            let header: Vec<String> = s
                .columns
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "  {}", header.join("  "));
            for row in &s.rows {
                let cells: Vec<String> = row
                    .iter()
                    .zip(&widths)
                    .map(|(c, w)| format!("{c:>w$}"))
                    .collect();
                let _ = writeln!(out, "  {}", cells.join("  "));
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n  note: {n}");
        }
        let passed = self.checks.iter().filter(|(_, ok)| *ok).count();
        let _ = writeln!(
            out,
            "\n  shape checks: {passed}/{} passed",
            self.checks.len()
        );
        for (name, ok) in &self.checks {
            let _ = writeln!(out, "    [{}] {name}", if *ok { "ok" } else { "FAIL" });
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Persist all sections as TSV files under `dir/<id>/`.
    pub fn save_tsv(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref().join(&self.id);
        fs::create_dir_all(&dir)?;
        for (i, s) in self.sections.iter().enumerate() {
            let slug: String = s
                .heading
                .to_lowercase()
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            let mut text = String::new();
            let _ = writeln!(text, "{}", s.columns.join("\t"));
            for row in &s.rows {
                let _ = writeln!(text, "{}", row.join("\t"));
            }
            fs::write(dir.join(format!("{i:02}_{slug}.tsv")), text)?;
        }
        fs::write(dir.join("report.txt"), self.render())?;
        Ok(dir)
    }

    /// Number of shape checks recorded.
    pub fn num_checks(&self) -> usize {
        self.checks.len()
    }
}

/// Format bytes as a human-readable size ("32K", "3M").
pub(crate) fn fmt_size(bytes: usize) -> String {
    const MB: usize = 1024 * 1024;
    if bytes >= MB && bytes.is_multiple_of(MB) {
        format!("{}M", bytes / MB)
    } else if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_tables() {
        let mut r = Report::new("test", "A test");
        r.section("numbers", &["x", "y"]);
        r.rowf(&[&1, &2.5]);
        r.rowf(&[&10, &"wide-cell"]);
        r.note("hello");
        r.check("always", true);
        let text = r.render();
        assert!(text.contains("==== test"));
        assert!(text.contains("wide-cell"));
        assert!(text.contains("note: hello"));
        assert!(text.contains("1/1 passed"));
        assert_eq!(r.num_checks(), 1);
    }

    #[test]
    #[should_panic]
    fn failed_check_panics() {
        let mut r = Report::new("t", "t");
        r.check("nope", false);
    }

    #[test]
    #[should_panic]
    fn check_range_panics_outside() {
        let mut r = Report::new("t", "t");
        r.check_range("v", 5.0, 0.0, 1.0);
    }

    #[test]
    fn check_range_accepts_inside() {
        let mut r = Report::new("t", "t");
        r.check_range("v", 0.5, 0.0, 1.0);
        assert_eq!(r.num_checks(), 1);
    }

    #[test]
    fn tsv_round_trip() {
        let mut r = Report::new("tsvtest", "T");
        r.section("s one", &["a"]);
        r.row(&["42".into()]);
        let dir = std::env::temp_dir().join("servet-bench-test");
        let out = r.save_tsv(&dir).unwrap();
        let tsv = std::fs::read_to_string(out.join("00_s_one.tsv")).unwrap();
        assert_eq!(tsv, "a\n42\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(32 * 1024), "32K");
        assert_eq!(fmt_size(3 * 1024 * 1024), "3M");
        assert_eq!(fmt_size(100), "100");
        assert_eq!(fmt_size(1536), "1536");
    }
}
