//! Shared helpers for the experiment binaries (`src/bin/fig*_*.rs`,
//! `src/bin/tab*_*.rs`) that regenerate every experiment in
//! `EXPERIMENTS.md`, and for the gated hot-path benchmark harness
//! (`src/bin/bench_hotpaths.rs`).
//!
//! The experiment engine lives in [`runner`] (seed-deterministic
//! parallel trial execution), [`json`] (dependency-free experiment
//! logs under `target/experiments/`), and [`observe`] (the
//! `--progress` / `--profile` observer stack from `beeps-observe`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
pub mod observe;
pub mod runner;

pub use json::{metrics_json, ExperimentLog, Json};
pub use observe::Observation;
pub use runner::{trial_seed, Summary, Trial, TrialRecord, TrialRunner};

use std::fmt::Display;

/// A printable results table: one experiment, one table.
///
/// # Examples
///
/// ```
/// use beeps_bench::Table;
///
/// let mut t = Table::new("demo", &["n", "overhead"]);
/// t.row(&[&4, &12.5]);
/// t.print();
/// ```
#[derive(Debug)]
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given column headers.
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Self {
            name: name.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; `cells.len()` must match the header count.
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The formatted rows appended so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Pretty-prints the table to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("== {} ==", self.name);
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
        println!();
    }
}

/// Formats a float with three significant-ish decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Ordinary least squares fit `y ≈ a·x + b`, returning `(a, b, r²)` — used
/// by the experiments to report log-linear trends.
///
/// # Panics
///
/// Panics if the slices differ in length or have fewer than 2 points.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
    assert_eq!(x.len(), y.len(), "need matched samples");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum();
    let syy: f64 = y.iter().map(|b| (b - my).powi(2)).sum();
    let a = sxy / sxx;
    let b = my - a * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (a, b, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_mismatched_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&[&1, &2]);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(&[&1]);
        }))
        .is_err());
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let (a, b, r2) = linear_fit(&x, &y);
        assert!((a - 2.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_r2_degrades_with_noise() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 4.0, 2.0, 5.0, 3.0];
        let (_, _, r2) = linear_fit(&x, &y);
        assert!(r2 < 0.9);
    }
}
