//! Experiment reports: the rows printed by the `experiments` binary and recorded by
//! `experiments --json`.

use serde::{Deserialize, Serialize};

/// One row of an experiment table: a parameter point, the measured quantity, the worst
/// case observed, and the bound claimed by the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Human-readable parameter description (e.g. `"g=2, n=10"`).
    pub label: String,
    /// Mean of the measured quantity (usually an approximation ratio).
    pub mean: f64,
    /// Worst (largest) measured value.
    pub worst: f64,
    /// The bound claimed by the paper for this parameter point (`f64::INFINITY` when the
    /// paper makes no quantitative claim for the row).
    pub bound: f64,
    /// Whether the worst measured value respects the bound.
    pub within_bound: bool,
}

impl Row {
    /// Build a row from a list of measured values and a claimed bound.
    pub fn from_samples(label: impl Into<String>, samples: &[f64], bound: f64) -> Row {
        assert!(!samples.is_empty(), "a row needs at least one sample");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let worst = samples.iter().cloned().fold(f64::MIN, f64::max);
        Row {
            label: label.into(),
            mean,
            worst,
            bound,
            // A hair of slack absorbs the f64 division used to form ratios of exact
            // integer costs.
            within_bound: worst <= bound * (1.0 + 1e-9) + 1e-9,
        }
    }
}

/// A full experiment: id (such as `E5`), title, the claim being validated, and the
/// measured rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"E3"` or `"F3"`.
    pub id: String,
    /// Short title.
    pub title: String,
    /// The paper claim being validated.
    pub claim: String,
    /// Measured rows.
    pub rows: Vec<Row>,
}

impl ExperimentReport {
    /// `true` when every row respects its bound.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.within_bound)
    }

    /// Render the report as a fixed-width text table (used by the `experiments` binary).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let _ = writeln!(out, "claim: {}", self.claim);
        let _ = writeln!(
            out,
            "{:<34} {:>12} {:>12} {:>12}  ok",
            "parameters", "mean", "worst", "bound"
        );
        for row in &self.rows {
            let bound = if row.bound.is_finite() {
                format!("{:.4}", row.bound)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:<34} {:>12.4} {:>12.4} {:>12}  {}",
                row.label,
                row.mean,
                row.worst,
                bound,
                if row.within_bound { "yes" } else { "NO" }
            );
        }
        let _ = writeln!(
            out,
            "result: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_statistics() {
        let row = Row::from_samples("g=2", &[1.0, 1.2, 1.1], 1.5);
        assert!((row.mean - 1.1).abs() < 1e-12);
        assert_eq!(row.worst, 1.2);
        assert!(row.within_bound);
        let bad = Row::from_samples("g=2", &[1.0, 1.7], 1.5);
        assert!(!bad.within_bound);
    }

    #[test]
    fn infinite_bound_always_passes_and_renders_dash() {
        let row = Row::from_samples("info", &[123.0], f64::INFINITY);
        assert!(row.within_bound);
        let report = ExperimentReport {
            id: "E0".into(),
            title: "demo".into(),
            claim: "none".into(),
            rows: vec![row],
        };
        assert!(report.passed());
        let text = report.render();
        assert!(text.contains("E0"));
        assert!(text.contains("PASS"));
        assert!(text.contains('-'));
    }

    #[test]
    #[should_panic]
    fn empty_samples_rejected() {
        let _ = Row::from_samples("x", &[], 1.0);
    }
}
