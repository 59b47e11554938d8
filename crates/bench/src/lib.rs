//! `batctl`'s experiments and the plumbing they share.
//!
//! Every experiment regenerates one table or figure of the paper, or one of
//! the repo's ablations (see DESIGN.md §4 for the index). Each is one row
//! of [`EXPERIMENTS`], run by `batctl run <name>` or `batctl run all`. A
//! row's `run` returns a [`Report`]: the tables it prints, the JSON artifact
//! [`run`] writes to `results/<name>.json`, and the named gates it checks.
//! [`run`] fails naming every gate that failed.
//!
//! Every row accepts `--quick`, which shrinks the experiment for a smoke
//! run, and `batctl`'s global `--threads N`, which sizes the [`bat::exec`]
//! pool; published numbers in EXPERIMENTS.md use the default scale.

pub mod ablations;
pub mod figures;
pub mod perf;
pub mod scenarios;

use serde_json::Value;
use std::fmt::{Display, Write as _};
use std::path::PathBuf;

/// The switches an experiment row reads from its command line.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunArgs {
    /// Shrink the experiment for a fast smoke run (`--quick`).
    pub quick: bool,
    /// Also sweep Algorithm 1's α (`fig7_placement --alpha-sweep`).
    pub alpha_sweep: bool,
}

impl RunArgs {
    /// Picks between the full-scale and quick values.
    pub fn scale<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// One experiment: `batctl run <name>` runs it.
pub struct Experiment {
    /// The row's name, also its artifact's file stem.
    pub name: &'static str,
    /// The flags the row accepts besides the global `--threads`.
    pub flags: &'static [&'static str],
    /// Runs the experiment at the scale its arguments ask for.
    pub run: fn(&RunArgs) -> Report,
}

const fn row(name: &'static str, run: fn(&RunArgs) -> Report) -> Experiment {
    Experiment {
        name,
        flags: &["quick"],
        run,
    }
}

/// Every experiment, in the order `batctl run all` runs them.
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 21] = [
    row("tables_config", figures::tables_config),
    row("fig2_characterization", figures::fig2_characterization),
    row("table3_accuracy", figures::table3_accuracy),
    row("fig4_frequency_consistency", figures::fig4_frequency_consistency),
    row("fig5_6_throughput", figures::fig5_6_throughput),
    Experiment { name: "fig7_placement", flags: &["quick", "alpha-sweep"], run: figures::fig7_placement },
    row("fig8_scheduling", figures::fig8_scheduling),
    row("table4_ablation", figures::table4_ablation),
    row("fig9_latency", figures::fig9_latency),
    row("fig10_corpus_scaling", figures::fig10_corpus_scaling),
    row("fig11_node_scaling", figures::fig11_node_scaling),
    row("ablation_scheduling", ablations::ablation_scheduling),
    row("ablation_candidates", ablations::ablation_candidates),
    row("ablation_hotspot_refresh", ablations::ablation_hotspot_refresh),
    row("ablation_fault_recovery", ablations::ablation_fault_recovery),
    row("ablation_meta_failover", ablations::ablation_meta_failover),
    row("ablation_overload", ablations::ablation_overload),
    row("ablation_transport", ablations::ablation_transport),
    row("ablation_tiers", ablations::ablation_tiers),
    row("ablation_batching", ablations::ablation_batching),
    row("ablation_elastic", ablations::ablation_elastic),
];

/// What a run produced: the text it prints, the artifact it writes and the
/// claims it checks.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything the run prints, tables included.
    pub text: String,
    /// The JSON artifact [`run`] writes to `results/<name>.json`.
    pub artifact: Option<Value>,
    /// Each checked claim, and whether it held.
    pub gates: Vec<(String, bool)>,
}

impl Report {
    /// Appends one line of text.
    pub fn line(&mut self, line: impl Display) {
        writeln!(self.text, "{line}").expect("a String takes any write");
    }

    /// Appends a Markdown-style table: header row, then aligned rows.
    pub fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
        for cells in [&header, &separator].into_iter().chain(rows) {
            let mut line = String::from("|");
            for (cell, width) in cells.iter().zip(&widths) {
                line.push_str(&format!(" {cell:<width$} |"));
            }
            self.line(line);
        }
    }

    /// Records a claim the run checks; returns whether it held.
    pub fn gate(&mut self, name: impl Into<String>, holds: bool) -> bool {
        self.gates.push((name.into(), holds));
        holds
    }

    /// Prints the text, then every gate; fails naming each gate that failed.
    pub fn finish(&self) -> Result<(), String> {
        print!("{}", self.text);
        let mut failed = Vec::new();
        for (name, holds) in &self.gates {
            println!("[gate] {name}: {}", if *holds { "PASS" } else { "FAIL" });
            if !holds {
                failed.push(name.as_str());
            }
        }
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!("gate failed: {}", failed.join("; ")))
        }
    }
}

/// Runs one experiment: prints its report, writes its artifact, and fails
/// naming every gate that failed.
pub fn run(experiment: &Experiment, args: &RunArgs) -> Result<(), String> {
    let mut report = (experiment.run)(args);
    if let Some(artifact) = &report.artifact {
        let path = write_artifact(experiment.name, artifact);
        report.line(format_args!("\n[artifact] {path}"));
    }
    report
        .finish()
        .map_err(|e| format!("{}: {e}", experiment.name))
}

/// Writes `results/<name>.json` and returns that path.
fn write_artifact(name: &str, artifact: &Value) -> String {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let json = serde_json::to_string_pretty(artifact).expect("serialize artifact");
    std::fs::write(dir.join(format!("{name}.json")), json).expect("write artifact");
    format!("results/{name}.json")
}

/// A table row: every cell through `ToString`.
#[macro_export]
macro_rules! cells {
    ($($cell:expr),* $(,)?) => {
        vec![$($cell.to_string()),*]
    };
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f1(12.34), "12.3");
        assert_eq!(cells!["a", 2, f1(12.34)], ["a", "2", "12.3"]);
    }

    #[test]
    fn table_prints_without_panicking() {
        let mut report = Report::default();
        report.table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(
            report.text,
            "| a   | bb |\n| --- | -- |\n| 1   | 2  |\n| 333 | 4  |\n"
        );
        assert!(report.finish().is_ok());
    }

    #[test]
    fn a_failing_gate_fails_the_run_naming_it() {
        fn broken(_: &RunArgs) -> Report {
            let mut report = Report::default();
            report.gate("holds", true);
            report.gate("tiered > flat", false);
            report
        }
        let experiment = Experiment {
            name: "broken",
            flags: &["quick"],
            run: broken,
        };
        let err = run(&experiment, &RunArgs::default()).unwrap_err();
        assert!(
            err.contains("broken") && err.contains("tiered > flat"),
            "{err}"
        );
        assert!(!err.contains("holds"), "{err}");
    }

    #[test]
    fn every_row_has_its_own_name() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }
}
