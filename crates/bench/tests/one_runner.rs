//! `batctl` is the one experiment runner: every table, figure and ablation
//! is a row of `bat_bench::EXPERIMENTS`, and only the runner writes an
//! artifact. A second `main`, a second artifact writer, a second
//! child-worker entry or the old flag parser that ignored unknown flags is a
//! per-experiment binary growing back, so this test reads the sources and
//! fails on one.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_lines, sources};
use std::path::Path;

/// What may appear only so often outside tests: `(code, allowed count)`,
/// `None` meaning "at least once, and only in the runner".
const SCANNED: [(&str, Option<usize>); 4] = [
    ("fn main(", Some(1)),
    ("write_artifact(", None),
    ("maybe_child_worker(", Some(1)),
    ("HarnessArgs", Some(0)),
];

/// The file that runs every experiment row and writes its artifact.
const RUNNER: &str = "lib.rs";

#[test]
fn batctl_is_the_one_experiment_runner() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut sites: Vec<Vec<String>> = vec![Vec::new(); SCANNED.len()];
    let files = sources(&src);
    assert!(files.len() >= 5, "scanned only {files:?}");
    for path in &files {
        let name = path.strip_prefix(&src).expect("under src/").display();
        for (i, line) in code_lines(path) {
            for ((needle, _), found) in SCANNED.iter().zip(&mut sites) {
                if line.contains(needle) {
                    found.push(format!("{name}:{i}"));
                }
            }
        }
    }
    for ((needle, allowed), found) in SCANNED.iter().zip(&sites) {
        match allowed {
            Some(n) => assert_eq!(
                found.len(),
                *n,
                "`{needle}` may appear {n} time(s) under crates/bench/src — one binary, \
                 `batctl`, runs every experiment as a row of `EXPERIMENTS`; found at {found:?}"
            ),
            None => assert!(
                !found.is_empty() && found.iter().all(|s| s.starts_with(&format!("{RUNNER}:"))),
                "`{needle}` belongs to the runner ({RUNNER}) alone — an experiment returns its \
                 artifact in its `Report`; found at {found:?}"
            ),
        }
    }
    let bins: Vec<_> = std::fs::read_dir(src.join("bin"))
        .expect("src/bin lists")
        .map(|e| e.expect("directory entry reads").file_name())
        .collect();
    assert_eq!(bins, ["batctl.rs"], "src/bin holds batctl alone");
}
