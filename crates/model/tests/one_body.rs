//! `bat-model` has one forward: `GrModel::forward_impl` over layers whose
//! `Unit` is data. A second `forward_impl`, attention view, kernel call or
//! row-stage dispatch outside `transformer.rs` is a model twin growing back
//! (HSTU was one until PR 24), so this test reads the sources and fails on
//! one.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_lines, sources};
use std::path::Path;

/// What only the one body may do.
const BODY_ONLY: [&str; 4] = [
    "fn forward_impl(",
    "GroupAttention {",
    ".attend::<",
    "run_rows(",
];

/// The one file allowed to.
const BODY: &str = "transformer.rs";

#[test]
fn only_the_transformer_runs_a_forward() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut sites: Vec<Vec<String>> = vec![Vec::new(); BODY_ONLY.len()];
    let mut scanned = 0;
    for path in sources(&src) {
        scanned += 1;
        for (i, line) in code_lines(&path) {
            for (call, found) in BODY_ONLY.iter().zip(&mut sites) {
                if line.contains(call) {
                    found.push(format!("{}:{i}", path.display()));
                }
            }
        }
    }
    assert!(scanned >= 10, "scanned only {scanned} files");
    for (call, found) in BODY_ONLY.iter().zip(&sites) {
        assert!(
            !found.is_empty() && found.iter().all(|site| site.contains(BODY)),
            "`{call}` belongs to {BODY} alone — another model's layer is a `Unit` arm \
             of `GrModel::layer_rows`, not a second forward; found at {found:?}"
        );
    }
    assert_eq!(sites[0].len(), 1, "one `forward_impl`: {:?}", sites[0]);
}
