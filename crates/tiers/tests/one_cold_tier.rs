//! The cold tier is one type, `TieredKvPool`, and the planner reads it
//! from one place per prefix kind. A second tiered-cache type (the pool
//! once embedded a DRAM + cold `TieredKvCache` whose DRAM half nothing
//! used) or a pasted copy of "serve this item cold, else write the
//! recompute back" is a twin growing back, so this test reads the sources
//! and fails on one.

use std::path::{Path, PathBuf};

/// Names of the deleted tiered-cache type and its satellites, which no
/// code under `crates/`, `tests/` or `examples/` may use again.
const GONE: [&str; 4] = ["TieredKvCache", "TierHit", "TieredKvConfig", "TierCounters"];

/// The call that reads the cold tier, and how often the planner makes it:
/// once on a user-prefix miss, once on the item cold path.
const COLD_READ: &str = ".cold_lookup(";
const PLANNER_COLD_READS: usize = 2;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `.rs` files under `dir`, recursively.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("directory lists") {
        let path = entry.expect("directory entry reads").path();
        if path.is_dir() {
            found.extend(sources(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            found.push(path);
        }
    }
    found
}

/// `(line number, code)` of a source outside its trailing `#[cfg(test)]`
/// module, with comments cut off (comments may name what is gone).
fn code_lines(path: &Path) -> Vec<(usize, String)> {
    let source = std::fs::read_to_string(path).expect("source file reads");
    source
        .lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .map(|line| line.split("//").next().unwrap_or("").to_owned())
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .collect()
}

#[test]
fn the_embedded_tiered_cache_stays_deleted() {
    let root = repo_root();
    let this_file = Path::new(file!()).file_name().expect("a file name");
    assert!(
        !root.join("crates/kvcache/src/tiered.rs").exists(),
        "crates/kvcache/src/tiered.rs is back"
    );
    let mut found = Vec::new();
    let mut scanned = 0;
    for dir in ["crates", "tests", "examples"] {
        for path in sources(&root.join(dir)) {
            if path.file_name() == Some(this_file) {
                continue;
            }
            scanned += 1;
            for (i, line) in code_lines(&path) {
                for name in GONE.iter().filter(|name| line.contains(*name)) {
                    found.push(format!("{}:{i}: `{name}`", path.display()));
                }
            }
        }
    }
    assert!(scanned >= 100, "scanned only {scanned} files");
    assert!(
        found.is_empty(),
        "`TieredKvPool` owns the cold tier and is the only tiered-cache type; \
         found {found:?}"
    );
}

#[test]
fn the_planner_reads_the_cold_tier_once_per_prefix_kind() {
    let planner = repo_root().join("crates/sim/src/planner.rs");
    let sites: Vec<String> = code_lines(&planner)
        .into_iter()
        .filter(|(_, line)| line.contains(COLD_READ))
        .map(|(i, _)| format!("{}:{i}", planner.display()))
        .collect();
    assert_eq!(
        sites.len(),
        PLANNER_COLD_READS,
        "`{COLD_READ}` belongs to the user-prefix miss and the one item cold path \
         (serve a resident copy, else write the recompute back); found at {sites:?}"
    );
}
