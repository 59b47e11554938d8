//! Every entry path — the simulator's run, the runtime's serve — admits
//! through `bat_sim::driver`'s front end, executes on its slot driver and
//! closes its run there. A second scheduler, overload controller, admission
//! estimate, stats epilogue or event heap in `bat-sim` or `bat-serve` is a
//! hand-copied serving loop growing back, so this test reads the sources
//! and fails on one.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_lines, repo_root, sources};
use std::path::Path;

/// Calls only the driver may make, once each.
const DRIVER_ONLY: [&str; 4] = [
    "BatchScheduler::new(",
    "OverloadController::new(",
    "RunStats::from_counters(",
    ".admission_estimate_secs(",
];

/// The one file allowed to make them.
const DRIVER: &str = "driver.rs";

/// The entry paths: each builds the slot driver exactly once.
const ENTRY_PATHS: [&str; 2] = ["engine.rs", "runtime.rs"];

/// Names of the deleted per-request executors, which no file under
/// `crates/` may mention again.
const GONE: [&str; 3] = ["BatchFormer", "fn serve_dispatch", "fn collect_jobs"];

#[test]
fn only_the_driver_builds_a_serving_loop() {
    let crates = repo_root().join("crates");
    let mut sites: Vec<Vec<String>> = vec![Vec::new(); DRIVER_ONLY.len()];
    let mut drivers: Vec<Vec<String>> = vec![Vec::new(); ENTRY_PATHS.len()];
    let mut strays = Vec::new();
    let mut scanned = 0;
    for dir in [crates.join("sim/src"), crates.join("serve/src")] {
        for path in sources(&dir) {
            scanned += 1;
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            for (i, line) in code_lines(&path) {
                let site = format!("{}:{i}", path.display());
                for (call, found) in DRIVER_ONLY.iter().zip(&mut sites) {
                    if line.contains(call) {
                        found.push(site.clone());
                    }
                }
                if line.contains("SlotDriver::new(") {
                    match ENTRY_PATHS.iter().position(|&p| p == name) {
                        Some(k) => drivers[k].push(site.clone()),
                        None => strays.push(format!("{site} builds a slot driver")),
                    }
                }
                if line.contains("BinaryHeap") {
                    strays.push(format!("{site} holds an event heap"));
                }
            }
        }
    }
    assert!(scanned >= 10, "scanned only {scanned} files");
    for (call, found) in DRIVER_ONLY.iter().zip(&sites) {
        assert!(
            found.len() == 1 && found[0].contains(DRIVER),
            "`{call}` must appear exactly once outside tests, in {DRIVER} (every \
             serving path goes through its front end and slot driver); found at {found:?}"
        );
    }
    for (entry, found) in ENTRY_PATHS.iter().zip(&drivers) {
        assert!(
            found.len() == 1,
            "{entry} must build the slot driver exactly once outside tests; found at {found:?}"
        );
    }
    assert!(
        strays.is_empty(),
        "the slot machine is the only executor: its event heap lives in bat-sched \
         and only the entry paths build its driver; found {strays:?}"
    );
}

#[test]
fn the_per_request_executors_stay_deleted() {
    let this_file = Path::new(file!())
        .file_name()
        .expect("this test has a file name");
    let mut found = Vec::new();
    for path in sources(&repo_root().join("crates")) {
        if path.file_name() == Some(this_file) {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("source file reads");
        for (i, line) in source.lines().enumerate() {
            for name in GONE {
                if line.contains(name) {
                    found.push(format!("{}:{}: `{name}`", path.display(), i + 1));
                }
            }
        }
    }
    assert!(
        found.is_empty(),
        "per-request batching is the slot machine's `BatchingConfig::PER_REQUEST`; \
         a second executor is growing back at {found:?}"
    );
}
