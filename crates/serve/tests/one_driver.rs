//! Every entry path — the simulator's two runs, the runtime's two serves —
//! admits through `bat_sim::driver`'s front end and closes its run there,
//! and both slot paths are its slot driver. A second scheduler, overload
//! controller, admission estimate or stats epilogue in `bat-sim` or
//! `bat-serve` is a hand-copied serving loop growing back, so this test
//! reads the sources and fails on one.

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

#[test]
fn only_the_driver_builds_a_serving_loop() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/");
    let mut sites: Vec<Vec<String>> = vec![Vec::new(); DRIVER_ONLY.len()];
    let mut scanned = 0;
    for dir in [crates.join("sim/src"), crates.join("serve/src")] {
        for entry in std::fs::read_dir(&dir).expect("source directory lists") {
            let path = entry.expect("directory entry reads").path();
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            scanned += 1;
            let source = std::fs::read_to_string(&path).expect("source file reads");
            // Unit tests sit in a trailing `#[cfg(test)]` module and may
            // build whatever they compare against; comments may name calls.
            let code = source
                .lines()
                .take_while(|line| line.trim() != "#[cfg(test)]")
                .map(|line| line.split("//").next().unwrap_or(""));
            for (i, line) in code.enumerate() {
                for (call, found) in DRIVER_ONLY.iter().zip(&mut sites) {
                    if line.contains(call) {
                        found.push(format!("{}:{}", path.display(), i + 1));
                    }
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
}
