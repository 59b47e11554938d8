//! The serving data plane waits on condvars and channels, and emulates time
//! through `bat_serve::pacer` alone. A `thread::sleep` anywhere else in
//! `bat-serve` or `bat-net` is a sleep-poll or a per-frame timer floor
//! coming back, so this test reads the sources and fails on one.

use std::path::Path;

/// Calls that put a thread to sleep for a fixed time.
const SLEEPS: [&str; 3] = ["sleep(", "sleep_ms(", "park_timeout("];

/// The one file allowed to make them.
const PACER: &str = "pacer.rs";

#[test]
fn only_the_pacer_sleeps() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/");
    let mut offenders = Vec::new();
    let mut scanned = 0;
    for dir in [crates.join("serve/src"), crates.join("net/src")] {
        for entry in std::fs::read_dir(&dir).expect("source directory lists") {
            let path = entry.expect("directory entry reads").path();
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            scanned += 1;
            let source = std::fs::read_to_string(&path).expect("source file reads");
            let sleeps: Vec<usize> = source
                .lines()
                .enumerate()
                // Comments may talk about sleeping; code may not do it.
                .filter(|(_, line)| {
                    let code = line.split("//").next().unwrap_or("");
                    SLEEPS.iter().any(|call| code.contains(call))
                })
                .map(|(i, _)| i + 1)
                .collect();
            if path.file_name().is_some_and(|name| name == PACER) {
                assert!(!sleeps.is_empty(), "the pacer no longer sleeps?");
            } else if !sleeps.is_empty() {
                offenders.push(format!("{}: lines {sleeps:?}", path.display()));
            }
        }
    }
    assert!(scanned >= 9, "scanned only {scanned} files");
    assert!(
        offenders.is_empty(),
        "thread sleeps outside {PACER} (block on a condvar or channel, or go \
         through the pacer):\n  {}",
        offenders.join("\n  ")
    );
}
