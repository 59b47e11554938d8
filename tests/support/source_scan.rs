//! What the source-scan tests (`crates/*/tests/one_*.rs`) share: list a
//! tree's `.rs` files, read a file's code without comments or its trailing
//! `#[cfg(test)]` module, and find names in it. Each scan pulls this file in
//! with `#[path]`, so not every scan uses every helper.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

/// The repository root, from the manifest of a crate under `crates/`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `.rs` files under `dir`, recursively.
pub fn sources(dir: &Path) -> Vec<PathBuf> {
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
/// module (unit tests may build whatever they compare against), with
/// comments cut off (comments may name what is gone).
pub fn code_lines(path: &Path) -> Vec<(usize, String)> {
    let source = std::fs::read_to_string(path).expect("source file reads");
    source
        .lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .map(|line| line.split("//").next().unwrap_or("").to_owned())
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .collect()
}

/// `path:line: `pattern`` for every pattern found in the code of `path`.
pub fn hits(path: &Path, patterns: &[&str]) -> Vec<String> {
    let mut found = Vec::new();
    for (i, line) in code_lines(path) {
        for pattern in patterns.iter().filter(|p| line.contains(*p)) {
            found.push(format!("{}:{i}: `{pattern}`", path.display()));
        }
    }
    found
}

/// [`hits`] of `names` in every source under `crates/`, `tests/` and
/// `examples/` except the scan `this_file` (pass `file!()`), which names
/// them. Fails if the walk saw too few files to be the whole tree.
pub fn workspace_hits(names: &[&str], this_file: &str) -> Vec<String> {
    let this_file = Path::new(this_file).file_name();
    let mut found = Vec::new();
    let mut scanned = 0;
    for dir in ["crates", "tests", "examples"] {
        for path in sources(&repo_root().join(dir)) {
            if path.file_name() != this_file {
                scanned += 1;
                found.extend(hits(&path, names));
            }
        }
    }
    assert!(scanned >= 100, "scanned only {scanned} files");
    found
}
