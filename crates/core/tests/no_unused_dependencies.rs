//! Every dependency a workspace manifest lists is named by the code it is
//! listed for: a `[dependencies]` entry by the crate's library or binaries
//! outside their tests, a `[dev-dependencies]` entry by any of its targets —
//! unit tests, `tests/`, `examples/`, and the files a `[[test]]` or
//! `[[example]]` section points at (for `bat`, the repository's root
//! `tests/` and `examples/`). A dependency no code names costs build time
//! and claims a coupling the design does not have; one that only tests name
//! belongs under `[dev-dependencies]`.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_lines, code_with_tests, repo_root, sources};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// `(section, crate name)` of every entry in a manifest's dependency
/// sections.
fn dependencies(manifest: &str) -> Vec<(String, String)> {
    let mut section = String::new();
    let mut found = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_owned();
        } else if section.ends_with("dependencies") && !line.is_empty() {
            let name = line.split(['=', '.']).next().expect("split yields a part");
            found.push((section.clone(), name.trim().to_owned()));
        }
    }
    found
}

/// Whether `ident` occurs in `code` as a whole word.
fn names(code: &str, ident: &str) -> bool {
    let word = |c: char| c == '_' || c.is_alphanumeric();
    code.match_indices(ident).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + ident.len()..].chars().next();
        !before.is_some_and(word) && !after.is_some_and(word)
    })
}

/// The source files of every target of the crate in `dir`: its own `src/`,
/// `tests/`, `examples/` and `benches/`, and the directories of the files
/// its `[[test]]` and `[[example]]` sections name.
fn target_sources(dir: &Path, manifest: &str) -> BTreeSet<PathBuf> {
    let mut dirs: Vec<PathBuf> = ["src", "tests", "examples", "benches"]
        .iter()
        .map(|d| dir.join(d))
        .collect();
    for line in manifest.lines().map(str::trim) {
        if let Some(path) = line.strip_prefix("path = \"") {
            let file = dir.join(path.trim_end_matches('"'));
            dirs.push(file.parent().expect("a target file has a directory").into());
        }
    }
    let dirs = dirs.into_iter().filter(|d| d.is_dir());
    dirs.flat_map(|d| sources(&d))
        .map(|f| f.canonicalize().expect("source path resolves"))
        .collect()
}

#[test]
fn every_listed_dependency_is_named_by_its_targets() {
    let mut unused = Vec::new();
    let mut crates = 0;
    for group in ["crates", "compat"] {
        for entry in std::fs::read_dir(repo_root().join(group)).expect("directory lists") {
            let dir = entry.expect("directory entry reads").path();
            let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            crates += 1;
            let lib: String = sources(&dir.join("src"))
                .iter()
                .flat_map(|f| code_lines(f).into_iter().map(|(_, line)| line + "\n"))
                .collect();
            let all: String = target_sources(&dir, &manifest)
                .iter()
                .map(|f| code_with_tests(f))
                .collect();
            for (section, name) in dependencies(&manifest) {
                let ident = name.replace('-', "_");
                let (code, named_by) = if section == "dependencies" {
                    (&lib, "its library or binaries outside their tests")
                } else {
                    (&all, "any of its targets")
                };
                if !names(code, &ident) {
                    unused.push(format!(
                        "{}: [{section}] `{name}` is named by none of {named_by}",
                        dir.join("Cargo.toml").display()
                    ));
                }
            }
        }
    }
    assert!(crates >= 20, "read only {crates} manifests");
    assert!(
        unused.is_empty(),
        "unused dependencies:\n{}",
        unused.join("\n")
    );
}
