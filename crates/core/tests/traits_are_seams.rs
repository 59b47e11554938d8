//! Every `trait` declared in `crates/*/src` is a seam: non-test code under
//! `crates/*/src`, `examples/` or `benchmark/src/` uses it through `dyn T`,
//! `impl T` (an argument or return type, not an `impl T for` block) or a
//! `T` bound. A trait that only its impls and `use` lines name is a second
//! name for calls that could be made directly, so this test reads the
//! sources and names each one.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_lines_without_strings, repo_root, sources};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Traits kept without such a use, each with why.
const NOT_SEAMS: [(&str, &str); 0] = [];

fn is_ident(c: char) -> bool {
    c == '_' || c.is_ascii_alphanumeric()
}

/// The name a `trait` declaration line declares.
fn declared_trait(line: &str) -> Option<&str> {
    let mut rest = line.trim_start();
    for qualifier in ["pub(crate) ", "pub(super) ", "pub ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("trait ")?;
    let len = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
    (len > 0).then(|| &rest[..len])
}

/// Whether `line` uses `name` as a trait object, an `impl` type or a
/// bound, at any of the places it names it.
fn uses_as_seam(line: &str, name: &str) -> bool {
    line.match_indices(name).any(|(at, _)| {
        let (before, after) = (&line[..at], &line[at + name.len()..]);
        if before.ends_with(is_ident) || after.starts_with(is_ident) {
            return false;
        }
        // Drop a path (`crate::wire::`) ahead of the name.
        let mut before = before;
        while let Some(head) = before.strip_suffix("::") {
            before = head.trim_end_matches(is_ident);
        }
        let before = before.trim_end();
        if before.ends_with("impl") {
            // `impl T for X` is an implementation; `impl T` is a type.
            let head = after.split('{').next().unwrap_or(after);
            return !head.split_whitespace().any(|word| word == "for");
        }
        before.ends_with("dyn") || before.ends_with('+') || before.ends_with(':')
    })
}

#[test]
fn every_trait_is_used_as_a_seam() {
    let root = repo_root();
    let crates = root.join("crates");
    let src: Vec<PathBuf> = sources(&crates)
        .into_iter()
        .filter(|path| {
            let mut parts = path.strip_prefix(&crates).expect("under crates/").iter();
            parts.nth(1).is_some_and(|dir| dir == "src")
        })
        .collect();
    let mut declared: BTreeMap<String, String> = BTreeMap::new();
    for path in &src {
        for (i, line) in code_lines_without_strings(path) {
            if let Some(name) = declared_trait(&line) {
                let site = path.strip_prefix(&root).unwrap_or(path).display();
                declared.insert(name.to_owned(), format!("{site}:{i}"));
            }
        }
    }
    assert!(declared.len() >= 4, "found only {} traits", declared.len());

    let mut users = src;
    users.extend(sources(&root.join("examples")));
    users.extend(sources(&root.join("benchmark/src")));
    let lines: Vec<String> = users
        .iter()
        .flat_map(|path| code_lines_without_strings(path))
        .map(|(_, line)| line)
        .collect();
    let is_seam = |name: &str| lines.iter().any(|line| uses_as_seam(line, name));

    let kept: BTreeMap<&str, &str> = NOT_SEAMS.into_iter().collect();
    let wrappers: Vec<String> = declared
        .iter()
        .filter(|(name, _)| !is_seam(name) && !kept.contains_key(name.as_str()))
        .map(|(name, site)| format!("`{name}` at {site}"))
        .collect();
    assert!(
        wrappers.is_empty(),
        "no code uses these traits through `dyn`, `impl` or a bound; call \
         their impls directly and delete the trait, or list it in \
         NOT_SEAMS with its reason:\n  {}",
        wrappers.join("\n  ")
    );
    for (name, _) in NOT_SEAMS {
        assert!(
            declared.contains_key(name),
            "NOT_SEAMS lists `{name}`, which is no trait any more"
        );
        assert!(
            !is_seam(name),
            "NOT_SEAMS lists `{name}`, which is a seam now: drop it from the list"
        );
    }
}
