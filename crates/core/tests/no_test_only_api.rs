//! Every `pub fn` and `pub(crate) fn` in `crates/*/src` is called by the
//! system: by non-test code under `crates/*/src`, `examples/` or
//! `benchmark/src/`. A function that only tests call is API the system
//! carries for nobody, so this test reads the sources and names each one.
//! Names match by word outside string literals (a function that only its
//! own panic message names is not called). A field read (`.name` not
//! followed by `(`) and a field declaration or struct-literal key (`name:`)
//! are not calls either, so a getter is not kept alive by the field it
//! reads. A function that shares its name with a called one still counts
//! as called, and so does one that only a listed test-facing function
//! calls: the scan can miss an orphan, but it never flags a function the
//! system calls.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_lines_without_strings, repo_root, sources};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Functions kept for tests alone, each with why: oracles that tests
/// compare against, and fixtures or observers that tests in other crates
/// drive.
const TEST_FACING: [(&str, &str); 22] = [
    (
        "applied_of",
        "observer: a meta replica's position in the committed log, which the group tests check against the commit count",
    ),
    (
        "assigned_items",
        "oracle: `DegradedPlacement`'s exact per-worker count, by scanning every item",
    ),
    (
        "axpy_plane",
        "oracle: the row-level definitions (`SplitCols`, `QuantizedColBlock`) the tile kernels are pinned against",
    ),
    (
        "build_per_item_discriminants",
        "fixture: the multi-discriminant prompt the parity tests run through the forward",
    ),
    (
        "candidate_scores_per_discriminant",
        "observer: the per-discriminant read-out of those prompts",
    ),
    (
        "drain_join",
        "fixture: the one-drain, one-join schedule the membership tests serve",
    ),
    (
        "error_bound",
        "oracle: the int8 quantizer's per-plane error bound the quantization tests check",
    ),
    (
        "forward_reference",
        "oracle: the unpacked forward `integration_packed_kv` and the transformer tests compare the packed one against",
    ),
    (
        "hidden_last",
        "observer: the last row's hidden state the packed-KV tests compare bitwise",
    ),
    (
        "hotness_count",
        "observer: a key's access count in a meta replica's hotness table, which the system only writes",
    ),
    (
        "is_quiet",
        "observer: whether a run saw any fault, asserted by the fault and transport tests",
    ),
    (
        "isolate",
        "fixture: partitions a meta replica away (`integration_meta_failover`)",
    ),
    (
        "live_workers",
        "observer: the workers a `DegradedPlacement` was built for",
    ),
    (
        "max_abs_diff",
        "oracle: the tolerance `Matrix` and `KvSegment` parity tests compare with",
    ),
    (
        "num_entries",
        "observer: how many entries a meta replica indexes, asserted by the group's catch-up tests",
    ),
    (
        "quantize_fp16",
        "oracle: §6.1's FP16 prefix storage, which `fp16_prefix_cache_barely_moves_scores` serves from",
    ),
    (
        "random_membership",
        "fixture: the seeded drain/join schedules the membership sweeps draw",
    ),
    (
        "reconnect",
        "fixture: heals an isolated meta replica (`integration_meta_failover`)",
    ),
    (
        "small",
        "fixture: `GrModelConfig::small`, the deep GQA model the model tests build",
    ),
    (
        "stage_blocks",
        "observer: how a forward stage is cut into row blocks at a thread count",
    ),
    (
        "test_world",
        "fixture: `SemanticConfig::test_world`, the small world the accuracy tests rank in",
    ),
    (
        "tiny",
        "fixture: `GrModelConfig::tiny`, the model the doc examples and model tests build",
    ),
];

/// The `.rs` files under `crates/*/<dir>` for each dir in `dirs`.
fn crate_sources(dirs: &[&str]) -> Vec<PathBuf> {
    let crates = repo_root().join("crates");
    sources(&crates)
        .into_iter()
        .filter(|path| {
            let mut parts = path.strip_prefix(&crates).expect("under crates/").iter();
            parts
                .nth(1)
                .is_some_and(|dir| dirs.iter().any(|d| dir == *d))
        })
        .collect()
}

fn is_ident(c: char) -> bool {
    c == '_' || c.is_ascii_alphanumeric()
}

/// The identifiers in `line`, each with the code before and after it.
fn words(line: &str) -> impl Iterator<Item = (&str, &str, &str)> {
    line.match_indices(is_ident)
        .filter(move |&(at, _)| !line[..at].ends_with(is_ident))
        .map(move |(at, _)| {
            let len = line[at..].find(|c| !is_ident(c)).unwrap_or(line.len() - at);
            (&line[at..at + len], &line[..at], &line[at + len..])
        })
}

/// Whether the code around a name makes it a field: read as `.name` without
/// a call (`..name` is a range), or declared or keyed as `name:` (`name::`
/// is a path).
fn is_field(before: &str, after: &str) -> bool {
    let (before, after) = (before.trim_end(), after.trim_start());
    let read = before.ends_with('.') && !before.ends_with("..");
    let called = after.starts_with('(') || after.starts_with("::");
    let keyed = after.starts_with(':') && !after.starts_with("::");
    (read && !called) || keyed
}

/// Whether `before` (the code ahead of a name) makes the name a function's
/// definition.
fn defines(before: &str) -> bool {
    before
        .trim_end()
        .strip_suffix("fn")
        .is_some_and(|rest| !rest.ends_with(is_ident))
}

/// The name a `pub fn` or `pub(crate) fn` line defines.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start();
    rest = rest
        .strip_prefix("pub(crate) ")
        .or_else(|| rest.strip_prefix("pub "))?;
    for qualifier in ["const ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let (name, ..) = words(rest.strip_prefix("fn ")?).next()?;
    Some(name)
}

#[test]
fn every_pub_fn_has_a_caller_outside_tests() {
    let root = repo_root();
    let mut defined: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let src = crate_sources(&["src"]);
    let code: Vec<(&Path, Vec<(usize, String)>)> = src
        .iter()
        .map(|path| (path.as_path(), code_lines_without_strings(path)))
        .collect();
    for (path, lines) in &code {
        for (i, line) in lines {
            if let Some(name) = pub_fn_name(line) {
                defined.entry(name).or_default().push(format!(
                    "{}:{i}",
                    path.strip_prefix(&root).unwrap_or(path).display()
                ));
            }
        }
    }

    let mut callers = src.clone();
    callers.extend(sources(&root.join("examples")));
    callers.extend(sources(&root.join("benchmark/src")));
    assert!(callers.len() >= 100, "scanned only {} files", callers.len());
    let mut called = BTreeSet::new();
    for path in &callers {
        for (_, line) in code_lines_without_strings(path) {
            for (word, before, after) in words(&line) {
                if defined.contains_key(word) && !defines(before) && !is_field(before, after) {
                    called.insert(word.to_owned());
                }
            }
        }
    }

    let kept: BTreeMap<&str, &str> = TEST_FACING.into_iter().collect();
    let orphans: Vec<String> = defined
        .iter()
        .filter(|(name, _)| !called.contains(**name) && !kept.contains_key(**name))
        .map(|(name, sites)| format!("`{name}` at {}", sites.join(", ")))
        .collect();
    assert!(
        orphans.is_empty(),
        "only tests call these; delete them (and the tests that exist only \
         for them), or list an oracle or cross-crate fixture in TEST_FACING \
         with its reason:\n  {}",
        orphans.join("\n  ")
    );
    for (name, _) in TEST_FACING {
        assert!(
            defined.contains_key(name),
            "TEST_FACING lists `{name}`, which is no `pub fn` any more"
        );
        assert!(
            !called.contains(name),
            "TEST_FACING lists `{name}`, which the system now calls: drop it from the list"
        );
    }
}
