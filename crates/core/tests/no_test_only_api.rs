//! Every `pub fn` and `pub(crate) fn` in `crates/*/src` is called by the
//! system: by non-test code under `crates/*/src`, `examples/` or
//! `benchmark/src/`. A function that only tests call is API the system
//! carries for nobody, so this test reads the sources and names each one.
//! Names match by word, so a function that shares its name with a called
//! one counts as called, and so does one that only a listed test-facing
//! function calls: the scan can miss an orphan, but it never flags a
//! function the system calls.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_lines, repo_root, sources};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Functions kept for tests alone, each with why: oracles that tests
/// compare against, and fixtures or observers that tests in other crates
/// drive.
const TEST_FACING: [(&str, &str); 19] = [
    (
        "assigned_items",
        "oracle: `DegradedPlacement`'s exact per-worker count, by scanning every item",
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
        "replicas_agree",
        "oracle: every live meta replica holds the same log and state",
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

/// The identifiers in `line`, each with the code before it.
fn words(line: &str) -> impl Iterator<Item = (&str, &str)> {
    line.match_indices(is_ident)
        .filter(move |&(at, _)| !line[..at].ends_with(is_ident))
        .map(move |(at, _)| {
            let len = line[at..].find(|c| !is_ident(c)).unwrap_or(line.len() - at);
            (&line[at..at + len], &line[..at])
        })
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
    let (name, _) = words(rest.strip_prefix("fn ")?).next()?;
    Some(name)
}

#[test]
fn every_pub_fn_has_a_caller_outside_tests() {
    let root = repo_root();
    let mut defined: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let src = crate_sources(&["src"]);
    let code: Vec<(&Path, Vec<(usize, String)>)> = src
        .iter()
        .map(|path| (path.as_path(), code_lines(path)))
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
        for (_, line) in code_lines(path) {
            for (word, before) in words(&line) {
                if defined.contains_key(word) && !defines(before) {
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
