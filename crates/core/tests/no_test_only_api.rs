//! Every `pub fn` and `pub(crate) fn` in `crates/*/src` is called by the
//! system: by non-test code under `crates/*/src`, `examples/` or
//! `benchmark/src/`. A function that only tests call is API the system
//! carries for nobody, so this test reads the sources and names each one.
//! It reads each identifier's role from [`source_scan::identifiers`]. A
//! call reaches the functions of its name that take as many arguments (a
//! method call's receiver counted), since the scan cannot tell types apart;
//! a use on a path (`Type::name`) or as a bare value, which may pass the
//! function by value, reaches all of them. Nothing else is a call: not a
//! name inside a string literal (a function that only its own panic
//! message names is not called), a field read (`.name` without `(`), a
//! field declaration or struct-literal key (`name:`), a local binding or
//! parameter, or a bare use of one, so a getter is kept alive neither by
//! the field it reads nor by a parameter of its name. A function that
//! shares its name and parameter count with a called one still counts as
//! called, and so does one that only a listed test-facing function calls:
//! the scan can miss an orphan, but it never flags a function the system
//! calls.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_lines_without_strings, identifiers, repo_root, sources, Role};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Functions kept for tests alone, each with why: oracles that tests
/// compare against, and fixtures or observers that tests in other crates
/// drive.
const TEST_FACING: [(&str, &str); 24] = [
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
        "capacity_items",
        "observer: a degraded placement's per-worker item capacity, which `integration_fault_recovery` holds each re-plan under",
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
        "get",
        "observer: one element of a `Matrix`, which its doc example and the f64 reference forwards read",
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

/// The name a `pub fn` or `pub(crate) fn` line defines.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start();
    rest = rest
        .strip_prefix("pub(crate) ")
        .or_else(|| rest.strip_prefix("pub "))?;
    for qualifier in ["const ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("fn ")?;
    let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
    (!name.is_empty()).then_some(name)
}

/// One `pub fn`: where it is, how many parameters it takes (`None`:
/// unknown), and whether a call reaches it.
struct Def {
    site: String,
    params: Option<usize>,
    called: bool,
}

impl Def {
    /// Whether an identifier of this function's name in the role `role`
    /// may call it: a call with as many arguments, or a use as a value or
    /// on a path.
    fn reached_by(&self, role: Role) -> bool {
        match role {
            Role::Call(args) => args
                .zip(self.params)
                .is_none_or(|(args, params)| args == params),
            Role::Path | Role::Value => true,
            Role::Defines(_) | Role::Field | Role::Binding | Role::Local => false,
        }
    }
}

#[test]
fn every_pub_fn_has_a_caller_outside_tests() {
    let root = repo_root();
    let mut defined: BTreeMap<String, Vec<Def>> = BTreeMap::new();
    let src = crate_sources(&["src"]);
    for path in &src {
        let lines: BTreeMap<usize, String> = code_lines_without_strings(path).into_iter().collect();
        for ident in identifiers(path) {
            let Role::Defines(params) = ident.role else {
                continue;
            };
            if lines.get(&ident.line).and_then(|line| pub_fn_name(line)) == Some(&ident.name) {
                let site = format!(
                    "{}:{}",
                    path.strip_prefix(&root).unwrap_or(path).display(),
                    ident.line
                );
                defined.entry(ident.name).or_default().push(Def {
                    site,
                    params,
                    called: false,
                });
            }
        }
    }

    let mut callers = src.clone();
    callers.extend(sources(&root.join("examples")));
    callers.extend(sources(&root.join("benchmark/src")));
    assert!(callers.len() >= 100, "scanned only {} files", callers.len());
    for path in &callers {
        for ident in identifiers(path) {
            for def in defined.get_mut(&ident.name).into_iter().flatten() {
                def.called |= def.reached_by(ident.role);
            }
        }
    }

    let kept: BTreeMap<&str, &str> = TEST_FACING.into_iter().collect();
    let orphans: Vec<String> = defined
        .iter()
        .filter(|(name, _)| !kept.contains_key(name.as_str()))
        .flat_map(|(name, defs)| {
            let uncalled = defs.iter().filter(|def| !def.called);
            uncalled.map(move |def| format!("`{name}` at {}", def.site))
        })
        .collect();
    assert!(
        orphans.is_empty(),
        "only tests call these; delete them (and the tests that exist only \
         for them), or list an oracle or cross-crate fixture in TEST_FACING \
         with its reason:\n  {}",
        orphans.join("\n  ")
    );
    for (name, _) in TEST_FACING {
        let defs = defined.get(name);
        assert!(
            defs.is_some(),
            "TEST_FACING lists `{name}`, which is no `pub fn` any more"
        );
        assert!(
            defs.into_iter().flatten().any(|def| !def.called),
            "TEST_FACING lists `{name}`, which the system now calls: drop it from the list"
        );
    }
}
