//! The cold tier is one type, `TieredKvPool`, and the planner reads it
//! from one place per prefix kind. A second tiered-cache type (the pool
//! once embedded a DRAM + cold `TieredKvCache` whose DRAM half nothing
//! used) or a pasted copy of "serve this item cold, else write the
//! recompute back" is a twin growing back, so this test reads the sources
//! and fails on one.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{hits, repo_root, workspace_hits};

/// Names of the deleted tiered-cache type and its satellites, which no
/// code under `crates/`, `tests/` or `examples/` may use again.
const GONE: [&str; 4] = ["TieredKvCache", "TierHit", "TieredKvConfig", "TierCounters"];

/// The call that reads the cold tier, and how often the planner makes it:
/// once on a user-prefix miss, once on the item cold path.
const COLD_READ: &str = ".cold_lookup(";
const PLANNER_COLD_READS: usize = 2;

#[test]
fn the_embedded_tiered_cache_stays_deleted() {
    assert!(
        !repo_root().join("crates/kvcache/src/tiered.rs").exists(),
        "crates/kvcache/src/tiered.rs is back"
    );
    let found = workspace_hits(&GONE, file!());
    assert!(
        found.is_empty(),
        "`TieredKvPool` owns the cold tier and is the only tiered-cache type; \
         found {found:?}"
    );
}

#[test]
fn the_planner_reads_the_cold_tier_once_per_prefix_kind() {
    let sites = hits(&repo_root().join("crates/sim/src/planner.rs"), &[COLD_READ]);
    assert_eq!(
        sites.len(),
        PLANNER_COLD_READS,
        "`{COLD_READ}` belongs to the user-prefix miss and the one item cold path \
         (serve a resident copy, else write the recompute back); found at {sites:?}"
    );
}
