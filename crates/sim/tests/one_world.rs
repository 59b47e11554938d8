//! The planner has one world. A run without a fault schedule carries the
//! empty schedule over an all-warm cluster, a run without a tiered pool a
//! pool with no cold capacity, and every run one replicated meta group;
//! one hotness policy serves healthy and degraded clusters alike, so an item
//! has one location path. An `Option` around the fault state, the cold tier
//! or the meta client, a policy switch on whether a schedule is configured,
//! a second meta backend, a degraded twin of the policy, the driver walking
//! the schedule on its own or a separate switch for item hotness would be a
//! second world growing back, so this test reads the sources and fails on
//! one.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{hits, repo_root, workspace_hits};

/// Names of the deleted second meta backend, degraded policy twin and item
/// hotness switch (an item refresh interval is what turns tracking on),
/// which no code under `crates/`, `tests/` or `examples/` may use again.
const GONE: [&str; 3] = ["MetaBackend", "DegradedModePolicy", "track_item_hotness"];

/// What in the planner would bring back a world without faults, without a
/// cold tier or without a meta service.
const PLANNER_SWITCHES: [&str; 4] = [
    "Option<FaultState>",
    "cfg.faults.is_some()",
    "Option<TieredKvPool>",
    "Option<MetaClient>",
];

#[test]
fn no_faults_is_the_empty_schedule() {
    let sim = repo_root().join("crates/sim/src");
    let mut found = hits(&sim.join("planner.rs"), &PLANNER_SWITCHES);
    // The driver applies faults through the planner's one cursor.
    found.extend(hits(&sim.join("driver.rs"), &["fault_cursor"]));
    assert!(
        found.is_empty(),
        "the planner always carries its fault state (the empty schedule when none is \
         configured), its cold tier and its meta client, and the driver walks the \
         schedule through `next_fault_at`; found {found:?}"
    );
}

#[test]
fn an_item_has_one_location_path() {
    let planner = repo_root().join("crates/sim/src/planner.rs");
    let sites = hits(&planner, &["ItemLocation::Uncached"]);
    assert_eq!(
        sites.len(),
        1,
        "the planner reads `ItemPlacementPlan::locate` in one place and degrades its \
         answer; found {sites:?}"
    );
}

#[test]
fn the_second_meta_backend_and_policy_stay_deleted() {
    let found = workspace_hits(&GONE, file!());
    assert!(
        found.is_empty(),
        "the planner talks to one `MetaClient` and one `HotnessAwarePolicy`, and tracks \
         item hotness exactly when a refresh interval is set; found {found:?}"
    );
}
