//! A worker fails one way, thread or child process: a crash severs its
//! link, a drain is the shutdown frame behind its queued work, and a start,
//! restart or join is one spawn followed by one accept under the link's
//! next incarnation. A worker that bounces work back while a shared flag is
//! down, or a second spawn path for one kind of worker, is a second failure
//! path growing back, so this test reads the sources and fails on one.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{hits, identifiers, repo_root, workspace_hits, Role};

#[test]
fn no_worker_bounces_work_back() {
    let found = workspace_hits(&["OrphanMsg", "MSG_ORPHAN"], file!());
    assert!(
        found.is_empty(),
        "a crashed worker's frames retire with its severed link; the orphan \
         bounce is back at {found:?}"
    );
    let net_worker = repo_root().join("crates/serve/src/net_worker.rs");
    let flag = hits(&net_worker, &["AtomicBool"]);
    assert!(
        flag.is_empty(),
        "the worker loop shares no liveness flag with the supervisor: {flag:?}"
    );
}

#[test]
fn every_worker_is_spawned_in_one_function() {
    let idents = identifiers(&repo_root().join("crates/serve/src/runtime.rs"));
    for call in ["spawn_child", "run_net_worker"] {
        // Each call site, named by the `fn` it is in: the last one defined
        // ahead of it.
        let sites: Vec<(usize, &str)> = idents
            .iter()
            .enumerate()
            .filter(|(_, id)| id.name == call && matches!(id.role, Role::Call(_)))
            .map(|(i, id)| {
                let within = idents[..i]
                    .iter()
                    .rfind(|d| matches!(d.role, Role::Defines(_)));
                (id.line, within.map_or("", |d| d.name.as_str()))
            })
            .collect();
        assert!(
            matches!(sites[..], [(_, "spawn_worker")]),
            "runtime.rs calls `{call}` once, in `spawn_worker`; found {sites:?}"
        );
    }
}
