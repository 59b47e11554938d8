//! A frame makes one hop each way: a socket conn is read in place by the
//! thread that receives on it, and each worker link's reader retires its
//! own rounds. A thread spawned per socket conn, or a collector fed by a
//! channel between the readers and the retiring, is a second hop growing
//! back, so this test reads the sources and fails on one.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_lines, hits, repo_root};

#[test]
fn socket_conns_spawn_no_pump() {
    let socket = repo_root().join("crates/net/src/socket.rs");
    let spawns: Vec<usize> = code_lines(&socket)
        .into_iter()
        .filter(|(_, line)| line.contains("thread::spawn"))
        .map(|(i, _)| i)
        .collect();
    assert!(
        spawns.len() == 1,
        "socket.rs may spawn one thread, the listener's accept pump; a conn is \
         read in place by its receiver. Found `thread::spawn` at lines {spawns:?}"
    );
}

#[test]
fn the_runtime_has_no_collector() {
    let found = hits(
        &repo_root().join("crates/serve/src/runtime.rs"),
        &["enum Event", "ack_rounds", "unbounded("],
    );
    assert!(
        found.is_empty(),
        "each link's reader retires its own rounds; a collector and its \
         channel are growing back at {found:?}"
    );
}
