//! A forward reaches the pool one way: every row stage — layer 0's keys and
//! values, then one per layer — goes through `run_rows` in `transformer.rs`,
//! the one caller of `bat_exec::parallel_weighted_row_bands` outside
//! `bat-exec`. `Matrix` once scheduled threads of its own (a pooled product
//! and a row map, dispatched for the K|V stage); a second caller is such a
//! path growing back, so this test reads the sources and fails on one.

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_lines, repo_root, workspace_hits};

/// The pool's row-block dispatch.
const DISPATCH: &str = "parallel_weighted_row_bands(";

/// The one file, and the one function in it, allowed to call it.
const DOOR: (&str, &str) = ("crates/model/src/transformer.rs", "fn run_rows");

#[test]
fn run_rows_is_the_one_door_to_the_pool() {
    let exec = repo_root().join("crates/exec").display().to_string();
    let sites: Vec<String> = workspace_hits(&[DISPATCH], file!())
        .into_iter()
        .filter(|site| !site.starts_with(&exec))
        .collect();
    let door = repo_root().join(DOOR.0);
    // The function a site of `door` is in: the last `fn` opened above it.
    let caller = |site: &str| {
        let (at, _) = site.rsplit_once(": `")?;
        let (path, line) = at.rsplit_once(':')?;
        let line: usize = line.parse().ok()?;
        (path == door.display().to_string()).then_some(())?;
        let lines = code_lines(&door);
        let above = lines.iter().take_while(|(i, _)| *i < line);
        above
            .filter(|(_, code)| code.contains("fn "))
            .last()
            .cloned()
    };
    let one = match sites.as_slice() {
        [site] => caller(site).is_some_and(|(_, code)| code.contains(DOOR.1)),
        _ => false,
    };
    assert!(
        one,
        "`{DISPATCH}` outside `bat-exec` belongs to `{}` in {} alone — a stage \
         that wants the pool is a row stage of the forward, not a dispatch of its \
         own; found at {sites:?}",
        DOOR.1, DOOR.0
    );
}
