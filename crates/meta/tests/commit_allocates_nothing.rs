//! Pins the replicated commit path's steady state: once the hotness table
//! holds its keys, a [`MetaClient::submit`] of a `HotnessDelta` on one of
//! them must not touch the heap. The group keeps one state, so the command
//! is applied once, and a replica's log is only a length, so replicating
//! and compacting it moves counts.
//!
//! The whole binary holds exactly one `#[test]` so no concurrent test can
//! allocate while the counting window is open.

use bat_kvcache::CacheKey;
use bat_meta::{MetaClient, MetaCommand};
use bat_types::UserId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Wraps the system allocator, counting the bytes every heap operation
/// (alloc, realloc, alloc_zeroed) asks for while the window is open.
struct CountingAlloc;

static WINDOW_OPEN: AtomicBool = AtomicBool::new(false);
static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if WINDOW_OPEN.load(Ordering::Relaxed) {
        HEAP_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const KEYS: u64 = 5_000;

fn touch(client: &mut MetaClient, i: u64) {
    let now = i as f64 * 1e-3;
    let key = CacheKey::User(UserId::new(i % KEYS));
    client.submit(MetaCommand::HotnessDelta { key, at_ms: i }, now);
}

#[test]
fn hotness_commits_on_existing_keys_allocate_nothing() {
    let mut client = MetaClient::new(3, 7, 2);
    // Two passes over the keys: the first grows the table, the second runs
    // the steady state (heartbeats, compactions) before the window opens.
    for i in 0..2 * KEYS {
        touch(&mut client, i);
    }

    HEAP_BYTES.store(0, Ordering::SeqCst);
    WINDOW_OPEN.store(true, Ordering::SeqCst);
    for i in 2 * KEYS..2 * KEYS + 10_000 {
        touch(&mut client, i);
    }
    WINDOW_OPEN.store(false, Ordering::SeqCst);
    let bytes = HEAP_BYTES.load(Ordering::SeqCst);

    assert_eq!(
        bytes, 0,
        "10 000 steady-state commits allocated {bytes} bytes"
    );
    // And they were real commits: every replica holds them.
    let committed = 2 * KEYS as usize + 10_000;
    assert_eq!(client.stats().submitted, committed as u64);
    for m in 0..3 {
        assert_eq!(client.group().applied_of(m), committed, "replica {m}");
    }
    let hits = (2 * KEYS + 10_000) / KEYS;
    assert_eq!(
        client
            .group()
            .read(|s| s.hotness_count(UserId::new(0).into())),
        hits
    );
}
