//! Pins the slot machine's steady state: once its buffers have grown, a
//! round allocates nothing. A round in flight keeps no chunk list, seats
//! retire in place, and each round's `requests` vector is one that
//! `drain_rounds_into` took back from the caller's buffer. The machine is
//! driven the way the serving driver drives it: a drain into one reused
//! buffer after every admission, then the tail one finish event at a time
//! through `retire_next`.
//!
//! The whole binary holds exactly one `#[test]` so no concurrent test can
//! allocate while the counting window is open.

use bat_sched::{BatchScheduler, BatchingConfig, RoundRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Wraps the system allocator, counting every heap operation (alloc,
/// realloc, alloc_zeroed) made while the window is open.
struct CountingAlloc;

static WINDOW_OPEN: AtomicBool = AtomicBool::new(false);
static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if WINDOW_OPEN.load(Ordering::Relaxed) {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Requests one phase admits.
const REQUESTS: usize = 2_000;
/// Phases run before the window opens. The machine keeps its completions
/// until they are drained, and three phases leave that log (6 000 entries,
/// capacity 8 192) room for the measured phase's 2 000.
const WARM_UP_PHASES: usize = 3;
/// Nominal seconds between phases: each starts on an idle machine.
const PHASE_SECS: f64 = 1_000.0;

/// One phase: `REQUESTS` arrivals, 1 ms apart, of 100–396 tokens at 20 µs
/// a token on two workers — more than they serve, so a queue builds and
/// the tail is long. Returns the rounds the phase formed.
fn phase(machine: &mut BatchScheduler, buf: &mut Vec<RoundRecord>, phase: usize) -> u64 {
    let rounds = machine.stats().rounds;
    let t0 = phase as f64 * PHASE_SECS;
    for i in 0..REQUESTS {
        let (at, idx) = (t0 + i as f64 * 1e-3, phase * REQUESTS + i);
        let tokens = 100 + (i as u64 * 37) % 297;
        machine.admit(at, idx, tokens, tokens as f64 * 2e-5, None);
        machine.drain_rounds_into(buf);
    }
    while machine.retire_next() {
        machine.drain_rounds_into(buf);
    }
    assert_eq!(machine.undrained_rounds(), 0);
    machine.stats().rounds - rounds
}

/// Heap operations per round in a measured phase of `cfg` after the
/// warm-up, and the rounds that phase formed.
fn allocations_per_round(cfg: BatchingConfig) -> (f64, u64) {
    let mut machine = BatchScheduler::new(cfg, 1e-3, vec![1.0; 2]).with_round_budget(4_000);
    let mut buf = Vec::new();
    for p in 0..WARM_UP_PHASES {
        phase(&mut machine, &mut buf, p);
    }
    HEAP_OPS.store(0, Ordering::SeqCst);
    WINDOW_OPEN.store(true, Ordering::SeqCst);
    let rounds = phase(&mut machine, &mut buf, WARM_UP_PHASES);
    WINDOW_OPEN.store(false, Ordering::SeqCst);
    let ops = HEAP_OPS.load(Ordering::SeqCst);
    // And they were real rounds: every request of every phase completed.
    let completed = machine.drain_completions().len();
    assert_eq!(completed, (WARM_UP_PHASES + 1) * REQUESTS);
    (ops as f64 / rounds as f64, rounds)
}

#[test]
fn rounds_allocate_nothing_once_the_buffers_have_grown() {
    for (name, cfg) in [
        ("chunked", BatchingConfig::default()),
        ("per-request", BatchingConfig::PER_REQUEST),
    ] {
        let (per_round, rounds) = allocations_per_round(cfg);
        eprintln!("{name}: {per_round} allocations per round over {rounds} rounds");
        assert_eq!(
            per_round, 0.0,
            "{name}: {per_round} allocations per round over {rounds} rounds"
        );
    }
}
