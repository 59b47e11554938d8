//! The work-stealing thread pool.
//!
//! # Architecture
//!
//! One global pool, initialized lazily on first use. Every worker owns a
//! deque; a parallel call splits its iteration space into block tasks,
//! distributes them round-robin across the deques, and then *participates*:
//! the calling thread executes tasks alongside the workers until its call's
//! outstanding-block latch reaches zero. Workers pop their own deque from
//! the back (LIFO, cache-warm) and steal from other deques from the front
//! (FIFO, oldest first). Because the caller always helps instead of
//! blocking, nested parallel calls (a parallel sweep cell whose forward
//! pass is itself parallel) cannot deadlock: whichever thread waits on a
//! latch keeps draining tasks — its own or anyone else's.
//!
//! # Determinism contract
//!
//! Scheduling is nondeterministic; *results are not allowed to be*. Every
//! task writes only state that no other task of the same call touches
//! (disjoint output blocks), and each block's internal loop order is fixed,
//! so the value produced for a given input is bit-identical no matter how
//! many threads run or which thread executes which block. At one effective
//! thread every API degenerates to the plain serial loop over the same
//! blocks.
//!
//! # Panics in tasks
//!
//! A panicking block is caught on the executing worker, the latch is still
//! released, and the panic is re-raised on the calling thread once the call
//! completes (the original payload is replaced by a generic message).
//! Without this, a panicking worker would strand the latch and hang the
//! caller.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Locks a pool mutex, recovering from poisoning.
///
/// A panicking parallel block is caught in [`run_task`] and never holds a
/// pool lock, but a panic at exactly the wrong instant elsewhere (an
/// allocation failure inside `push_back`, a panicking test thread killed
/// mid-call) would poison the mutex it held — and with plain `unwrap()`
/// every worker touching that deque afterwards would panic too, cascading
/// one failure into a dead global pool for the rest of the process. The
/// pool's queue state is a plain `VecDeque` with no invariant that a
/// panic can tear mid-update, so the recovery is sound: take the guard
/// and keep going.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hard cap on pool width; `BAT_THREADS` and [`set_threads`] clamp to it.
pub const MAX_THREADS: usize = 64;

/// How long a worker that found every deque empty keeps polling the queue
/// count before it parks. A forward pass is dozens of parallel stages back
/// to back with microseconds of serial work between them; a worker that
/// parks the instant the queue runs dry makes each stage start with a futex
/// wake of a halted core (tens of microseconds — more than a short stage
/// saves by being split). One poll window is far below any idle period
/// worth sleeping through, so an idle pool still costs nothing.
const PARK_AFTER: Duration = Duration::from_micros(100);

/// State shared by one parallel call: the block closure and its latch.
struct CallCtx {
    /// The block body. Raw pointer because the closure lives on the calling
    /// thread's stack; the latch protocol guarantees it outlives every task.
    f: *const (dyn Fn(usize) + Sync),
    /// Blocks not yet finished. The caller returns only once this is zero,
    /// which is what makes the borrowed `f` sound.
    remaining: AtomicUsize,
    /// Set when any block panicked; re-raised by the caller.
    panicked: AtomicBool,
}

/// One schedulable unit: "run block `block` of call `ctx`".
#[derive(Clone, Copy)]
struct Task {
    ctx: *const CallCtx,
    block: usize,
}

// SAFETY: `Task` crosses threads by design. The pointee `CallCtx` (and the
// closure it references) is kept alive by the latch protocol: the owning
// call blocks until `remaining == 0`, and a task decrements `remaining`
// only after its last access to the context.
unsafe impl Send for Task {}

struct Shared {
    /// Per-worker deques plus one injector slot (index 0) for threads that
    /// are not pool workers (the main thread, serve worker threads, tests).
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks currently queued anywhere; the sleep/wake condition.
    queued: AtomicUsize,
    /// Workers park here when every deque is empty.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Number of OS worker threads actually spawned so far.
    spawned: Mutex<usize>,
    /// Effective thread count (callers + workers) used for chunking and the
    /// serial fallback.
    effective: AtomicUsize,
    /// Highest deque slot ever handed tasks; bounds the steal sweep so an
    /// idle probe does not touch all `MAX_THREADS + 1` mutexes.
    live_slots: AtomicUsize,
}

static POOL: OnceLock<&'static Shared> = OnceLock::new();

thread_local! {
    /// Deque slot owned by this thread: worker `i` owns slot `i + 1`;
    /// non-worker threads share the injector slot 0.
    static SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Parses a thread-count override, clamping into `1..=MAX_THREADS`.
/// Exposed for the `BAT_THREADS` unit tests.
pub fn parse_thread_override(raw: Option<&str>) -> Option<usize> {
    raw?.trim()
        .parse::<usize>()
        .ok()
        .map(|n| n.clamp(1, MAX_THREADS))
}

fn default_threads() -> usize {
    parse_thread_override(std::env::var("BAT_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS)
    })
}

fn shared() -> &'static Shared {
    POOL.get_or_init(|| {
        let deques = (0..MAX_THREADS + 1)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        Box::leak(Box::new(Shared {
            deques,
            queued: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            spawned: Mutex::new(0),
            effective: AtomicUsize::new(default_threads()),
            live_slots: AtomicUsize::new(1),
        }))
    })
}

/// The effective thread count: `BAT_THREADS` if set, otherwise the
/// machine's available parallelism, unless overridden by [`set_threads`].
pub fn threads() -> usize {
    shared().effective.load(Ordering::Relaxed)
}

/// Overrides the effective thread count at runtime (the `batctl --threads`
/// plumbing and the determinism tests). Workers are spawned on demand;
/// shrinking only idles them, it never kills threads.
pub fn set_threads(n: usize) {
    let n = n.clamp(1, MAX_THREADS);
    shared().effective.store(n, Ordering::Relaxed);
}

/// Spawns pool workers until at least `target` exist. Workers are detached
/// daemon threads; they park when there is no work.
fn ensure_workers(target: usize) {
    let pool = shared();
    let mut spawned = relock(&pool.spawned);
    while *spawned < target.min(MAX_THREADS) {
        let id = *spawned;
        *spawned += 1;
        std::thread::Builder::new()
            .name(format!("bat-exec-{id}"))
            .spawn(move || worker_loop(pool, id + 1))
            .expect("spawn bat-exec worker");
    }
}

/// Pops a task: own deque from the back, then steal sweep (front of every
/// other deque in fixed rotation).
fn pop_any(pool: &Shared, slot: usize) -> Option<Task> {
    if let Some(t) = relock(&pool.deques[slot]).pop_back() {
        pool.queued.fetch_sub(1, Ordering::AcqRel);
        return Some(t);
    }
    let n = pool.live_slots.load(Ordering::Acquire).max(slot + 1);
    for off in 1..n {
        let victim = (slot + off) % n;
        if let Some(t) = relock(&pool.deques[victim]).pop_front() {
            pool.queued.fetch_sub(1, Ordering::AcqRel);
            return Some(t);
        }
    }
    None
}

/// Runs one task, routing a panic into the call's flag so the latch always
/// releases.
fn run_task(task: Task) {
    // SAFETY: latch protocol (see `Task`).
    let ctx = unsafe { &*task.ctx };
    let f = unsafe { &*ctx.f };
    if catch_unwind(AssertUnwindSafe(|| f(task.block))).is_err() {
        ctx.panicked.store(true, Ordering::Release);
    }
    ctx.remaining.fetch_sub(1, Ordering::Release);
}

fn worker_loop(pool: &'static Shared, slot: usize) {
    SLOT.with(|s| s.set(slot));
    loop {
        if let Some(task) = pop_any(pool, slot) {
            run_task(task);
            continue;
        }
        // Workers beyond the effective width (left over from a wider
        // setting) get no tasks of their own and park at once.
        let idle_since = Instant::now();
        while slot < pool.effective.load(Ordering::Relaxed)
            && pool.queued.load(Ordering::Acquire) == 0
            && idle_since.elapsed() < PARK_AFTER
        {
            std::hint::spin_loop();
        }
        let guard = relock(&pool.sleep);
        if pool.queued.load(Ordering::Acquire) == 0 {
            // Parking is cheap and wakeups are broadcast; spurious wakes
            // just re-run the steal sweep.
            let _unused = pool
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Executes `f(0..n_blocks)` across the pool and returns when every block
/// has run. Blocks may run on any thread in any order; each runs exactly
/// once. With one effective thread (or one block) this is a plain serial
/// loop — same blocks, same order, same results.
pub fn run_blocks(n_blocks: usize, f: &(dyn Fn(usize) + Sync)) {
    if n_blocks == 0 {
        return;
    }
    let eff = threads();
    if eff <= 1 || n_blocks == 1 {
        for b in 0..n_blocks {
            f(b);
        }
        return;
    }
    let pool = shared();
    ensure_workers(eff - 1);

    // SAFETY: erases the borrow's lifetime so it can sit in `CallCtx`; the
    // latch protocol guarantees every use of `f` happens before we return.
    let f_erased: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), _>(f) };
    let ctx = CallCtx {
        f: f_erased,
        remaining: AtomicUsize::new(n_blocks),
        panicked: AtomicBool::new(false),
    };
    let my_slot = SLOT.with(|s| s.get());
    // Round-robin blocks across the active deques (ours included) so idle
    // workers find work without contending on a single queue.
    let active = eff.min(pool.deques.len());
    pool.live_slots
        .fetch_max(active.max(my_slot + 1), Ordering::AcqRel);
    // Counted before they are pushed, so a polling worker starts looking
    // while the deques fill; block `b` goes to deque `my_slot + b`
    // (mod `active`), each deque locked once.
    pool.queued.fetch_add(n_blocks, Ordering::AcqRel);
    for first in 0..active.min(n_blocks) {
        let mut deque = relock(&pool.deques[(my_slot + first) % active]);
        for block in (first..n_blocks).step_by(active) {
            deque.push_back(Task {
                ctx: &ctx as *const _,
                block,
            });
        }
    }
    {
        let _g = relock(&pool.sleep);
        pool.wake.notify_all();
    }

    // Participate: drain tasks (ours or anyone's) until our latch opens.
    while ctx.remaining.load(Ordering::Acquire) != 0 {
        match pop_any(pool, my_slot) {
            Some(task) => run_task(task),
            None => std::thread::yield_now(),
        }
    }
    if ctx.panicked.load(Ordering::Acquire) {
        panic!("a bat-exec parallel block panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parse_override_clamps_and_rejects_junk() {
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(Some("garbage")), None);
        assert_eq!(parse_thread_override(Some("4")), Some(4));
        assert_eq!(parse_thread_override(Some(" 8 ")), Some(8));
        assert_eq!(parse_thread_override(Some("0")), Some(1));
        assert_eq!(parse_thread_override(Some("10000")), Some(MAX_THREADS));
    }

    #[test]
    fn every_block_runs_exactly_once() {
        set_threads(4);
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        run_blocks(hits.len(), &|b| {
            hits[b].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "block {i}");
        }
        set_threads(1);
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        set_threads(4);
        let total = AtomicU64::new(0);
        run_blocks(8, &|_| {
            run_blocks(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
        set_threads(1);
    }

    #[test]
    fn poisoned_pool_locks_recover() {
        // Poison the injector deque and the sleep mutex the hard way: a
        // thread panicking while holding the guard. The pool must shrug —
        // a poisoned lock on plain queue state is recoverable, and one
        // stray panic must not cascade into a dead global pool.
        for poison in [0usize, 1] {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                let _guard = if poison == 0 {
                    Some(shared().deques[0].lock().unwrap())
                } else {
                    None
                };
                let _sleep = if poison == 1 {
                    Some(shared().sleep.lock().unwrap())
                } else {
                    None
                };
                panic!("poison it");
            }));
        }
        assert!(shared().deques[0].lock().is_err(), "deque must be poisoned");
        assert!(shared().sleep.lock().is_err(), "sleep must be poisoned");
        set_threads(4);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        run_blocks(hits.len(), &|b| {
            hits[b].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "block {i}");
        }
        set_threads(1);
    }

    #[test]
    fn panics_propagate_to_caller() {
        set_threads(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_blocks(4, &|b| {
                if b == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        set_threads(1);
    }
}
