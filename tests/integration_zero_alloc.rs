//! Pins the zero-allocation steady state: after one warmup call, a
//! same-shaped [`bat::GrModel::forward_with`] through a reused
//! [`bat::ForwardWorkspace`] must not touch the heap at all. Every scratch
//! buffer — workspace matrices, mask run lists, the read-out rows, suffix KV
//! planes, attention score scratch — is pre-sized and reused in place, and
//! the output's handle to the embedding table is a counter, not a copy. The
//! HSTU-style model runs the same forward, so it is held to the same count.
//!
//! The whole binary holds exactly one `#[test]` so no concurrent test can
//! allocate while the counting window is open.

use bat::exec::set_threads;
use bat::{
    ForwardWorkspace, GrModel, GrModelConfig, HstuModel, MaskScheme, PrefixKind, PromptLayout,
    Weights,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Wraps the system allocator, counting every heap operation (alloc,
/// realloc, alloc_zeroed) that lands while the window is open.
struct CountingAlloc;

static WINDOW_OPEN: AtomicBool = AtomicBool::new(false);
static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if WINDOW_OPEN.load(Ordering::Relaxed) {
            HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if WINDOW_OPEN.load(Ordering::Relaxed) {
            HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if WINDOW_OPEN.load(Ordering::Relaxed) {
            HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_forward_makes_zero_allocations() {
    set_threads(1);
    let matched = GrModelConfig {
        query_heads: 4,
        ..GrModelConfig::small(128)
    };
    let hstu = HstuModel::random(matched, 7);
    let models: [(&str, &GrModel); 2] = [
        (
            "GrModel",
            &GrModel::new(Weights::random(GrModelConfig::small(128), 7)),
        ),
        ("HstuModel", &hstu),
    ];
    let layout = PromptLayout::new(MaskScheme::Bipartite);
    let user: Vec<u32> = (30..42).collect();
    let items: Vec<Vec<u32>> = (0..8u32).map(|i| vec![2 + 3 * i, 3 + 3 * i]).collect();
    let seq = layout.build(PrefixKind::Item, &user, &items, &[0, 1]);
    let item_block: usize = items.iter().map(Vec::len).sum();
    let (head, tail) = seq.split_at(item_block);

    for (name, model) in models {
        let prefix = model.compute_kv(&head);

        // Warm the workspace and the thread-local attention scratch with two
        // same-shaped calls (the second proves shapes have settled).
        let mut ws = ForwardWorkspace::new();
        model.forward_with(&tail, Some(&prefix), &mut ws);
        let warm_logits = model.forward_with(&tail, Some(&prefix), &mut ws).logits();

        // Counting window: one more same-shaped forward.
        HEAP_OPS.store(0, Ordering::SeqCst);
        WINDOW_OPEN.store(true, Ordering::SeqCst);
        model.forward_with(&tail, Some(&prefix), &mut ws);
        WINDOW_OPEN.store(false, Ordering::SeqCst);
        let ops = HEAP_OPS.load(Ordering::SeqCst);

        assert_eq!(
            ops, 0,
            "steady-state {name}::forward_with must not touch the heap, saw {ops} allocations"
        );
        // And it was a real forward: outputs match the warmup pass bitwise.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&warm_logits), bits(&ws.output().logits()), "{name}");
    }
}
