//! An opt-in clock on the stages of a [`crate::GrModel`] forward.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Where a [`crate::GrModel`] forward spends its time. A layer is one pool
/// dispatch in which every block of rows runs [`Stage::Q`] to [`Stage::Down`]
/// and then [`Stage::KvRows`] of the next layer on one thread (one more
/// dispatch before the first layer runs layer 0's `KvRows`): those seven
/// are thread time, summed over the blocks. [`Stage::RowsWall`] is the
/// caller's wall time for those dispatches and the serial pushes of their
/// keys and values that follow ([`Stage::LastRowsWall`] in the last layer,
/// of the read-out rows alone), so `threads × (RowsWall + LastRowsWall) − Σ`
/// is their idle time. The HSTU pointwise unit ends at [`Stage::Wo`], which
/// then holds its norm and gate too: `GateUp`, `Silu` and `Down` read zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Tags, mask runs, embeddings.
    Setup,
    /// Norm, K|V product and RoPE of the next layer (of layer 0, before it).
    KvRows,
    /// Q product (Q|U and SiLU for the pointwise unit) and RoPE.
    Q,
    /// Group attention.
    Attention,
    /// Output product and residual.
    Wo,
    /// Norm and gate|up product.
    GateUp,
    /// SiLU · up.
    Silu,
    /// Down product and residual.
    Down,
    /// Wall time of the row dispatches and the pushes after them, bar the
    /// last layer's.
    RowsWall,
    /// Wall time of `Q` to `Down` over the last layer's read-out rows.
    LastRowsWall,
    /// Final norm of the read-out rows.
    ReadOut,
}

impl Stage {
    /// Every stage, in forward order.
    pub const ALL: [Stage; 11] = [
        Stage::Setup,
        Stage::KvRows,
        Stage::Q,
        Stage::Attention,
        Stage::Wo,
        Stage::GateUp,
        Stage::Silu,
        Stage::Down,
        Stage::RowsWall,
        Stage::LastRowsWall,
        Stage::ReadOut,
    ];
}

/// Nanoseconds per [`Stage`]; atomics because the row blocks of one forward
/// add to it from several threads.
#[derive(Default)]
pub(crate) struct StageProfile {
    ns: [AtomicU64; Stage::ALL.len()],
}

impl StageProfile {
    /// The time booked on each stage so far.
    pub(crate) fn read(&self) -> [(Stage, Duration); Stage::ALL.len()] {
        Stage::ALL.map(|stage| {
            let ns = self.ns[stage as usize].load(Ordering::Relaxed);
            (stage, Duration::from_nanos(ns))
        })
    }
}

/// The running clock of one thread's walk through the stages: `lap(stage)`
/// books the time since the last lap. Without a profile it holds no clock
/// and a lap is one untaken branch.
pub(crate) struct Laps<'a>(Option<(&'a StageProfile, Instant)>);

impl<'a> Laps<'a> {
    pub(crate) fn start(profile: Option<&'a StageProfile>) -> Self {
        Laps(profile.map(|profile| (profile, Instant::now())))
    }

    #[inline]
    pub(crate) fn lap(&mut self, stage: Stage) {
        if let Some((profile, last)) = &mut self.0 {
            let now = Instant::now();
            let ns = now.duration_since(*last).as_nanos() as u64;
            profile.ns[stage as usize].fetch_add(ns, Ordering::Relaxed);
            *last = now;
        }
    }
}
