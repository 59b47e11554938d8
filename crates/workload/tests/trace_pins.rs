//! The generated traces, pinned bit for bit.
//!
//! Every serving result is a function of these traces, so a change to the
//! generator's arithmetic — a hoisted term, a cast in place of `floor`, a
//! reciprocal in place of a division, a new de-duplication table — must
//! leave every request as it was. Each case FNV-1a-hashes the `Debug` text
//! of a trace (ids, users, token counts, candidates in retrieval order,
//! arrival bits, SLO) and compares it with the digest recorded when the
//! generator still recomputed the Zipf mass on every draw, called libm's
//! `floor` and `round`, divided by 2⁵³ and de-duplicated candidates
//! through a `HashSet`.

use bat_types::fnv::Fnv64;
use bat_types::DatasetConfig;
use bat_workload::{SessionParams, TraceGenerator, Workload};
use std::fmt::{Debug, Write};

/// FNV-1a of the `Debug` text of `items`, one after another.
fn digest<T: Debug>(items: &[T]) -> u64 {
    struct Hasher(Fnv64);
    impl Write for Hasher {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut h = Hasher(Fnv64::new());
    for item in items {
        write!(h, "{item:?}").expect("hashing cannot fail");
    }
    h.0.finish()
}

/// The 2 000-user × 4 000-item, 50-candidate dataset of the repo
/// benchmark's `rank_*` workloads.
fn rank_scaled() -> DatasetConfig {
    DatasetConfig {
        name: "rank-scaled".to_owned(),
        num_users: 2_000,
        num_items: 4_000,
        avg_user_tokens: 192,
        avg_item_tokens: 2,
        candidates_per_request: 50,
        max_prompt_tokens: 640,
        item_zipf_exponent: 1.0,
        user_zipf_exponent: 0.75,
        base_request_rate: 20.0,
        session_mean_requests: 3.0,
        session_mean_gap_secs: 45.0,
    }
}

/// Asserts a trace's length and digest for each trace seed, `[11, 12]`.
fn pin(make: impl Fn(u64) -> (usize, u64), expected: [(usize, u64); 2]) {
    for (seed, want) in [11, 12].into_iter().zip(expected) {
        let got = make(seed);
        assert_eq!(
            got, want,
            "trace seed {seed}: (requests, digest) moved: got ({}, {:#018x})",
            got.0, got.1
        );
    }
}

fn trace(ds: DatasetConfig, workload_seed: u64, secs: f64, rate: f64, seed: u64) -> (usize, u64) {
    let t = TraceGenerator::new(Workload::new(ds, workload_seed), seed).generate(secs, rate);
    (t.len(), digest(&t))
}

/// Books (s = 1, the logarithmic law; 280 000 items, past the memo).
#[test]
fn books_traces_are_pinned() {
    pin(
        |seed| trace(DatasetConfig::books(), 11, 60.0, 300.0, seed),
        [(2856, 0x2e25_725b_a78d_9128), (2848, 0x00ce_d5bb_7366_bea1)],
    );
}

/// Industry (s = 1.05: the `powf` law over a million items).
#[test]
fn industry_traces_are_pinned() {
    pin(
        |seed| trace(DatasetConfig::industry(), 42, 5.0, 300.0, seed),
        [(1013, 0x53a9_faf7_cfa6_2975), (1014, 0xcd39_9774_8341_8cbd)],
    );
}

/// The repo benchmark's `rank_*` trace, as its set-up builds it.
#[test]
fn rank_benchmark_traces_are_pinned() {
    pin(
        |seed| trace(rank_scaled(), 11, 600.0, 20.0, seed),
        [
            (10297, 0x66e8_fc38_f531_7c73),
            (10450, 0xc19a_7195_1d5c_0b92),
        ],
    );
}

/// A hotspot shift halfway through: ranks rotate half the corpus, so the
/// hot head lands on ids above the memo.
#[test]
fn hotspot_shift_traces_are_pinned() {
    pin(
        |seed| {
            let ds = DatasetConfig::books();
            let w = Workload::new(ds.clone(), 77).with_hotspot_shift(30.0, ds.num_items / 2);
            let t = TraceGenerator::new(w, seed).generate(60.0, 300.0);
            (t.len(), digest(&t))
        },
        [(2856, 0x1ffc_5492_afd9_5aff), (2848, 0x65c1_1b2a_b36f_8dd7)],
    );
}

/// Two consecutive segments from one generator: the clock and what the
/// generator remembers carry over from one `generate` to the next.
#[test]
fn consecutive_segments_are_pinned() {
    pin(
        |seed| {
            let mut g = TraceGenerator::new(Workload::new(DatasetConfig::books(), 11), seed);
            let mut t = g.generate(30.0, 300.0);
            t.extend(g.generate(30.0, 300.0));
            (t.len(), digest(&t))
        },
        [(2351, 0x01f2_e626_dd09_5d63), (2371, 0xb729_5157_a552_f21b)],
    );
}

/// Session arrivals on their own (spillover past the horizon included),
/// then the trace that follows them on the advanced clock.
#[test]
fn session_arrivals_are_pinned() {
    pin(
        |seed| {
            let mut g = TraceGenerator::new(Workload::new(DatasetConfig::games(), 5), seed);
            let events = g.generate_session_arrivals(600.0, 0.5, SessionParams::default());
            let t = g.generate(10.0, 20.0);
            (events.len(), digest(&events) ^ digest(&t))
        },
        [(2945, 0x6ac7_c036_2964_8154), (3107, 0x3747_df97_97f7_7fb1)],
    );
}
