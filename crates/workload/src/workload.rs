//! Per-dataset workload synthesis.
//!
//! A [`Workload`] binds a [`DatasetConfig`] (Table 1 statistics) to a seed
//! and derives every per-entity attribute as a pure hash function:
//!
//! * **user token counts** — lognormal with the dataset's mean, σ chosen so
//!   that ≈36 % of users have profiles shorter than the ~1 000-token item
//!   block (Figure 2b, §4.3), clipped so the longest prompts approach the
//!   8 K maximum (§6.2);
//! * **item token counts** — uniform within ±40 % of the dataset mean;
//! * **user activity** and **item popularity** — [`ZipfLaw`]s with the
//!   dataset's exponents (Figures 2c/2d).
//!
//! User/item IDs coincide with popularity ranks (ID 0 = hottest), which
//! costs no generality and keeps placement math transparent.

use crate::hashing::{lognormal, round_to_u32, uniform01};
use crate::zipf::{RankSampler, ZipfLaw};
use bat_types::{DatasetConfig, ItemId, TokenCount, UserId};

/// Log-stddev of user profile token counts. Chosen so that
/// `P(tokens < avg_prompt_item_tokens) ≈ 0.36` for the Industry preset
/// (mean 1500 vs ~1000 item tokens), matching §4.3.
const USER_SIGMA: f64 = 0.6;

/// A deterministic workload over one dataset.
#[derive(Debug, Clone)]
pub struct Workload {
    ds: DatasetConfig,
    seed: u64,
    items: RankSampler,
    users: RankSampler,
    user_mu: f64,
    /// Optional burst-hotspot shift (§5.2 Step 3): from `at_secs` on, the
    /// popularity ranking rotates by `rank_offset`, so a previously cold
    /// band of items becomes the new hot head.
    hotspot_shift: Option<(f64, u64)>,
}

impl Workload {
    /// Smallest user profile we generate.
    pub const MIN_USER_TOKENS: TokenCount = 32;
    /// Instruction block length appended to every prompt.
    pub const INSTRUCTION_TOKENS: TokenCount = 32;

    /// Binds a dataset to a seed.
    pub fn new(ds: DatasetConfig, seed: u64) -> Self {
        let items = RankSampler::new(ZipfLaw::new(ds.num_items, ds.item_zipf_exponent));
        let users = RankSampler::new(ZipfLaw::new(ds.num_users, ds.user_zipf_exponent));
        let mean = ds.avg_user_tokens as f64;
        // mean of LogNormal(mu, sigma) = exp(mu + sigma²/2).
        let user_mu = mean.ln() - USER_SIGMA * USER_SIGMA / 2.0;
        Workload {
            ds,
            seed,
            items,
            users,
            user_mu,
            hotspot_shift: None,
        }
    }

    /// Enables a burst-hotspot shift at `at_secs`: popularity rank `r` maps
    /// to item `(r − 1 + rank_offset) mod num_items` afterwards, modeling
    /// §5.2's "burst hotspot that should be recommended to most users".
    pub fn with_hotspot_shift(mut self, at_secs: f64, rank_offset: u64) -> Self {
        self.hotspot_shift = Some((at_secs, rank_offset % self.ds.num_items.max(1)));
        self
    }

    /// The underlying dataset statistics.
    pub fn dataset(&self) -> &DatasetConfig {
        &self.ds
    }

    /// Popularity law over items (rank = item ID + 1).
    pub fn item_law(&self) -> ZipfLaw {
        self.items.law()
    }

    /// Upper clip for user profiles: the prompt must still fit the item
    /// block and instructions inside `max_prompt_tokens`.
    pub fn max_user_tokens(&self) -> TokenCount {
        self.ds
            .max_prompt_tokens
            .saturating_sub(self.ds.avg_prompt_item_tokens() + Self::INSTRUCTION_TOKENS)
            .max(Self::MIN_USER_TOKENS)
    }

    /// The user's profile length in tokens (deterministic per user).
    pub fn user_token_count(&self, user: UserId) -> TokenCount {
        let v = lognormal(self.seed, user.as_u64(), 1, self.user_mu, USER_SIGMA);
        round_to_u32(v).clamp(Self::MIN_USER_TOKENS, self.max_user_tokens())
    }

    /// The item's description length in tokens (deterministic per item):
    /// uniform in ±40 % of the dataset mean, at least 1.
    pub fn item_token_count(&self, item: ItemId) -> TokenCount {
        let u = uniform01(self.seed, item.as_u64(), 2);
        let avg = self.ds.avg_item_tokens as f64;
        round_to_u32(avg * (0.6 + 0.8 * u)).max(1)
    }

    /// Samples a requesting user from the activity law (`u ∈ (0,1)`
    /// uniform). User ID 0 is the most active.
    pub fn sample_user(&self, u: f64) -> UserId {
        UserId::new(self.users.sample(u) - 1)
    }

    /// Samples one item access at trace time `at_secs`, applying the
    /// hotspot shift if one is configured and active.
    pub fn sample_item_at(&self, u: f64, at_secs: f64) -> ItemId {
        let rank = self.items.sample(u) - 1;
        match self.hotspot_shift {
            Some((at, offset)) if at_secs >= at => ItemId::new((rank + offset) % self.ds.num_items),
            _ => ItemId::new(rank),
        }
    }

    /// Retrieves `c` *distinct* candidate items for one request at trace
    /// time `at_secs` (hotspot-shift aware), by repeated popularity sampling
    /// (real-time retrieval is popularity-biased; §3.3's point is precisely
    /// that candidate sets are dynamic and diverse), and their token counts.
    ///
    /// `draw` supplies uniforms, e.g. from a seeded RNG; `memo` is this
    /// workload's, carried from request to request.
    ///
    /// # Panics
    ///
    /// Panics if `c` exceeds the corpus size.
    pub(crate) fn retrieve_candidates_at(
        &self,
        c: usize,
        at_secs: f64,
        draw: &mut impl FnMut() -> f64,
        memo: &mut ItemMemo,
    ) -> (Vec<ItemId>, Vec<TokenCount>) {
        assert!(
            c as u64 <= self.ds.num_items,
            "cannot retrieve more candidates than items"
        );
        memo.begin(c);
        let (mut items, mut tokens) = (vec![ItemId::new(0); c], vec![0; c]);
        let mut n = 0;
        while n < c {
            let item = self.sample_item_at(draw(), at_secs);
            let (first, count) = memo.probe(item, || self.item_token_count(item));
            // Written at `n` either way; a repeat is overwritten by the next
            // draw. No branch on the repeat, whose outcome is a coin flip.
            items[n] = item;
            tokens[n] = count;
            n += usize::from(first);
        }
        (items, tokens)
    }
}

/// Item ids an [`ItemMemo`] holds a slot for: a corpus's hot head (≈ 88 %
/// of Books' draws), in 256 KiB. A larger table, or wider slots, read
/// slower on Books: the slots miss the cache more often than recomputing
/// their counts costs.
const MEMO_ITEMS: u64 = 1 << 16;

/// What a trace remembers of the items it has drawn, so that a candidate
/// draw costs one probe: for each item id below [`MEMO_ITEMS`], the last
/// request that drew it and the item's token count; for the ids above, the
/// ones the current request has drawn.
pub(crate) struct ItemMemo {
    /// `(request stamp, token count)` by item id, 0 for "never" in both
    /// (every count is at least 1; one above `u16::MAX` is not kept).
    items: Vec<(u16, u16)>,
    /// The current request's stamp.
    stamp: u16,
    /// `1 +` each id at or above [`MEMO_ITEMS`] that the current request
    /// has drawn, or 0: open-addressed over a power of two of slots, at
    /// least twice the request's candidates.
    spill: Vec<u64>,
    /// Whether `spill` holds an id.
    spilled: bool,
}

impl ItemMemo {
    /// An empty memo for a corpus of `num_items` items.
    pub(crate) fn new(num_items: u64) -> Self {
        ItemMemo {
            items: vec![(0, 0); num_items.min(MEMO_ITEMS) as usize],
            stamp: 0,
            spill: Vec::new(),
            spilled: false,
        }
    }

    /// Starts a request that retrieves `c` candidates.
    fn begin(&mut self, c: usize) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Every 2¹⁶ − 1 requests, forget who drew what; keep the counts.
            self.items.iter_mut().for_each(|(stamp, _)| *stamp = 0);
            self.stamp = 1;
        }
        let slots = (2 * c).next_power_of_two();
        if self.spill.len() < slots {
            self.spill = vec![0; slots];
        } else if self.spilled {
            self.spill.fill(0);
        }
        self.spilled = false;
    }

    /// Records a draw of `item`: whether it is the current request's first
    /// draw of it, and then its token count (from the memo, or `count`
    /// where the memo has none).
    #[inline]
    fn probe(&mut self, item: ItemId, count: impl FnOnce() -> TokenCount) -> (bool, TokenCount) {
        let id = item.as_u64();
        if id < self.items.len() as u64 {
            let (stamp, tokens) = &mut self.items[id as usize];
            let first = *stamp != self.stamp;
            *stamp = self.stamp;
            if *tokens == 0 {
                let count = count();
                *tokens = u16::try_from(count).unwrap_or(0);
                return (first, count);
            }
            return (first, TokenCount::from(*tokens));
        }
        self.spilled = true;
        let mask = self.spill.len() - 1;
        let key = id + 1;
        // Fibonacci hashing spreads runs of consecutive ids.
        let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        loop {
            match self.spill[slot] {
                0 => {
                    self.spill[slot] = key;
                    return (true, count());
                }
                held if held == key => return (false, 0),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

impl std::fmt::Debug for ItemMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ItemMemo")
            .field("slots", &self.items.len())
            .field("stamp", &self.stamp)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::uniform01;
    use proptest::prelude::*;

    fn industry() -> Workload {
        Workload::new(DatasetConfig::industry(), 42)
    }

    #[test]
    fn user_tokens_deterministic_and_bounded() {
        let w = industry();
        for id in 0..500 {
            let t = w.user_token_count(UserId::new(id));
            assert_eq!(t, w.user_token_count(UserId::new(id)));
            assert!(t >= Workload::MIN_USER_TOKENS);
            assert!(t <= w.max_user_tokens());
        }
    }

    #[test]
    fn user_token_mean_matches_table1() {
        let w = industry();
        let n = 20_000u64;
        let mean: f64 = (0..n)
            .map(|i| w.user_token_count(UserId::new(i * 97 + 11)) as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 1500.0).abs() < 120.0,
            "mean user tokens {mean}, expected ≈1500"
        );
    }

    #[test]
    fn fig2b_share_of_short_profiles() {
        // §4.3: ~36% of users have fewer profile tokens than the ~1000-token
        // item block.
        let w = industry();
        let n = 20_000u64;
        let short = (0..n)
            .filter(|&i| w.user_token_count(UserId::new(i)) < 1000)
            .count() as f64
            / n as f64;
        assert!(
            (0.28..0.44).contains(&short),
            "short-profile share {short}, expected ≈0.36"
        );
    }

    #[test]
    fn item_tokens_bounded_around_mean() {
        let w = industry();
        for id in 0..1000 {
            let t = w.item_token_count(ItemId::new(id));
            assert!((6..=14).contains(&t), "item tokens {t} outside ±40% of 10");
        }
    }

    #[test]
    fn retrieval_yields_distinct_candidates() {
        let w = industry();
        let mut i = 0u64;
        let memo = &mut ItemMemo::new(w.dataset().num_items);
        let (cands, _) = w.retrieve_candidates_at(
            100,
            0.0,
            &mut || {
                i += 1;
                uniform01(7, i, 3)
            },
            memo,
        );
        assert_eq!(cands.len(), 100);
        let set: std::collections::HashSet<_> = cands.iter().collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn retrieval_is_popularity_biased() {
        let w = industry();
        let mut i = 0u64;
        let mut hot = 0usize;
        let total = 2000;
        let head = w.item_law().ranks_for_mass(0.9);
        let memo = &mut ItemMemo::new(w.dataset().num_items);
        for _ in 0..20 {
            let (cands, _) = w.retrieve_candidates_at(
                total / 20,
                0.0,
                &mut || {
                    i += 1;
                    uniform01(8, i, 4)
                },
                memo,
            );
            hot += cands.iter().filter(|c| c.as_u64() < head).count();
        }
        let share = hot as f64 / total as f64;
        assert!(share > 0.75, "hot-item share {share} too low for Figure 2d");
    }

    #[test]
    #[should_panic(expected = "more candidates than items")]
    fn retrieval_rejects_oversized_requests() {
        let w = Workload::new(DatasetConfig::games(), 1);
        let memo = &mut ItemMemo::new(w.dataset().num_items);
        let _ = w.retrieve_candidates_at(9000, 0.0, &mut || 0.5, memo);
    }

    /// A memo whose stamp wraps retrieves what a fresh one does, though the
    /// stamps of a request 2¹⁶ requests back still mark some ids.
    #[test]
    fn memo_stamp_wraps_cleanly() {
        let w = Workload::new(DatasetConfig::games(), 3);
        let mut fresh = ItemMemo::new(w.dataset().num_items);
        let mut wrapping = ItemMemo::new(w.dataset().num_items);
        wrapping.stamp = u16::MAX - 2;
        for (stamp, _) in &mut wrapping.items[..50] {
            *stamp = 1;
        }
        for request in 0..6 {
            let uniforms = || {
                let mut i = 0;
                move || {
                    i += 1;
                    uniform01(request, i, 5)
                }
            };
            let a = w.retrieve_candidates_at(100, 0.0, &mut uniforms(), &mut fresh);
            let b = w.retrieve_candidates_at(100, 0.0, &mut uniforms(), &mut wrapping);
            assert_eq!(a, b, "request {request}");
        }
    }

    /// Retrieved token counts are the workload's, held in the memo or too
    /// large for it, for ids below the memo's reach and above it.
    #[test]
    fn retrieved_counts_are_the_workloads() {
        for avg_item_tokens in [2, 100_000] {
            let ds = DatasetConfig {
                avg_item_tokens,
                ..DatasetConfig::industry()
            };
            let w = Workload::new(ds, 9);
            let memo = &mut ItemMemo::new(w.dataset().num_items);
            let mut i = 0;
            for _ in 0..3 {
                let mut draw = || {
                    i += 1;
                    uniform01(4, i, 6)
                };
                let (items, tokens) = w.retrieve_candidates_at(100, 0.0, &mut draw, memo);
                for (&item, &count) in items.iter().zip(&tokens) {
                    assert_eq!(count, w.item_token_count(item), "{item:?}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Token counts are what libm's `round` made of the same draws.
        #[test]
        fn token_counts_round_as_libm_did(
            seed in 0u64..u64::MAX,
            id in 0u64..u64::MAX,
            avg_item in 1u32..5_000,
            avg_user in 1u32..20_000,
        ) {
            let ds = DatasetConfig {
                avg_item_tokens: avg_item,
                avg_user_tokens: avg_user,
                ..DatasetConfig::books()
            };
            let w = Workload::new(ds, seed);
            let u = uniform01(seed, id, 2);
            let item = ((f64::from(avg_item) * (0.6 + 0.8 * u)).round() as u32).max(1);
            prop_assert_eq!(w.item_token_count(ItemId::new(id)), item);
            let v = crate::hashing::lognormal(seed, id, 1, w.user_mu, USER_SIGMA);
            let user = (v.round() as u32).clamp(Workload::MIN_USER_TOKENS, w.max_user_tokens());
            prop_assert_eq!(w.user_token_count(UserId::new(id)), user);
        }
    }

    #[test]
    fn max_user_tokens_leaves_room_for_items() {
        let w = industry();
        let ds = w.dataset();
        assert!(
            w.max_user_tokens() + ds.avg_prompt_item_tokens() + Workload::INSTRUCTION_TOKENS
                <= ds.max_prompt_tokens
        );
    }
}
