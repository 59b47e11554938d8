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

use crate::hashing::{lognormal, uniform01};
use crate::zipf::ZipfLaw;
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
    item_law: ZipfLaw,
    user_law: ZipfLaw,
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
        let item_law = ZipfLaw::new(ds.num_items, ds.item_zipf_exponent);
        let user_law = ZipfLaw::new(ds.num_users, ds.user_zipf_exponent);
        let mean = ds.avg_user_tokens as f64;
        // mean of LogNormal(mu, sigma) = exp(mu + sigma²/2).
        let user_mu = mean.ln() - USER_SIGMA * USER_SIGMA / 2.0;
        Workload {
            ds,
            seed,
            item_law,
            user_law,
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
        self.item_law
    }

    /// Activity law over users (rank = user ID + 1).
    pub fn user_law(&self) -> ZipfLaw {
        self.user_law
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
        (v.round() as u32).clamp(Self::MIN_USER_TOKENS, self.max_user_tokens())
    }

    /// The item's description length in tokens (deterministic per item):
    /// uniform in ±40 % of the dataset mean, at least 1.
    pub fn item_token_count(&self, item: ItemId) -> TokenCount {
        let u = uniform01(self.seed, item.as_u64(), 2);
        let avg = self.ds.avg_item_tokens as f64;
        ((avg * (0.6 + 0.8 * u)).round() as u32).max(1)
    }

    /// Samples a requesting user from the activity law (`u ∈ (0,1)`
    /// uniform). User ID 0 is the most active.
    pub fn sample_user(&self, u: f64) -> UserId {
        UserId::new(self.user_law.sample_rank(u) - 1)
    }

    /// Samples one item access at trace time `at_secs`, applying the
    /// hotspot shift if one is configured and active.
    pub fn sample_item_at(&self, u: f64, at_secs: f64) -> ItemId {
        let rank = self.item_law.sample_rank(u) - 1;
        match self.hotspot_shift {
            Some((at, offset)) if at_secs >= at => ItemId::new((rank + offset) % self.ds.num_items),
            _ => ItemId::new(rank),
        }
    }

    /// Retrieves `c` *distinct* candidate items for one request at trace
    /// time `at_secs` (hotspot-shift aware), by repeated popularity sampling
    /// (real-time retrieval is popularity-biased; §3.3's point is precisely
    /// that candidate sets are dynamic and diverse).
    ///
    /// `draw` supplies uniforms, e.g. from a seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `c` exceeds the corpus size.
    pub fn retrieve_candidates_at(
        &self,
        c: usize,
        at_secs: f64,
        draw: &mut impl FnMut() -> f64,
    ) -> Vec<ItemId> {
        assert!(
            c as u64 <= self.ds.num_items,
            "cannot retrieve more candidates than items"
        );
        let mut out = Vec::with_capacity(c);
        let mut seen = std::collections::HashSet::with_capacity(c * 2);
        while out.len() < c {
            let item = self.sample_item_at(draw(), at_secs);
            if seen.insert(item) {
                out.push(item);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::uniform01;

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
        let cands = w.retrieve_candidates_at(100, 0.0, &mut || {
            i += 1;
            uniform01(7, i, 3)
        });
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
        for _ in 0..20 {
            let cands = w.retrieve_candidates_at(total / 20, 0.0, &mut || {
                i += 1;
                uniform01(8, i, 4)
            });
            hot += cands.iter().filter(|c| c.as_u64() < head).count();
        }
        let share = hot as f64 / total as f64;
        assert!(share > 0.75, "hot-item share {share} too low for Figure 2d");
    }

    #[test]
    #[should_panic(expected = "more candidates than items")]
    fn retrieval_rejects_oversized_requests() {
        let w = Workload::new(DatasetConfig::games(), 1);
        let _ = w.retrieve_candidates_at(9000, 0.0, &mut || 0.5);
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
