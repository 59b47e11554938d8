//! Prompt layouts, attention masks and position-ID assignment (§4.2).
//!
//! A ranking prompt contains three block kinds: the user profile `U`, the
//! candidate items `I_1..I_N`, and the instruction `Instr`. Bipartite
//! Attention supports two *orderings* of these blocks ([`bat_types::PrefixKind`])
//! and two *schemes* ([`MaskScheme`]):
//!
//! * [`MaskScheme::NaiveCausal`] — plain causal attention with sequential
//!   position IDs, as a vanilla LLM would run. Under this scheme an item's KV
//!   depends on everything before it, so item entries cannot be shared.
//! * [`MaskScheme::Bipartite`] — the paper's co-design: cross-item attention
//!   is masked out (following HSTU), and every item block starts from the
//!   same position ID. Under this scheme an item's KV entry is a pure
//!   function of the item itself, which is what makes the item-prefix cache
//!   shareable across users.

use bat_types::PrefixKind;

/// Which prompt block a token belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegTag {
    /// User-profile block.
    User,
    /// Candidate item block, with the item's index in the candidate list.
    Item(u32),
    /// System-instruction block (includes the discriminant token in the
    /// single-discriminant layout).
    Instr,
    /// A per-item discriminant token (§4.2's "one discriminant token per
    /// item" extension): attends the shared context plus *its own* item
    /// only, so every candidate is scored by an independent read-out.
    Disc(u32),
}

/// The Bipartite Attention mask rule on block tags. Causal order is the
/// caller's responsibility (key index ≤ query index); this adds the
/// cross-item and cross-discriminant masking of §4.2.
#[inline]
pub fn allowed_tags(scheme: MaskScheme, q: SegTag, k: SegTag) -> bool {
    if scheme == MaskScheme::NaiveCausal {
        return true;
    }
    match (q, k) {
        // No cross-attention between items (following HSTU).
        (SegTag::Item(a), SegTag::Item(b)) => a == b,
        // A per-item discriminant reads only its own item...
        (SegTag::Disc(a), SegTag::Item(b)) => a == b,
        // ...and never another candidate's discriminant.
        (SegTag::Disc(a), SegTag::Disc(b)) => a == b,
        // Items never peek at discriminants (they trail the prompt, but the
        // rule holds even if a layout reordered them).
        (SegTag::Item(_), SegTag::Disc(_)) => false,
        _ => true,
    }
}

/// Attention-mask / position-ID scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaskScheme {
    /// Plain causal mask, sequential positions (vanilla LLM).
    NaiveCausal,
    /// Bipartite Attention: causal ∧ no cross-item attention; items share a
    /// common starting position (§4.2).
    Bipartite,
}

/// A fully-laid-out token sequence: token IDs, block tags and position IDs.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenSeq {
    /// Vocabulary token IDs.
    pub tokens: Vec<u32>,
    /// Block tag of each token.
    pub segs: Vec<SegTag>,
    /// RoPE position ID of each token.
    pub pos: Vec<u32>,
    /// Scheme the positions/mask were generated under.
    pub scheme: MaskScheme,
}

impl TokenSeq {
    /// Sequence length.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Whether key position `k` may be attended by query position `q`.
    ///
    /// The rule is causal order plus — under [`MaskScheme::Bipartite`] — the
    /// cross-item (and cross-discriminant) mask of [`allowed_tags`].
    #[inline]
    pub fn allowed(&self, q: usize, k: usize) -> bool {
        k <= q && allowed_tags(self.scheme, self.segs[q], self.segs[k])
    }

    /// Splits off the leading `n` tokens as a prefix sequence, returning
    /// `(prefix, suffix)`.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn split_at(&self, n: usize) -> (TokenSeq, TokenSeq) {
        assert!(n <= self.len(), "split index out of range");
        let head = TokenSeq {
            tokens: self.tokens[..n].to_vec(),
            segs: self.segs[..n].to_vec(),
            pos: self.pos[..n].to_vec(),
            scheme: self.scheme,
        };
        let tail = TokenSeq {
            tokens: self.tokens[n..].to_vec(),
            segs: self.segs[n..].to_vec(),
            pos: self.pos[n..].to_vec(),
            scheme: self.scheme,
        };
        (head, tail)
    }
}

/// Builder for ranking-prompt layouts.
///
/// ```
/// use bat_model::prompt::{PromptLayout, MaskScheme, SegTag};
/// use bat_types::PrefixKind;
///
/// let user = vec![10, 11, 12];
/// let items = vec![vec![0, 20], vec![1, 21]];
/// let instr = vec![30, 31];
/// let seq = PromptLayout::new(MaskScheme::Bipartite)
///     .build(PrefixKind::Item, &user, &items, &instr);
///
/// // IP ordering: items first, then user, then instructions.
/// assert_eq!(seq.segs[0], SegTag::Item(0));
/// // Both items start from position 0 under the bipartite scheme.
/// assert_eq!(seq.pos[0], 0);
/// assert_eq!(seq.pos[2], 0);
/// ```
#[derive(Debug, Clone)]
pub struct PromptLayout {
    scheme: MaskScheme,
}

impl PromptLayout {
    /// Creates a layout builder for the given scheme.
    pub fn new(scheme: MaskScheme) -> Self {
        PromptLayout { scheme }
    }

    /// Lays out a full ranking prompt.
    ///
    /// * `PrefixKind::User` → `[U, I_1..I_N, Instr]`
    /// * `PrefixKind::Item` → `[I_1..I_N, U, Instr]`
    ///
    /// Position IDs under [`MaskScheme::Bipartite`]: every item starts at a
    /// common *items base* (0 for IP, `|U|` for UP, §4.2); the block after
    /// the items starts at `items_base + max_item_len` so that no position is
    /// ever attended from an earlier position ID.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn build(
        &self,
        prefix: PrefixKind,
        user_tokens: &[u32],
        items: &[Vec<u32>],
        instr_tokens: &[u32],
    ) -> TokenSeq {
        assert!(!items.is_empty(), "a ranking prompt needs candidate items");
        let mut tokens = Vec::new();
        let mut segs = Vec::new();
        let mut pos = Vec::new();
        let max_item_len = items.iter().map(Vec::len).max().unwrap_or(0) as u32;

        let push_user =
            |tokens: &mut Vec<u32>, segs: &mut Vec<SegTag>, pos: &mut Vec<u32>, base: u32| {
                for (j, &t) in user_tokens.iter().enumerate() {
                    tokens.push(t);
                    segs.push(SegTag::User);
                    pos.push(base + j as u32);
                }
                base + user_tokens.len() as u32
            };
        let push_items = |tokens: &mut Vec<u32>,
                          segs: &mut Vec<SegTag>,
                          pos: &mut Vec<u32>,
                          base: u32,
                          scheme: MaskScheme,
                          seq_start: u32|
         -> u32 {
            let mut running = seq_start;
            for (i, item) in items.iter().enumerate() {
                for (j, &t) in item.iter().enumerate() {
                    tokens.push(t);
                    segs.push(SegTag::Item(i as u32));
                    pos.push(match scheme {
                        // Every item restarts from the common base (§4.2).
                        MaskScheme::Bipartite => base + j as u32,
                        // Vanilla: positions simply run on.
                        MaskScheme::NaiveCausal => running,
                    });
                    running += 1;
                }
            }
            match scheme {
                MaskScheme::Bipartite => base + max_item_len,
                MaskScheme::NaiveCausal => running,
            }
        };

        match prefix {
            PrefixKind::User => {
                let after_user = match self.scheme {
                    MaskScheme::Bipartite => push_user(&mut tokens, &mut segs, &mut pos, 0),
                    MaskScheme::NaiveCausal => push_user(&mut tokens, &mut segs, &mut pos, 0),
                };
                let after_items = push_items(
                    &mut tokens,
                    &mut segs,
                    &mut pos,
                    after_user,
                    self.scheme,
                    after_user,
                );
                for (j, &t) in instr_tokens.iter().enumerate() {
                    tokens.push(t);
                    segs.push(SegTag::Instr);
                    pos.push(after_items + j as u32);
                }
            }
            PrefixKind::Item => {
                let after_items = push_items(&mut tokens, &mut segs, &mut pos, 0, self.scheme, 0);
                let after_user = push_user(&mut tokens, &mut segs, &mut pos, after_items);
                for (j, &t) in instr_tokens.iter().enumerate() {
                    tokens.push(t);
                    segs.push(SegTag::Instr);
                    pos.push(after_user + j as u32);
                }
            }
        }

        TokenSeq {
            tokens,
            segs,
            pos,
            scheme: self.scheme,
        }
    }

    /// Lays out a *standalone* item block, as the offline item-KV
    /// pre-computation does (§5.2 Step 3): the item's tokens with tag
    /// `Item(item_index)` starting at position `base`.
    pub fn item_standalone(&self, item_index: u32, item_tokens: &[u32], base: u32) -> TokenSeq {
        TokenSeq {
            tokens: item_tokens.to_vec(),
            segs: vec![SegTag::Item(item_index); item_tokens.len()],
            pos: (0..item_tokens.len() as u32).map(|j| base + j).collect(),
            scheme: self.scheme,
        }
    }

    /// Lays out a ranking prompt with **one discriminant token per item**
    /// (§4.2's multi-token extension): the base prompt from [`Self::build`]
    /// followed by `disc_tokens[i]` tagged [`SegTag::Disc`]`(i)`. All
    /// discriminants share one starting position (they are a set, like the
    /// items); each attends the shared context plus its own item only, so
    /// candidate `i`'s score can be read from its own discriminant's
    /// hidden state.
    ///
    /// # Panics
    ///
    /// Panics if `disc_tokens.len() != items.len()` or `items` is empty.
    pub fn build_per_item_discriminants(
        &self,
        prefix: PrefixKind,
        user_tokens: &[u32],
        items: &[Vec<u32>],
        instr_tokens: &[u32],
        disc_tokens: &[u32],
    ) -> TokenSeq {
        assert_eq!(
            disc_tokens.len(),
            items.len(),
            "one discriminant token per item"
        );
        let mut seq = self.build(prefix, user_tokens, items, instr_tokens);
        let base = seq.pos.iter().copied().max().map_or(0, |p| p + 1);
        for (i, &t) in disc_tokens.iter().enumerate() {
            seq.tokens.push(t);
            seq.segs.push(SegTag::Disc(i as u32));
            seq.pos.push(match self.scheme {
                // Discriminants are a set: shared starting position.
                MaskScheme::Bipartite => base,
                MaskScheme::NaiveCausal => base + i as u32,
            });
        }
        seq
    }

    /// Lays out a standalone user block starting at position 0, as the
    /// user-prefix cache computation does.
    pub fn user_standalone(&self, user_tokens: &[u32]) -> TokenSeq {
        TokenSeq {
            tokens: user_tokens.to_vec(),
            segs: vec![SegTag::User; user_tokens.len()],
            pos: (0..user_tokens.len() as u32).collect(),
            scheme: self.scheme,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_parts() -> (Vec<u32>, Vec<Vec<u32>>, Vec<u32>) {
        (
            vec![100, 101, 102],
            vec![vec![0, 50], vec![1, 51, 52], vec![2]],
            vec![200, 201],
        )
    }

    #[test]
    fn up_ordering_is_user_items_instr() {
        let (u, i, s) = sample_parts();
        let seq = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::User, &u, &i, &s);
        assert_eq!(seq.segs[0], SegTag::User);
        assert_eq!(seq.segs[3], SegTag::Item(0));
        assert_eq!(*seq.segs.last().unwrap(), SegTag::Instr);
        assert_eq!(seq.len(), 3 + 6 + 2);
    }

    #[test]
    fn ip_ordering_is_items_user_instr() {
        let (u, i, s) = sample_parts();
        let seq = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::Item, &u, &i, &s);
        assert_eq!(seq.segs[0], SegTag::Item(0));
        assert_eq!(seq.segs[6], SegTag::User);
        assert_eq!(*seq.segs.last().unwrap(), SegTag::Instr);
    }

    #[test]
    fn bipartite_items_share_start_position() {
        let (u, i, s) = sample_parts();
        // UP: items start at |U| = 3.
        let up = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::User, &u, &i, &s);
        assert_eq!(up.pos[3], 3); // first token of item 0
        assert_eq!(up.pos[5], 3); // first token of item 1
        assert_eq!(up.pos[8], 3); // item 2
                                  // IP: items start at 0; user starts at max_item_len = 3.
        let ip = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::Item, &u, &i, &s);
        assert_eq!(ip.pos[0], 0);
        assert_eq!(ip.pos[2], 0);
        assert_eq!(ip.pos[5], 0);
        assert_eq!(ip.pos[6], 3); // user base = max item len
    }

    #[test]
    fn naive_positions_are_sequential() {
        let (u, i, s) = sample_parts();
        let seq = PromptLayout::new(MaskScheme::NaiveCausal).build(PrefixKind::Item, &u, &i, &s);
        let expect: Vec<u32> = (0..seq.len() as u32).collect();
        assert_eq!(seq.pos, expect);
    }

    #[test]
    fn bipartite_mask_blocks_cross_item() {
        let (u, i, s) = sample_parts();
        let seq = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::Item, &u, &i, &s);
        // Token 2 is in item 1, token 0 is in item 0: masked.
        assert!(!seq.allowed(2, 0));
        // Within item 1: allowed causally.
        assert!(seq.allowed(3, 2));
        // User token sees all items.
        assert!(seq.allowed(6, 0) && seq.allowed(6, 5));
        // Instruction token sees everything before it.
        let last = seq.len() - 1;
        assert!((0..last).all(|k| seq.allowed(last, k)));
    }

    #[test]
    fn naive_mask_is_pure_causal() {
        let (u, i, s) = sample_parts();
        let seq = PromptLayout::new(MaskScheme::NaiveCausal).build(PrefixKind::Item, &u, &i, &s);
        for q in 0..seq.len() {
            for k in 0..seq.len() {
                assert_eq!(seq.allowed(q, k), k <= q);
            }
        }
    }

    #[test]
    fn split_preserves_content() {
        let (u, i, s) = sample_parts();
        let seq = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::User, &u, &i, &s);
        let (head, tail) = seq.split_at(3);
        assert_eq!(head.len(), 3);
        assert_eq!(tail.len(), seq.len() - 3);
        assert_eq!(head.tokens, vec![100, 101, 102]);
        assert_eq!(tail.segs[0], SegTag::Item(0));
    }

    #[test]
    fn standalone_item_matches_in_prompt_positions() {
        let (u, i, s) = sample_parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let ip = layout.build(PrefixKind::Item, &u, &i, &s);
        let standalone = layout.item_standalone(1, &i[1], 0);
        // Item 1 occupies indices 2..5 of the IP prompt.
        assert_eq!(&ip.tokens[2..5], standalone.tokens.as_slice());
        assert_eq!(&ip.pos[2..5], standalone.pos.as_slice());
    }

    #[test]
    fn leading_block_len_counts_prefix() {
        let (u, i, s) = sample_parts();
        let ip = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::Item, &u, &i, &s);
        let leading = |seq: &TokenSeq, tag: fn(&SegTag) -> bool| {
            seq.segs.iter().take_while(|s| tag(s)).count()
        };
        assert_eq!(leading(&ip, |t| matches!(t, SegTag::Item(_))), 6);
        let up = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::User, &u, &i, &s);
        assert_eq!(leading(&up, |t| *t == SegTag::User), 3);
    }

    #[test]
    fn per_item_discriminants_layout_and_mask() {
        let (u, i, s) = sample_parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build_per_item_discriminants(PrefixKind::User, &u, &i, &s, &[90, 91, 92]);
        let base_len = 3 + 6 + 2;
        assert_eq!(seq.len(), base_len + 3);
        // Discriminants trail the prompt and share one starting position.
        assert_eq!(seq.segs[base_len], SegTag::Disc(0));
        assert_eq!(seq.segs[base_len + 2], SegTag::Disc(2));
        assert_eq!(seq.pos[base_len], seq.pos[base_len + 1]);
        assert_eq!(seq.pos[base_len], seq.pos[base_len + 2]);

        // Disc(1) attends user, instr and item 1 only.
        let d1 = base_len + 1;
        assert!(seq.allowed(d1, 0), "disc attends user");
        assert!(seq.allowed(d1, base_len - 1), "disc attends instr");
        let item1_first = 3 + i[0].len(); // first token of item 1
        assert!(seq.allowed(d1, item1_first), "disc attends own item");
        assert!(!seq.allowed(d1, 3), "disc must not attend item 0");
        assert!(!seq.allowed(d1, base_len), "disc must not attend disc 0");
    }

    #[test]
    #[should_panic(expected = "one discriminant token per item")]
    fn per_item_discriminants_arity_checked() {
        let (u, i, s) = sample_parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let _ = layout.build_per_item_discriminants(PrefixKind::User, &u, &i, &s, &[90]);
    }

    #[test]
    fn allowed_tags_rule_table() {
        use MaskScheme::*;
        // Naive: everything goes.
        assert!(allowed_tags(NaiveCausal, SegTag::Item(0), SegTag::Item(1)));
        // Bipartite: cross-item and cross-disc blocked, same-index allowed.
        assert!(!allowed_tags(Bipartite, SegTag::Item(0), SegTag::Item(1)));
        assert!(allowed_tags(Bipartite, SegTag::Item(2), SegTag::Item(2)));
        assert!(!allowed_tags(Bipartite, SegTag::Disc(0), SegTag::Item(1)));
        assert!(allowed_tags(Bipartite, SegTag::Disc(1), SegTag::Item(1)));
        assert!(!allowed_tags(Bipartite, SegTag::Disc(0), SegTag::Disc(1)));
        assert!(allowed_tags(Bipartite, SegTag::Disc(0), SegTag::User));
        assert!(allowed_tags(Bipartite, SegTag::Disc(0), SegTag::Instr));
        assert!(!allowed_tags(Bipartite, SegTag::Item(0), SegTag::Disc(0)));
        assert!(allowed_tags(Bipartite, SegTag::Instr, SegTag::User));
    }

    #[test]
    #[should_panic(expected = "needs candidate items")]
    fn empty_items_rejected() {
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let _ = layout.build(PrefixKind::User, &[1], &[], &[2]);
    }

    proptest! {
        /// Both orderings contain exactly the same multiset of tokens.
        #[test]
        fn orderings_are_permutations(
            user in proptest::collection::vec(0u32..100, 0..10),
            items in proptest::collection::vec(proptest::collection::vec(0u32..100, 1..4), 1..6),
            instr in proptest::collection::vec(0u32..100, 0..4),
        ) {
            let layout = PromptLayout::new(MaskScheme::Bipartite);
            let up = layout.build(PrefixKind::User, &user, &items, &instr);
            let ip = layout.build(PrefixKind::Item, &user, &items, &instr);
            let mut a = up.tokens.clone();
            let mut b = ip.tokens.clone();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
            prop_assert_eq!(up.len(), ip.len());
        }

        /// Under the bipartite scheme, no key's position ID exceeds the
        /// position ID of a query that attends it — RoPE relative distances
        /// stay non-negative.
        #[test]
        fn attended_positions_never_exceed_query(
            user in proptest::collection::vec(0u32..100, 1..8),
            items in proptest::collection::vec(proptest::collection::vec(0u32..100, 1..4), 1..5),
            instr in proptest::collection::vec(0u32..100, 1..3),
            item_prefix in proptest::bool::ANY,
        ) {
            let layout = PromptLayout::new(MaskScheme::Bipartite);
            let kind = if item_prefix { PrefixKind::Item } else { PrefixKind::User };
            let seq = layout.build(kind, &user, &items, &instr);
            for q in 0..seq.len() {
                for k in 0..seq.len() {
                    if seq.allowed(q, k) {
                        prop_assert!(seq.pos[k] <= seq.pos[q],
                            "q={} (pos {}) attends k={} (pos {})", q, seq.pos[q], k, seq.pos[k]);
                    }
                }
            }
        }
    }
}
