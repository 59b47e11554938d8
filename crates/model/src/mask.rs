//! The bipartite attention mask of one forward, as per-row key runs.

use crate::kv::KvSegment;
use crate::prompt::{allowed_tags as allowed, SegTag, TokenSeq};
use std::ops::Range;

/// The bipartite mask of one forward, run-length encoded: per suffix token,
/// the ascending virtual-column runs of `[prefix ++ suffix]` it may attend
/// and their exact total. The mask is block-structured (causal ∧ the
/// tag-pair rule of [`crate::prompt::allowed_tags`]), so the tags are cut
/// into maximal same-tag blocks once and each row tests blocks, not keys:
/// O(rows × blocks) to build and a handful of runs per row to store.
/// Masks depend only on tags and the scheme, never on the layer or head,
/// so each forward builds them exactly once — in place, keeping capacity,
/// so a warmed workspace rebuilds them without allocating.
#[derive(Default)]
pub(crate) struct MaskBuf {
    /// Maximal same-tag blocks of the combined tags (build scratch).
    blocks: Vec<(SegTag, Range<usize>)>,
    runs: Vec<Range<usize>>,
    /// `runs[off[t]..off[t + 1]]` are suffix token `t`'s runs.
    off: Vec<usize>,
    /// Allowed-key count per suffix token (the runs' total length).
    allowed: Vec<u64>,
}

impl MaskBuf {
    /// Encodes the mask rows of the suffix tokens `tags[p_len..]`.
    pub(crate) fn build(
        &mut self,
        scheme: crate::prompt::MaskScheme,
        tags: &[SegTag],
        p_len: usize,
    ) {
        self.blocks.clear();
        self.runs.clear();
        self.off.clear();
        self.allowed.clear();
        for (g, &tag) in tags.iter().enumerate() {
            match self.blocks.last_mut() {
                Some((last, r)) if *last == tag => r.end = g + 1,
                _ => self.blocks.push((tag, g..g + 1)),
            }
        }
        self.off.push(0);
        for (g_q, &tq) in tags.iter().enumerate().skip(p_len) {
            let first = self.runs.len();
            let mut count = 0;
            for (tag, block) in &self.blocks {
                if block.start > g_q {
                    break;
                }
                if !allowed(scheme, tq, *tag) {
                    continue;
                }
                let end = block.end.min(g_q + 1); // causal cut
                count += end - block.start;
                match self.runs[first..].last_mut() {
                    Some(run) if run.end == block.start => run.end = end,
                    _ => self.runs.push(block.start..end),
                }
            }
            self.off.push(self.runs.len());
            self.allowed.push(count as u64);
        }
    }

    /// The mask of `forward(suffix, prefix)`.
    pub(crate) fn of(suffix: &TokenSeq, prefix: Option<&KvSegment>) -> Self {
        let prefix_tags = prefix.map_or(&[][..], |p| &p.segs);
        let mut mask = MaskBuf::default();
        let tags = [prefix_tags, &suffix.segs].concat();
        mask.build(suffix.scheme, &tags, prefix_tags.len());
        mask
    }

    /// Allowed key runs of suffix token `t`: ascending, disjoint, and
    /// non-adjacent.
    #[inline]
    pub(crate) fn runs(&self, t: usize) -> &[Range<usize>] {
        &self.runs[self.off[t]..self.off[t + 1]]
    }

    /// Allowed-key count of every suffix token.
    #[inline]
    pub(crate) fn allowed(&self) -> &[u64] {
        &self.allowed
    }
}

/// The suffix rows a forward's read-out consumes, ascending: the last token
/// (the §4.2 discriminant) and every [`SegTag::Disc`] token. A pure function
/// of the tags, like the mask (no tags, no rows: a forward asked for K|V
/// only); the last layer finishes these rows alone — nothing reads the rest.
pub(crate) fn read_out_rows(segs: &[SegTag]) -> impl Iterator<Item = usize> + '_ {
    (0..segs.len()).filter(|&t| t + 1 == segs.len() || matches!(segs[t], SegTag::Disc(_)))
}

/// Ascending `rows` as maximal runs of consecutive rows.
pub(crate) fn runs(rows: &[usize]) -> impl Iterator<Item = Range<usize>> + '_ {
    let consecutive = rows.chunk_by(|a, b| a + 1 == *b);
    consecutive.map(|run| run[0]..run[run.len() - 1] + 1)
}
