//! File striping across OSTs.
//!
//! Lustre splits a file into stripe-size chunks laid round-robin over
//! `stripe_count` OSTs. The paper's user best practices (§VII) are all layout
//! advice: stripe small files over a single OST (stat cost scales with
//! stripe count), use large stripe-aligned requests, stripe big checkpoint
//! files wide for bandwidth.
//!
//! A layout of up to [`INLINE_OSTS`] OSTs (Spider II's default stripe count
//! is 4) is stored inline, so a file's metadata owns no heap allocation;
//! wider layouts box their OST list. [`StripeLayout::split_extent`] splits
//! an extent into a buffer the caller owns, so an append or an unlink
//! allocates nothing either.

use crate::ost::OstId;

/// Most OSTs a [`StripeLayout`] stores inline; longer lists are boxed.
pub const INLINE_OSTS: usize = 4;

/// A file's layout: which OSTs hold it and how it is chunked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeLayout {
    /// Bytes per stripe chunk (Lustre default 1 MiB).
    pub stripe_size: u64,
    osts: OstList,
}

/// The OSTs of a layout, inline up to [`INLINE_OSTS`]. Construction is
/// canonical (inline exactly when the list fits, unused slots zero), so the
/// derived equality compares the lists.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OstList {
    Inline { len: u8, ids: [OstId; INLINE_OSTS] },
    Boxed(Box<[OstId]>),
}

impl StripeLayout {
    /// Layout over the given OSTs with the default 1 MiB stripe size.
    pub fn new(osts: Vec<OstId>) -> Self {
        if osts.len() <= INLINE_OSTS {
            Self::from_slice(&osts)
        } else {
            StripeLayout {
                stripe_size: 1 << 20,
                osts: OstList::Boxed(osts.into_boxed_slice()),
            }
        }
    }

    /// Layout over a copy of `osts` with the default 1 MiB stripe size;
    /// allocates nothing for up to [`INLINE_OSTS`] OSTs.
    pub fn from_slice(osts: &[OstId]) -> Self {
        assert!(!osts.is_empty(), "a layout needs at least one OST");
        let osts = if osts.len() <= INLINE_OSTS {
            let mut ids = [OstId(0); INLINE_OSTS];
            ids[..osts.len()].copy_from_slice(osts);
            OstList::Inline {
                len: osts.len() as u8,
                ids,
            }
        } else {
            OstList::Boxed(osts.into())
        };
        StripeLayout {
            stripe_size: 1 << 20,
            osts,
        }
    }

    /// Layout with an explicit stripe size.
    pub fn with_stripe_size(mut self, stripe_size: u64) -> Self {
        assert!(stripe_size > 0);
        self.stripe_size = stripe_size;
        self
    }

    /// The OSTs, in round-robin order.
    pub fn osts(&self) -> &[OstId] {
        match &self.osts {
            OstList::Inline { len, ids } => &ids[..*len as usize],
            OstList::Boxed(ids) => ids,
        }
    }

    /// Heap bytes the layout owns: 0 when its OSTs are inline.
    pub(crate) fn heap_bytes(&self) -> u64 {
        match &self.osts {
            OstList::Inline { .. } => 0,
            OstList::Boxed(ids) => std::mem::size_of_val::<[OstId]>(ids) as u64,
        }
    }

    /// Stripe count.
    pub fn stripe_count(&self) -> usize {
        self.osts().len()
    }

    /// The OST holding the byte at `offset`.
    pub fn ost_of_offset(&self, offset: u64) -> OstId {
        let osts = self.osts();
        let chunk = offset / self.stripe_size;
        osts[(chunk % osts.len() as u64) as usize]
    }

    /// How many bytes of a `[offset, offset+len)` extent land on each OST of
    /// the layout. Returned parallel to [`osts`](Self::osts); see
    /// [`split_extent`](Self::split_extent), which this allocates for.
    pub fn bytes_per_ost(&self, offset: u64, len: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.split_extent(offset, len, &mut out);
        out
    }

    /// Split a `[offset, offset+len)` extent over the layout's OSTs into
    /// `out`, which is cleared and left parallel to [`osts`](Self::osts).
    ///
    /// O(stripe count), not O(chunks): chunk `c` lives on OST `c % n`, so
    /// the whole chunks between the first and last touched chunk are
    /// `mid / n` full cycles plus `mid % n` leftover chunks. All integer
    /// arithmetic, so the split is exactly a chunk-by-chunk walk's.
    pub fn split_extent(&self, offset: u64, len: u64, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.stripe_count(), 0);
        let n = out.len() as u64;
        let s = self.stripe_size;
        if len == 0 {
            return;
        }
        let end = offset + len;
        let first_chunk = offset / s;
        let last_chunk = (end - 1) / s;
        let ost = |chunk: u64| (chunk % n) as usize;
        if first_chunk == last_chunk {
            out[ost(first_chunk)] = len;
            return;
        }
        // The partial (or whole) first and last chunks.
        out[ost(first_chunk)] += (first_chunk + 1) * s - offset;
        out[ost(last_chunk)] += end - last_chunk * s;
        // The whole chunks between them: `q` cycles over every OST, then
        // `r` more starting at the OST after the first chunk's.
        let mid = last_chunk - first_chunk - 1;
        let (q, r) = (mid / n, mid % n);
        for b in out.iter_mut() {
            *b += q * s;
        }
        for k in 0..r {
            out[ost(first_chunk + 1 + k)] += s;
        }
        debug_assert_eq!(out.iter().sum::<u64>(), len, "stripe split loses bytes");
    }

    /// Number of distinct OSTs a `stat` of this file must glimpse (every
    /// OST holding data) — the §VII stat-cost mechanism.
    pub fn stat_fanout(&self, file_size: u64) -> usize {
        if file_size == 0 {
            return 1; // size-0 files still glimpse their first object
        }
        let chunks = file_size.div_ceil(self.stripe_size);
        (chunks as usize).min(self.stripe_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(n: u32) -> StripeLayout {
        StripeLayout::new((0..n).map(OstId).collect())
    }

    #[test]
    fn round_robin_mapping() {
        let l = layout(4);
        assert_eq!(l.ost_of_offset(0), OstId(0));
        assert_eq!(l.ost_of_offset((1 << 20) - 1), OstId(0));
        assert_eq!(l.ost_of_offset(1 << 20), OstId(1));
        assert_eq!(l.ost_of_offset(4 << 20), OstId(0), "wraps around");
    }

    #[test]
    fn bytes_per_ost_even_for_aligned_extent() {
        let l = layout(4);
        let per = l.bytes_per_ost(0, 8 << 20);
        assert_eq!(per, vec![2 << 20; 4]);
        assert_eq!(per.iter().sum::<u64>(), 8 << 20);
    }

    #[test]
    fn bytes_per_ost_handles_unaligned_extents() {
        let l = layout(2);
        // 1.5 MiB starting at 0.5 MiB: chunk0 gets [0.5,1.0) = 0.5 MiB on
        // OST0; chunk1 = [1.0,2.0) = 1 MiB on OST1.
        let per = l.bytes_per_ost(512 << 10, 3 << 19);
        assert_eq!(per[0], 512 << 10);
        assert_eq!(per[1], 1 << 20);
        assert_eq!(per.iter().sum::<u64>(), 3 << 19);
    }

    #[test]
    fn bytes_per_ost_extent_ending_on_a_chunk_boundary() {
        let l = layout(3);
        // [0.5, 5.0) MiB: chunk0 0.5 MiB on OST0, chunks 1..=4 whole, the
        // last (chunk4) ends exactly on its boundary on OST1.
        let per = l.bytes_per_ost(512 << 10, (5 << 20) - (512 << 10));
        assert_eq!(per, vec![(512 << 10) + (1 << 20), 2 << 20, 1 << 20]);
    }

    #[test]
    fn bytes_per_ost_one_chunk_extent() {
        let l = layout(4);
        // Exactly chunk 6, which wraps to OST2.
        assert_eq!(l.bytes_per_ost(6 << 20, 1 << 20), vec![0, 0, 1 << 20, 0]);
        // A sliver inside chunk 5 (OST1).
        assert_eq!(l.bytes_per_ost((5 << 20) + 7, 100), vec![0, 100, 0, 0]);
    }

    #[test]
    fn bytes_per_ost_exactly_n_chunks_from_an_unaligned_offset() {
        let l = layout(4);
        // Four chunks' worth from 0.25 MiB into chunk 2: the first and last
        // partial chunks share OST2, every other OST gets one whole chunk.
        let per = l.bytes_per_ost((2 << 20) + (256 << 10), 4 << 20);
        assert_eq!(per, vec![1 << 20, 1 << 20, 1 << 20, 1 << 20]);
        // Aligned: one whole chunk on each OST.
        assert_eq!(l.bytes_per_ost(3 << 20, 4 << 20), vec![1 << 20; 4]);
    }

    #[test]
    fn zero_length_extent_is_empty() {
        let l = layout(3);
        assert_eq!(l.bytes_per_ost(42, 0), vec![0, 0, 0]);
    }

    #[test]
    fn custom_stripe_size() {
        let l = layout(2).with_stripe_size(4096);
        assert_eq!(l.ost_of_offset(4095), OstId(0));
        assert_eq!(l.ost_of_offset(4096), OstId(1));
    }

    #[test]
    fn stat_fanout_scales_with_stripes_used() {
        let l = layout(8);
        assert_eq!(l.stat_fanout(0), 1);
        assert_eq!(l.stat_fanout(100), 1, "small file touches one OST");
        assert_eq!(l.stat_fanout(3 << 20), 3);
        assert_eq!(l.stat_fanout(100 << 20), 8, "capped at stripe count");
        // Single-stripe layout: stat touches exactly one OST regardless of
        // size — the §VII best practice for small files.
        assert_eq!(layout(1).stat_fanout(100 << 20), 1);
    }

    #[test]
    #[should_panic(expected = "at least one OST")]
    fn empty_layout_rejected() {
        let _ = StripeLayout::new(vec![]);
    }

    #[test]
    fn up_to_four_osts_are_inline() {
        for n in 1..=8u32 {
            let ids: Vec<OstId> = (0..n).map(|i| OstId(7 * i)).collect();
            let l = StripeLayout::new(ids.clone());
            assert_eq!(l.osts(), &ids[..]);
            assert_eq!(l, StripeLayout::from_slice(&ids));
            let boxed = if n as usize > INLINE_OSTS {
                4 * n as u64
            } else {
                0
            };
            assert_eq!(l.heap_bytes(), boxed, "{n} OSTs");
        }
        assert_ne!(layout(2), layout(3));
        assert_ne!(layout(2), layout(2).with_stripe_size(4096));
    }

    #[test]
    fn split_extent_reuses_the_callers_buffer() {
        let mut buf = vec![9; 10];
        layout(3).split_extent(0, 3 << 20, &mut buf);
        assert_eq!(buf, vec![1 << 20; 3]);
        layout(6).split_extent(1 << 20, 100, &mut buf);
        assert_eq!(buf, vec![0, 100, 0, 0, 0, 0]);
        layout(2).split_extent(0, 0, &mut buf);
        assert_eq!(buf, vec![0, 0]);
    }
}
