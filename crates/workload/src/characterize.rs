//! Workload characterization — recovering the §II statistics from a trace.
//!
//! The paper's design inputs came from analyzing Spider I logs [14]: the
//! 60/40 write/read split, the small/large request-size bimodality, and the
//! Pareto-tailed inter-arrival and idle time distributions. This analyzer
//! recomputes those statistics from any request trace, so generated
//! workloads can be validated against the published characterization (E5).
//!
//! The analysis is a fold: a [`Tally`] takes requests one at a time, tallies
//! of disjoint client sets collect into one, and [`Tally::finish`] fits the
//! tails. So a trace never has to be held at once: E5 tallies each stream as
//! it is generated, drops it, and collects the per-stream tallies in client
//! order. [`characterize`] is the same fold over one request iterator.
//!
//! A tally costs each request a few counter updates: the size bin comes from
//! the size's bit length, not a float logarithm, and the gap samples are
//! moved, never copied, from the per-stream tallies into the Hill fits.

use spider_simkit::{hill_tail_index, Histogram, SimDuration};

use crate::spec::IoRequest;

/// The §II statistics of a trace.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Total requests.
    pub requests: usize,
    /// Fraction of write requests.
    pub write_fraction: f64,
    /// Fraction of requests <= 16 KB.
    pub small_fraction: f64,
    /// Fraction of requests that are whole multiples of 1 MiB.
    pub large_aligned_fraction: f64,
    /// Fraction covered by the two modes together (bimodality check).
    pub bimodal_coverage: f64,
    /// Hill tail-index estimate for inter-arrival times (finite, small
    /// values = heavy tail; Pareto-consistent when < ~3).
    pub inter_arrival_tail: f64,
    /// Hill tail-index estimate for idle periods (gaps > `idle_threshold`).
    pub idle_tail: Option<f64>,
    /// Request-size histogram (log2 bins from 512 B).
    pub size_histogram: Histogram,
}

/// Gaps longer than this split busy periods (idle-time extraction).
const IDLE_THRESHOLD: SimDuration = SimDuration::from_secs(5);

/// Lower edge of the first size bin, in bytes.
const SIZE_BIN_FIRST: u64 = 512;

/// Log2 size bins: bin `i` holds sizes in `[512 * 2^i, 512 * 2^(i+1))`, the
/// first also the sizes below 512 B and the last everything from 16 MiB up.
const SIZE_BINS: usize = 16;

/// The bin of `Histogram::log2(512.0, 16)` that records `size as f64`,
/// from the bit length of `size / 512`. For a size below 2^53, `size / 512`
/// is exact as a float and lies at least 2^-9 below the next power of two,
/// so the float logarithm floors to the same bin; above 16 MiB both clamp to
/// the last bin.
fn size_bin(size: u64) -> usize {
    (size / SIZE_BIN_FIRST)
        .checked_ilog2()
        .map_or(0, |b| (b as usize).min(SIZE_BINS - 1))
}

/// The running counts and gap samples behind a [`Characterization`].
///
/// Only each client's requests need be pushed in time order, so a merged
/// trace and its per-client streams tally alike. Per-client state is a
/// `Vec` indexed by client id, so ids are expected to be dense, as the
/// workload composers make them.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    requests: usize,
    writes: usize,
    small: usize,
    large: usize,
    size_bins: [u64; SIZE_BINS],
    // Per-client inter-arrival and idle samples (mixing clients would
    // conflate source behaviour with scheduling).
    inter: Vec<f64>,
    idle: Vec<f64>,
    last_by_client: Vec<Option<u64>>,
}

impl Tally {
    /// Count one request; its gap from the client's previous request joins
    /// the inter-arrival or idle samples.
    pub fn push(&mut self, r: &IoRequest) {
        self.requests += 1;
        self.writes += usize::from(!r.is_read);
        if r.size <= 16 * 1024 {
            self.small += 1;
        } else if r.size.is_multiple_of(1 << 20) {
            self.large += 1;
        }
        self.size_bins[size_bin(r.size)] += 1;

        let client = r.client as usize;
        if client >= self.last_by_client.len() {
            self.last_by_client.resize(client + 1, None);
        }
        let now = r.at.as_nanos();
        if let Some(prev) = self.last_by_client[client].replace(now) {
            let gap = (now - prev) as f64 / 1e9;
            if gap > IDLE_THRESHOLD.as_secs_f64() {
                self.idle.push(gap);
            } else if gap > 0.0 {
                self.inter.push(gap);
            }
        }
    }

    /// Combine `part`, a tally of clients this one has not seen: its gap
    /// samples go after this tally's, as if its requests were pushed after
    /// this tally's requests.
    pub fn absorb(&mut self, mut part: Tally) {
        self.requests += part.requests;
        self.writes += part.writes;
        self.small += part.small;
        self.large += part.large;
        for (mine, theirs) in self.size_bins.iter_mut().zip(part.size_bins) {
            *mine += theirs;
        }
        self.inter.append(&mut part.inter);
        self.idle.append(&mut part.idle);
        if self.last_by_client.len() < part.last_by_client.len() {
            self.last_by_client.resize(part.last_by_client.len(), None);
        }
        for (mine, theirs) in self.last_by_client.iter_mut().zip(part.last_by_client) {
            if theirs.is_some() {
                debug_assert!(mine.is_none(), "combined tallies share a client");
                *mine = theirs;
            }
        }
    }

    /// The statistics, with both Hill tails fitted over the gap samples,
    /// which move into the fits.
    pub fn finish(self) -> Characterization {
        assert!(self.requests >= 2, "need at least two requests");
        let n = self.requests as f64;
        let (writes, small, large) = (self.writes as f64, self.small as f64, self.large as f64);

        let inter_arrival_tail = if self.inter.len() > 100 {
            let k = self.inter.len() / 20;
            hill_tail_index(self.inter, k)
        } else {
            f64::INFINITY
        };
        let idle_tail = if self.idle.len() > 100 {
            let k = self.idle.len() / 10;
            Some(hill_tail_index(self.idle, k))
        } else {
            None
        };
        let mut size_histogram = Histogram::log2(SIZE_BIN_FIRST as f64, SIZE_BINS);
        for (i, &count) in self.size_bins.iter().enumerate() {
            let lo = size_histogram.bin_lo(i);
            size_histogram.record_n(lo, count);
        }

        Characterization {
            requests: self.requests,
            write_fraction: writes / n,
            small_fraction: small / n,
            large_aligned_fraction: large / n,
            bimodal_coverage: (small + large) / n,
            inter_arrival_tail,
            idle_tail,
            size_histogram,
        }
    }
}

/// A tally of every request, pushed in iteration order.
impl<'a> FromIterator<&'a IoRequest> for Tally {
    fn from_iter<I: IntoIterator<Item = &'a IoRequest>>(trace: I) -> Self {
        let mut tally = Tally::default();
        for r in trace {
            tally.push(r);
        }
        tally
    }
}

/// Tallies of disjoint client sets, combined in iteration order. Each
/// part's gap samples go after those of the parts before it, so per-client
/// tallies collected in client order hold exactly the samples of pushing
/// their requests in that order. The gap vectors are sized once from the
/// parts' lengths.
impl FromIterator<Tally> for Tally {
    fn from_iter<I: IntoIterator<Item = Tally>>(parts: I) -> Self {
        let parts: Vec<Tally> = parts.into_iter().collect();
        let clients = parts.iter().map(|t| t.last_by_client.len()).max();
        let mut all = Tally {
            inter: Vec::with_capacity(parts.iter().map(|t| t.inter.len()).sum()),
            idle: Vec::with_capacity(parts.iter().map(|t| t.idle.len()).sum()),
            last_by_client: vec![None; clients.unwrap_or(0)],
            ..Tally::default()
        };
        for part in parts {
            all.absorb(part);
        }
        all
    }
}

/// Analyze a trace in one pass: a [`Tally`] of every request, finished.
///
/// Only each client's requests need be in time order, so a merged trace and
/// the unmerged per-stream traces (`streams.iter().flatten()`) give the same
/// statistics bit for bit.
pub fn characterize<'a>(trace: impl IntoIterator<Item = &'a IoRequest>) -> Characterization {
    trace.into_iter().collect::<Tally>().finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::CenterWorkload;
    use spider_simkit::SimRng;

    fn production_trace() -> Vec<IoRequest> {
        let mut rng = SimRng::seed_from_u64(42);
        CenterWorkload::olcf_production().generate(SimDuration::from_mins(30), &mut rng)
    }

    #[test]
    fn recovers_write_fraction() {
        let c = characterize(&production_trace());
        assert!(
            (0.5..=0.7).contains(&c.write_fraction),
            "{}",
            c.write_fraction
        );
    }

    #[test]
    fn recovers_bimodality() {
        // §II: "a majority of I/O requests are either small (under 16 KB)
        // or large (multiples of 1 MB)".
        let c = characterize(&production_trace());
        assert!(
            c.bimodal_coverage > 0.85,
            "two modes cover {:.3} of requests",
            c.bimodal_coverage
        );
        assert!(c.small_fraction > 0.1);
        assert!(c.large_aligned_fraction > 0.3);
    }

    #[test]
    fn inter_arrival_is_heavy_tailed() {
        let c = characterize(&production_trace());
        assert!(
            c.inter_arrival_tail < 3.0,
            "Pareto-consistent tail expected, got alpha ~ {}",
            c.inter_arrival_tail
        );
        assert!(c.inter_arrival_tail > 0.5);
    }

    #[test]
    fn idle_times_are_heavy_tailed_when_present() {
        let c = characterize(&production_trace());
        if let Some(alpha) = c.idle_tail {
            assert!(alpha < 4.0, "idle tail alpha {alpha}");
        }
    }

    #[test]
    fn light_tailed_trace_is_distinguished() {
        // A Poisson stream (exponential gaps) must NOT look Pareto.
        let mut rng = SimRng::seed_from_u64(7);
        let mut t = 0.0f64;
        let trace: Vec<IoRequest> = (0..20_000)
            .map(|_| {
                t += rng.exp(0.01);
                IoRequest {
                    at: spider_simkit::SimTime::from_secs_f64(t),
                    size: 4096,
                    is_read: false,
                    random: false,
                    client: 0,
                }
            })
            .collect();
        let c = characterize(&trace);
        assert!(
            c.inter_arrival_tail > 3.0,
            "exponential gaps should fit a large alpha, got {}",
            c.inter_arrival_tail
        );
    }

    #[test]
    fn histogram_shows_two_modes() {
        let c = characterize(&production_trace());
        let h = &c.size_histogram;
        // Mass below 16 KiB (bins 0..=5 cover 512B..32KiB) and at the 1 MiB
        // bin (bin 11).
        let below: u64 = h.counts()[..=5].iter().sum();
        let at_1mib = h.counts()[11];
        assert!(below > 0 && at_1mib > 0);
        // The valley between modes (64..256 KiB, bins 7..=9) is sparse.
        let valley: u64 = h.counts()[7..=9].iter().sum();
        assert!(
            (valley as f64) < 0.25 * (below + at_1mib) as f64,
            "valley {valley} vs modes {}",
            below + at_1mib
        );
    }

    #[test]
    fn unmerged_streams_characterize_like_the_merged_trace() {
        let wl = CenterWorkload::olcf_production();
        let horizon = SimDuration::from_mins(30);
        let mut rng = SimRng::seed_from_u64(42);
        let streams = wl.generate_streams(horizon, &mut rng, 0..wl.total_streams(), |t| t);
        // Tally each stream as it is generated, then collect the tallies in
        // client order.
        let mut tally_rng = SimRng::seed_from_u64(42);
        let tallied = wl
            .generate_streams(horizon, &mut tally_rng, 0..wl.total_streams(), |t| {
                t.iter().collect::<Tally>()
            })
            .into_iter()
            .collect::<Tally>()
            .finish();
        // E5's path: streams generated and tallied seven at a time, each
        // chunk's tallies absorbed before the next.
        let mut chunked = Tally::default();
        for lo in (0..wl.total_streams()).step_by(7) {
            let chunk = lo..(lo + 7).min(wl.total_streams());
            let parts = wl.generate_streams(horizon, &mut SimRng::seed_from_u64(42), chunk, |t| {
                t.iter().collect::<Tally>()
            });
            for part in parts {
                chunked.absorb(part);
            }
        }
        let chunked = chunked.finish();
        let unmerged = characterize(streams.iter().flatten());
        let merged = characterize(&crate::generator::merge_traces(streams));
        let bits = |c: &Characterization| {
            [
                c.write_fraction,
                c.small_fraction,
                c.large_aligned_fraction,
                c.bimodal_coverage,
                c.inter_arrival_tail,
            ]
            .map(f64::to_bits)
        };
        assert!(merged.idle_tail.is_some(), "the idle tail is exercised");
        for c in [&unmerged, &tallied, &chunked] {
            assert_eq!(c.requests, merged.requests);
            assert_eq!(bits(c), bits(&merged));
            assert_eq!(
                c.idle_tail.map(f64::to_bits),
                merged.idle_tail.map(f64::to_bits)
            );
            assert_eq!(c.size_histogram.total(), merged.size_histogram.total());
            assert_eq!(c.size_histogram.counts(), merged.size_histogram.counts());
        }
    }

    #[test]
    fn integer_size_bins_match_the_float_histogram() {
        // Every size below 2^22, each bin edge 512 * 2^k and its neighbours
        // up to 2^63, and the largest size: after each, the tally's integer
        // bins equal the counts of the float histogram fed the same sizes.
        let mut h = Histogram::log2(512.0, 16);
        let mut tally = Tally::default();
        let mut check = |size: u64| {
            h.record(size as f64);
            tally.push(&IoRequest {
                at: spider_simkit::SimTime::ZERO,
                size,
                is_read: false,
                random: false,
                client: 0,
            });
            assert_eq!(&tally.size_bins[..], h.counts(), "size {size}");
        };
        for size in 0..1 << 22 {
            check(size);
        }
        for k in 0..=54 {
            let edge = 512u64 << k;
            check(edge - 1);
            check(edge);
            check(edge + 1);
        }
        check(u64::MAX);
        let c = tally.finish();
        assert_eq!(c.size_histogram.counts(), h.counts());
        assert_eq!(c.size_histogram.total(), h.total());
    }

    #[test]
    #[should_panic(expected = "two requests")]
    fn rejects_trivial_traces() {
        characterize(&[]);
    }
}
