//! Workload characterization — recovering the §II statistics from a trace.
//!
//! The paper's design inputs came from analyzing Spider I logs [14]: the
//! 60/40 write/read split, the small/large request-size bimodality, and the
//! Pareto-tailed inter-arrival and idle time distributions. This analyzer
//! recomputes those statistics from any request trace, so generated
//! workloads can be validated against the published characterization (E5).
//!
//! The analysis is a fold: a [`Tally`] takes requests one at a time, tallies
//! of disjoint client sets merge, and [`Tally::finish`] fits the tails. So a
//! trace never has to be held at once: E5 tallies each stream as it is
//! generated, drops it, and merges the per-stream tallies in client order.
//! [`characterize`] is the same fold over one request iterator.

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

/// The running counts and gap samples behind a [`Characterization`].
///
/// Only each client's requests need be pushed in time order, so a merged
/// trace and its per-client streams tally alike. Per-client state is a
/// `Vec` indexed by client id, so ids are expected to be dense, as the
/// workload composers make them.
#[derive(Debug, Clone)]
pub struct Tally {
    requests: usize,
    writes: usize,
    small: usize,
    large: usize,
    size_histogram: Histogram,
    // Per-client inter-arrival and idle samples (mixing clients would
    // conflate source behaviour with scheduling).
    inter: Vec<f64>,
    idle: Vec<f64>,
    last_by_client: Vec<Option<u64>>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            requests: 0,
            writes: 0,
            small: 0,
            large: 0,
            size_histogram: Histogram::log2(512.0, 16),
            inter: Vec::new(),
            idle: Vec::new(),
            last_by_client: Vec::new(),
        }
    }
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
        self.size_histogram.record(r.size as f64);

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

    /// Fold in the tally of a disjoint set of clients. Its gap samples go
    /// after this tally's, so merging per-client tallies in client order
    /// gives exactly the samples of pushing their requests in that order.
    pub fn merge(&mut self, other: Tally) {
        self.requests += other.requests;
        self.writes += other.writes;
        self.small += other.small;
        self.large += other.large;
        self.size_histogram.merge(&other.size_histogram);
        self.inter.extend_from_slice(&other.inter);
        self.idle.extend_from_slice(&other.idle);
        if other.last_by_client.len() > self.last_by_client.len() {
            self.last_by_client.resize(other.last_by_client.len(), None);
        }
        for (mine, theirs) in self.last_by_client.iter_mut().zip(other.last_by_client) {
            if theirs.is_some() {
                debug_assert!(mine.is_none(), "merged tallies share a client");
                *mine = theirs;
            }
        }
    }

    /// The statistics, with both Hill tails fitted over the gap samples.
    pub fn finish(self) -> Characterization {
        assert!(self.requests >= 2, "need at least two requests");
        let n = self.requests as f64;
        let (writes, small, large) = (self.writes as f64, self.small as f64, self.large as f64);

        let inter_arrival_tail = if self.inter.len() > 100 {
            hill_tail_index(&self.inter, self.inter.len() / 20)
        } else {
            f64::INFINITY
        };
        let idle_tail = if self.idle.len() > 100 {
            Some(hill_tail_index(&self.idle, self.idle.len() / 10))
        } else {
            None
        };

        Characterization {
            requests: self.requests,
            write_fraction: writes / n,
            small_fraction: small / n,
            large_aligned_fraction: large / n,
            bimodal_coverage: (small + large) / n,
            inter_arrival_tail,
            idle_tail,
            size_histogram: self.size_histogram,
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
        // E5's path: tally each stream as it is generated, then merge the
        // tallies in client order.
        let mut tally_rng = SimRng::seed_from_u64(42);
        let tallies = wl.generate_streams(horizon, &mut tally_rng, 0..wl.total_streams(), |t| {
            t.iter().collect::<Tally>()
        });
        let mut tally = Tally::default();
        for t in tallies {
            tally.merge(t);
        }
        let tallied = tally.finish();
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
        for c in [&unmerged, &tallied] {
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
    #[should_panic(expected = "two requests")]
    fn rejects_trivial_traces() {
        characterize(&[]);
    }
}
