//! The center-wide mixed workload.
//!
//! §II: "A shared scratch file system experiences these I/O workloads as a
//! mix, not as independent streams." The composer attaches workload sources
//! to compute resources (Titan, analysis cluster, visualization cluster,
//! DTNs) and produces the merged request stream whose statistics the
//! data-centric design must be sized for — including the published 60/40
//! write/read split.
//!
//! [`CenterWorkload::generate_streams`] hands each stream to its consumer as
//! a [`RequestStream`] that draws requests as they are read, so E5, E7 and
//! E17 fold the mix without holding it; [`CenterWorkload::generate`]
//! collects and merges the streams for the callers that replay a trace.

use std::ops::Range;

use rayon::prelude::*;
use spider_simkit::{SimDuration, SimRng};

use crate::generator::{merge_traces, RequestStream};
use crate::spec::{IoRequest, StreamSpec};

/// Which machine a source runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// The flagship simulation platform.
    Titan,
    /// A post-processing/analysis cluster.
    AnalysisCluster,
    /// The visualization cluster.
    VizCluster,
    /// Data-transfer nodes.
    Dtn,
}

/// One workload source: a machine running `streams` concurrent instances of
/// a stream spec.
#[derive(Debug, Clone)]
pub struct WorkloadSource {
    /// Host machine.
    pub kind: SourceKind,
    /// Concurrent streams (jobs/processes).
    pub streams: u32,
    /// Behaviour of each stream.
    pub spec: StreamSpec,
}

/// The composed center workload.
#[derive(Debug, Clone)]
pub struct CenterWorkload {
    /// The sources.
    pub sources: Vec<WorkloadSource>,
}

impl CenterWorkload {
    /// The OLCF production mix (§II): checkpoint-dominated Titan traffic
    /// plus read-heavy analytics/viz and DTN transfers, balanced so the
    /// merged request mix lands near the measured 60% write / 40% read.
    pub fn olcf_production() -> Self {
        CenterWorkload {
            sources: vec![
                WorkloadSource {
                    kind: SourceKind::Titan,
                    streams: 48,
                    spec: StreamSpec::checkpoint_restart(),
                },
                WorkloadSource {
                    kind: SourceKind::AnalysisCluster,
                    streams: 20,
                    spec: StreamSpec::analytics_read(),
                },
                WorkloadSource {
                    kind: SourceKind::VizCluster,
                    streams: 8,
                    spec: StreamSpec::analytics_read(),
                },
                WorkloadSource {
                    kind: SourceKind::Dtn,
                    streams: 4,
                    spec: StreamSpec::data_transfer(),
                },
            ],
        }
    }

    /// Total stream count.
    pub fn total_streams(&self) -> u32 {
        self.sources.iter().map(|s| s.streams).sum()
    }

    /// Generate the merged, time-sorted request trace over `horizon`.
    pub fn generate(&self, horizon: SimDuration, rng: &mut SimRng) -> Vec<IoRequest> {
        merge_traces(self.generate_streams(horizon, rng, 0..self.total_streams(), |s| s.collect()))
    }

    /// Hand `f` the [`RequestStream`] of each stream in `clients` over
    /// `horizon`, returning `f`'s results in client order. A stream draws its
    /// requests as `f` reads them: `|s| s.collect::<Vec<_>>()` keeps the
    /// trace, and a consumer that folds its stream (E5 tallies each one, E7
    /// bins each one) never holds a request.
    ///
    /// Every stream's generator is forked from `rng` in client order, drawn
    /// or not, so `rng` ends in the same state for any `clients` and each
    /// stream is exactly that client's requests in
    /// [`generate`](Self::generate). Each stream draws from its own copy of
    /// its fork.
    pub fn generate_streams<T: Send>(
        &self,
        horizon: SimDuration,
        rng: &mut SimRng,
        clients: Range<u32>,
        f: impl Fn(RequestStream<'_>) -> T + Sync,
    ) -> Vec<T> {
        assert!(
            clients.end <= self.total_streams(),
            "clients {clients:?} beyond the mix's {} streams",
            self.total_streams()
        );
        let mut jobs = Vec::new();
        let mut client = 0u32;
        for source in &self.sources {
            for _ in 0..source.streams {
                let child = rng.fork(u64::from(client));
                if clients.contains(&client) {
                    jobs.push((&source.spec, client, child));
                }
                client += 1;
            }
        }
        // spider-lint: allow(taint-path, reason = "every generator is forked from rng before the parallel section, each stream draws from its own copy of its fork and is consumed by f alone, and the ordered collect puts stream i's result at index i, so the output is the same at every thread budget")
        jobs.par_iter()
            .map(|(spec, client, child)| {
                f(RequestStream::new(spec, *client, horizon, child.clone()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_mix_write_fraction_near_60_percent() {
        // §II: "a mix of 60% write and 40% read I/O requests".
        let mut rng = SimRng::seed_from_u64(1);
        let trace =
            CenterWorkload::olcf_production().generate(SimDuration::from_mins(15), &mut rng);
        assert!(trace.len() > 10_000, "{}", trace.len());
        let writes = trace.iter().filter(|r| !r.is_read).count();
        let frac = writes as f64 / trace.len() as f64;
        assert!(
            (0.50..=0.70).contains(&frac),
            "write fraction {frac:.3} should sit near the paper's 60%"
        );
    }

    #[test]
    fn merged_trace_is_sorted_and_multi_client() {
        let mut rng = SimRng::seed_from_u64(2);
        let wl = CenterWorkload::olcf_production();
        let trace = wl.generate(SimDuration::from_mins(20), &mut rng);
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        let distinct: std::collections::HashSet<u32> = trace.iter().map(|r| r.client).collect();
        assert!(distinct.len() > wl.total_streams() as usize / 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let wl = CenterWorkload::olcf_production();
        let run = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            wl.generate(SimDuration::from_mins(10), &mut rng).len()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn selected_streams_equal_their_part_of_the_merged_trace() {
        let wl = CenterWorkload::olcf_production();
        let horizon = SimDuration::from_mins(10);
        let mut full_rng = SimRng::seed_from_u64(4);
        let merged = wl.generate(horizon, &mut full_rng);
        let mut part_rng = SimRng::seed_from_u64(4);
        let streams: Vec<Vec<IoRequest>> =
            wl.generate_streams(horizon, &mut part_rng, 48..76, |s| s.collect());
        assert_eq!(streams.len(), 28);
        for (stream, client) in streams.iter().zip(48u32..) {
            let expected: Vec<IoRequest> = merged
                .iter()
                .filter(|r| r.client == client)
                .copied()
                .collect();
            assert!(!expected.is_empty(), "client {client} is silent");
            assert_eq!(*stream, expected, "client {client}");
        }
        // Both calls forked all 80 seeds, so the generators agree after.
        for _ in 0..4 {
            assert_eq!(full_rng.f64().to_bits(), part_rng.f64().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "beyond the mix")]
    fn rejects_clients_past_the_last_stream() {
        let wl = CenterWorkload::olcf_production();
        let mut rng = SimRng::seed_from_u64(5);
        wl.generate_streams(SimDuration::from_mins(1), &mut rng, 70..81, |s| s.count());
    }

    #[test]
    fn interference_streams_overlap_in_time() {
        // The data-centric premise: different machines' bursts overlap.
        let mut rng = SimRng::seed_from_u64(3);
        let wl = CenterWorkload::olcf_production();
        let trace = wl.generate(SimDuration::from_mins(15), &mut rng);
        // Find an interval where both a write-heavy and a read-heavy client
        // are active within the same second.
        let mut mixed_seconds = 0;
        let mut cur_sec = u64::MAX;
        let (mut saw_r, mut saw_w) = (false, false);
        for r in &trace {
            let s = r.at.as_nanos() / 1_000_000_000;
            if s != cur_sec {
                if saw_r && saw_w {
                    mixed_seconds += 1;
                }
                cur_sec = s;
                saw_r = false;
                saw_w = false;
            }
            if r.is_read {
                saw_r = true;
            } else {
                saw_w = true;
            }
        }
        assert!(mixed_seconds > 100, "only {mixed_seconds} mixed seconds");
    }
}
