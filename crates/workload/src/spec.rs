//! Workload stream specifications and request records.

use spider_simkit::{BoundedPareto, Dist, SimDuration, SimTime};

/// One I/O request as seen server-side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoRequest {
    /// Issue time.
    pub at: SimTime,
    /// Payload bytes.
    pub size: u64,
    /// Read (true) or write (false).
    pub is_read: bool,
    /// Random offset (true) or streaming (false).
    pub random: bool,
    /// Issuing client/stream index.
    pub client: u32,
}

/// The workload archetypes of the center (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Large-scale simulation checkpoint/restart: write-heavy, bursty,
    /// bandwidth-constrained; "tens or even hundreds of thousands of files
    /// and ... many terabytes of data in a single checkpoint".
    CheckpointRestart,
    /// Visualization/analysis: read-heavy, latency-constrained.
    AnalyticsRead,
    /// Interactive small-file activity (the §VII "don't build code on
    /// scratch" anti-pattern).
    Interactive,
    /// Bulk data transfers to/from the archive or remote sites.
    DataTransfer,
}

/// A stream of requests from one source.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Archetype (documentation; the distributions below govern behaviour).
    pub kind: WorkloadKind,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Fraction of requests at random offsets.
    pub random_fraction: f64,
    /// Request size distribution (bytes).
    pub sizes: Dist,
    /// Inter-arrival time distribution within a busy period (seconds).
    pub inter_arrival: Dist,
    /// Idle-gap distribution between busy periods (seconds).
    pub idle: Dist,
    /// Requests per busy period (mean, geometric-ish via exponential).
    pub burst_len: Dist,
}

impl StreamSpec {
    /// Checkpoint/restart from a leadership-scale simulation.
    pub fn checkpoint_restart() -> Self {
        StreamSpec {
            kind: WorkloadKind::CheckpointRestart,
            read_fraction: 0.05,
            random_fraction: 0.05,
            // Almost all N x 1 MiB; some small header writes.
            sizes: Dist::paper_request_sizes(0.15, 8),
            inter_arrival: Dist::Pareto(BoundedPareto::new(0.0005, 1.4, 2.0)),
            idle: Dist::Pareto(BoundedPareto::new(60.0, 1.2, 7_200.0)),
            burst_len: Dist::Exponential { mean: 4_000.0 },
        }
    }

    /// Read-heavy analytics/visualization.
    pub fn analytics_read() -> Self {
        StreamSpec {
            kind: WorkloadKind::AnalyticsRead,
            read_fraction: 0.92,
            random_fraction: 0.70,
            sizes: Dist::paper_request_sizes(0.60, 4),
            inter_arrival: Dist::Pareto(BoundedPareto::new(0.002, 1.3, 10.0)),
            idle: Dist::Pareto(BoundedPareto::new(5.0, 1.1, 1_800.0)),
            burst_len: Dist::Exponential { mean: 400.0 },
        }
    }

    /// Interactive small-file churn.
    pub fn interactive() -> Self {
        StreamSpec {
            kind: WorkloadKind::Interactive,
            read_fraction: 0.55,
            random_fraction: 0.90,
            sizes: Dist::Uniform {
                lo: 256.0,
                hi: 16.0 * 1024.0,
            },
            inter_arrival: Dist::Pareto(BoundedPareto::new(0.01, 1.5, 30.0)),
            idle: Dist::Pareto(BoundedPareto::new(1.0, 1.2, 600.0)),
            burst_len: Dist::Exponential { mean: 50.0 },
        }
    }

    /// Bulk sequential transfer (DTN traffic).
    pub fn data_transfer() -> Self {
        StreamSpec {
            kind: WorkloadKind::DataTransfer,
            read_fraction: 0.50,
            random_fraction: 0.0,
            sizes: Dist::Constant(4.0 * 1024.0 * 1024.0),
            inter_arrival: Dist::Exponential { mean: 0.004 },
            idle: Dist::Pareto(BoundedPareto::new(30.0, 1.3, 3_600.0)),
            burst_len: Dist::Exponential { mean: 10_000.0 },
        }
    }

    /// Mean request size in bytes.
    pub fn mean_size(&self) -> f64 {
        self.sizes.mean()
    }

    /// Mean inter-arrival within bursts.
    pub fn mean_inter_arrival(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.inter_arrival.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_paper_consistent_directions() {
        assert!(StreamSpec::checkpoint_restart().read_fraction < 0.1);
        assert!(StreamSpec::analytics_read().read_fraction > 0.9);
        assert!(StreamSpec::analytics_read().random_fraction > 0.5);
        assert!(StreamSpec::data_transfer().random_fraction == 0.0);
    }

    #[test]
    fn checkpoint_requests_are_large() {
        let s = StreamSpec::checkpoint_restart();
        assert!(s.mean_size() > 1024.0 * 1024.0, "{}", s.mean_size());
    }

    #[test]
    fn interactive_requests_are_small() {
        let s = StreamSpec::interactive();
        assert!(s.mean_size() < 16.0 * 1024.0);
    }

    #[test]
    fn inter_arrival_means_are_sane() {
        for s in [
            StreamSpec::checkpoint_restart(),
            StreamSpec::analytics_read(),
            StreamSpec::interactive(),
            StreamSpec::data_transfer(),
        ] {
            let m = s.mean_inter_arrival().as_secs_f64();
            assert!(m > 0.0 && m < 60.0, "{:?}: {m}", s.kind);
        }
    }
}
