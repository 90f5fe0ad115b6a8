//! The S3D application I/O model (§VI-A).
//!
//! S3D is "a large-scale parallel direct numerical solver (DNS) that
//! performs the direct numerical simulation of turbulent combustion ...
//! I/O intensive and periodically outputs the state of the simulation to
//! the scratch file system" in file-per-process POSIX mode. OLCF integrated
//! libPIO with S3D in ~30 lines and measured up to 24% more POSIX I/O
//! bandwidth in production. This model generates that checkpoint pattern;
//! E7 and E17 run it as the periodic application whose signature IOSI
//! recovers.
//!
//! The trace comes in generation order, not time order (see
//! [`S3dConfig::trace`]): E7 and E17 only bin it into per-interval byte
//! sums, so sorting its millions of requests would buy nothing.

use spider_simkit::{SimDuration, SimRng, SimTime};

use crate::spec::IoRequest;

/// An S3D-like run configuration.
#[derive(Debug, Clone)]
pub struct S3dConfig {
    /// MPI ranks performing I/O.
    pub ranks: u32,
    /// Bytes of state each rank writes per output step.
    pub bytes_per_rank: u64,
    /// Simulation time between output steps.
    pub output_period: SimDuration,
    /// Total run length.
    pub runtime: SimDuration,
    /// POSIX write size per call.
    pub write_size: u64,
}

impl S3dConfig {
    /// A mid-size production S3D run: 96k ranks writing 25 MiB each every
    /// 30 minutes. (Scaled presets for tests should reduce `ranks`.)
    pub fn production() -> Self {
        S3dConfig {
            ranks: 96_000,
            bytes_per_rank: 25 << 20,
            output_period: SimDuration::from_mins(30),
            runtime: SimDuration::from_hours(12),
            write_size: 1 << 20,
        }
    }

    /// A laptop-scale variant with identical structure.
    pub fn small(ranks: u32) -> Self {
        S3dConfig {
            ranks,
            bytes_per_rank: 8 << 20,
            output_period: SimDuration::from_mins(10),
            runtime: SimDuration::from_hours(1),
            write_size: 1 << 20,
        }
    }

    /// Bytes moved by one full output step.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.ranks as u64 * self.bytes_per_rank
    }

    /// Times at which output steps begin.
    pub fn checkpoint_times(&self) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO + self.output_period;
        let end = SimTime::ZERO + self.runtime;
        while t <= end {
            out.push(t);
            t += self.output_period;
        }
        out
    }

    /// Generate the request trace: at each output step every rank emits its
    /// `bytes_per_rank` as `write_size` POSIX writes, with per-rank jitter
    /// (ranks do not start in lockstep).
    ///
    /// The trace is ordered by output step, then rank, with each rank's
    /// writes in time order; it is not sorted by time across ranks. Binning
    /// it ([`trace_to_series`](crate::generator::trace_to_series)) sums
    /// whole byte counts far below 2^53, which are exact in any order.
    pub fn trace(&self, rng: &mut SimRng) -> Vec<IoRequest> {
        let mut out = Vec::new();
        for ckpt in self.checkpoint_times() {
            for rank in 0..self.ranks {
                let jitter = SimDuration::from_secs_f64(rng.f64() * 2.0);
                let mut t = ckpt + jitter;
                let mut remaining = self.bytes_per_rank;
                while remaining > 0 {
                    let size = remaining.min(self.write_size);
                    out.push(IoRequest {
                        at: t,
                        size,
                        is_read: false,
                        random: false,
                        client: rank,
                    });
                    remaining -= size;
                    // Back-to-back writes; spacing emerges from service.
                    t += SimDuration::from_micros(10);
                }
            }
        }
        out
    }

    /// Fraction of wall-clock the application spends doing I/O if each
    /// checkpoint drains at `agg_rate` bytes/s — the figure of merit libPIO
    /// improves.
    pub fn io_fraction(&self, agg_rate: f64) -> f64 {
        let per_ckpt_secs = self.checkpoint_bytes() as f64 / agg_rate;
        (per_ckpt_secs / self.output_period.as_secs_f64()).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::trace_to_series;

    #[test]
    fn checkpoint_schedule() {
        let cfg = S3dConfig::small(16);
        let times = cfg.checkpoint_times();
        assert_eq!(times.len(), 6, "6 outputs in an hour at 10 min periods");
        assert_eq!(times[0], SimTime::ZERO + SimDuration::from_mins(10));
    }

    #[test]
    fn production_checkpoint_is_terabytes() {
        let cfg = S3dConfig::production();
        // 96k ranks x 25 MiB = ~2.4 TiB per step — "many terabytes of data
        // in a single checkpoint" at the high end.
        assert!(cfg.checkpoint_bytes() > 2 * (1 << 40));
    }

    #[test]
    fn trace_is_fpp_writes_of_write_size() {
        let cfg = S3dConfig::small(8);
        let mut rng = SimRng::seed_from_u64(1);
        let trace = cfg.trace(&mut rng);
        let expected = cfg.checkpoint_times().len() as u64
            * cfg.ranks as u64
            * cfg.bytes_per_rank.div_ceil(cfg.write_size);
        assert_eq!(trace.len() as u64, expected);
        assert!(trace.iter().all(|r| !r.is_read && r.size <= cfg.write_size));
        let total: u64 = trace.iter().map(|r| r.size).sum();
        assert_eq!(
            total,
            cfg.checkpoint_bytes() * cfg.checkpoint_times().len() as u64
        );
    }

    #[test]
    fn trace_orders_each_ranks_writes_and_bins_like_a_sorted_trace() {
        let cfg = S3dConfig::small(32);
        let mut rng = SimRng::seed_from_u64(7);
        let trace = cfg.trace(&mut rng);
        let per_step = trace.len() / cfg.checkpoint_times().len();
        for (step, ckpt) in trace.chunks(per_step).zip(cfg.checkpoint_times()) {
            // Every rank, rank by rank, each rank's writes in time order.
            assert_eq!(step[0].client, 0);
            assert_eq!(step[per_step - 1].client, cfg.ranks - 1);
            assert!(step.iter().all(|r| r.at >= ckpt));
            assert!(step
                .windows(2)
                .all(|w| (w[0].client, w[0].at) < (w[1].client, w[1].at)));
        }
        // Ranks start with independent jitter, so the trace is not
        // time-sorted; binning it must not care.
        assert!(trace.windows(2).any(|w| w[0].at > w[1].at));
        let mut sorted = trace.clone();
        sorted.sort_by_key(|r| (r.at, r.client));
        let interval = SimDuration::from_secs(10);
        let bits = |t: &[IoRequest]| -> Vec<u64> {
            trace_to_series(t, interval)
                .bins()
                .iter()
                .map(|b| b.to_bits())
                .collect()
        };
        assert_eq!(bits(&trace), bits(&sorted));
    }

    #[test]
    fn io_fraction_improves_with_bandwidth() {
        let cfg = S3dConfig::small(64);
        let slow = cfg.io_fraction(1e9);
        let fast = cfg.io_fraction(1.24e9); // +24%, the libPIO S3D result
        assert!(fast < slow);
        let speedup = slow / fast;
        assert!((speedup - 1.24).abs() < 0.01);
    }

    #[test]
    fn io_fraction_saturates_at_one() {
        let cfg = S3dConfig::small(64);
        assert_eq!(
            cfg.io_fraction(1.0),
            1.0,
            "slower than the period -> always doing I/O"
        );
    }
}
