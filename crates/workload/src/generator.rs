//! Deterministic request streams from stream specs.
//!
//! A [`RequestStream`] draws one client's requests as it is read, so a
//! consumer that folds each request into a counter or a log bin (E5's
//! characterization, E7's and E17's server logs) never holds the trace.
//! [`generate_trace`] collects a stream for the callers that replay one.

use std::borrow::Borrow;

use spider_simkit::{SimDuration, SimRng, SimTime, TimeSeries};

use crate::spec::{IoRequest, StreamSpec};

/// The time-sorted requests of one stream over `[0, horizon)`, each drawn
/// when it is read.
///
/// The stream alternates busy periods (requests separated by
/// `spec.inter_arrival`) and idle gaps (`spec.idle`), the paper's observed
/// burst/idle structure. It draws from `rng` in one fixed order: the idle
/// offset of the first busy period when it is made, then per busy period its
/// length, per request the size, the read and random flags and the gap to
/// the next request, and after the period its idle gap, also when the
/// horizon cuts the period short. A stream read to its end has made the
/// same draws however it was read.
#[derive(Debug)]
pub struct RequestStream<'a> {
    spec: &'a StreamSpec,
    client: u32,
    end: SimTime,
    rng: SimRng,
    /// Issue time of the next request.
    t: SimTime,
    /// Requests left in the current busy period; 0 between periods.
    left: u64,
}

impl<'a> RequestStream<'a> {
    /// The stream of `client` issuing `spec`'s requests over `[0, horizon)`,
    /// drawn from `rng`.
    pub fn new(spec: &'a StreamSpec, client: u32, horizon: SimDuration, mut rng: SimRng) -> Self {
        let t = SimTime::ZERO + SimDuration::from_secs_f64(spec.idle.sample(&mut rng) * rng.f64());
        RequestStream {
            spec,
            client,
            end: SimTime::ZERO + horizon,
            rng,
            t,
            left: 0,
        }
    }
}

impl Iterator for RequestStream<'_> {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        let spec = self.spec;
        let rng = &mut self.rng;
        if self.left == 0 {
            if self.t >= self.end {
                return None;
            }
            self.left = spec.burst_len.sample(rng).round().max(1.0) as u64;
        }
        if self.t >= self.end {
            // The horizon cuts this busy period short; its idle gap is still
            // drawn, and the stream stays at or past the horizon.
            self.left = 0;
            self.t += SimDuration::from_secs_f64(spec.idle.sample(rng));
            return None;
        }
        let r = IoRequest {
            at: self.t,
            size: spec.sizes.sample_bytes(rng),
            is_read: rng.chance(spec.read_fraction),
            random: rng.chance(spec.random_fraction),
            client: self.client,
        };
        self.t += SimDuration::from_secs_f64(spec.inter_arrival.sample(rng));
        self.left -= 1;
        if self.left == 0 {
            self.t += SimDuration::from_secs_f64(spec.idle.sample(rng));
        }
        Some(r)
    }
}

/// The whole [`RequestStream`] of one stream over `[0, horizon)`, drawn from
/// `rng`, which ends where the stream's generator does.
pub fn generate_trace(
    spec: &StreamSpec,
    client: u32,
    horizon: SimDuration,
    rng: &mut SimRng,
) -> Vec<IoRequest> {
    let mut stream = RequestStream::new(spec, client, horizon, rng.clone());
    let trace = stream.by_ref().collect();
    *rng = stream.rng;
    trace
}

/// Merge several traces into one time-sorted trace.
pub fn merge_traces(mut traces: Vec<Vec<IoRequest>>) -> Vec<IoRequest> {
    let mut all: Vec<IoRequest> = traces.drain(..).flatten().collect();
    all.sort_by_key(|r| (r.at, r.client));
    all
}

/// Bin requests into a server-side throughput log (bytes per interval) — the
/// kind of log the DDN controller poller records and IOSI mines.
///
/// The requests may come in any order: each bin sums whole byte counts,
/// which are exact in any order while the sum stays below 2^53.
pub fn trace_to_series(
    trace: impl IntoIterator<Item = impl Borrow<IoRequest>>,
    interval: SimDuration,
) -> TimeSeries {
    let mut ts = TimeSeries::new(interval);
    for r in trace {
        let r = r.borrow();
        ts.add(r.at, r.size as f64);
    }
    ts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace loop that [`RequestStream`] replaced, kept verbatim as its
    /// oracle. Also returns how many busy periods the horizon cut short.
    fn reference_trace(
        spec: &StreamSpec,
        client: u32,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> (Vec<IoRequest>, usize) {
        let mut out = Vec::new();
        let mut cut = 0;
        let end = SimTime::ZERO + horizon;
        let mut t = SimTime::ZERO + SimDuration::from_secs_f64(spec.idle.sample(rng) * rng.f64());
        while t < end {
            // One busy period.
            let burst = spec.burst_len.sample(rng).round().max(1.0) as u64;
            for _ in 0..burst {
                if t >= end {
                    cut += 1;
                    break;
                }
                out.push(IoRequest {
                    at: t,
                    size: spec.sizes.sample_bytes(rng),
                    is_read: rng.chance(spec.read_fraction),
                    random: rng.chance(spec.random_fraction),
                    client,
                });
                t += SimDuration::from_secs_f64(spec.inter_arrival.sample(rng));
            }
            t += SimDuration::from_secs_f64(spec.idle.sample(rng));
        }
        (out, cut)
    }

    #[test]
    fn streams_draw_what_the_trace_loop_drew() {
        let specs = [
            StreamSpec::checkpoint_restart(),
            StreamSpec::analytics_read(),
            StreamSpec::interactive(),
            StreamSpec::data_transfer(),
        ];
        let horizons = [
            SimDuration::ZERO,
            SimDuration::from_secs(1),
            SimDuration::from_mins(10),
            SimDuration::from_hours(2),
        ];
        let mut cut_cases = 0;
        for spec in &specs {
            for horizon in horizons {
                for seed in [1, 2, 3] {
                    let mut want_rng = SimRng::seed_from_u64(seed);
                    let (want, cut) = reference_trace(spec, 7, horizon, &mut want_rng);
                    cut_cases += usize::from(cut > 0);
                    let next = want_rng.f64().to_bits();
                    let case = format!("{:?} over {horizon:?}, seed {seed}", spec.kind);

                    // Collected from the caller's generator.
                    let mut rng = SimRng::seed_from_u64(seed);
                    assert_eq!(generate_trace(spec, 7, horizon, &mut rng), want, "{case}");
                    assert_eq!(rng.f64().to_bits(), next, "{case}: next draw");

                    // Read one request at a time, then past its end.
                    let mut stream =
                        RequestStream::new(spec, 7, horizon, SimRng::seed_from_u64(seed));
                    assert!(stream.by_ref().eq(want.iter().copied()), "{case}");
                    assert_eq!(stream.next(), None, "{case}: a finished stream stays so");
                    assert_eq!(stream.rng.f64().to_bits(), next, "{case}: next draw");
                }
            }
        }
        assert!(cut_cases > 0, "no horizon cut a busy period short");
    }

    #[test]
    fn traces_are_time_sorted_and_bounded() {
        let mut rng = SimRng::seed_from_u64(1);
        let trace = generate_trace(
            &StreamSpec::analytics_read(),
            3,
            SimDuration::from_secs(600),
            &mut rng,
        );
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(trace.iter().all(|r| r.at < SimTime::from_secs(600)));
        assert!(trace.iter().all(|r| r.client == 3));
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            generate_trace(
                &StreamSpec::checkpoint_restart(),
                0,
                SimDuration::from_secs(120),
                &mut rng,
            )
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5).len(), 0);
    }

    #[test]
    fn checkpoint_stream_is_bursty() {
        let mut rng = SimRng::seed_from_u64(2);
        let trace = generate_trace(
            &StreamSpec::checkpoint_restart(),
            0,
            SimDuration::from_hours(4),
            &mut rng,
        );
        let series = trace_to_series(&trace, SimDuration::from_secs(10));
        // Bursty: the peak interval carries much more than the mean.
        assert!(series.peak() > 5.0 * series.mean(), "not bursty enough");
        // And there are real idle stretches.
        let idle_bins = series.bins().iter().filter(|&&b| b == 0.0).count();
        assert!(
            idle_bins > series.len() / 10,
            "{idle_bins}/{}",
            series.len()
        );
    }

    #[test]
    fn merge_orders_across_clients() {
        let mut rng = SimRng::seed_from_u64(3);
        let a = generate_trace(
            &StreamSpec::interactive(),
            0,
            SimDuration::from_secs(60),
            &mut rng,
        );
        let b = generate_trace(
            &StreamSpec::interactive(),
            1,
            SimDuration::from_secs(60),
            &mut rng,
        );
        let total = a.len() + b.len();
        let merged = merge_traces(vec![a, b]);
        assert_eq!(merged.len(), total);
        assert!(merged.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn series_conserves_bytes() {
        let mut rng = SimRng::seed_from_u64(4);
        let trace = generate_trace(
            &StreamSpec::data_transfer(),
            0,
            SimDuration::from_secs(300),
            &mut rng,
        );
        let total: u64 = trace.iter().map(|r| r.size).sum();
        let series = trace_to_series(&trace, SimDuration::from_secs(1));
        assert!((series.total() - total as f64).abs() < 1.0);
    }
}
