//! `sharded_des`: the two sharded-PDES call sites. One op runs the rpcsim
//! interference replay (one shard per OST, a single epoch) and the
//! namespace-federation storm (one shard per namespace, thousands of epoch
//! barriers with real cross-shard traffic). The PDES barrier path and the
//! thread runtime do most of the work here and almost none in the flow
//! workloads.

use spider_core::experiments::e08_namespaces::{run_federation, NsStats};
use spider_core::rpcsim::{run_interference_sharded, ClassStats, InterferenceReport};
use spider_pfs::ost::{Ost, OstId};
use spider_simkit::{PdesStats, SimDuration, SimRng};
use spider_storage::disk::{Disk, DiskId, DiskSpec};
use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId};
use spider_workload::generator::{generate_trace, merge_traces};
use spider_workload::spec::{IoRequest, StreamSpec};

use crate::trace::Tracer;
use crate::{check_golden, hex_digest, Ctx, Workload};

/// Federated share of metadata ops.
const REMOTE_SHARE: f64 = 0.2;

/// The `sharded_des` workload.
pub struct ShardedDes {
    osts: Vec<Ost>,
    trace: Vec<IoRequest>,
    horizon: SimDuration,
    namespaces: usize,
    ops_per_ns: u32,
    seed: u64,
    golden: Option<String>,
}

/// What one op produces.
pub struct DesOutput {
    /// rpcsim interference report.
    pub interference: InterferenceReport,
    /// rpcsim engine statistics.
    pub interference_stats: PdesStats,
    /// Per-namespace federation tallies.
    pub federation: Vec<NsStats>,
    /// Federation engine statistics.
    pub federation_stats: PdesStats,
}

/// `n` fresh RAID6 8+2 OSTs of nominal nearline disks.
fn osts(n: u32) -> Vec<Ost> {
    let cfg = RaidConfig::raid6_8p2();
    (0..n)
        .map(|g| {
            let members = (0..cfg.width())
                .map(|i| Disk::nominal(DiskId(g * 10 + i as u32), DiskSpec::nearline_sas_2tb()))
                .collect();
            Ost::new(OstId(g), RaidGroup::new(RaidGroupId(g), cfg, members))
        })
        .collect()
}

/// The first `requests` requests of `streams` analytics readers plus
/// `streams` checkpoint writers, each stream forked from
/// `SimRng::stream(seed, 2)`. The streams' burst and idle times are
/// heavy-tailed, so how many requests a fixed window holds varies by a
/// fifth from seed to seed; cutting at a fixed count keeps the op's work the
/// same for every seed. Streams are generated over `window`, doubled until
/// it holds enough requests.
fn storm_trace(
    seed: u64,
    streams: u32,
    requests: usize,
    mut window: SimDuration,
) -> Vec<IoRequest> {
    loop {
        let mut rng = SimRng::stream(seed, 2);
        let mut traces: Vec<Vec<IoRequest>> = (0..streams)
            .map(|c| {
                let mut child = rng.fork(u64::from(c));
                generate_trace(&StreamSpec::analytics_read(), c, window, &mut child)
            })
            .collect();
        traces.extend((0..streams).map(|c| {
            let mut child = rng.fork(1_000 + u64::from(c));
            generate_trace(
                &StreamSpec::checkpoint_restart(),
                streams + c,
                window,
                &mut child,
            )
        }));
        let mut trace = merge_traces(traces);
        if trace.len() >= requests {
            trace.truncate(requests);
            return trace;
        }
        window = window * 2;
    }
}

fn class_bytes(c: &ClassStats, out: &mut Vec<u8>) {
    for v in [c.completed, c.bytes, c.truncated] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&c.latency.mean().to_bits().to_le_bytes());
}

impl Workload for ShardedDes {
    type Output = DesOutput;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let (n_osts, streams, requests, secs, namespaces, ops_per_ns) = if ctx.smoke {
            (8, 8, 10_000, 60, 4, 1_000)
        } else {
            (32, 64, 1_200_000, 600, 16, 40_000)
        };
        let horizon = SimDuration::from_secs(secs);
        let osts = tr.span("setup.build", |_| osts(n_osts));
        let trace = tr.span("setup.inputs", |_| {
            storm_trace(ctx.seed, streams, requests, horizon)
        });
        ShardedDes {
            osts,
            trace,
            horizon,
            namespaces,
            ops_per_ns,
            seed: ctx.seed,
            golden: ctx
                .checks_golden()
                .then(|| include_str!("../golden/sharded_des.txt").trim().to_owned()),
        }
    }

    fn op(&self, tr: &mut Tracer) -> DesOutput {
        let (interference, interference_stats) = tr
            .span("core.rpcsim.run_interference_sharded", |_| {
                run_interference_sharded(&self.osts, &self.trace, self.horizon)
            });
        let (federation, federation_stats) = tr.span("core.experiments.e08.run_federation", |_| {
            run_federation(self.namespaces, self.ops_per_ns, REMOTE_SHARE, self.seed)
        });
        DesOutput {
            interference,
            interference_stats,
            federation,
            federation_stats,
        }
    }

    /// Request conservation in the replay (every issued request completed
    /// or was truncated at the horizon, and the two truncation counts
    /// agree) and op conservation in the federation (every local op ran,
    /// every federated request sent was served).
    fn check(&self, out: &DesOutput) -> Result<(), String> {
        let r = &out.interference;
        let accounted = r.reads.completed + r.writes.completed + r.truncated;
        if accounted != self.trace.len() as u64 {
            return Err(format!(
                "rpcsim accounted for {accounted} of {} requests",
                self.trace.len()
            ));
        }
        if r.truncated != r.unfinished {
            return Err(format!(
                "rpcsim truncated {} but unfinished {}",
                r.truncated, r.unfinished
            ));
        }
        let local: u64 = out.federation.iter().map(|n| n.local_ops).sum();
        let want = self.namespaces as u64 * u64::from(self.ops_per_ns);
        if local != want {
            return Err(format!("federation ran {local} local ops, want {want}"));
        }
        let remote: u64 = out.federation.iter().map(|n| n.remote_ops).sum();
        let sent: u64 = out.federation.iter().map(|n| n.sent).sum();
        if remote != sent {
            return Err(format!(
                "federation served {remote} remote ops of {sent} sent"
            ));
        }
        check_golden(self.golden.as_deref(), &self.digest(out))
    }

    fn digest(&self, out: &DesOutput) -> String {
        let mut bytes = Vec::new();
        class_bytes(&out.interference.reads, &mut bytes);
        class_bytes(&out.interference.writes, &mut bytes);
        for ns in &out.federation {
            for v in [ns.local_ops, ns.remote_ops, ns.sent] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            bytes.extend_from_slice(&ns.latency.mean().to_bits().to_le_bytes());
        }
        for s in [&out.interference_stats, &out.federation_stats] {
            for v in [s.epochs, s.events, s.cross_messages] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        hex_digest(&bytes)
    }

    fn set_golden(&mut self, digest: Option<String>) {
        self.golden = digest;
    }

    fn shape(&self) -> String {
        format!(
            "{} OSTs, {} requests over {} s; federation {} namespaces x {} ops",
            self.osts.len(),
            self.trace.len(),
            self.horizon.as_secs_f64(),
            self.namespaces,
            self.ops_per_ns
        )
    }
}
