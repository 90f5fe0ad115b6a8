//! Substrate micro-benchmarks: the DES engine, the max-min solver, the
//! namespace, and the stripe mapper — the components every experiment
//! stands on, plus the max-min-vs-proportional ablation from DESIGN.md.

use spider_bench::record::case;
use spider_net::maxmin::{FlowSpec, MaxMinProblem};
use spider_pfs::layout::StripeLayout;
use spider_pfs::namespace::{FileMeta, Namespace};
use spider_pfs::ost::OstId;
use spider_simkit::{Engine, SimDuration, SimRng, SimTime};

const BENCH: &str = "substrate";

fn main() {
    case(BENCH, "des_100k_events", || {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::ZERO, 0);
        let mut n = 0u64;
        eng.run_to_completion(|ctx, ev| {
            n += 1;
            if ev < 100_000 {
                ctx.schedule_in(SimDuration::from_micros(10), ev + 1);
            }
        });
        n
    });

    // Titan-scale problem: 18,688 flows over the full resource chain.
    let mut p = MaxMinProblem::new();
    let res: Vec<_> = (0..3_000)
        .map(|i| p.add_resource(100.0 + (i % 7) as f64))
        .collect();
    let flows: Vec<FlowSpec> = (0..18_688usize)
        .map(|i| {
            FlowSpec::new(vec![
                res[i % 440],
                res[440 + i % 36],
                res[500 + i % 288],
                res[800 + i % 36],
                res[900 + i % 2_016],
            ])
            .with_cap(5.0)
        })
        .collect();
    case(BENCH, "maxmin_18688_flows_5_resources", || p.solve(&flows));
    // Ablation: proportional share (single pass, no fairness iteration).
    case(BENCH, "proportional_18688_flows", || {
        let mut usage = vec![0.0f64; 3_000];
        for f in &flows {
            for r in &f.resources {
                usage[r.0] += 1.0;
            }
        }
        flows
            .iter()
            .map(|f| {
                f.resources
                    .iter()
                    .map(|r| p.capacity(*r) / usage[r.0])
                    .fold(f.cap.unwrap_or(f64::INFINITY), f64::min)
            })
            .collect::<Vec<f64>>()
    });

    case(BENCH, "create_100k_files", || {
        let mut ns = Namespace::new();
        let dir = ns.mkdir_p("/d").unwrap();
        for f in 0..100_000u32 {
            ns.create_file(
                dir,
                &format!("f{f}"),
                FileMeta {
                    size: 4096,
                    atime: SimTime::ZERO,
                    mtime: SimTime::ZERO,
                    ctime: SimTime::ZERO,
                    stripe: StripeLayout::new(vec![OstId(f % 64)]),
                    project: 0,
                },
            )
            .unwrap();
        }
        ns.file_count()
    });

    let layout = StripeLayout::new((0..8).map(OstId).collect());
    let mut rng = SimRng::seed_from_u64(1);
    let extents: Vec<(u64, u64)> = (0..1_000)
        .map(|_| (rng.range_u64(0, 1 << 34), rng.range_u64(1, 64 << 20)))
        .collect();
    case(BENCH, "bytes_per_ost_1k_extents", || {
        let mut acc = 0u64;
        for &(off, len) in &extents {
            acc += layout.bytes_per_ost(off, len)[0];
        }
        acc
    });
}
