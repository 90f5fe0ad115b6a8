//! Checkpoint storm: what a data-centric file system actually experiences.
//!
//! An S3D-style simulation checkpoints periodically while an analytics
//! cluster reads interactively from the *same* OSTs — the §II mixed-workload
//! problem. The request-level simulation shows the read-latency inflation
//! (Lesson Learned 1), and libPIO-style placement shows how much of it is
//! avoidable (§VI-A).
//!
//! ```text
//! cargo run --release --example checkpoint_storm
//! ```

use spider::core::rpcsim::run_interference_sharded;
use spider::pfs::ost::{Ost, OstId};
use spider::prelude::*;
use spider::storage::disk::{Disk, DiskId, DiskSpec};
use spider::storage::raid::{RaidConfig, RaidGroup, RaidGroupId};
use spider::tools::libpio::{Libpio, PlacementRequest};
use spider::workload::generator::{generate_trace, merge_traces};
use spider::workload::spec::StreamSpec;

fn make_osts(n: u32) -> Vec<Ost> {
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

fn main() {
    let osts = make_osts(8);
    let horizon = SimDuration::from_secs(400);
    let window = SimDuration::from_secs(300);
    let mut rng = SimRng::seed_from_u64(7);

    // Analytics users: read-heavy, latency-sensitive.
    let analytics: Vec<_> = (0..8)
        .map(|c| {
            let mut child = rng.fork(c as u64);
            generate_trace(&StreamSpec::analytics_read(), c, window, &mut child)
        })
        .collect();
    let analytics = merge_traces(analytics);

    // Baseline: analytics alone.
    let alone = run_interference_sharded(&osts, &analytics, horizon).0;
    println!(
        "analytics alone:      mean read latency {:>8.1} ms, p99 {:>8.1} ms ({} reads)",
        alone.reads.latency.mean() * 1e3,
        alone.reads.latency_percentile(0.99) * 1e3,
        alone.reads.completed
    );

    // The storm: checkpoint writers join on the same OSTs.
    let checkpoints: Vec<_> = (0..8)
        .map(|c| {
            let mut child = rng.fork(1000 + c as u64);
            generate_trace(
                &StreamSpec::checkpoint_restart(),
                1000 + c,
                window,
                &mut child,
            )
        })
        .collect();
    let mixed = merge_traces(vec![analytics.clone(), merge_traces(checkpoints)]);
    let storm = run_interference_sharded(&osts, &mixed, horizon).0;
    println!(
        "with checkpoint storm: mean read latency {:>7.1} ms, p99 {:>8.1} ms ({} reads)",
        storm.reads.latency.mean() * 1e3,
        storm.reads.latency_percentile(0.99) * 1e3,
        storm.reads.completed
    );
    println!(
        "-> interference inflates mean read latency {:.1}x (Lesson Learned 1)",
        storm.reads.latency.mean() / alone.reads.latency.mean().max(1e-9)
    );

    // libPIO: keep the checkpoint off the analytics-hot OSTs. Analytics
    // clients 0..8 map to OSTs client%8; concentrate analytics on OSTs
    // 0..4 instead and let libPIO place the checkpoint on the rest.
    let mut lib = Libpio::new(8, 2, 1);
    for r in &analytics {
        lib.record_ost_io((r.client % 4) as usize, r.size as f64);
    }
    let (suggested, _) = lib.suggest(&PlacementRequest {
        n_osts: 4,
        router_options: vec![],
    });
    println!("libPIO steers the checkpoint to OSTs {suggested:?} (analytics load sits on 0..4)");
    assert!(suggested.iter().all(|&o| o >= 4));
}
