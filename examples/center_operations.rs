//! A day in the life of the storage operations team.
//!
//! Walks the operational toolkit end to end: diskless provisioning (LL7),
//! health monitoring and event coalescing (LL8), a controller-pair fault
//! with failover, the slow-disk culling campaign (LL13), LustreDU (LL19)
//! and capacity planning (LL10).
//!
//! ```text
//! cargo run --release --example center_operations
//! ```

use spider::obs::{LiveConfig, Monitor};
use spider::pfs::mds::MdsCluster;
use spider::prelude::*;
use spider::storage::fleet::{FleetSpec, StorageFleet};
use spider::tools::culling::{run_culling_campaign, CullingConfig};
use spider::tools::lustredu::{client_du_cost, DuDatabase};
use spider::tools::monitor::{
    CheckOutcome, EventClass, EventCoalescer, HealthChecker, RawEvent, Severity,
};
use spider::tools::planner::{CapacityPlan, Project};
use spider::tools::provision::{ConfigScript, ImageBuild, NodeSpec, ProvisioningSystem};

fn main() {
    // --- 06:00 — boot a replacement OSS node diskless (GeDI-style) ---
    let mut prov = ProvisioningSystem::new();
    prov.install_image(ImageBuild {
        version: 12,
        packages: [("lustre".into(), "2.4.3".into())].into_iter().collect(),
    });
    for (order, name, generates) in [
        (10, "10-network", "/etc/sysconfig/network"),
        (20, "20-srp-daemon", "/etc/srp_daemon.conf"),
        (30, "30-lnet-nis", "/etc/modprobe.d/lnet.conf"),
    ] {
        prov.add_script(ConfigScript {
            order,
            name: name.into(),
            generates: generates.into(),
        });
    }
    let boot = prov.boot("oss-107", NodeSpec::Diskless);
    println!(
        "[06:00] oss-107 diskless boot in {}, {} configs generated in order",
        boot.duration,
        boot.configs.len()
    );

    // --- 09:30 — the morning health sweep ---
    let mut health = HealthChecker::new();
    let t = SimTime::from_secs(9 * 3600 + 1800);
    for (check, severity) in [
        ("lustre-ost-states", Severity::Ok),
        ("ib-hca-errors", Severity::Warning),
        ("mds-load", Severity::Ok),
    ] {
        if let Some(alert) = health.ingest(
            t,
            CheckOutcome {
                name: check.into(),
                severity,
                message: format!("{check}: {severity:?}"),
            },
        ) {
            println!("[09:30] ALERT {} -> {:?}", alert.check, alert.to);
        }
    }

    // --- 11:00 — a controller path drops; the coalescer tells the story ---
    let mut coalescer = EventCoalescer::new(SimDuration::from_secs(120));
    let t0 = SimTime::from_secs(11 * 3600);
    coalescer.ingest(RawEvent {
        at: t0,
        component: "ssu-07/enclosure-3".into(),
        class: EventClass::Hardware,
        detail: "SAS path loss".into(),
    });
    for i in 0..4 {
        coalescer.ingest(RawEvent {
            at: t0 + SimDuration::from_secs(5 + i),
            component: format!("oss-{:03}", 56 + i),
            class: EventClass::LustreSoftware,
            detail: "ost_write slow".into(),
        });
    }
    let incidents = coalescer.finish();
    println!(
        "[11:00] incident: {} associated events, hardware root cause: {}",
        incidents[0].events.len(),
        incidents[0].has_hardware_cause
    );

    // --- 13:00 — quarterly slow-disk sweep on two SSUs ---
    let mut spec = FleetSpec::spider2();
    spec.ssus = 2;
    spec.ssu.groups = 14;
    let mut fleet = StorageFleet::sample(spec, &mut SimRng::seed_from_u64(13));
    let mut rng = SimRng::seed_from_u64(14);
    let report = run_culling_campaign(&mut fleet, &CullingConfig::default(), &mut rng);
    println!(
        "[13:00] culling: {} disks replaced over {} rounds, accepted: {}, sync BW gain {:.2}x",
        report.total_replaced,
        report.rounds.len(),
        report.accepted,
        report.sync_bandwidth_gain
    );

    // --- 15:00 — a user asks 'how big is my project?' ---
    let mut ns = spider::pfs::namespace::Namespace::new();
    let dir = ns.mkdir_p("/proj/climate42").unwrap();
    for i in 0..5_000 {
        ns.create_file(
            dir,
            &format!("out{i:04}.nc"),
            spider::pfs::namespace::FileMeta {
                size: 200 << 20,
                atime: SimTime::ZERO,
                mtime: SimTime::ZERO,
                ctime: SimTime::ZERO,
                stripe: spider::pfs::layout::StripeLayout::new(vec![spider::pfs::ost::OstId(
                    i % 32,
                )]),
                project: 42,
            },
        )
        .unwrap();
    }
    let naive = client_du_cost(&ns, ns.root(), &MdsCluster::single(), 25_000.0);
    let db = DuDatabase::build(&ns, SimTime::ZERO);
    println!(
        "[15:00] du would issue {} MDS stats ({}); LustreDU answers instantly: {}",
        naive.mds_stats,
        naive.duration,
        spider::simkit::units::fmt_bytes(db.query(dir).unwrap())
    );

    // --- 16:00 — controller telemetry check ---
    let mut poller = Monitor::new(LiveConfig::default());
    for minute in 0..30u64 {
        poller.tick(SimTime::from_secs(16 * 3600 + minute * 60).as_nanos());
        poller.sample("write_bw", "sfa-07", 14.2e9 + (minute as f64) * 1e7);
        poller.sample("write_bw", "sfa-12", 17.6e9);
    }
    let latest = |c: &str| poller.stats("write_bw", c).expect("couplet polled").last;
    let (couplet, bw) = ["sfa-07", "sfa-12"]
        .into_iter()
        .map(|c| (c, latest(c)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("two couplets");
    println!("[16:00] busiest couplet: {couplet} at {:.1} GB/s", bw / 1e9);

    // --- 17:00 — next quarter's project placement ---
    let projects = vec![
        Project {
            name: "climate".into(),
            capacity: 4 * (1u64 << 50),
            bandwidth: Bandwidth::gb_per_sec(40.0),
        },
        Project {
            name: "combustion".into(),
            capacity: 1 << 50,
            bandwidth: Bandwidth::gb_per_sec(160.0),
        },
        Project {
            name: "astro".into(),
            capacity: 5 * (1u64 << 50),
            bandwidth: Bandwidth::gb_per_sec(90.0),
        },
    ];
    let plan = CapacityPlan::balance(
        &projects,
        2,
        16 * (1u64 << 50),
        Bandwidth::gb_per_sec(500.0),
    );
    println!(
        "[17:00] namespace plan: assignments {:?}, capacity imbalance {:.1}%",
        plan.assignment,
        plan.capacity_imbalance() * 100.0
    );
}
