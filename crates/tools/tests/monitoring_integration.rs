//! Integration: the monitoring stack watching a degrading IB cable plant —
//! LL8 end to end. The poller samples OFED-style counters, the health
//! checks classify them, the checker alerts on transitions, and the
//! in-place diagnosis procedure names the cable to replace.

use spider_net::cable::{diagnose, CableDiagnosis, CablePlant, PortCounters};
use spider_obs::{LiveConfig, Monitor};
use spider_simkit::{Bandwidth, SimRng, SimTime};
use spider_tools::monitor::{CheckOutcome, HealthChecker, Severity};

/// Map a cable's counters onto a check outcome, the way the custom OFED
/// wrapper checks did.
fn cable_check(name: &str, counters: &PortCounters) -> CheckOutcome {
    let severity = match diagnose(counters) {
        CableDiagnosis::Healthy => Severity::Ok,
        CableDiagnosis::Reseat => Severity::Warning,
        CableDiagnosis::Replace | CableDiagnosis::Dead => Severity::Critical,
    };
    CheckOutcome {
        name: name.to_owned(),
        severity,
        message: format!(
            "{name}: width {}x, {:.0} sym-err/min",
            counters.active_width, counters.symbol_errors_per_min
        ),
    }
}

#[test]
fn cable_degradation_surfaces_as_an_alert_and_a_bandwidth_drop() {
    let mut plant = CablePlant::new(12, Bandwidth::gb_per_sec(6.0));
    let mut checker = HealthChecker::new();
    let mut poller = Monitor::new(LiveConfig::default());

    // Minute 0..5: healthy polls. No alerts, steady bandwidth.
    for minute in 0..5u64 {
        let now = SimTime::from_secs(minute * 60);
        poller.tick(now.as_nanos());
        poller.sample(
            "delivered_bw",
            "leaf-07",
            plant.delivered().as_bytes_per_sec(),
        );
        for (i, c) in plant.cables.iter().enumerate() {
            assert!(checker
                .ingest(now, cable_check(&format!("leaf-07/cable-{i}"), c))
                .is_none());
        }
    }
    let healthy_bw = plant.delivered().as_bytes_per_sec();

    // Minute 5: a cable drops to 1x width.
    let mut rng = SimRng::seed_from_u64(8);
    let bad = plant.degrade_one(1, &mut rng);
    let now = SimTime::from_secs(5 * 60);
    poller.tick(now.as_nanos());
    poller.sample(
        "delivered_bw",
        "leaf-07",
        plant.delivered().as_bytes_per_sec(),
    );
    let mut alerts = Vec::new();
    for (i, c) in plant.cables.iter().enumerate() {
        if let Some(a) = checker.ingest(now, cable_check(&format!("leaf-07/cable-{i}"), c)) {
            alerts.push(a);
        }
    }
    // Exactly one alert, Critical, naming the bad cable.
    assert_eq!(alerts.len(), 1);
    assert_eq!(alerts[0].to, Severity::Critical);
    assert!(alerts[0].check.ends_with(&format!("cable-{bad}")));

    // The poller shows the measurable degradation LL8 warns about.
    let degraded_bw = poller.stats("delivered_bw", "leaf-07").unwrap().last;
    assert!(degraded_bw < healthy_bw * 0.95);

    // The in-place survey names the same cable; replacement clears both
    // the alert and the bandwidth loss.
    let findings = plant.survey();
    assert_eq!(findings, vec![(bad, CableDiagnosis::Replace)]);
    plant.replace(bad);
    let later = SimTime::from_secs(20 * 60);
    let recovery = checker.ingest(
        later,
        cable_check(&format!("leaf-07/cable-{bad}"), &plant.cables[bad]),
    );
    assert!(recovery.is_some(), "recovery transition alerts");
    assert_eq!(checker.overall(), Severity::Ok);
    assert!((plant.delivered().as_bytes_per_sec() - healthy_bw).abs() < 1.0);
}

#[test]
fn poller_ranks_the_degraded_leaf_last() {
    let mut poller = Monitor::new(LiveConfig::default());
    let healthy = CablePlant::new(12, Bandwidth::gb_per_sec(6.0));
    let mut degraded = CablePlant::new(12, Bandwidth::gb_per_sec(6.0));
    let mut rng = SimRng::seed_from_u64(9);
    degraded.degrade_one(1, &mut rng);
    poller.tick(SimTime::from_secs(0).as_nanos());
    poller.sample(
        "delivered_bw",
        "leaf-01",
        healthy.delivered().as_bytes_per_sec(),
    );
    poller.sample(
        "delivered_bw",
        "leaf-02",
        degraded.delivered().as_bytes_per_sec(),
    );
    let mut top: Vec<(&str, f64)> = ["leaf-02", "leaf-01"]
        .into_iter()
        .map(|leaf| (leaf, poller.stats("delivered_bw", leaf).unwrap().last))
        .collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    assert_eq!(top[0].0, "leaf-01");
    assert_eq!(top[1].0, "leaf-02");
    let _ = (healthy.survey(), degraded.survey());
}
