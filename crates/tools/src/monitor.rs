//! The monitoring stack (§IV-A "Monitoring", Lesson Learned 8).
//!
//! Two pieces, mirroring what OLCF built:
//!
//! - [`HealthChecker`]: Nagios-style scheduled checks with state-transition
//!   alerting and flap suppression.
//! - [`EventCoalescer`]: the Lustre Health Checker idea — "a coherent
//!   collection of associated errors from a Lustre failure condition",
//!   correlating raw events into incidents and discriminating hardware
//!   events from Lustre software issues.
//!
//! The third, the DDN-tool poller (poll controllers "for various pieces of
//! information (e.g. I/O request sizes, write and read bandwidths) at
//! regular rates" and answer queries over the samples), is
//! `spider_obs::live::Monitor`.

use std::collections::BTreeMap;

use spider_simkit::{SimDuration, SimTime};

/// Alert severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// All good.
    Ok,
    /// Degraded but serving.
    Warning,
    /// Service-affecting.
    Critical,
}

/// One check execution result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Check name ("ib-hca-errors", "lustre-ost-state", ...).
    pub name: String,
    /// Result severity.
    pub severity: Severity,
    /// Operator-facing message.
    pub message: String,
}

/// An emitted alert (a state *transition*, not a state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// When.
    pub at: SimTime,
    /// Which check.
    pub check: String,
    /// Previous severity.
    pub from: Severity,
    /// New severity.
    pub to: Severity,
    /// Message of the transitioning outcome.
    pub message: String,
}

/// Scheduled checks with transition-based alerting.
#[derive(Debug, Default)]
pub struct HealthChecker {
    state: BTreeMap<String, Severity>,
    alerts: Vec<Alert>,
    /// Re-alert suppression: identical transitions within this window are
    /// dropped (flap damping).
    suppression: BTreeMap<String, SimTime>,
    suppression_window: SimDuration,
}

impl HealthChecker {
    /// A checker with a 5-minute flap-suppression window.
    pub fn new() -> Self {
        HealthChecker {
            suppression_window: SimDuration::from_mins(5),
            ..Default::default()
        }
    }

    /// Ingest a check outcome at `now`; returns the alert if one fired.
    pub fn ingest(&mut self, now: SimTime, outcome: CheckOutcome) -> Option<Alert> {
        let prev = self
            .state
            .insert(outcome.name.clone(), outcome.severity)
            .unwrap_or(Severity::Ok);
        if prev == outcome.severity {
            return None;
        }
        // Flap suppression: drop repeat transitions of the same check
        // within the window unless escalating to Critical.
        if outcome.severity != Severity::Critical {
            if let Some(&last) = self.suppression.get(&outcome.name) {
                if now.since(last) < self.suppression_window {
                    return None;
                }
            }
        }
        self.suppression.insert(outcome.name.clone(), now);
        let alert = Alert {
            at: now,
            check: outcome.name,
            from: prev,
            to: outcome.severity,
            message: outcome.message,
        };
        self.alerts.push(alert.clone());
        Some(alert)
    }

    /// Current severity of a check.
    pub fn current(&self, check: &str) -> Severity {
        self.state.get(check).copied().unwrap_or(Severity::Ok)
    }

    /// All alerts so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Worst current severity across all checks.
    pub fn overall(&self) -> Severity {
        self.state.values().copied().max().unwrap_or(Severity::Ok)
    }
}

/// Raw event classes reaching the coalescer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Physical: disk, enclosure, cable, power.
    Hardware,
    /// Lustre software: evictions, timeouts, LBUG.
    LustreSoftware,
    /// Network: HCA errors, link degradation.
    Network,
}

/// A raw monitoring event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEvent {
    /// When.
    pub at: SimTime,
    /// Emitting component ("oss-017", "ssu-03/enclosure-2", ...).
    pub component: String,
    /// Class.
    pub class: EventClass,
    /// Text.
    pub detail: String,
}

/// A coalesced incident: associated errors grouped into one story.
#[derive(Debug, Clone)]
pub struct Incident {
    /// First event time.
    pub start: SimTime,
    /// Last event time.
    pub end: SimTime,
    /// Events in the incident.
    pub events: Vec<RawEvent>,
    /// Does the incident include hardware evidence? (LL8: lets admins
    /// "discriminate between hardware events and Lustre software issues".)
    pub has_hardware_cause: bool,
}

/// Groups events that arrive within `window` of the incident's last event.
#[derive(Debug)]
pub struct EventCoalescer {
    window: SimDuration,
    open: Option<Incident>,
    closed: Vec<Incident>,
}

impl EventCoalescer {
    /// Coalescer with the given association window.
    pub fn new(window: SimDuration) -> Self {
        EventCoalescer {
            window,
            open: None,
            closed: Vec::new(),
        }
    }

    /// Ingest one event. Events are expected roughly in time order; a
    /// slightly out-of-order event (earlier than the open incident's end)
    /// is absorbed into the open incident without regressing its span.
    pub fn ingest(&mut self, ev: RawEvent) {
        match self.open.as_mut() {
            Some(inc) if ev.at.since(inc.end) <= self.window => {
                inc.start = inc.start.min(ev.at);
                inc.end = inc.end.max(ev.at);
                inc.has_hardware_cause |= ev.class == EventClass::Hardware;
                inc.events.push(ev);
            }
            _ => {
                if let Some(done) = self.open.take() {
                    self.closed.push(done);
                }
                self.open = Some(Incident {
                    start: ev.at,
                    end: ev.at,
                    has_hardware_cause: ev.class == EventClass::Hardware,
                    events: vec![ev],
                });
            }
        }
    }

    /// Close the open incident (end of stream) and return all incidents.
    pub fn finish(mut self) -> Vec<Incident> {
        if let Some(done) = self.open.take() {
            self.closed.push(done);
        }
        self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn outcome(name: &str, severity: Severity) -> CheckOutcome {
        CheckOutcome {
            name: name.to_owned(),
            severity,
            message: format!("{name} is {severity:?}"),
        }
    }

    #[test]
    fn alerts_fire_on_transitions_only() {
        let mut hc = HealthChecker::new();
        assert!(hc
            .ingest(at(0), outcome("ost-state", Severity::Ok))
            .is_none());
        let a = hc
            .ingest(at(10), outcome("ost-state", Severity::Critical))
            .expect("transition alert");
        assert_eq!(a.from, Severity::Ok);
        assert_eq!(a.to, Severity::Critical);
        // Same state again: no alert.
        assert!(hc
            .ingest(at(20), outcome("ost-state", Severity::Critical))
            .is_none());
        assert_eq!(hc.overall(), Severity::Critical);
    }

    #[test]
    fn flapping_is_suppressed_but_critical_always_fires() {
        let mut hc = HealthChecker::new();
        hc.ingest(at(0), outcome("ib-link", Severity::Warning));
        hc.ingest(at(10), outcome("ib-link", Severity::Ok));
        // Rapid Warning again within the window: suppressed.
        assert!(hc
            .ingest(at(20), outcome("ib-link", Severity::Warning))
            .is_none());
        // Escalation to Critical cuts through suppression.
        assert!(hc
            .ingest(at(30), outcome("ib-link", Severity::Critical))
            .is_some());
    }

    #[test]
    fn recovery_alert_after_window() {
        let mut hc = HealthChecker::new();
        hc.ingest(at(0), outcome("mds", Severity::Critical));
        let rec = hc.ingest(at(600), outcome("mds", Severity::Ok));
        assert!(rec.is_some(), "recovery after the window alerts");
        assert_eq!(hc.current("mds"), Severity::Ok);
    }

    #[test]
    fn coalescer_groups_cascade_and_identifies_hardware() {
        // The 2010-style cascade: enclosure path drop (hardware), then a
        // burst of Lustre errors.
        let mut c = EventCoalescer::new(SimDuration::from_secs(60));
        c.ingest(RawEvent {
            at: at(100),
            component: "ssu-03/enclosure-2".into(),
            class: EventClass::Hardware,
            detail: "SAS path lost".into(),
        });
        for i in 0..5 {
            c.ingest(RawEvent {
                at: at(110 + i),
                component: format!("oss-{i:03}"),
                class: EventClass::LustreSoftware,
                detail: "ost_write timeout".into(),
            });
        }
        // A separate, software-only incident much later.
        c.ingest(RawEvent {
            at: at(10_000),
            component: "mds-0".into(),
            class: EventClass::LustreSoftware,
            detail: "client eviction storm".into(),
        });
        let incidents = c.finish();
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents[0].events.len(), 6);
        assert!(incidents[0].has_hardware_cause, "root cause visible");
        assert!(!incidents[1].has_hardware_cause, "pure software issue");
    }

    fn raw(at_s: u64, class: EventClass) -> RawEvent {
        RawEvent {
            at: at(at_s),
            component: "oss-000".into(),
            class,
            detail: "event".into(),
        }
    }

    #[test]
    fn coalescer_window_edge_joins_but_beyond_splits() {
        // The association window is inclusive: an event exactly `window`
        // after the incident's last event still joins; one nanosecond past
        // it opens a new incident.
        let mut c = EventCoalescer::new(SimDuration::from_secs(60));
        c.ingest(raw(100, EventClass::LustreSoftware));
        c.ingest(raw(160, EventClass::LustreSoftware)); // exactly at the edge
        let mut past = raw(160, EventClass::LustreSoftware);
        past.at = at(220) + SimDuration::from_nanos(1); // one ns beyond
        c.ingest(past);
        let incidents = c.finish();
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents[0].events.len(), 2);
        assert_eq!(incidents[0].end, at(160));
        assert_eq!(incidents[1].events.len(), 1);
    }

    #[test]
    fn coalescer_absorbs_out_of_order_without_regressing_span() {
        // A late-arriving event stamped before the incident's current end
        // is absorbed, and the incident span stays [min, max] of its
        // events' times — the stale timestamp must not shrink `end` (which
        // would wrongly extend the window for later events).
        let mut c = EventCoalescer::new(SimDuration::from_secs(60));
        c.ingest(raw(100, EventClass::LustreSoftware));
        c.ingest(raw(150, EventClass::Hardware));
        c.ingest(raw(120, EventClass::LustreSoftware)); // out of order
                                                        // 211 is within 60 s of the true end (150) and must still join.
        c.ingest(raw(211 - 1, EventClass::LustreSoftware));
        let incidents = c.finish();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].start, at(100));
        assert_eq!(incidents[0].end, at(210));
        assert_eq!(incidents[0].events.len(), 4);
        assert!(incidents[0].has_hardware_cause);
    }

    #[test]
    fn coalescer_empty_finish_yields_no_incidents() {
        let c = EventCoalescer::new(SimDuration::from_secs(60));
        assert!(c.finish().is_empty());
    }
}
