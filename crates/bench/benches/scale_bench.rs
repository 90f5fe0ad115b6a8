//! Million-client memory-budget bench: the columnar and event-engine
//! scaling gates.
//!
//! Two sections, both asserted (a budget nobody enforces is a comment):
//!
//! 1. **Columnar solve** — the E3-shape IOR run at 10^6 clients on the
//!    paper center through the class-level path. The weighted-flow-class
//!    collapse makes solve cost a function of hardware shape, not client
//!    count, and the resident [`FlowSession`]'s deterministic footprint
//!    must stay within the steady-state budget of **128 bytes/client**.
//! 2. **Engine churn** — steady-state event traffic through the [`Engine`],
//!    whose heap entries carry their payloads: every completion schedules a
//!    successor, so a fixed resident population flows through millions of
//!    events. Records events/sec and asserts the queue's high water stayed
//!    at the resident count and the heap's bytes at their loaded value (no
//!    per-event allocation).
//!
//! The smoke shape ([`spider_bench::record`] decides it, and where
//! `BENCH_scale.json` — bytes/client, events/sec, wall times — goes) runs
//! fewer churn events and timing iterations; the 10^6-client solve is the
//! same in every shape.

use std::time::Instant;

use spider_bench::record::{self, time_ms};
use spider_core::center::Center;
use spider_core::config::{CenterConfig, Scale};
use spider_core::flowsim::{CenterTarget, FlowSession, FlowTest};
use spider_simkit::{Engine, MemFootprint, SimDuration, SimTime, MIB};
use spider_workload::ior::{run_ior, IorConfig, IorTarget};

/// Steady-state memory budget the tentpole commits to.
const BYTES_PER_CLIENT_BUDGET: f64 = 128.0;

/// Smoke wall budget for the full 10^6-client solve.
const SMOKE_BUDGET_MS: f64 = 5_000.0;

fn main() {
    let smoke = record::smoke();
    let clients: u32 = 1_000_000;
    let (churn_events, iters) = if smoke {
        (2_000_000u64, 1u32)
    } else {
        (20_000_000, 3)
    };

    // ---- columnar solve: 10^6-client E3 shape ----
    let center = Center::build(CenterConfig::at_scale(Scale::Paper));
    let target = CenterTarget {
        center: &center,
        fs: 0,
    };
    let mut cfg = IorConfig::paper_scaling(clients, MIB);
    cfg.iterations = 1;
    let solve_ms = time_ms(iters, || run_ior(&target, &cfg));
    let rep = run_ior(&target, &cfg);
    let classes = target.rate_classes(&cfg).rates.len();

    // Resident-session footprint for the same shape: the steady-state
    // bytes the event-driven engine would hold per admitted client.
    let mut session = FlowSession::new(&center);
    session.add_test(&FlowTest {
        fs: 0,
        clients,
        transfer_size: MIB,
        write: true,
        optimal_placement: false,
    });
    session.solve();
    let session_bytes = session.mem_bytes();
    let bytes_per_client = session_bytes as f64 / f64::from(clients);

    println!(
        "scale_bench columnar: {clients} clients -> {classes} classes, \
         {:.1} GB/s, solve {solve_ms:.1}ms, session {session_bytes} B \
         ({bytes_per_client:.1} B/client, budget {BYTES_PER_CLIENT_BUDGET})",
        rep.mean.as_gb_per_sec()
    );
    assert!(
        bytes_per_client <= BYTES_PER_CLIENT_BUDGET,
        "steady-state footprint {bytes_per_client:.1} B/client blew the \
         {BYTES_PER_CLIENT_BUDGET} B/client budget"
    );
    if smoke {
        assert!(
            solve_ms < SMOKE_BUDGET_MS,
            "10^6-client solve took {solve_ms:.0}ms, smoke budget {SMOKE_BUDGET_MS:.0}ms"
        );
    }

    // ---- event engine: steady-state churn ----
    let resident = 10_000u64;
    let mut engine: Engine<u32> = Engine::new();
    for i in 0..resident {
        engine.schedule(SimTime::ZERO + SimDuration::from_nanos(i + 1), i as u32);
    }
    let loaded_bytes = engine.mem_bytes();
    let mut processed = 0u64;
    let t0 = Instant::now();
    engine.run_to_completion(|ctx, ev| {
        processed += 1;
        if processed + resident <= churn_events {
            ctx.schedule_in(SimDuration::from_nanos(1_000), ev);
        }
    });
    let churn_ms = t0.elapsed().as_secs_f64() * 1e3;
    let events_per_sec = processed as f64 / (churn_ms / 1e3);
    let engine_bytes = engine.mem_bytes();
    let high_water = engine.queue_high_water();

    println!(
        "scale_bench engine: {processed} events in {churn_ms:.1}ms \
         ({events_per_sec:.0} events/s), high water {high_water}, {engine_bytes} B"
    );
    assert_eq!(processed, churn_events);
    assert_eq!(
        high_water as u64, resident,
        "the queue grew past the resident population"
    );
    assert_eq!(
        engine_bytes, loaded_bytes,
        "churn grew the heap: steady state must allocate nothing"
    );

    let fields = format!(
        r#"  "note": "wall times and events/sec measured on this machine; bytes figures are deterministic (container capacities via MemFootprint, identical on every host). The columnar section is the E3 shape at 10^6 clients: the weighted-class collapse resolves a million clients to O(100) flow classes, so solve wall time is flat in client count, and the resident session holds class-level columns plus a client-to-class table with one entry per class, so its bytes do not grow with the client count either. The engine section is steady-state churn: a fixed resident event population whose payloads ride in their heap entries, zero allocation per event",
  "shape": {{"clients": {clients}, "churn_events": {churn_events}, "resident_events": {resident}}},
  "columnar": {{
    "clients": {clients},
    "flow_classes": {classes},
    "aggregate_gbps": {gbps:.2},
    "solve_wall_ms": {solve_ms:.2},
    "session_bytes": {session_bytes},
    "bytes_per_client": {bytes_per_client:.2},
    "budget_bytes_per_client": {BYTES_PER_CLIENT_BUDGET}
  }},
  "event_engine": {{
    "events": {processed},
    "wall_ms": {churn_ms:.2},
    "events_per_sec": {events_per_sec:.0},
    "queue_high_water": {high_water},
    "engine_bytes": {engine_bytes}
  }}"#,
        gbps = rep.mean.as_gb_per_sec(),
    );
    record::write("scale_bench", "BENCH_scale.json", &fields);
}
