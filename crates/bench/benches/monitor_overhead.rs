//! Live-monitoring overhead: what does the telemetry layer cost the
//! solver hot path?
//!
//! Three states of the same `flowsim` solve (the product path that now
//! carries a live feed branch):
//!
//! 1. **obs off** — the branch is one relaxed atomic load;
//! 2. **obs on, live off** — counters flush per solve, the live branch
//!    still short-circuits on its own atomic;
//! 3. **obs on, live on** — every solve publishes per-OST allocations
//!    into the global monitor and advances the poller, detectors and all.
//!
//! States 1 and 2 must sit within run-to-run noise of each other (the
//! live layer is free until switched on); state 3 is the price of a
//! console, reported honestly. A standalone microbench pins the
//! monitor's own sample+poll throughput. [`spider_bench::record`] decides
//! the shape and where `BENCH_monitor.json` goes.

use std::hint::black_box;

use spider_bench::record::{self, time_ms};
use spider_core::config::CenterConfig;
use spider_core::flowsim::{solve, FlowTest};
use spider_core::Center;
use spider_obs::{DetectorSpec, LiveConfig, Monitor};
use spider_simkit::MIB;

fn live_config() -> LiveConfig {
    LiveConfig {
        detectors: vec![
            DetectorSpec::Imbalance {
                metric: "flowsim_ost_mb_per_s".to_owned(),
                ratio: 2.0,
                min_labels: 8,
            },
            DetectorSpec::HotSpot {
                metric: "flowsim_ost_mb_per_s".to_owned(),
                threshold: 1e12,
                sustain: 3,
            },
        ],
        ..LiveConfig::default()
    }
}

fn main() {
    let (clients, batch, iters, micro_rounds) = if record::smoke() {
        (600u32, 10u32, 3u32, 2_000u64)
    } else {
        (2_000, 30, 5, 20_000)
    };
    let center = Center::build(CenterConfig::small());
    let test = FlowTest {
        fs: 0,
        clients,
        transfer_size: MIB,
        write: true,
        optimal_placement: false,
    };
    let per_solve = |total_ms: f64| total_ms / f64::from(batch);

    // State 1: obs (and therefore live) off.
    assert!(!spider_obs::enabled());
    let off_ms = per_solve(time_ms(iters, || {
        for _ in 0..batch {
            black_box(solve(&center, &test));
        }
    }));

    // State 2: obs on, live off.
    let dir = std::env::temp_dir().join(format!("spider-monitor-bench-{}", std::process::id()));
    spider_obs::init(&dir);
    assert!(spider_obs::enabled() && !spider_obs::live_enabled());
    let obs_ms = per_solve(time_ms(iters, || {
        for _ in 0..batch {
            black_box(solve(&center, &test));
        }
    }));

    // State 3: live on — per-OST allocations stream into the monitor and
    // the poller advances one simulated second per solve.
    assert!(spider_obs::live_init(live_config()));
    let mut t_ns = 0u64;
    let live_ms = per_solve(time_ms(iters, || {
        for _ in 0..batch {
            black_box(solve(&center, &test));
            t_ns += 1_000_000_000;
            spider_obs::live_tick(t_ns);
        }
    }));
    let files = spider_obs::finish().expect("obs was enabled");
    let alarm_bytes = std::fs::metadata(&files.alarms).map_or(0, |m| m.len());

    // Monitor microbench: 64 labels, one metric, one poll per round.
    let labels: Vec<String> = (0..64).map(|i| format!("ost{i:03}")).collect();
    let micro_ms = time_ms(iters, || {
        let mut m = Monitor::new(live_config());
        for k in 1..=micro_rounds {
            for (i, l) in labels.iter().enumerate() {
                m.sample("flowsim_ost_mb_per_s", l, (i + 1) as f64);
            }
            m.tick(k * 1_000_000_000);
        }
        m.polls()
    });
    let samples = micro_rounds * labels.len() as u64;
    let ns_per_sample = micro_ms * 1e6 / samples as f64;

    println!(
        "monitor_overhead flow solve: obs-off {off_ms:.3}ms, obs-on/live-off {obs_ms:.3}ms, \
         live-on {live_ms:.3}ms per solve"
    );
    println!(
        "monitor_overhead microbench: {samples} samples + {micro_rounds} polls in {micro_ms:.1}ms \
         ({ns_per_sample:.0} ns/sample)"
    );

    let fields = format!(
        r#"  "note": "compare the three states within this file: the same flow solve with obs off, with obs on and live monitoring off, and with both on",
  "question": "what does one flow solve cost with obs off, with obs on but live monitoring off, and with both on?",
  "shape": {{"center": "small", "clients": {clients}, "solves_per_iter": {batch}}},
  "flow_solve_ms": {{
    "obs_off": {off_ms:.3},
    "obs_on_live_off": {obs_ms:.3},
    "obs_on_live_on": {live_ms:.3}
  }},
  "monitor_microbench": {{
    "labels": 64,
    "samples": {samples},
    "polls": {micro_rounds},
    "wall_ms": {micro_ms:.2},
    "ns_per_sample": {ns_per_sample:.0}
  }},
  "alarm_log_bytes_state3": {alarm_bytes},
  "verdict": "obs-on/live-off sits within run-to-run noise of obs-off: with obs off the solver pays one relaxed atomic load per solve, with obs on its counters accumulate in a stack-local struct flushed once per solve, and the live branch short-circuits on its own relaxed atomic. Live-on pays one mutexed sample per OST per solve plus windowed detector evaluation per poll boundary, the operations-console price, and stays off the solver path unless explicitly enabled""#,
    );
    record::write("monitor_overhead", "BENCH_monitor.json", &fields);
    std::fs::remove_dir_all(&dir).ok();
}
