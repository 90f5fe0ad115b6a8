#![warn(missing_docs)]

//! # spider-obs
//!
//! Deterministic observability for the `spider` workspace: a metrics
//! registry (counters, gauges, histograms), span tracing with JSONL and
//! Chrome `trace_event` exporters, and a run manifest — all behind a global
//! facade that is **zero-cost when disabled** and **deterministic when
//! enabled**.
//!
//! ## Determinism contract
//!
//! - Disabled (the default): every helper is a no-op behind one relaxed
//!   atomic load; instrumented code produces bit-identical output to an
//!   uninstrumented build.
//! - Enabled: the trace and metrics sinks contain only deterministic
//!   quantities (sim-time, logical slot indices, event counts), merged
//!   commutatively and emitted in sorted order, so two runs at the same
//!   seed write byte-identical `trace.jsonl` / `trace_chrome.json` /
//!   `metrics.prom` even when work is spread across threads. Wall-clock is
//!   quarantined in `manifest.json` under the `"wall"` key.
//!
//! ## Usage
//!
//! ```
//! let dir = std::env::temp_dir().join("spider-obs-doctest");
//! spider_obs::init(&dir);
//! spider_obs::counter_add("maxmin_solves", 1);
//! spider_obs::span(0, 0, 1_000, "E2", &[("clients", 64u64.into())]);
//! let files = spider_obs::finish().expect("was enabled");
//! assert!(files.manifest.ends_with("manifest.json"));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod jsonio;
pub mod live;
pub mod manifest;
pub mod metrics;
pub mod trace;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use live::{Alarm, DetectorSpec, LiveConfig, Monitor};
pub use manifest::{fnv1a, git_rev, ManifestBuilder};
pub use metrics::Registry;
pub use trace::{ArgValue, Span, TraceBuffer};

/// Environment variable checked by [`init_from_env`]: a directory path to
/// enable observability, unset/empty to leave it off.
pub const OBS_ENV: &str = "SPIDER_OBS";

static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicBool = AtomicBool::new(false);
static CORE: Mutex<Option<ObsCore>> = Mutex::new(None);

struct ObsCore {
    dir: PathBuf,
    registry: Registry,
    trace: TraceBuffer,
    manifest: ManifestBuilder,
    live: Option<Monitor>,
}

/// Is observability enabled? One relaxed load — the only cost instrumented
/// hot paths pay when the layer is off.
#[inline]
pub fn enabled() -> bool {
    // spider-lint: allow(relaxed-atomic-in-output-path, reason = "set once by init() before any instrumented code runs and cleared only by finish(); every load in a run observes the same value, so thread interleaving cannot reach the output")
    ENABLED.load(Ordering::Relaxed)
}

/// Enable observability, directing sink files to `dir` (created on
/// [`finish`]). Replaces any un-finished previous session.
pub fn init(dir: impl AsRef<Path>) {
    let core = ObsCore {
        dir: dir.as_ref().to_owned(),
        registry: Registry::new(),
        trace: TraceBuffer::new(),
        manifest: ManifestBuilder::new(),
        live: None,
    };
    *CORE.lock().expect("obs lock") = Some(core);
    LIVE.store(false, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Enable observability if [`OBS_ENV`] names a directory. Returns the
/// directory when enabled.
pub fn init_from_env() -> Option<PathBuf> {
    let dir = std::env::var(OBS_ENV).ok().filter(|v| !v.is_empty())?;
    init(&dir);
    Some(PathBuf::from(dir))
}

fn with_core<R>(f: impl FnOnce(&mut ObsCore) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let mut guard = CORE.lock().expect("obs lock");
    guard.as_mut().map(f)
}

/// Add `v` to counter `name`. No-op when disabled.
pub fn counter_add(name: &str, v: u64) {
    with_core(|c| c.registry.counter_add(name, v));
}

/// Set gauge `name` (last write wins; single-threaded phases only).
pub fn gauge_set(name: &str, v: f64) {
    with_core(|c| c.registry.gauge_set(name, v));
}

/// Raise gauge `name` to at least `v` (commutative, parallel-safe).
pub fn gauge_max(name: &str, v: f64) {
    with_core(|c| c.registry.gauge_max(name, v));
}

/// Record `x` into histogram `name` (default log2 binning).
pub fn hist_record(name: &str, x: f64) {
    with_core(|c| c.registry.hist_record(name, x));
}

/// Record an event queue's high-water mark under the canonical
/// `<component>_queue_high_water` gauge (commutative max). One shared
/// helper so the engine wrappers (simkit runs, rpcsim, pdesobs) cannot
/// drift in metric naming or update semantics.
pub fn queue_high_water_gauge(component: &str, high_water: usize) {
    with_core(|c| {
        c.registry
            .gauge_max(&format!("{component}_queue_high_water"), high_water as f64);
    });
}

/// Record a component's deterministic memory footprint under the canonical
/// `<component>_bytes` gauge (commutative max, so the high-water mark
/// survives parallel sections). Bytes must come from a deterministic
/// accounting such as `spider_simkit::MemFootprint` — container capacities,
/// never RSS or allocator globals — so the gauge is bit-stable across runs.
pub fn mem_gauge(component: &str, bytes: u64) {
    with_core(|c| {
        c.registry
            .gauge_max(&format!("{component}_bytes"), bytes as f64);
    });
}

/// Is the live telemetry layer on? One relaxed load (implies [`enabled`]).
#[inline]
pub fn live_enabled() -> bool {
    // spider-lint: allow(relaxed-atomic-in-output-path, reason = "set once by live_init() before the run and cleared only by finish(); constant within a run, so the fast-path load cannot vary across schedules")
    LIVE.load(Ordering::Relaxed)
}

/// Attach a live [`Monitor`] to the enabled obs session. No-op (returns
/// `false`) when obs itself is disabled.
pub fn live_init(cfg: LiveConfig) -> bool {
    let attached = with_core(|c| {
        c.live = Some(Monitor::new(cfg));
    })
    .is_some();
    if attached {
        LIVE.store(true, Ordering::Relaxed);
    }
    attached
}

/// Advance the live poller to sim-time `t_ns`, sampling registry counter
/// rates and evaluating detectors at every crossed boundary.
pub fn live_tick(t_ns: u64) {
    if !live_enabled() {
        return;
    }
    with_core(|c| {
        let ObsCore { registry, live, .. } = c;
        if let Some(m) = live.as_mut() {
            m.tick_registry(t_ns, registry);
        }
    });
}

/// Record one live sample into `(metric, label)` at the poller's current
/// sim-time. No-op unless the live layer is on.
pub fn live_sample(metric: &str, label: &str, value: f64) {
    if !live_enabled() {
        return;
    }
    with_core(|c| {
        if let Some(m) = c.live.as_mut() {
            m.sample(metric, label, value);
        }
    });
}

/// Fold a locally driven [`Monitor`]'s alarms and flight dumps into the
/// session (attaching it wholesale when none is attached yet), so its
/// verdicts reach the `alarms.jsonl` / `flight.jsonl` sinks on
/// [`finish`]. No-op when obs is disabled.
pub fn live_absorb(monitor: Monitor) {
    let attached = with_core(|c| match c.live.as_mut() {
        Some(m) => m.absorb(monitor),
        None => c.live = Some(monitor),
    })
    .is_some();
    if attached {
        LIVE.store(true, Ordering::Relaxed);
    }
}

/// Record a complete span. `ts_ns`/`dur_ns` must be deterministic (sim-time
/// or logical slots — never wall-clock).
pub fn span(track: u32, ts_ns: u64, dur_ns: u64, name: &str, args: &[(&str, ArgValue)]) {
    with_core(|c| {
        c.trace.push(Span {
            track,
            ts_ns,
            dur_ns,
            name: name.to_owned(),
            args: args
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
    });
}

/// Set a deterministic manifest provenance field.
pub fn manifest_set(key: &str, value: &str) {
    with_core(|c| c.manifest.set(key, value));
}

/// RAII wall-clock phase timer: elapsed time between construction and drop
/// is charged to `phase` in the manifest (and only there).
pub struct PhaseTimer {
    name: Option<String>,
    started: Instant,
}

impl PhaseTimer {
    /// Start timing `phase` (no-op when disabled).
    pub fn start(phase: &str) -> Self {
        PhaseTimer {
            name: enabled().then(|| phase.to_owned()),
            started: Instant::now(),
        }
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            let ms = self.started.elapsed().as_secs_f64() * 1e3;
            with_core(|c| c.manifest.phase_elapsed(&name, ms));
        }
    }
}

/// Paths of the files [`finish`] wrote.
#[derive(Debug, Clone)]
pub struct ObsFiles {
    /// Output directory.
    pub dir: PathBuf,
    /// `manifest.json` (provenance + wall-clock).
    pub manifest: PathBuf,
    /// `metrics.prom` (Prometheus text exposition).
    pub metrics_prom: PathBuf,
    /// `trace.jsonl` (spans + metric snapshot, one JSON object per line).
    pub trace_jsonl: PathBuf,
    /// `trace_chrome.json` (Chrome/Perfetto `trace_event` format).
    pub trace_chrome: PathBuf,
    /// `alarms.jsonl` (live-detector alarm log; empty without live layer).
    pub alarms: PathBuf,
    /// `flight.jsonl` (flight-recorder dumps; empty without live layer).
    pub flight: PathBuf,
}

/// Flush the session to disk and disable observability. Returns `None` when
/// the layer was not enabled. File contents other than `manifest.json` are
/// deterministic for a deterministic instrumented run.
pub fn finish() -> Option<ObsFiles> {
    ENABLED.store(false, Ordering::Relaxed);
    LIVE.store(false, Ordering::Relaxed);
    let core = CORE.lock().expect("obs lock").take()?;
    std::fs::create_dir_all(&core.dir).ok()?;
    let files = ObsFiles {
        manifest: core.dir.join("manifest.json"),
        metrics_prom: core.dir.join("metrics.prom"),
        trace_jsonl: core.dir.join("trace.jsonl"),
        trace_chrome: core.dir.join("trace_chrome.json"),
        alarms: core.dir.join("alarms.jsonl"),
        flight: core.dir.join("flight.jsonl"),
        dir: core.dir,
    };
    let mut jsonl = core.trace.to_jsonl();
    jsonl.push_str(&core.registry.to_jsonl());
    let (alarm_log, flight_log) = core.live.as_ref().map_or_else(Default::default, |m| {
        (m.to_alarm_jsonl(), m.to_flight_jsonl())
    });
    std::fs::write(&files.manifest, core.manifest.to_json()).ok()?;
    std::fs::write(&files.metrics_prom, core.registry.to_prometheus()).ok()?;
    std::fs::write(&files.trace_jsonl, jsonl).ok()?;
    std::fs::write(&files.trace_chrome, core.trace.to_chrome_json()).ok()?;
    std::fs::write(&files.alarms, alarm_log).ok()?;
    std::fs::write(&files.flight, flight_log).ok()?;
    Some(files)
}

/// Snapshot of the live registry (for tests and in-process inspection).
/// Returns `None` when disabled.
pub fn registry_snapshot() -> Option<Registry> {
    with_core(|c| {
        let mut copy = Registry::new();
        copy.merge(&c.registry);
        copy
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The facade is process-global and `cargo test` runs tests on parallel
    /// threads, so every test that touches it holds this lock: a helper
    /// called inside another test's enabled window would record into that
    /// test's registry.
    fn global_facade() -> MutexGuard<'static, ()> {
        static FACADE: Mutex<()> = Mutex::new(());
        FACADE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The full global lifecycle in ONE test, so init/finish never
    /// interleave. All other obs tests use the component structs directly.
    #[test]
    fn global_lifecycle_writes_deterministic_sinks() {
        let _facade = global_facade();
        let dir = std::env::temp_dir().join(format!("spider-obs-test-{}", std::process::id()));

        let run = |tag: &str| {
            init(dir.join(tag));
            assert!(enabled());
            assert!(!live_enabled(), "live stays off until live_init");
            manifest_set("seed", "0x5d1de2");
            manifest_set("solver", "event-driven");
            assert!(live_init(LiveConfig {
                detectors: vec![DetectorSpec::HotSpot {
                    metric: "link_util".to_owned(),
                    threshold: 0.9,
                    sustain: 2,
                }],
                ..LiveConfig::default()
            }));
            assert!(live_enabled());
            {
                let _t = PhaseTimer::start("exp:E2");
                counter_add("maxmin_solves", 3);
                counter_add("maxmin_solves", 2);
                queue_high_water_gauge("engine", 41);
                hist_record("flowsim_collapse_ratio", 9.4);
                span(2, 0, 2_000, "E2", &[("scale", "small".into())]);
                span(2, 0, 1_000, "E2/point", &[("clients", 64u64.into())]);
                for t in 1..=3u64 {
                    live_sample("link_util", "leaf0", 0.95);
                    live_tick(t * 1_000_000_000);
                }
            }
            let files = finish().expect("was enabled");
            assert!(!enabled());
            assert!(!live_enabled());
            (
                std::fs::read_to_string(&files.trace_jsonl).unwrap(),
                std::fs::read_to_string(&files.metrics_prom).unwrap(),
                std::fs::read_to_string(&files.trace_chrome).unwrap(),
                std::fs::read_to_string(&files.manifest).unwrap(),
                std::fs::read_to_string(&files.alarms).unwrap(),
                std::fs::read_to_string(&files.flight).unwrap(),
            )
        };

        let (jsonl_a, prom_a, chrome_a, manifest_a, alarms_a, flight_a) = run("a");
        let (jsonl_b, prom_b, chrome_b, manifest_b, alarms_b, flight_b) = run("b");
        // Deterministic sinks are byte-identical across runs.
        assert_eq!(jsonl_a, jsonl_b);
        assert_eq!(prom_a, prom_b);
        assert_eq!(chrome_a, chrome_b);
        assert_eq!(alarms_a, alarms_b);
        assert_eq!(flight_a, flight_b);
        // The sustained hot link fired exactly once, at the second boundary.
        assert_eq!(alarms_a.lines().count(), 1);
        assert!(alarms_a.contains("\"t_ns\":2000000000"));
        assert!(alarms_a.contains("\"detector\":\"hotspot\""));
        assert!(flight_a.contains("\"kind\":\"flight_dump\""));
        // The sinks parse and carry the recorded values.
        let reg = Registry::from_jsonl(&jsonl_a).expect("metrics round-trip");
        assert_eq!(reg.counter("maxmin_solves"), 5);
        assert_eq!(reg.gauge("engine_queue_high_water"), Some(41.0));
        assert!(reg.hist("flowsim_collapse_ratio").is_some());
        let spans = TraceBuffer::from_jsonl(&jsonl_a).expect("spans parse");
        assert_eq!(spans.len(), 2);
        jsonio::parse(&chrome_a).expect("chrome trace is valid JSON");
        let m = jsonio::parse(&manifest_a).expect("manifest is valid JSON");
        assert_eq!(m.get("seed").unwrap().as_str(), Some("0x5d1de2"));
        assert!(m
            .get("wall")
            .unwrap()
            .get("phases")
            .unwrap()
            .get("exp:E2")
            .is_some());
        // Wall-clock differs between runs but only inside "wall".
        let strip = |s: &str| {
            let v = jsonio::parse(s).unwrap();
            match v {
                jsonio::JsonValue::Obj(mut o) => {
                    o.remove("wall");
                    format!("{o:?}")
                }
                _ => unreachable!(),
            }
        };
        assert_eq!(strip(&manifest_a), strip(&manifest_b));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_helpers_are_noops() {
        let _facade = global_facade();
        counter_add("nope", 1);
        gauge_max("nope", 1.0);
        hist_record("nope", 1.0);
        queue_high_water_gauge("nope", 1);
        mem_gauge("nope", 1);
        span(0, 0, 0, "nope", &[]);
        manifest_set("nope", "x");
        live_tick(1);
        live_sample("nope", "nope", 1.0);
        let _t = PhaseTimer::start("nope");
    }
}
