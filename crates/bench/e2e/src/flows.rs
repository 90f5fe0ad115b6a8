//! The two flow-engine workloads: `storm_1m` and `mixed_rw`. Both run one
//! event-driven `run_timestep` per op over the paper center, and both use
//! the solver-independent checks in [`check_timestep`].

use spider_core::center::Center;
use spider_core::config::{CenterConfig, Scale};
use spider_core::timestep::{run_timestep, Job, TimestepConfig, TimestepResult};
use spider_simkit::{SimDuration, SimRng, SimTime, KIB, MIB};

use crate::trace::Tracer;
use crate::{check_golden, hex_digest, Ctx, Workload};

/// Shared state of a timestep workload.
struct Timestep {
    center: Center,
    jobs: Vec<Job>,
    cfg: TimestepConfig,
    golden: Option<String>,
}

impl Timestep {
    fn setup(ctx: &Ctx, tr: &mut Tracer, gen: impl FnOnce() -> Vec<Job>) -> (Center, Vec<Job>) {
        let scale = if ctx.smoke {
            Scale::Small
        } else {
            Scale::Paper
        };
        let center = tr.span("setup.build", |_| {
            Center::build(CenterConfig::at_scale(scale))
        });
        let jobs = tr.span("setup.inputs", |_| gen());
        (center, jobs)
    }

    fn op(&self, tr: &mut Tracer) -> TimestepResult {
        tr.span("core.timestep.run_timestep", |_| {
            run_timestep(&self.center, &self.jobs, &self.cfg)
        })
    }

    fn check(&self, res: &TimestepResult) -> Result<(), String> {
        check_timestep(&self.jobs, &self.cfg, res)?;
        check_golden(self.golden.as_deref(), &timestep_digest(res))
    }
}

/// Invariants of a timestep run that hold whatever the solver computes:
/// every completed job moved its total bytes to within one byte and
/// finished inside `[start, horizon]`; no job moved more than its total;
/// each namespace's log sums to the bytes its jobs moved, to within one
/// byte per job.
pub fn check_timestep(
    jobs: &[Job],
    cfg: &TimestepConfig,
    res: &TimestepResult,
) -> Result<(), String> {
    if res.completions.len() != jobs.len() || res.bytes_moved.len() != jobs.len() {
        return Err(format!(
            "{} completions and {} byte counts for {} jobs",
            res.completions.len(),
            res.bytes_moved.len(),
            jobs.len()
        ));
    }
    let horizon = SimTime::ZERO + cfg.horizon;
    let mut moved_per_fs = vec![0u64; res.namespace_logs.len()];
    let mut jobs_per_fs = vec![0u64; res.namespace_logs.len()];
    for (i, (job, &moved)) in jobs.iter().zip(&res.bytes_moved).enumerate() {
        let total = job.total_bytes();
        match res.completions[i] {
            Some(done) => {
                if (moved as f64 - total).abs() > 1.0 {
                    return Err(format!(
                        "job {i} completed having moved {moved} of {total} bytes"
                    ));
                }
                if done < job.start || done > horizon {
                    return Err(format!(
                        "job {i} completed at {:.3} s, outside [{:.3} s, horizon]",
                        done.as_secs_f64(),
                        job.start.as_secs_f64()
                    ));
                }
            }
            None if moved as f64 > total + 1.0 => {
                return Err(format!("unfinished job {i} moved {moved} of {total} bytes"));
            }
            None => {}
        }
        let fs = moved_per_fs
            .get_mut(job.fs)
            .ok_or_else(|| format!("job {i} names namespace {} with no log", job.fs))?;
        *fs += moved;
        jobs_per_fs[job.fs] += 1;
    }
    for (fs, log) in res.namespace_logs.iter().enumerate() {
        let logged = log.total();
        let moved = moved_per_fs[fs] as f64;
        if (logged - moved).abs() > jobs_per_fs[fs].max(1) as f64 {
            return Err(format!(
                "namespace {fs} logged {logged} bytes, jobs moved {moved}"
            ));
        }
    }
    Ok(())
}

/// Digest of `(completion, bytes_moved)` per job.
pub fn timestep_digest(res: &TimestepResult) -> String {
    let mut bytes = Vec::with_capacity(res.bytes_moved.len() * 16);
    for (done, moved) in res.completions.iter().zip(&res.bytes_moved) {
        bytes.extend_from_slice(&done.map_or(u64::MAX, SimTime::as_nanos).to_le_bytes());
        bytes.extend_from_slice(&moved.to_le_bytes());
    }
    hex_digest(&bytes)
}

/// `storm_1m`: the E20 checkpoint storm at 10^6 clients on the paper center.
/// 16 applications split exactly `clients` clients with weights drawn from
/// `SimRng::stream(seed, 0)` in [0.5, 1.5]; application `a` writes to
/// namespace `a % 2` in 1 MiB transfers. Every 6 minutes the same
/// applications write again, so the solver sees the same sequence of active
/// sets each wave and its warm starts do most of the work.
///
/// Each wave writes 64 MiB per client plus a seeded offset below 1 MiB,
/// shared by the wave's applications (so their completion order, and with
/// it the active-set sequence, never changes). Without it every wave would
/// repeat the same float rounding of its completion times, and the number
/// of extra steps rounding costs would differ by up to a quarter between
/// seeds; with it that count averages over the waves.
pub struct Storm1m(Timestep);

/// `storm_1m` shape.
struct StormShape {
    apps: u32,
    clients: u64,
    waves: u64,
    horizon: SimDuration,
}

impl StormShape {
    fn of(ctx: &Ctx) -> Self {
        if ctx.smoke {
            StormShape {
                apps: 16,
                clients: 10_000,
                waves: 3,
                horizon: SimDuration::from_mins(30),
            }
        } else {
            StormShape {
                apps: 16,
                clients: 1_000_000,
                waves: 30,
                horizon: SimDuration::from_hours(3),
            }
        }
    }
}

/// The storm's jobs: `waves` waves of the same applications, one job each.
fn storm_jobs(seed: u64, s: &StormShape) -> Vec<Job> {
    let mut rng = SimRng::stream(seed, 0);
    let weights: Vec<f64> = (0..s.apps).map(|_| rng.range_f64(0.5, 1.5)).collect();
    let sum: f64 = weights.iter().sum();
    let mut split: Vec<u64> = weights
        .iter()
        .map(|w| (s.clients as f64 * w / sum).floor() as u64)
        .collect();
    // Flooring leaves fewer than `apps` clients over; hand them out one
    // each so the split is exact.
    let rest = s.clients - split.iter().sum::<u64>();
    let apps = split.len();
    for k in 0..rest as usize {
        split[k % apps] += 1;
    }
    let period = SimDuration::from_mins(6);
    let mut jobs = Vec::with_capacity((s.waves * u64::from(s.apps)) as usize);
    for wave in 0..s.waves {
        let bytes_per_client = 64 * MIB + rng.range_u64(0, MIB);
        for (app, &clients) in split.iter().enumerate() {
            jobs.push(Job {
                fs: app % 2,
                clients: u32::try_from(clients).expect("an application's clients fit in u32"),
                bytes_per_client,
                transfer_size: MIB,
                start: SimTime::ZERO + period * wave,
                write: true,
                optimal_placement: false,
            });
        }
    }
    jobs
}

impl Workload for Storm1m {
    type Output = TimestepResult;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let shape = StormShape::of(ctx);
        let (center, jobs) = Timestep::setup(ctx, tr, || storm_jobs(ctx.seed, &shape));
        Storm1m(Timestep {
            center,
            jobs,
            cfg: TimestepConfig {
                horizon: shape.horizon,
                ..TimestepConfig::default()
            },
            golden: ctx
                .checks_golden()
                .then(|| include_str!("../golden/storm_1m.txt").trim().to_owned()),
        })
    }

    fn op(&self, tr: &mut Tracer) -> TimestepResult {
        self.0.op(tr)
    }

    fn check(&self, out: &TimestepResult) -> Result<(), String> {
        self.0.check(out)
    }

    fn digest(&self, out: &TimestepResult) -> String {
        timestep_digest(out)
    }

    fn set_golden(&mut self, digest: Option<String>) {
        self.0.golden = digest;
    }

    fn shape(&self) -> String {
        let clients: u64 = self
            .0
            .jobs
            .iter()
            .take(16)
            .map(|j| u64::from(j.clients))
            .sum();
        format!(
            "{} jobs, {clients} clients per wave, horizon {} s",
            self.0.jobs.len(),
            self.0.cfg.horizon.as_secs_f64()
        )
    }
}

/// `mixed_rw`: 1,000 jobs of fresh shapes from `SimRng::stream(seed, 1)` on
/// the paper center — exponential arrivals (mean 20 s), 64–8,192 clients,
/// 64–1,024 MiB per client, transfers of 4 KiB, 64 KiB, 1 MiB or 4 MiB, 60%
/// writes (the paper's §II mix) and 30% optimal placement, over 12 hours.
/// Few active sets recur, so the solver's memo helps little.
pub struct MixedRw(Timestep);

fn mixed_jobs(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = SimRng::stream(seed, 1);
    let transfers = [4 * KIB, 64 * KIB, MIB, 4 * MIB];
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exp(20.0);
            Job {
                fs: rng.index(2),
                clients: u32::try_from(rng.range_u64(64, 8_193)).expect("at most 8,192"),
                bytes_per_client: rng.range_u64(64, 1_025) * MIB,
                transfer_size: *rng.choose(&transfers),
                start: SimTime::from_secs_f64(t),
                write: rng.chance(0.6),
                optimal_placement: rng.chance(0.3),
            }
        })
        .collect()
}

impl Workload for MixedRw {
    type Output = TimestepResult;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let (n, horizon) = if ctx.smoke {
            (50, SimDuration::from_hours(2))
        } else {
            (1_000, SimDuration::from_hours(12))
        };
        let (center, jobs) = Timestep::setup(ctx, tr, || mixed_jobs(ctx.seed, n));
        MixedRw(Timestep {
            center,
            jobs,
            cfg: TimestepConfig {
                horizon,
                ..TimestepConfig::default()
            },
            golden: ctx
                .checks_golden()
                .then(|| include_str!("../golden/mixed_rw.txt").trim().to_owned()),
        })
    }

    fn op(&self, tr: &mut Tracer) -> TimestepResult {
        self.0.op(tr)
    }

    fn check(&self, out: &TimestepResult) -> Result<(), String> {
        self.0.check(out)
    }

    fn digest(&self, out: &TimestepResult) -> String {
        timestep_digest(out)
    }

    fn set_golden(&mut self, digest: Option<String>) {
        self.0.golden = digest;
    }

    fn shape(&self) -> String {
        format!(
            "{} jobs, horizon {} s",
            self.0.jobs.len(),
            self.0.cfg.horizon.as_secs_f64()
        )
    }
}
