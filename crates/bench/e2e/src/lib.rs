//! End-to-end benchmark of the spider simulator.
//!
//! Four workloads, each set up from a seed and then run closed-loop (one
//! caller, ops back to back) for a fixed number of seconds:
//!
//! - `paper_suite`: every experiment driver at paper scale, one pass per op;
//! - `storm_1m`: a checkpoint storm of 10^6 clients through `run_timestep`;
//! - `mixed_rw`: 1,000 mixed read/write jobs through `run_timestep`;
//! - `sharded_des`: the sharded rpcsim interference run plus the
//!   namespace-federation storm on the sharded PDES engine.
//!
//! Every op's output is checked (solver-independent invariants, and golden
//! digests at the reference seed); a failed check or a panic counts as a
//! failed op. See `README.md` for the metrics and how to run, trace and
//! compare.

pub mod compare;
pub mod des;
pub mod flows;
pub mod metrics;
pub mod paper;
pub mod run;
pub mod stats;
pub mod trace;

use trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["paper_suite", "storm_1m", "mixed_rw", "sharded_des"];

/// The seed whose outputs the golden digests pin.
pub const GOLDEN_SEED: u64 = 1;

/// What a workload is set up from.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed; inputs are a pure function of it.
    pub seed: u64,
    /// Reduced shapes, for tests and quick checks.
    pub smoke: bool,
}

impl Ctx {
    /// Whether outputs are compared with the committed golden digests: only
    /// at the reference seed, and never at smoke shapes.
    pub fn checks_golden(&self) -> bool {
        self.seed == GOLDEN_SEED && !self.smoke
    }
}

/// One benchmark workload: seeded set-up, one op, and the checks on its
/// output.
pub trait Workload: Sized {
    /// What one op returns.
    type Output;

    /// Build the centers or OSTs and generate the seeded inputs. Spans:
    /// `setup.build` and `setup.inputs`.
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self;

    /// One op: calls into the program's public functions, each inside a
    /// span named after the layer it enters.
    fn op(&self, tr: &mut Tracer) -> Self::Output;

    /// Check an op's output: invariants that hold whatever the solver does,
    /// then the golden digest when one is set.
    fn check(&self, out: &Self::Output) -> Result<(), String>;

    /// Digest of an op's output, in the golden file's format.
    fn digest(&self, out: &Self::Output) -> String;

    /// Pin the expected digest (tests pin one taken from a clean op).
    fn set_golden(&mut self, digest: Option<String>);

    /// Human-readable input shape, recorded with each run.
    fn shape(&self) -> String;
}

/// Compare `digest` with the expected one, if any.
pub fn check_golden(expected: Option<&str>, digest: &str) -> Result<(), String> {
    match expected {
        Some(want) if want.trim() != digest.trim() => Err(format!(
            "output digest {} differs from the golden {}",
            digest.trim(),
            want.trim()
        )),
        _ => Ok(()),
    }
}

/// 64-bit FNV-1a of `bytes` as 16 hex digits.
pub fn hex_digest(bytes: &[u8]) -> String {
    format!("{:016x}", spider_obs::fnv1a(bytes))
}
