//! `paper_suite`: every experiment driver of the registry at paper scale,
//! one pass per op. Its inputs are the paper's fixed configurations, so it
//! ignores the seed; its output is checked table by table against the
//! committed digests.

use spider_core::center::Center;
use spider_core::config::{CenterConfig, Scale};
use spider_core::experiments::{registry, ExperimentEntry};
use spider_core::report::Table;
use spider_pfs::FileSystem;

use crate::trace::Tracer;
use crate::{hex_digest, Ctx, Workload};

/// Table cells that hold wall-clock measurements, and so differ from run to
/// run: `(title prefix, column headers)`. They are left out of the digest.
const WALL_CLOCK_CELLS: &[(&str, &[&str])] = &[("E12b:", &["serial ms", "parallel ms", "speedup"])];

/// The `paper_suite` workload.
pub struct PaperSuite {
    scale: Scale,
    experiments: Vec<ExperimentEntry>,
    golden: Option<String>,
}

/// One pass: each experiment id with the tables its driver returned.
pub type SuiteOutput = Vec<(&'static str, Vec<Table>)>;

/// Digest of one experiment's tables, wall-clock cells masked.
pub fn tables_digest(tables: &[Table]) -> String {
    let mut text = String::new();
    for t in tables {
        let masked: &[&str] = WALL_CLOCK_CELLS
            .iter()
            .find(|(prefix, _)| t.title.starts_with(prefix))
            .map_or(&[], |(_, cols)| cols);
        text.push_str(&t.title);
        text.push('\n');
        text.push_str(&t.headers.join("\t"));
        text.push('\n');
        for row in &t.rows {
            for (h, cell) in t.headers.iter().zip(row) {
                text.push_str(if masked.contains(&h.as_str()) {
                    "*"
                } else {
                    cell
                });
                text.push('\t');
            }
            text.push('\n');
        }
    }
    hex_digest(text.as_bytes())
}

impl Workload for PaperSuite {
    type Output = SuiteOutput;

    /// Build the Spider II center the paper configuration describes and
    /// check that it has the published shape, then load the registry.
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let scale = if ctx.smoke {
            Scale::Small
        } else {
            Scale::Paper
        };
        tr.span("setup.build", |_| {
            let center = Center::build(CenterConfig::at_scale(scale));
            if scale == Scale::Paper {
                let osts: usize = center.filesystems.iter().map(FileSystem::ost_count).sum();
                assert_eq!(osts, 2_016, "Spider II has 2,016 OSTs");
                assert_eq!(center.routers.len(), 440, "Spider II has 440 routers");
            }
        });
        let experiments = tr.span("setup.inputs", |_| registry());
        PaperSuite {
            scale,
            experiments,
            golden: (!ctx.smoke)
                .then(|| include_str!("../golden/paper_suite.txt").trim().to_owned()),
        }
    }

    fn op(&self, tr: &mut Tracer) -> SuiteOutput {
        self.experiments
            .iter()
            .map(|e| {
                let tables = tr.span(&format!("core.experiments.{}", e.id), |_| {
                    (e.run)(self.scale)
                });
                (e.id, tables)
            })
            .collect()
    }

    /// Every experiment produced at least one table, and — when a golden
    /// file is set — every experiment's digest matches its line in it.
    fn check(&self, out: &SuiteOutput) -> Result<(), String> {
        if out.len() != self.experiments.len() {
            return Err(format!(
                "{} of {} experiments ran",
                out.len(),
                self.experiments.len()
            ));
        }
        if let Some((id, _)) = out.iter().find(|(_, tables)| tables.is_empty()) {
            return Err(format!("{id} produced no table"));
        }
        let Some(golden) = &self.golden else {
            return Ok(());
        };
        let got = self.digest(out);
        let mismatched: Vec<String> = got
            .lines()
            .filter(|line| !golden.lines().any(|g| g.trim() == *line))
            .map(|line| line.split_whitespace().next().unwrap_or("").to_owned())
            .collect();
        if mismatched.is_empty() && golden.lines().count() == out.len() {
            Ok(())
        } else {
            Err(format!(
                "table digests differ from the golden file for [{}]",
                mismatched.join(", ")
            ))
        }
    }

    fn digest(&self, out: &SuiteOutput) -> String {
        out.iter()
            .map(|(id, tables)| format!("{id} {}", tables_digest(tables)))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn set_golden(&mut self, digest: Option<String>) {
        self.golden = digest;
    }

    fn shape(&self) -> String {
        format!(
            "{} experiments at {:?} scale (seed ignored)",
            self.experiments.len(),
            self.scale
        )
    }
}
