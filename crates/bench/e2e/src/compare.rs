//! `compare A_DIR B_DIR`: judge a change (B) against its parent (A) from
//! two sets of run records, one row per end-to-end metric and workload.
//!
//! The rule: a metric *improved* when B wins at least nine tenths of the
//! paired runs (ties count for neither) and the medians differ by more than
//! the distance between A's quartiles. Otherwise, when either side's
//! spread (quartile distance over median) is wider than the metric's bound,
//! it is *unresolved* — unless every B run beats every A run. Otherwise it
//! *regressed* when B's median is worse than A's by more than the bound,
//! and is *within-bound* when not.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use spider_obs::jsonio::{parse, JsonValue};

use crate::metrics::{Better, END_TO_END};
use crate::stats::quartiles;

/// A verdict on one metric and workload pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, by the pair-win and quartile rule.
    Improved,
    /// B is no worse than A by more than the bound.
    WithinBound,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Report spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict plus the pair-win count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The verdict.
    pub verdict: Verdict,
    /// Pairs B won.
    pub wins: usize,
    /// Pairs compared (runs matched in order).
    pub pairs: usize,
}

/// Judge change `b` against parent `a` for a metric with direction
/// `better` and regression bound `bound` (a share of A's median).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Judgement {
    // `worse(x, y)` > 0 when y is worse than x.
    let worse = |x: f64, y: f64| match better {
        Better::Lower => y - x,
        Better::Higher => x - y,
    };
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| worse(**x, **y) < 0.0)
        .count();
    let (aq1, amed, aq3) = quartiles(a);
    let (bq1, bmed, bq3) = quartiles(b);
    let gap = worse(amed, bmed);
    let spread = |q1: f64, med: f64, q3: f64| {
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        }
    };
    let all_better = a.iter().all(|x| b.iter().all(|y| worse(*x, *y) < 0.0));
    let verdict = if pairs > 0 && wins * 10 >= pairs * 9 && -gap > aq3 - aq1 {
        Verdict::Improved
    } else if spread(aq1, amed, aq3).max(spread(bq1, bmed, bq3)) > bound && !all_better {
        Verdict::Unresolved
    } else if gap > bound * amed.abs() {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    };
    Judgement {
        verdict,
        wins,
        pairs,
    }
}

/// End-to-end values of untraced run records found under `dir`, keyed by
/// `(workload, metric)`, in file-name order.
pub fn load(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut files = Vec::new();
    collect_json(dir, &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    files.sort();
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let rec = parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let (Some(workload), Some(JsonValue::Obj(metrics))) = (
            rec.get("workload").and_then(JsonValue::as_str),
            rec.get("result").and_then(|r| r.get("metrics")),
        ) else {
            continue;
        };
        if rec.get("trace") == Some(&JsonValue::Bool(true)) {
            continue;
        }
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

fn collect_json(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_json(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
    Ok(())
}

/// Compare two record directories. Returns the report text and whether any
/// pair regressed.
pub fn compare_dirs(a_dir: &Path, b_dir: &Path) -> Result<(String, bool), String> {
    let a = load(a_dir)?;
    let b = load(b_dir)?;
    let mut text = format!(
        "{:<12} {:<12} {:>28} {:>28} {:>6}  verdict\n",
        "workload", "metric", "A q1 / median / q3", "B q1 / median / q3", "wins"
    );
    let mut regressed = false;
    let mut rows = 0;
    for ((workload, metric), av) in &a {
        let Some(m) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let Some(bv) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let j = judge(av, bv, m.better, m.bound);
        regressed |= j.verdict == Verdict::Regressed;
        let q = |v: &[f64]| {
            let (q1, med, q3) = quartiles(v);
            format!("{q1:.4} / {med:.4} / {q3:.4}")
        };
        text.push_str(&format!(
            "{workload:<12} {metric:<12} {:>28} {:>28} {:>6}  {} ({} {})\n",
            q(av),
            q(bv),
            format!("{}/{}", j.wins, j.pairs),
            j.verdict.as_str(),
            m.unit,
            m.better.as_str(),
        ));
        rows += 1;
    }
    if rows == 0 {
        return Err("no end-to-end metric appears in both directories".to_owned());
    }
    Ok((text, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(xs: &[f64]) -> Vec<f64> {
        xs.to_vec()
    }

    #[test]
    fn a_clear_win_is_improved() {
        let a = v(&[
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.0,
        ]);
        let b: Vec<f64> = a.iter().map(|x| x - 20.0).collect();
        let j = judge(&a, &b, Better::Lower, 0.10);
        assert_eq!(j.verdict, Verdict::Improved);
        assert_eq!((j.wins, j.pairs), (10, 10));
        // The same gain on a higher-is-better metric reads the other way.
        assert_eq!(
            judge(&a, &b, Better::Higher, 0.10).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn noise_inside_the_bound_is_within_bound() {
        let a = v(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let b = v(&[100.5, 99.0, 100.8, 99.7, 100.1]);
        assert_eq!(
            judge(&a, &b, Better::Lower, 0.10).verdict,
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_slowdown_past_the_bound_is_regressed() {
        let a = v(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&a, &b, Better::Lower, 0.10).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        // Quartile distance 60 on a median of 100: spread 0.6 > 0.10.
        let a = v(&[60.0, 140.0, 80.0, 120.0, 100.0]);
        let b = v(&[130.0, 70.0, 110.0, 90.0, 105.0]);
        assert_eq!(
            judge(&a, &b, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn wide_spread_with_every_change_run_better_is_resolved() {
        // Spread is wide, but every B run beats every A run, so the pair is
        // resolved. B wins every pair, yet the medians (200 vs 90) differ by
        // less than A's quartile distance (150): not improved either.
        let a = v(&[200.0, 300.0, 250.0, 150.0, 100.0]);
        let b = v(&[90.0, 60.0, 95.0, 40.0, 99.0]);
        let j = judge(&a, &b, Better::Lower, 0.10);
        assert_eq!(j.wins, 5);
        assert_eq!(j.verdict, Verdict::WithinBound);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let a = v(&[1.0; 10]);
        let j = judge(&a, &a, Better::Lower, 0.10);
        assert_eq!(j.wins, 0);
        assert_eq!(j.verdict, Verdict::WithinBound);
    }
}
