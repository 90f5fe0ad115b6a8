//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! figures [--scale paper|small] [--json PATH] [--obs DIR] [IDS...]
//! ```
//!
//! With no ids, every experiment runs (E1–E21). `--json PATH` additionally writes the
//! tables as machine-readable JSON (used to refresh `EXPERIMENTS.md`).
//!
//! `--obs DIR` (or the `SPIDER_OBS` env var) enables the `spider-obs`
//! layer: the run writes `manifest.json` (provenance + wall-clock),
//! `metrics.prom`, `trace.jsonl` and `trace_chrome.json` (loadable in
//! Perfetto) into DIR. With obs off, output is byte-identical to an
//! uninstrumented build.

use std::io::Write;

use spider_bench::{run_all, run_experiment};
use spider_core::config::Scale;
use spider_core::experiments::registry;

fn main() {
    let mut scale = Scale::Paper;
    let mut json_path: Option<String> = None;
    let mut obs_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs" => {
                obs_dir = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--obs requires a directory path");
                    std::process::exit(2);
                }));
            }
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = match v.as_str() {
                    "paper" => Scale::Paper,
                    "small" => Scale::Small,
                    other => {
                        eprintln!("unknown scale '{other}' (use paper|small)");
                        std::process::exit(2);
                    }
                };
            }
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!("figures [--scale paper|small] [--json PATH] [--obs DIR] [IDS...]");
                return;
            }
            id => ids.push(id.to_owned()),
        }
    }

    // --obs wins over SPIDER_OBS; either enables the observability layer.
    match obs_dir {
        Some(dir) => spider_obs::init(&dir),
        None => {
            spider_obs::init_from_env();
        }
    }
    if spider_obs::enabled() {
        let config = spider_core::config::CenterConfig::at_scale(scale);
        spider_obs::manifest_set("tool", "figures");
        spider_obs::manifest_set("scale", &format!("{scale:?}").to_lowercase());
        spider_obs::manifest_set("seed", &format!("{:#x}", config.seed));
        spider_obs::manifest_set(
            "config_hash",
            &format!(
                "{:016x}",
                spider_obs::fnv1a(format!("{config:?}").as_bytes())
            ),
        );
        spider_obs::manifest_set("git_rev", &spider_obs::git_rev());
        spider_obs::manifest_set("solver", "maxmin-event-driven");
        spider_obs::manifest_set(
            "experiments",
            &if ids.is_empty() {
                "all".to_owned()
            } else {
                ids.join(",")
            },
        );
    }

    let results: Vec<(String, String, Vec<spider_core::report::Table>)> = if ids.is_empty() {
        run_all(scale)
    } else {
        ids.iter()
            .map(|id| {
                let tables = run_experiment(id, scale).unwrap_or_else(|| {
                    let known = registry();
                    let (first, last) = (known[0].id, known[known.len() - 1].id);
                    eprintln!("unknown experiment '{id}' (use {first}..{last})");
                    std::process::exit(2);
                });
                (id.to_uppercase(), String::new(), tables)
            })
            .collect()
    };

    println!(
        "spider reproduction harness — scale: {scale:?}, experiments: {}",
        results.len()
    );
    println!("====================================================================");
    for (id, paper_ref, tables) in &results {
        println!();
        if paper_ref.is_empty() {
            println!("=== {id} ===");
        } else {
            println!("=== {id}: {paper_ref} ===");
        }
        for t in tables {
            println!();
            print!("{t}");
        }
    }

    if let Some(path) = json_path {
        use spider_obs::jsonio::write_str;
        let mut body = String::from("[");
        for (i, (id, pr, tables)) in results.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str("{\"id\":");
            write_str(&mut body, id);
            body.push_str(",\"paper_ref\":");
            write_str(&mut body, pr);
            body.push_str(",\"tables\":[");
            for (j, t) in tables.iter().enumerate() {
                if j > 0 {
                    body.push(',');
                }
                body.push_str(&t.to_json());
            }
            body.push_str("]}");
        }
        body.push(']');
        let mut f = std::fs::File::create(&path).expect("create json output");
        f.write_all(body.as_bytes()).expect("write json output");
        eprintln!("wrote {path}");
    }

    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}
