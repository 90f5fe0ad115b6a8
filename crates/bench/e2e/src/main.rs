//! `spider-benchmark`: the end-to-end benchmark's command line.
//!
//! ```text
//! spider-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!                  [--smoke] [--out PATH] [--trace-dir DIR]
//! spider-benchmark compare A_DIR B_DIR
//! spider-benchmark golden <workload>
//! ```
//!
//! A run prints its metrics by name with units, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--out` also writes the run record with provenance (a
//! directory when the workload is `all`). `--smoke` runs reduced shapes and
//! accepts output paths only inside the build directory (`target/`).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use spider_benchmark::run::{run, Opts, Report};
use spider_benchmark::trace::Tracer;
use spider_benchmark::{compare, metrics, Ctx, Workload, GOLDEN_SEED, WORKLOADS};
use spider_obs::jsonio::{parse as parse_json, JsonValue};

const USAGE: &str = "usage: spider-benchmark --workload <name|all> [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out PATH] [--trace-dir DIR]\n       \
spider-benchmark compare A_DIR B_DIR\n       spider-benchmark golden <workload>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("golden") => golden_cmd(&args[1..]),
        _ => parse(&args).and_then(|(opts, out)| {
            if opts.workload == "all" {
                run_all(&opts, out.as_deref())
            } else {
                run_one(&opts, out.as_deref())
            }
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("spider-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parse a run's arguments into its options and its `--out` path.
fn parse(args: &[String]) -> Result<(Opts, Option<PathBuf>), String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: GOLDEN_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        trace_dir: None,
    };
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--smoke" => {
                opts.smoke = true;
                i += 1;
                continue;
            }
            "--workload" => opts.workload = value(args, i, flag)?.to_owned(),
            "--seed" => {
                opts.seed = value(args, i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(args, i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3_600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                opts.seconds = s;
            }
            "--trace" => {
                opts.trace = match value(args, i, flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                };
            }
            "--out" => out = Some(PathBuf::from(value(args, i, flag)?)),
            "--trace-dir" => opts.trace_dir = Some(PathBuf::from(value(args, i, flag)?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (use one of {}, or all)",
            opts.workload,
            WORKLOADS.join(", ")
        ));
    }
    if opts.smoke {
        let build_dir = build_dir()?;
        for p in out.iter().chain(&opts.trace_dir) {
            let abs = std::path::absolute(p).map_err(|e| format!("{}: {e}", p.display()))?;
            if !abs.starts_with(&build_dir) {
                return Err(format!(
                    "smoke runs write only inside the build directory {}, not {}",
                    build_dir.display(),
                    p.display()
                ));
            }
        }
    }
    Ok((opts, out))
}

/// Cargo's build directory (`target/` by default): the binary lives in its
/// `release/` or `debug/` subdirectory.
fn build_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("no build directory above {}", exe.display()))
}

fn print_report(r: &Report, opts: &Opts) {
    println!(
        "{}: seed {}, {} ops attempted, {} failed; {}",
        r.workload, opts.seed, r.attempted, r.failed, r.shape
    );
    for (name, value, unit) in &r.metrics {
        println!("  {name:<40} {value:>14.4} {unit}");
    }
    if !r.self_ms.is_empty() {
        println!("  self time by span over the traced ops:");
        for (name, ms) in &r.self_ms {
            println!("    {name:<38} {ms:>14.3} ms");
        }
    }
    for f in r.failures.iter().take(5) {
        eprintln!("{}: failed op: {f}", r.workload);
    }
}

fn run_one(opts: &Opts, out: Option<&Path>) -> Result<ExitCode, String> {
    let report = run(opts)?;
    print_report(&report, opts);
    if let Some(path) = out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, report.record_json(opts))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report.result_json());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run every workload, one fresh child process at a time, so each one's
/// peak memory is its own.
fn run_all(opts: &Opts, out: Option<&Path>) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut base = vec![
        "--seed".to_owned(),
        opts.seed.to_string(),
        "--seconds".to_owned(),
        opts.seconds.to_string(),
        "--trace".to_owned(),
        u8::from(opts.trace).to_string(),
    ];
    if opts.smoke {
        base.push("--smoke".to_owned());
    }
    let mut total = Report::default();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(&base).args(["--workload", w]);
        if let Some(dir) = out {
            cmd.arg("--out").arg(dir.join(format!("{w}.json")));
        }
        if let Some(dir) = &opts.trace_dir {
            cmd.arg("--trace-dir").arg(dir.join(w));
        }
        let child = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let Ok(result) = parse_json(last) else {
            eprintln!("{w}: no result ({})", child.status);
            total.attempted += 1;
            total.failed += 1;
            continue;
        };
        let count = |k: &str| result.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        total.attempted += count("attempted");
        total.failed += count("failed");
        if let Some(JsonValue::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                total
                    .metrics
                    .push((format!("{w}.{name}"), value, metrics::unit_of(name)));
            }
        }
    }
    println!("{}", total.result_json());
    Ok(if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two directories".to_owned());
    };
    let (text, regressed) = compare::compare_dirs(Path::new(a), Path::new(b))?;
    print!("{text}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Print one op's digest at the golden seed, in the golden file's format.
fn golden_cmd(args: &[String]) -> Result<ExitCode, String> {
    fn digest<W: Workload>() -> String {
        let ctx = Ctx {
            seed: GOLDEN_SEED,
            smoke: false,
        };
        let mut tr = Tracer::new(false);
        let w = W::setup(&ctx, &mut tr);
        let out = w.op(&mut tr);
        w.digest(&out)
    }
    use spider_benchmark::{des, flows, paper};
    let text = match args {
        [w] if w == "paper_suite" => digest::<paper::PaperSuite>(),
        [w] if w == "storm_1m" => digest::<flows::Storm1m>(),
        [w] if w == "mixed_rw" => digest::<flows::MixedRw>(),
        [w] if w == "sharded_des" => digest::<des::ShardedDes>(),
        _ => return Err(format!("golden takes one of {}", WORKLOADS.join(", "))),
    };
    println!("{text}");
    Ok(ExitCode::SUCCESS)
}
