//! The repository benchmark: seeded CDE workloads, end-to-end metrics
//! from an untraced run and a per-layer ledger from a traced one. See
//! README.md beside this file. `serve_mix` is not listed in
//! BENCHMARK.json: it runs, and fails, until the daemon stops keeping
//! every finished campaign. `sequential_enum` runs and passes but is not
//! listed either: its CPU per probe follows the host's speed from
//! minute to minute by more than a bound allows.
//!
//! ```text
//! perfbench --workload <census_flood|sequential_enum|lossy_exact|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Everything is measured from outside the program: the benchmark times
//! its own calls into each layer's public functions and reads counters
//! the program already keeps. The last line of standard output is the
//! result object; the line before it carries the seed, the tail
//! percentiles with their sample counts, and the traced run's ledger.
//! The exit code is nonzero when any correctness check failed.

mod census;
mod procfs;
mod report;
mod sequential;
mod serve;
mod stats;
mod trace;
mod world;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Output directory for spans and daemon checkpoints, under the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".perfbench-out";

const WORKLOADS: [&str; 4] = [
    "census_flood",
    "sequential_enum",
    "lossy_exact",
    "serve_mix",
];

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => trace = Some(matches!(value.as_str(), "1" | "true")),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(OUT_DIR),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(serve::CHILD_FLAG) {
        return serve::child_main(&args[1..]);
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(&cfg.out_dir).expect("create output directory");
    let mut report = Report::default();
    match cfg.workload.as_str() {
        "census_flood" => census::run(&cfg, &mut report),
        "sequential_enum" => sequential::run(&cfg, &mut report, sequential::Kind::Clean),
        "lossy_exact" => sequential::run(&cfg, &mut report, sequential::Kind::Lossy),
        _ => serve::run(&cfg, &mut report),
    }
    let set = if cfg.trace { PER_LAYER } else { END_TO_END };
    let result = report.result_line(set);
    println!("{}", report.detail_line(&cfg.workload, cfg.seed, cfg.trace));
    println!("{result}");
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checks failed (fail_frac {})",
            report.failed,
            report.attempted,
            report.fail_frac()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
