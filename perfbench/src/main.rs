//! End-to-end and per-layer benchmark of the three paths users feel:
//! merging a diverged history (`offline_merge`), opening a stored document
//! (`doc_open`) and receiving a live edit stream (`live_edit`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline_merge|doc_open|live_edit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last stdout line is one JSON object; every metric is also
//! printed by name with its unit above it. The run fails (exit code 1)
//! on any oracle or self-check mismatch. See README.md.

mod alloc;
mod compose;
mod inputs;
mod live;
mod merge;
mod open;
mod report;

use std::time::Instant;

use report::{json_num, json_str, median, Outcome};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Untraced runs set up this many times and report the median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Trace scale (`eg_trace::builtin_specs`).
    pub scale: f64,
}

const USAGE: &str = "usage: eg-perfbench --workload <offline_merge|doc_open|live_edit> \
[--seed N] [--seconds S] [--trace 0|1] [--scale X]";

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        traced: false,
        scale: 0.02,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => cfg.scale = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.scale > 0.0) {
        return Err("--seconds and --scale must be positive".to_owned());
    }
    Ok(cfg)
}

/// Runs `setup` `reps` times; returns the last result and the median
/// seconds one setup took.
pub fn setup_median<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), median(&times))
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match cfg.workload.as_str() {
        "offline_merge" => merge::run(&cfg),
        "doc_open" => open::run(&cfg),
        "live_edit" => live::run(&cfg),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let correct = print(&cfg, &out);
    if !correct {
        std::process::exit(1);
    }
}

/// Prints the run's facts, a metric table and the result line. Returns
/// whether the run was correct.
fn print(cfg: &Config, out: &Outcome) -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (key, value) in &out.notes {
        eprintln!("  {key}: {value}");
    }
    for m in &out.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    let config = [
        ("workload", json_str(&cfg.workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", json_num(cfg.seconds)),
        ("trace", u8::from(cfg.traced).to_string()),
        ("scale", json_num(cfg.scale)),
        ("offered_rate_per_s", json_num(live::OFFERED_RATE)),
        ("nproc", nproc.to_string()),
        ("ops", out.attempted.to_string()),
        ("ops_failed", out.failed.to_string()),
    ];
    println!("{}", json_object(&config));
    for (name, value, unit) in out.metrics.iter() {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let unbounded = out.unbounded.iter().copied();
    for (name, value, unit) in unbounded.chain([("failed_frac", failed_frac, "ratio")]) {
        println!("  {name:<28} {value:>16.6} {unit} (not in the result line)");
    }
    let correct = out.mismatches.is_empty() && out.failed == 0 && out.attempted > 0;
    let metrics: Vec<(&str, String)> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = format!(
                "{{\"value\": {}, \"unit\": {}}}",
                json_num(value),
                json_str(unit)
            );
            (name, v)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_object(&metrics)
    );
    correct
}

/// A JSON object from keys and already-rendered values.
fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
