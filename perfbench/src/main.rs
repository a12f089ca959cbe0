//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against the repository's KV stack, prints a report and,
//! as its last line, the JSON result. Exits non-zero if the correctness
//! check fails or the arguments are wrong.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::bench::{self, Config, Workload};

/// Hard wall-clock cap on a run, whatever the system does.
const HARD_CAP: Duration = Duration::from_secs(170);

fn parse() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(0.5..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be within 0.5..=60, not {seconds}"));
    }
    let build =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        wal_delay: Duration::ZERO,
        scratch: build.join("perfbench-scratch"),
    })
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", names.join("|"));
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(HARD_CAP);
        eprintln!(
            "perfbench: run exceeded its {} s cap; aborting",
            HARD_CAP.as_secs()
        );
        std::process::exit(3);
    });
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.scratch.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={} cores={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let out = bench::run(&cfg);
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", perfbench::json_line(&out, cfg.trace));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
