//! CLI regenerating every experiment table/series (E1–E23; E10 is folded
//! into E15).
//!
//! Usage:
//!   cargo run -p omega-bench --release --bin experiments -- all
//!   cargo run -p omega-bench --release --bin experiments -- e3 e7
//!   cargo run -p omega-bench --release --bin experiments -- --quick all
//!   cargo run -p omega-bench --release --bin experiments -- --out-dir bench-out e18
//!
//! Alongside each table the CLI writes a machine-readable summary to
//! `BENCH_E<N>.json` — in the current directory by default, or under
//! `--out-dir <path>` (created if missing) so CI can upload the whole
//! directory as one artifact. E17/E18 additionally embed metrics snapshots
//! and span statistics.
//!
//! The process exits 1 when E7's steady-state gates, E16's chaos campaign,
//! E19's or E20's verdict, E22's deterministic rows (netsim and NoopProbe
//! parity; its wall-clock rows only report), E21's recovery gates, or
//! E23's read-path gates fail, so they gate CI directly. The special
//! `e23-violation` id runs E23's *induced* lease violation and exits 1 when
//! the StaleRead watchdog fires as intended — CI asserts that exit. An
//! unknown id exits 2 before anything runs.

use std::path::PathBuf;

use omega_bench::json::{self, JsonValue};
use omega_bench::table::Table;
use omega_bench::{
    e_chaos, e_consensus, e_latency, e_obs, e_omega, e_read, e_recovery, e_shard, e_throughput,
    e_trace, e_wire,
};

struct Scale {
    seeds: u64,
    horizon: u64,
    long_horizon: u64,
    sizes: Vec<usize>,
    quick: bool,
    out_dir: Option<PathBuf>,
}

impl Scale {
    fn scenario_json(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("seeds", JsonValue::U64(self.seeds)),
            ("horizon", JsonValue::U64(self.horizon)),
            ("long_horizon", JsonValue::U64(self.long_horizon)),
            (
                "sizes",
                JsonValue::Arr(
                    self.sizes
                        .iter()
                        .map(|&n| JsonValue::U64(n as u64))
                        .collect(),
                ),
            ),
            ("quick", JsonValue::Bool(self.quick)),
        ]
    }
}

fn write_json(s: &Scale, id: &str, value: &JsonValue) {
    // Every writer must keep the shared machine-readable floor
    // (`{experiment, pass, rows, registry?}`) as the format grows.
    if let Err(e) = json::validate_bench_summary(value) {
        eprintln!("BENCH json for {id} violates the shared summary shape: {e}");
    }
    match json::write_bench_json_in(s.out_dir.as_deref(), id, value) {
        Ok(path) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("failed to write BENCH json for {id}: {e}"),
    }
}

fn print_exp(id: &str, title: &str, s: &Scale, table: Table) {
    println!("\n=== {} — {} ===", id.to_uppercase(), title);
    println!("{}", table.render());
    let summary = json::experiment_summary(id, title, s.scenario_json(), &table);
    write_json(s, id, &summary);
}

/// Runs one experiment; returns `false` when it reported violations that
/// should fail the process.
fn run(id: &str, s: &Scale) -> bool {
    match id {
        "e1" => print_exp(
            id,
            "Ω convergence in system S (claim: 100%)",
            s,
            e_omega::e1_convergence(&s.sizes, s.seeds, s.horizon),
        ),
        "e2" => print_exp(
            id,
            "sender-set collapse over time (claim: →1 for comm-eff, stays n for baseline)",
            s,
            e_omega::e2_sender_series(10, 3, 20_000, 1_000),
        ),
        "e3" => print_exp(
            id,
            "steady-state message complexity (claim: Θ(n) vs Θ(n²))",
            s,
            e_omega::e3_message_complexity(&s.sizes, s.horizon),
        ),
        "e4" => print_exp(
            id,
            "robustness: stabilization vs mesh loss × GST",
            s,
            e_omega::e4_robustness(10, s.seeds.min(5), s.horizon),
        ),
        "e5" => print_exp(
            id,
            "counter boundedness over a long run (claim: finite accusations)",
            s,
            e_omega::e5_counter_stability(5, 17, s.long_horizon),
        ),
        "e6" => print_exp(
            id,
            "consensus safety & liveness in S_maj (claim: 0 violations, all decide)",
            s,
            e_consensus::e6_consensus(s.seeds.min(8), s.long_horizon),
        ),
        "e7" => {
            let (table, violations) =
                e_consensus::e7_steady_state(5, 100.min(s.horizon / 200), 10_000);
            print_exp(
                id,
                "consensus steady state (claim: no re-prepare, ~2(n-1) msgs/cmd, leader-centric)",
                s,
                table,
            );
            if violations > 0 {
                eprintln!("E7: {violations} gate violation(s) — failing the run");
                return false;
            }
        }
        "e8" => print_exp(
            id,
            "synchrony crossover: #♦-sources needed (claim: 1 suffices for comm-eff)",
            s,
            e_omega::e8_crossover(6, s.seeds.min(6), s.horizon),
        ),
        "e9" => print_exp(
            id,
            "ablation: accusation dedup × timeout policy",
            s,
            e_omega::e9_ablation(5, s.seeds.min(6), s.horizon),
        ),
        "e11" => print_exp(
            id,
            "message relaying: Ω under eventually timely *paths* (star topology)",
            s,
            e_omega::e11_relay(5, s.seeds.min(6), s.horizon),
        ),
        "e12" => print_exp(
            id,
            "deterministic blink adversary vs timeout policies (claim: adaptation is necessary)",
            s,
            e_omega::e12_blink(4, s.seeds.min(6), s.horizon),
        ),
        "e13" => print_exp(
            id,
            "failure-detector QoS: detection time vs timeout (crash the leader)",
            s,
            e_omega::e13_qos(5, s.seeds.min(8), s.horizon),
        ),
        "e14" => print_exp(
            id,
            "Ω-gated consensus vs rotating coordinator (◇S) on the same adversary",
            s,
            e_consensus::e14_vs_rotating(5, s.seeds.min(8), s.long_horizon),
        ),
        "e15" => print_exp(
            id,
            "TCP-socket validation: sender-set collapse over real connections",
            s,
            e_wire::e15_wirenet(5, 0.05, 10, 400),
        ),
        "e16" => {
            let (seeds, sizes, wall) = if s.quick {
                (2, vec![3usize], 1)
            } else {
                (4, vec![3usize, 5], 3)
            };
            let (table, violations) = e_chaos::e16_chaos(seeds, &sizes, wall);
            print_exp(
                id,
                "crash-restart chaos campaign (claim: 0 checker violations on every substrate)",
                s,
                table,
            );
            if violations > 0 {
                eprintln!("E16: {violations} checker/watchdog violation(s) — failing the run");
                return false;
            }
        }
        "e17" => {
            let (n, horizon) = if s.quick { (4, 20_000) } else { (5, 40_000) };
            let title =
                "election QoS + live steady-state efficiency via the probe/metrics pipeline";
            let (table, summary) = e_obs::e17_observability(n, horizon, 11);
            println!("\n=== {} — {} ===", id.to_uppercase(), title);
            println!("{}", table.render());
            write_json(s, id, &summary);
        }
        "e18" => {
            let (n, horizon) = if s.quick { (4, 24_000) } else { (5, 40_000) };
            let title = "causal tracing plane: spans, watchdog alarms, live scrape";
            let (table, summary) = e_trace::e18_tracing(n, horizon, 11);
            println!("\n=== {} — {} ===", id.to_uppercase(), title);
            println!("{}", table.render());
            write_json(s, id, &summary);
        }
        "e19" => {
            let (n, commands) = if s.quick { (3, 240) } else { (3, 960) };
            let title = "batched/pipelined throughput vs the one-slot-at-a-time baseline";
            let (table, summary) = e_throughput::e19_throughput(n, commands, 7);
            println!("\n=== {} — {} ===", id.to_uppercase(), title);
            println!("{}", table.render());
            write_json(s, id, &summary);
            if !passed(&summary) {
                eprintln!("E19: verdict FAIL — failing the run");
                return false;
            }
        }
        "e20" => {
            let (n, commands) = if s.quick { (3, 240) } else { (3, 960) };
            let title = "sharded multi-group throughput scaling with one shared Ω per node";
            let (table, summary) = e_shard::e20_shard(n, commands, 7);
            println!("\n=== {} — {} ===", id.to_uppercase(), title);
            println!("{}", table.render());
            write_json(s, id, &summary);
            if !passed(&summary) {
                eprintln!("E20: verdict FAIL — failing the run");
                return false;
            }
        }
        "e21" => {
            let (scenarios, commands, wall, ratio_gate) = if s.quick {
                (1, 160, 1, 3.0)
            } else {
                (3, 400, 2, 10.0)
            };
            let title = "bounded recovery: snapshot restarts, compacted WALs, state transfer";
            let (table, summary, violations) =
                e_recovery::e21_recovery(scenarios, commands, wall, ratio_gate);
            println!("\n=== {} — {} ===", id.to_uppercase(), title);
            println!("{}", table.render());
            write_json(s, id, &summary);
            if violations > 0 {
                eprintln!("E21: {violations} gate violation(s) — failing the run");
                return false;
            }
        }
        "e22" => {
            let (n, commands) = if s.quick { (3, 160) } else { (3, 400) };
            let title = "command-lifecycle latency attribution + live timeline plane";
            let (table, summary, deterministic_pass) =
                e_latency::e22_latency(n, commands, 7, s.quick);
            println!("\n=== {} — {} ===", id.to_uppercase(), title);
            println!("{}", table.render());
            write_json(s, id, &summary);
            if !deterministic_pass {
                eprintln!("E22: a netsim or NoopProbe parity row FAILed — failing the run");
                return false;
            }
        }
        "e23" => {
            let (n, reads, rounds) = if s.quick { (3, 240, 4) } else { (3, 960, 8) };
            let title = "leader leases: fast linearizable reads, zero stale, flat Ω traffic";
            let (table, summary, violations) = e_read::e23_read(n, reads, rounds, 7);
            println!("\n=== {} — {} ===", id.to_uppercase(), title);
            println!("{}", table.render());
            write_json(s, id, &summary);
            if violations > 0 {
                eprintln!("E23: {violations} gate violation(s) — failing the run");
                return false;
            }
        }
        "e23-violation" => {
            // The induced lease violation: sabotaged skew margins under the
            // partition adversary MUST trip the StaleRead watchdog, and this
            // run exits non-zero when it does — CI asserts that exit, so a
            // silently broken detector fails the pipeline.
            let (stale, total, dump) = e_read::e23_violation(7);
            println!("\n=== E23-VIOLATION — induced lease violation (detector check) ===");
            println!("stale-read alarms: {stale} (total alarms: {total})");
            if stale > 0 {
                eprintln!("{dump}");
                eprintln!("E23-VIOLATION: StaleRead fired as induced — exiting non-zero");
                return false;
            }
            eprintln!("E23-VIOLATION: the sabotaged run did NOT trip StaleRead — detector broken");
        }
        other => unreachable!("`main` rejects unknown ids: {other}"),
    }
    true
}

/// The `pass` verdict of an experiment's JSON summary.
fn passed(summary: &JsonValue) -> bool {
    let JsonValue::Obj(fields) = summary else {
        return false;
    };
    fields
        .iter()
        .any(|(k, v)| k == "pass" && matches!(v, JsonValue::Bool(true)))
}

const ALL: [&str; 22] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e11", "e12", "e13", "e14", "e15", "e16",
    "e17", "e18", "e19", "e20", "e21", "e22", "e23",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut out_dir: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out-dir" {
            match it.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out-dir requires a path");
                    std::process::exit(2);
                }
            }
        } else if let Some(dir) = a.strip_prefix("--out-dir=") {
            out_dir = Some(PathBuf::from(dir));
        } else if !a.starts_with("--") {
            ids.push(a.clone());
        }
    }
    let scale = if quick {
        Scale {
            seeds: 3,
            horizon: 30_000,
            long_horizon: 60_000,
            sizes: vec![3, 5, 10],
            quick: true,
            out_dir,
        }
    } else {
        Scale {
            seeds: 10,
            horizon: 60_000,
            long_horizon: 300_000,
            sizes: vec![3, 5, 10, 20, 40],
            quick: false,
            out_dir,
        }
    };
    if let Some(bad) = ids
        .iter()
        .find(|i| *i != "all" && *i != "e23-violation" && !ALL.contains(&i.as_str()))
    {
        eprintln!("unknown experiment id: {bad} (expected e1..e9, e11..e23, e23-violation or all)");
        std::process::exit(2);
    }
    let mut ok = true;
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        for id in ALL {
            ok &= run(id, &scale);
        }
    } else {
        for id in &ids {
            ok &= run(id, &scale);
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
