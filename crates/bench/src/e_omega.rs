//! Experiments E1–E5, E8, E9: the leader-election claims.

use lls_primitives::{Duration, Env, Instant, ProcessId, Sm};
use netsim::{FaultPlan, SimBuilder, Simulator, SystemSParams, Topology};
use omega::baseline::{AllToAllOmega, BroadcastSourceOmega};
use omega::spec::{stabilization, tail_cut, LeaderRecord, Stabilization};
use omega::{classify_msg, CommEffOmega, OmegaParams, TimeoutPolicy};

use crate::percentile;
use crate::table::Table;

/// Runs an Ω state machine and returns the simulator at `horizon`.
pub fn run_omega<S, F>(
    n: usize,
    seed: u64,
    topology: Topology,
    faults: FaultPlan,
    horizon: u64,
    make: F,
) -> Simulator<S>
where
    S: Sm<Output = ProcessId, Request = ()>,
    F: FnMut(&Env) -> S,
{
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(topology)
        .faults(faults)
        .build_with(make);
    sim.run_until(Instant::from_ticks(horizon));
    sim
}

/// Leader-change trace of a finished run.
pub fn leader_trace<S: Sm<Output = ProcessId>>(sim: &Simulator<S>) -> Vec<LeaderRecord> {
    sim.outputs()
        .iter()
        .map(|e| LeaderRecord {
            at: e.at,
            process: e.process,
            leader: e.output,
        })
        .collect()
}

fn stab_of<S: Sm<Output = ProcessId>>(
    sim: &Simulator<S>,
    correct: &[ProcessId],
) -> Option<Stabilization> {
    stabilization(&leader_trace(sim), correct).filter(|s| s.at <= tail_cut(sim.now(), 20))
}

/// **E1** — Ω convergence in system S across sizes and seeds.
pub fn e1_convergence(sizes: &[usize], seeds: u64, horizon: u64) -> Table {
    let mut t = Table::new(vec![
        "n",
        "runs",
        "converged",
        "stab_t(p50)",
        "stab_t(p95)",
        "quiesce_t(p50)",
    ]);
    for &n in sizes {
        let mut stabs = Vec::new();
        let mut quiets = Vec::new();
        let mut ok = 0usize;
        for seed in 0..seeds {
            let source = ProcessId((seed % n as u64) as u32);
            let topo = Topology::system_s(n, source, SystemSParams::default());
            let sim = run_omega(n, seed, topo, FaultPlan::new(n), horizon, |env| {
                CommEffOmega::new(env, OmegaParams::default())
            });
            let correct: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
            if let Some(s) = stab_of(&sim, &correct) {
                ok += 1;
                stabs.push(s.at.ticks());
                if let Some(q) = sim.stats().quiescence_time(1) {
                    quiets.push(q.ticks());
                }
            }
        }
        stabs.sort_unstable();
        quiets.sort_unstable();
        t.row(vec![
            n.to_string(),
            seeds.to_string(),
            format!("{}/{}", ok, seeds),
            if stabs.is_empty() {
                "-".into()
            } else {
                percentile(&stabs, 50.0).to_string()
            },
            if stabs.is_empty() {
                "-".into()
            } else {
                percentile(&stabs, 95.0).to_string()
            },
            if quiets.is_empty() {
                "-".into()
            } else {
                percentile(&quiets, 50.0).to_string()
            },
        ]);
    }
    t
}

/// **E2** — the sender-set series over time: communication-efficient
/// algorithm vs the gossiping baseline, same system.
pub fn e2_sender_series(n: usize, seed: u64, horizon: u64, window: u64) -> Table {
    let topo = Topology::system_s(n, ProcessId(1), SystemSParams::default());
    let mut eff = SimBuilder::new(n)
        .seed(seed)
        .topology(topo.clone())
        .stats_window(Duration::from_ticks(window))
        .build_with(|env| CommEffOmega::new(env, OmegaParams::default()));
    eff.run_until(Instant::from_ticks(horizon));
    let mut base = SimBuilder::new(n)
        .seed(seed)
        .topology(topo)
        .stats_window(Duration::from_ticks(window))
        .build_with(|env| BroadcastSourceOmega::new(env, OmegaParams::default()));
    base.run_until(Instant::from_ticks(horizon));

    let mut t = Table::new(vec!["t", "senders(comm-eff)", "senders(broadcast)"]);
    let we = eff.stats().windows();
    let wb = base.stats().windows();
    for (i, (a, b)) in we.iter().zip(wb).enumerate() {
        if (i as u64 * window) > horizon {
            break;
        }
        t.row(vec![
            (i as u64 * window).to_string(),
            a.sender_count.to_string(),
            b.sender_count.to_string(),
        ]);
    }
    t
}

/// **E3** — steady-state message complexity per heartbeat period η.
pub fn e3_message_complexity(sizes: &[usize], horizon: u64) -> Table {
    let eta = OmegaParams::default().eta.ticks();
    let mut t = Table::new(vec![
        "n",
        "comm-eff msgs/η",
        "theory n-1",
        "broadcast msgs/η",
        "all-to-all msgs/η",
        "theory n(n-1)",
        "reduction",
    ]);
    for &n in sizes {
        // Messages per η over the whole stats windows inside
        // [horizon/2, horizon): `Stats::finish` also flushes the partial
        // window that starts at the horizon, which would count extra.
        let tail_rate = |stats: &netsim::Stats| -> f64 {
            let w = stats.window_len().ticks();
            let whole = stats.windows().iter().enumerate().filter(|(i, _)| {
                let start = *i as u64 * w;
                start >= horizon / 2 && start + w <= horizon
            });
            let (count, total) =
                whole.fold((0u64, 0u64), |(c, m), (_, win)| (c + 1, m + win.messages));
            total as f64 * eta as f64 / (count * w) as f64
        };

        let topo = Topology::system_s(n, ProcessId(0), SystemSParams::default());
        let eff = run_omega(n, 7, topo.clone(), FaultPlan::new(n), horizon, |env| {
            CommEffOmega::new(env, OmegaParams::default())
        });
        let base_b = run_omega(n, 7, topo, FaultPlan::new(n), horizon, |env| {
            BroadcastSourceOmega::new(env, OmegaParams::default())
        });
        let base_a = run_omega(
            n,
            7,
            Topology::all_timely(n, Duration::from_ticks(2)),
            FaultPlan::new(n),
            horizon,
            |env| AllToAllOmega::new(env, OmegaParams::default()),
        );
        let (re, rb, ra) = (
            tail_rate(eff.stats()),
            tail_rate(base_b.stats()),
            tail_rate(base_a.stats()),
        );
        t.row(vec![
            n.to_string(),
            format!("{re:.1}"),
            (n - 1).to_string(),
            format!("{rb:.1}"),
            format!("{ra:.1}"),
            (n * (n - 1)).to_string(),
            format!("{:.1}x", rb / re),
        ]);
    }
    t
}

/// **E4** — robustness grid: stabilization vs mesh loss × GST.
pub fn e4_robustness(n: usize, seeds: u64, horizon: u64) -> Table {
    let mut t = Table::new(vec![
        "mesh_loss",
        "gst",
        "converged",
        "stab_t(p50)",
        "leader_changes(mean)",
        "max_counter",
    ]);
    for &loss in &[0.0, 0.2, 0.5, 0.8] {
        for &gst in &[0u64, 500, 2_000] {
            let mut stabs = Vec::new();
            let mut changes = 0usize;
            let mut max_counter = 0u64;
            let mut ok = 0usize;
            for seed in 0..seeds {
                let topo = Topology::system_s(
                    n,
                    ProcessId(2),
                    SystemSParams {
                        gst,
                        mesh_loss: loss,
                        ..SystemSParams::default()
                    },
                );
                let sim = run_omega(n, seed, topo, FaultPlan::new(n), horizon, |env| {
                    CommEffOmega::new(env, OmegaParams::default())
                });
                let correct: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
                if let Some(s) = stab_of(&sim, &correct) {
                    ok += 1;
                    stabs.push(s.at.ticks());
                }
                changes += leader_trace(&sim).len().saturating_sub(n);
                for p in 0..n as u32 {
                    max_counter = max_counter.max(sim.node(ProcessId(p)).own_counter());
                }
            }
            stabs.sort_unstable();
            t.row(vec![
                format!("{loss:.1}"),
                gst.to_string(),
                format!("{ok}/{seeds}"),
                if stabs.is_empty() {
                    "-".into()
                } else {
                    percentile(&stabs, 50.0).to_string()
                },
                format!("{:.1}", changes as f64 / (seeds as f64 * n as f64)),
                max_counter.to_string(),
            ]);
        }
    }
    t
}

/// **E5** — counter boundedness over a long run.
pub fn e5_counter_stability(n: usize, seed: u64, horizon: u64) -> Table {
    let topo = Topology::system_s(n, ProcessId(2), SystemSParams::default());
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(topo)
        .classify(classify_msg)
        .build_with(|env| CommEffOmega::new(env, OmegaParams::default()));
    sim.run_until(Instant::from_ticks(horizon));
    let mut t = Table::new(vec![
        "process",
        "final_counter",
        "accusations_sent",
        "last_send_t",
        "timeout_on_leader",
    ]);
    let correct: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let leader = stabilization(&leader_trace(&sim), &correct)
        .map(|s| s.leader)
        .unwrap_or(ProcessId(0));
    for p in (0..n as u32).map(ProcessId) {
        let node = sim.node(p);
        t.row(vec![
            p.to_string(),
            node.own_counter().to_string(),
            node.accusations_sent().to_string(),
            sim.stats()
                .last_send(p)
                .map(|i| i.ticks().to_string())
                .unwrap_or_else(|| "-".into()),
            node.timeout_of(leader).ticks().to_string(),
        ]);
    }
    t
}

/// **E8** — synchrony crossover: how many ♦-timely processes does each
/// algorithm need? `k` = number of processes whose outgoing links are
/// ♦-timely; everything else is a fair-lossy mesh.
pub fn e8_crossover(n: usize, seeds: u64, horizon: u64) -> Table {
    let mut t = Table::new(vec![
        "timely_sources k",
        "timely links",
        "comm-eff converged",
        "all-to-all converged",
        "tail senders (eff)",
        "tail senders (a2a)",
    ]);
    for k in (0..=n).rev() {
        let mut eff_ok = 0usize;
        let mut a2a_ok = 0usize;
        let mut eff_senders = 0usize;
        let mut a2a_senders = 0usize;
        for seed in 0..seeds {
            let sources: Vec<ProcessId> = (0..k as u32).map(ProcessId).collect();
            let params = SystemSParams {
                mesh_loss: 0.4,
                gst: 500,
                ..SystemSParams::default()
            };
            let topo = Topology::system_s_multi(n, &sources, params);
            let correct: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
            let eff = run_omega(n, seed, topo.clone(), FaultPlan::new(n), horizon, |env| {
                CommEffOmega::new(env, OmegaParams::default())
            });
            if stab_of(&eff, &correct).is_some() {
                eff_ok += 1;
            }
            eff_senders += eff.stats().senders_since(tail_cut(eff.now(), 10)).len();
            let a2a = run_omega(n, seed, topo, FaultPlan::new(n), horizon, |env| {
                AllToAllOmega::new(env, OmegaParams::default())
            });
            if stab_of(&a2a, &correct).is_some() {
                a2a_ok += 1;
            }
            a2a_senders += a2a.stats().senders_since(tail_cut(a2a.now(), 10)).len();
        }
        let links = k * (n - 1);
        t.row(vec![
            k.to_string(),
            format!("{links}/{}", n * (n - 1)),
            format!("{eff_ok}/{seeds}"),
            format!("{a2a_ok}/{seeds}"),
            format!("{:.1}", eff_senders as f64 / seeds as f64),
            format!("{:.1}", a2a_senders as f64 / seeds as f64),
        ]);
    }
    t
}

/// **E9** — ablation over the two implementation degrees of freedom.
pub fn e9_ablation(n: usize, seeds: u64, horizon: u64) -> Table {
    let variants: Vec<(&str, OmegaParams)> = vec![
        ("dedup+additive (paper)", OmegaParams::default()),
        (
            "dedup+multiplicative",
            OmegaParams {
                timeout_policy: TimeoutPolicy::Multiplicative { num: 3, den: 2 },
                ..OmegaParams::default()
            },
        ),
        (
            "no-dedup+additive",
            OmegaParams {
                dedup_accusations: false,
                ..OmegaParams::default()
            },
        ),
        (
            "dedup+frozen (broken)",
            OmegaParams {
                timeout_policy: TimeoutPolicy::Frozen,
                ..OmegaParams::default()
            },
        ),
    ];
    let mut t = Table::new(vec![
        "variant",
        "converged",
        "stab_t(p50)",
        "max_counter",
        "accusations(total)",
    ]);
    for (name, params) in variants {
        let mut ok = 0usize;
        let mut stabs = Vec::new();
        let mut max_counter = 0u64;
        let mut accusations = 0u64;
        for seed in 0..seeds {
            let topo = Topology::system_s(
                n,
                ProcessId(1),
                SystemSParams {
                    mesh_loss: 0.5,
                    ..SystemSParams::default()
                },
            );
            let sim = run_omega(n, seed, topo, FaultPlan::new(n), horizon, |env| {
                CommEffOmega::new(env, params)
            });
            let correct: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
            if let Some(s) = stab_of(&sim, &correct) {
                ok += 1;
                stabs.push(s.at.ticks());
            }
            for p in 0..n as u32 {
                let node = sim.node(ProcessId(p));
                max_counter = max_counter.max(node.own_counter());
                accusations += node.accusations_sent();
            }
        }
        stabs.sort_unstable();
        t.row(vec![
            name.to_owned(),
            format!("{ok}/{seeds}"),
            if stabs.is_empty() {
                "-".into()
            } else {
                percentile(&stabs, 50.0).to_string()
            },
            max_counter.to_string(),
            accusations.to_string(),
        ]);
    }
    t
}

/// **E11** — message relaying (path synchrony): on a hub-and-spokes star
/// where spoke↔spoke links are dead, direct Ω cannot converge but relayed Ω
/// can; the relayed stack stays communication-efficient in the *origination*
/// sense only.
pub fn e11_relay(n: usize, seeds: u64, horizon: u64) -> Table {
    use omega::Relay;
    let hub = ProcessId((n as u32) / 2);
    let star = || {
        let mut topo = Topology::all_timely(n, Duration::from_ticks(2));
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let (pa, pb) = (ProcessId(a), ProcessId(b));
                if a != b && pa != hub && pb != hub {
                    topo.set_link(pa, pb, netsim::LinkModel::Dead);
                }
            }
        }
        topo
    };
    let mut t = Table::new(vec![
        "variant",
        "converged",
        "late originators (mean)",
        "late forwarders (mean)",
    ]);
    let correct: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    // Relayed.
    let mut ok = 0usize;
    let mut originators = 0usize;
    let mut forwarders = 0usize;
    for seed in 0..seeds {
        let sim = run_omega(n, seed, star(), FaultPlan::new(n), horizon, |env| {
            Relay::new(env, CommEffOmega::new(env, OmegaParams::default()))
        });
        if stab_of(&sim, &correct).is_some() {
            ok += 1;
        }
        // Approximate the late sets from total counters over the last half
        // by re-measuring via a second run would be wasteful; report the
        // full-run sets instead (origination is front-loaded, forwarding is
        // perpetual, so the contrast is still visible).
        originators += (0..n as u32)
            .filter(|&p| sim.node(ProcessId(p)).origination_count() > 0)
            .count();
        forwarders += (0..n as u32)
            .filter(|&p| sim.node(ProcessId(p)).forward_count() > 0)
            .count();
    }
    t.row(vec![
        "relayed comm-eff Ω".to_owned(),
        format!("{ok}/{seeds}"),
        format!("{:.1}", originators as f64 / seeds as f64),
        format!("{:.1}", forwarders as f64 / seeds as f64),
    ]);
    // Direct.
    let mut ok = 0usize;
    for seed in 0..seeds {
        let sim = run_omega(n, seed, star(), FaultPlan::new(n), horizon, |env| {
            CommEffOmega::new(env, OmegaParams::default())
        });
        if stab_of(&sim, &correct).is_some() {
            ok += 1;
        }
    }
    t.row(vec![
        "direct comm-eff Ω".to_owned(),
        format!("{ok}/{seeds}"),
        "-".to_owned(),
        "-".to_owned(),
    ]);
    t
}

/// **E12** — the deterministic blink adversary versus timeout policies:
/// every process's outgoing links repeat 40-on/60-off; adaptive timeouts
/// eventually span the off phase, the frozen policy churns forever.
pub fn e12_blink(n: usize, seeds: u64, horizon: u64) -> Table {
    let variants: Vec<(&str, OmegaParams)> = vec![
        ("additive", OmegaParams::default()),
        (
            "multiplicative x2",
            OmegaParams {
                timeout_policy: TimeoutPolicy::Multiplicative { num: 2, den: 1 },
                ..OmegaParams::default()
            },
        ),
        (
            "frozen (broken)",
            OmegaParams {
                timeout_policy: TimeoutPolicy::Frozen,
                ..OmegaParams::default()
            },
        ),
    ];
    let blink_topo = || {
        let mut topo = Topology::all_timely(n, Duration::from_ticks(2));
        for p in 0..n as u32 {
            topo.set_outgoing(ProcessId(p), netsim::LinkModel::blink(40, 60, 2));
        }
        topo
    };
    let mut t = Table::new(vec!["policy", "converged", "leader_changes_in_tail (mean)"]);
    let correct: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    for (name, params) in variants {
        let mut ok = 0usize;
        let mut late_changes = 0usize;
        for seed in 0..seeds {
            let sim = run_omega(n, seed, blink_topo(), FaultPlan::new(n), horizon, |env| {
                CommEffOmega::new(env, params)
            });
            if stab_of(&sim, &correct).is_some() {
                ok += 1;
            }
            let cut = tail_cut(sim.now(), 20);
            late_changes += leader_trace(&sim).iter().filter(|r| r.at >= cut).count();
        }
        t.row(vec![
            name.to_owned(),
            format!("{ok}/{seeds}"),
            format!("{:.1}", late_changes as f64 / seeds as f64),
        ]);
    }
    t
}

/// **E13** — failure-detector quality of service: crash the established
/// leader and measure how long the survivors keep trusting it (detection
/// time) and how noisy the run was (wrongful demotions), sweeping the
/// initial timeout. The classic QoS trade-off: small timeouts detect fast
/// but make more mistakes.
pub fn e13_qos(n: usize, seeds: u64, horizon: u64) -> Table {
    use omega::qos::qos;
    let mut t = Table::new(vec![
        "initial_timeout",
        "detection_t(p50)",
        "detection_t(p95)",
        "wrongful_demotions(mean)",
        "changes(mean)",
    ]);
    for &timeout in &[20u64, 30, 60, 120, 240] {
        let params = OmegaParams {
            initial_timeout: Duration::from_ticks(timeout),
            ..OmegaParams::default()
        };
        let mut detections = Vec::new();
        let mut demotions = 0usize;
        let mut changes = 0usize;
        for seed in 0..seeds {
            // Two sources so the system stays admissible after the crash.
            let topo = Topology::system_s_multi(
                n,
                &[ProcessId(0), ProcessId(1)],
                SystemSParams {
                    gst: 200,
                    ..SystemSParams::default()
                },
            );
            // Phase 1: stabilize; find the leader; crash it mid-run.
            let mut sim = SimBuilder::new(n)
                .record_outputs()
                .seed(seed)
                .topology(topo)
                .build_with(|env| CommEffOmega::new(env, params));
            sim.run_until(Instant::from_ticks(horizon / 2));
            let victim = sim.node(ProcessId(2)).leader();
            let crash_at = sim.now();
            sim.crash_now(victim);
            sim.run_until(Instant::from_ticks(horizon));
            let trace = leader_trace(&sim);
            let correct: Vec<ProcessId> = (0..n as u32)
                .map(ProcessId)
                .filter(|&p| p != victim)
                .collect();
            let report = qos(n, &trace, &correct, &[(victim, crash_at)]);
            detections.push(report.detections[0].detection.ticks());
            demotions += report.wrongful_demotions;
            changes += report.total_changes;
        }
        detections.sort_unstable();
        t.row(vec![
            timeout.to_string(),
            percentile(&detections, 50.0).to_string(),
            percentile(&detections, 95.0).to_string(),
            format!("{:.1}", demotions as f64 / seeds as f64),
            format!("{:.1}", changes as f64 / seeds as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_small_instance_converges() {
        // Horizon 60k, not 20k: stabilization time is finite but heavy-tailed
        // (see the metastability note in core/tests/properties.rs), and one of
        // the two checked seeds stabilizes around tick 25k. The run itself is
        // deterministic per seed; only the finite-horizon cut-off is loosened.
        let t = e1_convergence(&[3], 2, 60_000);
        let s = t.render();
        assert!(s.contains("2/2"), "small E1 must fully converge:\n{s}");
    }

    #[test]
    fn e3_shows_linear_vs_quadratic_gap() {
        let t = e3_message_complexity(&[5], 20_000);
        let s = t.render();
        // The reduction column must be present and > 1.
        assert!(s.contains('x'), "{s}");
    }

    #[test]
    fn e2_series_has_rows() {
        let t = e2_sender_series(4, 1, 5_000, 500);
        assert!(t.len() >= 8, "expected ~10 windows, got {}", t.len());
    }
}
