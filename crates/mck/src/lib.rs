//! A bounded explicit-state model checker for the workspace's sans-io
//! protocol state machines.
//!
//! The simulator (`netsim`) samples *random* schedules; safety claims like
//! consensus agreement must hold under **all** schedules. This crate
//! explores every interleaving of a small system exhaustively, under the
//! classic *untimed* abstraction:
//!
//! * any in-flight message may be delivered next (links reorder freely;
//!   a message may also simply never be delivered, which subsumes loss for
//!   safety purposes — the checker never forces delivery);
//! * any armed timer may fire next (arbitrary timing: timeouts carry no
//!   meaning, which over-approximates every δ/GST choice);
//! * any live process may crash (up to a configurable budget).
//!
//! Exploration is depth-first with state memoization, bounded by depth and
//! state count, and reports whether the bound was exhausted — truncation is
//! explicit, never silent. On an invariant violation it returns the full
//! transition trace as a counterexample.
//!
//! Only **safety** invariants make sense here ("no two processes decide
//! differently"), not liveness ("someone eventually decides") — the untimed
//! abstraction contains schedules where nothing is ever delivered.
//!
//! # Example: consensus agreement under all interleavings
//!
//! Single-shot `Consensus` runs the replicated log, so this checks the
//! ballot rules the replicated store runs.
//!
//! ```
//! use consensus::{Consensus, ConsensusParams};
//! use mck::{CheckConfig, CheckOutcome, ModelChecker};
//!
//! let config = CheckConfig {
//!     n: 2,
//!     max_depth: 8,
//!     max_states: 50_000,
//!     max_crashes: 0,
//! };
//! let outcome = ModelChecker::new(config)
//!     .check(
//!         |env| Consensus::new(env, ConsensusParams::default(), Some(env.id().0 as u64)),
//!         |world| {
//!             let decisions: Vec<&u64> = world
//!                 .live_nodes()
//!                 .filter_map(|sm| sm.decision())
//!                 .collect();
//!             if decisions.windows(2).all(|w| w[0] == w[1]) {
//!                 Ok(())
//!             } else {
//!                 Err(format!("disagreement: {decisions:?}"))
//!             }
//!         },
//!     );
//! assert!(matches!(outcome, CheckOutcome::Ok { .. }), "{outcome:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

use lls_primitives::{Ctx, Effects, Env, Instant, ProcessId, Send, Sm, TimerCmd, TimerId};

/// Exploration bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// System size (keep tiny: 2–3).
    pub n: usize,
    /// Maximum number of transitions along any path.
    pub max_depth: usize,
    /// Maximum number of distinct states to visit before giving up.
    pub max_states: usize,
    /// How many processes the adversary may crash.
    pub max_crashes: usize,
}

impl Default for CheckConfig {
    /// n = 2, depth 10, 100k states, no crashes.
    fn default() -> Self {
        CheckConfig {
            n: 2,
            max_depth: 10,
            max_states: 100_000,
            max_crashes: 0,
        }
    }
}

/// A snapshot of the whole system handed to invariants.
pub struct World<S: Sm> {
    /// Per process: `Some(sm)` if alive, `None` if crashed.
    nodes: Vec<Option<S>>,
    /// Messages sent but not yet delivered (or never to be delivered).
    in_flight: Vec<Flight<S::Msg>>,
    /// Armed timers per process.
    armed: Vec<Vec<TimerId>>,
    crashes_used: usize,
}

/// One undelivered message.
#[derive(Debug, Clone)]
struct Flight<M> {
    from: ProcessId,
    to: ProcessId,
    msg: M,
}

impl<S: Sm> fmt::Debug for World<S>
where
    S: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.nodes)
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

impl<S: Sm + Clone> Clone for World<S> {
    fn clone(&self) -> Self {
        World {
            nodes: self.nodes.clone(),
            in_flight: self.in_flight.clone(),
            armed: self.armed.clone(),
            crashes_used: self.crashes_used,
        }
    }
}

impl<S: Sm> World<S> {
    /// The state machine of `p`, if alive.
    pub fn node(&self, p: ProcessId) -> Option<&S> {
        self.nodes.get(p.as_usize()).and_then(Option::as_ref)
    }

    /// Iterates over live state machines.
    pub fn live_nodes(&self) -> impl Iterator<Item = &S> {
        self.nodes.iter().flatten()
    }

    /// Number of undelivered messages.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }
}

/// The result of a check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// No reachable state within the bounds violates the invariant.
    Ok {
        /// Distinct states visited.
        states: usize,
        /// `true` if the exploration finished without hitting a bound —
        /// i.e. the result covers *every* reachable state at this depth.
        complete: bool,
    },
    /// A violating state was reached.
    Violation {
        /// The invariant's error message.
        message: String,
        /// The transitions leading to the violation, in order.
        trace: Vec<String>,
    },
}

/// The checker. See the [crate docs](crate) for the semantics.
#[derive(Debug, Clone, Copy)]
pub struct ModelChecker {
    config: CheckConfig,
}

enum Transition {
    Deliver(usize),
    Fire(ProcessId, TimerId),
    Crash(ProcessId),
}

impl ModelChecker {
    /// Creates a checker with the given bounds.
    ///
    /// # Panics
    ///
    /// Panics if `config.n < 2`.
    pub fn new(config: CheckConfig) -> Self {
        assert!(config.n >= 2, "the model requires n > 1 processes");
        ModelChecker { config }
    }

    /// Explores all interleavings of the system built by `make`, checking
    /// `invariant` at every reached state.
    ///
    /// `S` must implement `Clone` (states are snapshotted) and `Debug`
    /// (states are memoized by their debug representation — adequate for
    /// the tiny systems this checker is meant for, and free of extra trait
    /// bounds on protocol types).
    pub fn check<S, F>(&self, mut make: impl FnMut(&Env) -> S, invariant: F) -> CheckOutcome
    where
        S: Sm + Clone + fmt::Debug,
        S::Msg: fmt::Debug,
        F: Fn(&World<S>) -> Result<(), String>,
    {
        let n = self.config.n;
        let mut world = World {
            nodes: Vec::with_capacity(n),
            in_flight: Vec::new(),
            armed: vec![Vec::new(); n],
            crashes_used: 0,
        };
        // Boot every process (starts are not interleaved: on_start is
        // local-only in all our protocols, so start order is immaterial;
        // messages they emit go in flight and ARE interleaved).
        for i in 0..n {
            let p = ProcessId(i as u32);
            let env = Env::new(p, n);
            let mut sm = make(&env);
            let mut fx = Effects::new();
            sm.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
            world.nodes.push(Some(sm));
            apply_effects(&mut world, p, fx);
        }

        let mut visited: HashSet<u64> = HashSet::new();
        visited.insert(state_id(&world));
        let mut states = 1usize;
        let mut complete = true;
        let mut trace: Vec<String> = Vec::new();

        match self.dfs(
            &world,
            &invariant,
            &mut visited,
            &mut states,
            &mut complete,
            &mut trace,
            0,
        ) {
            Err(message) => CheckOutcome::Violation { message, trace },
            Ok(()) => CheckOutcome::Ok { states, complete },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs<S, F>(
        &self,
        world: &World<S>,
        invariant: &F,
        visited: &mut HashSet<u64>,
        states: &mut usize,
        complete: &mut bool,
        trace: &mut Vec<String>,
        depth: usize,
    ) -> Result<(), String>
    where
        S: Sm + Clone + fmt::Debug,
        S::Msg: fmt::Debug,
        F: Fn(&World<S>) -> Result<(), String>,
    {
        invariant(world)?;
        if depth >= self.config.max_depth {
            *complete = false;
            return Ok(());
        }
        for t in self.transitions(world) {
            if *states >= self.config.max_states {
                *complete = false;
                return Ok(());
            }
            let (next, label) = self.apply(world, &t);
            let id = state_id(&next);
            if !visited.insert(id) {
                continue;
            }
            *states += 1;
            trace.push(label);
            self.dfs(
                &next,
                invariant,
                visited,
                states,
                complete,
                trace,
                depth + 1,
            )?;
            trace.pop();
        }
        Ok(())
    }

    fn transitions<S: Sm>(&self, world: &World<S>) -> Vec<Transition> {
        let mut out = Vec::new();
        for (i, f) in world.in_flight.iter().enumerate() {
            if world.nodes[f.to.as_usize()].is_some() {
                out.push(Transition::Deliver(i));
            }
        }
        for (i, timers) in world.armed.iter().enumerate() {
            if world.nodes[i].is_some() {
                for &t in timers {
                    out.push(Transition::Fire(ProcessId(i as u32), t));
                }
            }
        }
        if world.crashes_used < self.config.max_crashes {
            for i in 0..world.nodes.len() {
                if world.nodes[i].is_some() {
                    out.push(Transition::Crash(ProcessId(i as u32)));
                }
            }
        }
        out
    }

    fn apply<S>(&self, world: &World<S>, t: &Transition) -> (World<S>, String)
    where
        S: Sm + Clone + fmt::Debug,
        S::Msg: fmt::Debug,
    {
        let mut next = world.clone();
        match *t {
            Transition::Deliver(i) => {
                let f = next.in_flight.remove(i);
                let label = format!("deliver {} -> {}: {:?}", f.from, f.to, f.msg);
                let env = Env::new(f.to, next.nodes.len());
                let mut fx = Effects::new();
                if let Some(sm) = next.nodes[f.to.as_usize()].as_mut() {
                    sm.on_message(&mut Ctx::new(&env, Instant::ZERO, &mut fx), f.from, f.msg);
                }
                apply_effects(&mut next, f.to, fx);
                (next, label)
            }
            Transition::Fire(p, timer) => {
                let label = format!("fire {p} {timer}");
                next.armed[p.as_usize()].retain(|&t| t != timer);
                let env = Env::new(p, next.nodes.len());
                let mut fx = Effects::new();
                if let Some(sm) = next.nodes[p.as_usize()].as_mut() {
                    sm.on_timer(&mut Ctx::new(&env, Instant::ZERO, &mut fx), timer);
                }
                apply_effects(&mut next, p, fx);
                (next, label)
            }
            Transition::Crash(p) => {
                next.nodes[p.as_usize()] = None;
                next.armed[p.as_usize()].clear();
                next.crashes_used += 1;
                (next, format!("crash {p}"))
            }
        }
    }
}

/// Folds a step's effects into the world: sends go in flight, timer commands
/// mutate the armed set (durations are meaningless under the untimed
/// abstraction).
fn apply_effects<S: Sm>(world: &mut World<S>, from: ProcessId, fx: Effects<S::Msg, S::Output>) {
    for Send { to, msg } in fx.sends {
        world.in_flight.push(Flight { from, to, msg });
    }
    for cmd in fx.timers {
        let armed = &mut world.armed[from.as_usize()];
        match cmd {
            TimerCmd::Set { timer, .. } => {
                if !armed.contains(&timer) {
                    armed.push(timer);
                }
            }
            TimerCmd::Cancel { timer } => armed.retain(|&t| t != timer),
        }
    }
    // Outputs are deliberately dropped: invariants inspect protocol state
    // directly (decisions, leaders) so that state identity is
    // history-independent and memoization stays sound.
    drop(fx.outputs);
}

/// State identity: a hash of the debug representation of the machines, the
/// multiset of in-flight messages, and the armed timers. Debug-string
/// identity is crude but dependency-free and sound as long as `Debug`
/// faithfully reflects protocol state (derived `Debug` does).
fn state_id<S: Sm + fmt::Debug>(world: &World<S>) -> u64
where
    S::Msg: fmt::Debug,
{
    let mut flights: Vec<String> = world
        .in_flight
        .iter()
        .map(|f| format!("{}>{}:{:?}", f.from, f.to, f.msg))
        .collect();
    flights.sort();
    let mut armed: Vec<String> = world
        .armed
        .iter()
        .enumerate()
        .map(|(i, ts)| {
            let mut ts: Vec<u32> = ts.iter().map(|t| t.0).collect();
            ts.sort_unstable();
            format!("{i}:{ts:?}")
        })
        .collect();
    armed.sort();
    let mut h = DefaultHasher::new();
    format!(
        "{:?}|{:?}|{:?}|{}",
        world.nodes, flights, armed, world.crashes_used
    )
    .hash(&mut h);
    h.finish()
}

/// Convenience: count occurrences of each distinct decision among live
/// nodes using an extractor, for agreement-style invariants.
pub fn tally<S: Sm, T: Eq + Hash + Clone>(
    world: &World<S>,
    extract: impl Fn(&S) -> Option<T>,
) -> HashMap<T, usize> {
    let mut m = HashMap::new();
    for sm in world.live_nodes() {
        if let Some(v) = extract(sm) {
            *m.entry(v).or_insert(0) += 1;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy protocol: p0 sends its value; receivers adopt the first value
    /// they see and gossip it on. Agreement holds trivially — unless the
    /// deliberately broken variant is used.
    #[derive(Debug, Clone, PartialEq)]
    struct Gossip {
        broken: bool,
        value: Option<u32>,
    }

    impl Sm for Gossip {
        type Msg = u32;
        type Output = ();
        type Request = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>) {
            if ctx.id() == ProcessId(0) {
                self.value = Some(7);
                ctx.broadcast(7);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, ()>, from: ProcessId, msg: u32) {
            if self.value.is_none() {
                // The broken variant "adopts" a corrupted value from p1.
                let v = if self.broken && from == ProcessId(1) {
                    msg + 1
                } else {
                    msg
                };
                self.value = Some(v);
                ctx.broadcast(v);
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, ()>, _t: TimerId) {}
    }

    fn agreement(world: &World<Gossip>) -> Result<(), String> {
        let values: Vec<u32> = world.live_nodes().filter_map(|s| s.value).collect();
        if values.windows(2).all(|w| w[0] == w[1]) {
            Ok(())
        } else {
            Err(format!("values diverged: {values:?}"))
        }
    }

    #[test]
    fn correct_protocol_passes_completely() {
        let outcome = ModelChecker::new(CheckConfig {
            n: 3,
            max_depth: 12,
            max_states: 100_000,
            max_crashes: 0,
        })
        .check(
            |_| Gossip {
                broken: false,
                value: None,
            },
            agreement,
        );
        match outcome {
            CheckOutcome::Ok { states, complete } => {
                assert!(complete, "exploration should finish ({states} states)");
                assert!(states > 3, "should explore more than the initial state");
            }
            CheckOutcome::Violation { message, trace } => {
                panic!("unexpected violation: {message}\n{trace:?}")
            }
        }
    }

    #[test]
    fn broken_protocol_yields_a_counterexample_trace() {
        let outcome = ModelChecker::new(CheckConfig {
            n: 3,
            max_depth: 12,
            max_states: 100_000,
            max_crashes: 0,
        })
        .check(
            |_| Gossip {
                broken: true,
                value: None,
            },
            agreement,
        );
        match outcome {
            CheckOutcome::Violation { message, trace } => {
                assert!(message.contains("diverged"), "{message}");
                assert!(!trace.is_empty());
                // The counterexample must route a message through p1.
                assert!(
                    trace
                        .iter()
                        .any(|s| s.contains("p1 -> p2") || s.contains("p1 ->")),
                    "trace should show the corrupting hop: {trace:?}"
                );
            }
            other => panic!("expected a violation, got {other:?}"),
        }
    }

    #[test]
    fn crash_budget_expands_the_space() {
        let run = |crashes| match ModelChecker::new(CheckConfig {
            n: 2,
            max_depth: 6,
            max_states: 100_000,
            max_crashes: crashes,
        })
        .check(
            |_| Gossip {
                broken: false,
                value: None,
            },
            agreement,
        ) {
            CheckOutcome::Ok { states, .. } => states,
            v => panic!("{v:?}"),
        };
        assert!(run(1) > run(0), "crash transitions must add states");
    }

    #[test]
    fn truncation_is_reported_not_silent() {
        let outcome = ModelChecker::new(CheckConfig {
            n: 3,
            max_depth: 2, // far too shallow to finish
            max_states: 100_000,
            max_crashes: 0,
        })
        .check(
            |_| Gossip {
                broken: false,
                value: None,
            },
            agreement,
        );
        match outcome {
            CheckOutcome::Ok { complete, .. } => assert!(!complete),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn tally_counts_values() {
        let world: World<Gossip> = World {
            nodes: vec![
                Some(Gossip {
                    broken: false,
                    value: Some(7),
                }),
                Some(Gossip {
                    broken: false,
                    value: Some(7),
                }),
                None,
            ],
            in_flight: Vec::new(),
            armed: vec![Vec::new(); 3],
            crashes_used: 1,
        };
        let t = tally(&world, |s| s.value);
        assert_eq!(t[&7], 2);
        assert_eq!(world.live_nodes().count(), 2);
        assert_eq!(world.node(ProcessId(2)), None);
    }
}
