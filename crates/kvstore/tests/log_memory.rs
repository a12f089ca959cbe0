//! Memory per decided slot: a replica's chosen log keeps each emitted slot
//! as its wire encoding plus one end offset, not as a decoded entry with a
//! heap allocation per string.
//!
//! This binary holds a single test so that nothing else allocates while it
//! measures. It commits puts of 16-byte values over 64 keys on an in-memory
//! three-replica cluster, so the stores stop growing and what grows is the
//! replicas' logs, and bounds the process's resident-set growth per
//! committed put per replica between two checkpoints far apart.
//!
//! Where the bound comes from (one put per slot, batching off):
//!
//! - A slot's encoding is 29 bytes: the entry and command tags, a 1-byte
//!   client id, a 2-byte sequence number, and the 6-byte key and 16-byte
//!   value with their length prefixes. With its 8-byte end offset a slot
//!   costs 37 bytes, and at most twice that (74) just after the buffer or
//!   the offsets `Vec` grows. This test reads about 41.
//! - One decoded entry per slot costs 88 bytes inline, plus two 32-byte
//!   allocator chunks for the key and the value: 152 bytes, more just
//!   after its `VecDeque` grows. That layout reads about 152.
//!
//! The bound, 110 bytes, sits between the two.

#[cfg(target_os = "linux")]
#[test]
fn the_chosen_log_costs_its_encoding_per_slot() {
    use consensus::ConsensusParams;
    use kvstore::{ClientId, KvCmd, KvReplica, Tagged};
    use lls_primitives::{Duration, Instant, ProcessId};
    use netsim::{SimBuilder, Topology};

    const N: usize = 3;
    const WARMUP: u64 = 2_000;
    const MEASURED: u64 = 30_000;
    const BOUND: f64 = 110.0;

    /// The process's resident set, in bytes.
    fn rss_bytes() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
        let kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmRSS line");
        kib * 1024
    }

    let mut sim = SimBuilder::new(N)
        .seed(5)
        .topology(Topology::all_timely(N, Duration::from_ticks(2)))
        .build_with(|env| KvReplica::new(env, ConsensusParams::default()));
    let mut t = 3_000u64;
    sim.run_until(Instant::from_ticks(t));
    let leader = sim.node(ProcessId(0)).omega().leader();
    let mut submitted = 0u64;
    // Submits puts in rounds (so no long request queue builds up) until
    // every replica has applied `total` of them.
    let mut commit_until = |sim: &mut netsim::Simulator<KvReplica>, total: u64| {
        while (0..N).any(|p| sim.node(ProcessId(p as u32)).applied_upto() < total) {
            for _ in 0..64.min(total - submitted) {
                let put = KvCmd::put(
                    format!("key-{:02}", submitted % 64),
                    format!("{submitted:016}"),
                );
                let cmd = Tagged {
                    client: ClientId(submitted % 4),
                    seq: submitted / 4 + 1,
                    cmd: put,
                };
                sim.schedule_request(Instant::from_ticks(t + 1), leader, cmd);
                submitted += 1;
            }
            t += 20;
            sim.run_until(Instant::from_ticks(t));
        }
    };
    commit_until(&mut sim, WARMUP);
    let before = rss_bytes();
    commit_until(&mut sim, WARMUP + MEASURED);
    let after = rss_bytes();
    for p in 0..N as u32 {
        let log = sim.node(ProcessId(p)).log();
        assert_eq!(
            log.committed_len(),
            WARMUP + MEASURED,
            "p{p}: one put per slot"
        );
    }
    let per_slot = after.saturating_sub(before) as f64 / (MEASURED * N as u64) as f64;
    println!("resident-set growth per committed put per replica: {per_slot:.1} bytes");
    assert!(
        per_slot <= BOUND,
        "the chosen log grew by {per_slot:.1} bytes per slot per replica (bound {BOUND}): \
         is each slot held as a decoded entry again?"
    );
}
