//! Memory per key in the store: `KvState` keeps a short key and value in
//! its map slot, with no heap allocation for either.
//!
//! This binary holds a single test so that nothing else allocates while it
//! measures. It applies puts of 100,000 distinct 7-byte keys with 16-byte
//! values (the shape of the benchmark's `sim-sharded-rw` store), in a
//! scrambled order as clients would send them, and bounds the process's
//! resident-set growth per key.
//!
//! Where the bound comes from:
//!
//! - A `BTreeMap` leaf holds up to 11 entries of key plus value. With both
//!   24-byte strings held in place, a full leaf is 544 bytes, 49 per entry,
//!   and keys inserted in scrambled order leave leaves about two thirds
//!   full. This layout reads about 76 bytes per key.
//! - With `String` keys and values the map slot is the same size, and each
//!   of the two strings adds one 32-byte allocator chunk. That layout reads
//!   about 140.
//!
//! The bound, 110 bytes, sits between the two.

#[cfg(target_os = "linux")]
#[test]
fn the_store_keeps_short_strings_in_the_map() {
    use kvstore::{ClientId, KvCmd, KvState, Tagged};

    const KEYS: u32 = 100_000;
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

    /// A bijection on 24-bit numbers: odd multipliers and an xor-shift,
    /// so `i` below 2^24 gives distinct keys in a scrambled order.
    fn scramble(i: u32) -> u32 {
        let x = i.wrapping_mul(0x9E37_79B1) & 0xFF_FFFF;
        (x ^ (x >> 12)).wrapping_mul(0x85EB_CA6B) & 0xFF_FFFF
    }

    let mut state = KvState::new();
    let before = rss_bytes();
    for i in 0..KEYS {
        let put = KvCmd::put(format!("k{:06x}", scramble(i)), format!("{i:016}"));
        let cmd = Tagged {
            client: ClientId(1),
            seq: u64::from(i) + 1,
            cmd: put,
        };
        state.apply(&cmd);
    }
    let after = rss_bytes();
    assert_eq!(state.len(), KEYS as usize, "every key is distinct");
    let per_key = after.saturating_sub(before) as f64 / f64::from(KEYS);
    println!("resident-set growth per key: {per_key:.1} bytes");
    assert!(
        per_key <= BOUND,
        "the store grew by {per_key:.1} bytes per key (bound {BOUND}): \
         does it allocate for each short key or value again?"
    );
}
