//! Memory per key in a store decoded from a snapshot: decoding builds the
//! map in one pass, with full B-tree leaves.
//!
//! This binary holds a single test so that nothing else allocates while it
//! measures. It applies puts of 100,000 distinct 7-byte keys with 16-byte
//! values (the shape of `store_memory.rs`), encodes the store as a
//! snapshot, and bounds the process's resident-set growth per key while
//! the snapshot decodes.
//!
//! Where the bound comes from:
//!
//! - A `BTreeMap` leaf holds up to 11 entries of key plus value, 544 bytes
//!   with both 24-byte strings in place. Built in one pass from the sorted
//!   snapshot, the leaves are full: about 51 bytes per key.
//! - Inserted one entry at a time in key order, every leaf splits at the
//!   right edge and is left half full: about 95 bytes per key.
//!
//! The bound, 65 bytes, sits between the two.

#[cfg(target_os = "linux")]
#[test]
fn a_decoded_store_fills_its_leaves() {
    use kvstore::{ClientId, KvCmd, KvState, Tagged};
    use lls_primitives::Wire;

    const KEYS: u32 = 100_000;
    const BOUND: f64 = 65.0;

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

    let mut state = KvState::new();
    for i in 0..KEYS {
        let cmd = Tagged {
            client: ClientId(1),
            seq: u64::from(i) + 1,
            cmd: KvCmd::put(format!("k{i:06x}"), format!("{i:016}")),
        };
        state.apply(&cmd);
    }
    let snapshot = state.to_bytes();
    let before = rss_bytes();
    let decoded = KvState::from_bytes(&snapshot).expect("decode the snapshot");
    let after = rss_bytes();
    assert_eq!(decoded.len(), KEYS as usize, "every key is distinct");
    let per_key = after.saturating_sub(before) as f64 / f64::from(KEYS);
    println!("resident-set growth per decoded key: {per_key:.1} bytes");
    assert!(
        per_key <= BOUND,
        "the decoded store grew by {per_key:.1} bytes per key (bound {BOUND}): \
         does decoding insert the entries one at a time again?"
    );
}
