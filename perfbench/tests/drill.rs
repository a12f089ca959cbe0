//! The storage drill: a 1 ms delay injected into the benchmark's own WAL
//! wrapper must show up in its layer (`wal.append_us_p50`) and end to end
//! (`commit_p50_us`) on a short `tcp-put-closed` run.

use std::path::PathBuf;
use std::time::Duration;

use perfbench::bench::{run, Config, Outcome, Workload};

fn put_closed(wal_delay: Duration) -> Outcome {
    run(&Config {
        workload: Workload::TcpPutClosed,
        seed: 7,
        seconds: 2.0,
        trace: true,
        wal_delay,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("drill"),
    })
}

#[test]
fn a_slower_wal_shows_in_its_layer_and_end_to_end() {
    let base = put_closed(Duration::ZERO);
    let slow = put_closed(Duration::from_millis(1));
    for out in [&base, &slow] {
        assert!(out.correct, "{:#?}", out.lines);
    }
    let wal = |o: &Outcome| o.metric("wal.append_us_p50").expect("per-layer metric");
    let commit = |o: &Outcome| o.e2e["commit_p50_us"];
    println!(
        "wal.append_us_p50 {:.1} -> {:.1} us; commit_p50_us {:.1} -> {:.1} us",
        wal(&base),
        wal(&slow),
        commit(&base),
        commit(&slow)
    );
    assert!(
        wal(&slow) >= wal(&base) + 900.0,
        "wal.append_us_p50 {} -> {}",
        wal(&base),
        wal(&slow)
    );
    assert!(
        commit(&slow) >= commit(&base) * 1.5,
        "commit_p50_us {} -> {}",
        commit(&base),
        commit(&slow)
    );
}
