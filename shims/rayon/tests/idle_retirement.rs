//! Pool workers retire once idle, so a quiet process returns to its baseline
//! thread count.  A test binary of its own: the count is process-wide, and
//! tests sharing a process would spawn threads of their own meanwhile.

use rayon::prelude::*;
use std::time::{Duration, Instant};

/// `Threads:` of `/proc/self/status`, `None` where `/proc` is unavailable.
fn live_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn the_thread_count_returns_to_its_prior_value_within_a_second() {
    let Some(before) = live_threads() else {
        return;
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let input: Vec<u64> = (0..10_000).collect();
    // Sampled inside the call, where its helpers are alive.
    let during: Vec<usize> = pool.install(|| {
        input
            .par_iter()
            .map(|&x| {
                if x % 1000 == 0 {
                    live_threads().unwrap()
                } else {
                    0
                }
            })
            .collect()
    });
    assert!(
        during.iter().any(|&n| n > before),
        "the call ran on helpers"
    );
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut now = live_threads().unwrap();
    while now > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        now = live_threads().unwrap();
    }
    assert!(
        now <= before,
        "{now} threads alive a second after the call, {before} before it"
    );
}
