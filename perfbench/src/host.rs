//! Host provenance: what the numbers were measured on.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// A dependency chain no core can shorten: each step needs the last.
fn spin_chain(steps: u64, seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..steps {
        x = black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    x
}

/// How many cores two independent chains actually get: the time to run
/// both serially over the time to run them on two threads at once
/// (about 2.0 with two free cores, about 1.0 with one).
pub fn effective_parallelism() -> f64 {
    const STEPS: u64 = 40_000_000;
    let t0 = Instant::now();
    black_box(spin_chain(STEPS, 1) ^ spin_chain(STEPS, 2));
    let serial = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin_chain(STEPS, 1));
        let b = spin_chain(STEPS, 2);
        black_box(a.join().expect("spin thread panicked") ^ b);
    });
    serial / t1.elapsed().as_secs_f64()
}

/// Vector extensions this binary was compiled to use.
pub fn target_features() -> String {
    let mut f = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        f.push("sse4.2");
    }
    if cfg!(target_feature = "avx2") {
        f.push("avx2");
    }
    if cfg!(target_feature = "avx512f") {
        f.push("avx512f");
    }
    if cfg!(target_feature = "neon") {
        f.push("neon");
    }
    if f.is_empty() {
        "baseline".into()
    } else {
        f.join(",")
    }
}
