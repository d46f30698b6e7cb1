//! Minimal micro-benchmark harness for the `benches/` targets.
//!
//! The build is fully offline, so the bench targets cannot pull in an
//! external statistics harness; this module provides the small subset we
//! need — timed repetitions with Welford summaries — on top of
//! `obfs_util`. Bench targets are plain `main()` binaries
//! (`harness = false`) and print one line per case.

use obfs_util::OnlineStats;
use std::time::Instant;

/// Default sample count per case (after one warm-up run).
pub const DEFAULT_SAMPLES: usize = 10;

/// Time `f` for `samples` iterations (plus one untimed warm-up) and
/// print `name  mean ± stddev [min … max] ms/iter`. Returns the mean in
/// milliseconds so callers can assert or compare.
pub fn bench_case<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut stats = OnlineStats::new();
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        stats.push(t.elapsed().as_secs_f64() * 1e3);
    }
    println!(
        "{name:<44} {:>9.3} ± {:>7.3} ms/iter  [{:.3} … {:.3}]  (n={})",
        stats.mean(),
        stats.stddev(),
        stats.min(),
        stats.max(),
        stats.count(),
    );
    stats.mean()
}

/// Print the standard bench header. `cargo bench` forwards harness flags
/// such as `--bench` to `harness = false` targets; callers pass argv here
/// so unknown flags are ignored rather than fatal.
pub fn bench_header(title: &str) {
    println!("== {title} ==");
    let extra: Vec<String> = std::env::args().skip(1).collect();
    if !extra.is_empty() {
        println!("   (ignoring harness args: {})", extra.join(" "));
    }
}
