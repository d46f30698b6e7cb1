//! Steal-outcome telemetry: reproduces the *kind* of analysis behind the
//! paper's Table VI interactively — locked vs lock-free work-stealing on
//! a hub-heavy graph, with the full failure breakdown.
//!
//! ```sh
//! cargo run --release --example steal_telemetry
//! ```

use obfs::core::StealCounters;
use obfs::prelude::*;

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn print_counters(name: &str, s: &StealCounters, locked: bool) {
    assert!(s.is_consistent(), "{name}: inconsistent counters {s:?}");
    println!("\n{name}: {} steal attempts", s.attempts);
    println!("  successful      : {:>8} ({:>6.2}%)", s.success, pct(s.success, s.attempts));
    if locked {
        println!(
            "  victim locked   : {:>8} ({:>6.2}%)",
            s.victim_locked,
            pct(s.victim_locked, s.attempts)
        );
    } else {
        println!("  victim locked   :      N/A (no locks exist)");
    }
    println!("  victim idle     : {:>8} ({:>6.2}%)", s.victim_idle, pct(s.victim_idle, s.attempts));
    println!("  segment too small:{:>8} ({:>6.2}%)", s.too_small, pct(s.too_small, s.attempts));
    if !locked {
        println!("  stale segment   : {:>8} ({:>6.2}%)", s.stale, pct(s.stale, s.attempts));
        println!("  invalid segment : {:>8} ({:>6.2}%)", s.invalid, pct(s.invalid, s.attempts));
    }
}

fn main() {
    // Wikipedia-like scale-free stand-in, as in Table VI.
    let graph = gen::suite::scale_free_like(120_000, 12.5, 2.3, 21);
    println!(
        "graph: {} vertices, {} edges (scale-free, wikipedia-like)",
        graph.num_vertices(),
        graph.num_edges()
    );
    let threads = 8;
    let sources = obfs_graph::stats::sample_sources(&graph, 20, 3);
    let runner = obfs::core::BfsRunner::new(threads);
    let opts = BfsOptions { threads, ..BfsOptions::default() };

    let mut results = Vec::new();
    for (algo, locked) in [(Algorithm::Bfsws, true), (Algorithm::Bfswsl, false)] {
        let mut total = StealCounters::default();
        let mut ms = 0.0;
        let reference = serial_bfs(&graph, sources[0]);
        for (i, &src) in sources.iter().enumerate() {
            let r = runner.run(algo, &graph, src, &opts);
            if i == 0 {
                obfs::core::validate::check_levels(&r, &reference.levels)
                    .expect("parallel result must match serial");
            }
            total.merge(&r.stats.totals.steal);
            ms += r.stats.traversal_time.as_secs_f64() * 1e3;
        }
        println!("\n=== {} ({:.1} ms over {} sources) ===", algo.name(), ms, sources.len());
        print_counters(algo.name(), &total, locked);
        results.push((algo, total));
    }

    let (_, ws) = &results[0];
    let (_, wsl) = &results[1];
    println!("\n=== comparison (paper Table VI shape) ===");
    println!(
        "lock-free success rate {:.2}% vs locked {:.2}% — the paper observed the \
         lock-free version stealing slightly more successfully",
        pct(wsl.success, wsl.attempts),
        pct(ws.success, ws.attempts)
    );
    println!(
        "lock-free pathologies are rare: stale {:.3}%, invalid {:.3}% of attempts — \
         the price of optimism is tiny, while every locked attempt risked \
         'victim locked' ({:.2}%)",
        pct(wsl.stale, wsl.attempts),
        pct(wsl.invalid, wsl.attempts),
        pct(ws.victim_locked, ws.attempts)
    );
}
