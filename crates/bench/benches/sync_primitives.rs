//! Micro-benchmarks of the synchronization substrate: racy cell
//! traffic, spin-lock round trips, barrier rounds, and the zero-on-read
//! queue walk.

use obfs_bench::micro::{bench_case, bench_header, DEFAULT_SAMPLES};
use obfs_core::frontier::FrontierQueue;
use obfs_sync::{RacyBuf, SpinBarrier, SpinLock};
use std::hint::black_box;
use std::sync::Arc;

fn racy_cells() {
    let buf = RacyBuf::new(1024);
    bench_case("racy/load-store-1M", DEFAULT_SAMPLES, || {
        let mut acc = 0u32;
        for i in 0..1_000_000usize {
            let idx = i & 1023;
            acc = acc.wrapping_add(buf.get(idx));
            buf.set(idx, acc);
        }
        black_box(acc)
    });
}

fn locks() {
    let spin = SpinLock::new(0u64);
    bench_case("locks/spinlock-uncontended-100k", DEFAULT_SAMPLES, || {
        for _ in 0..100_000 {
            *spin.lock() += 1;
        }
        black_box(*spin.lock())
    });
    // The optimistic alternative: plain load+store (no mutual exclusion —
    // the single-threaded baseline cost).
    let cell = obfs_sync::RacyUsize::new(0);
    bench_case("locks/racy-unprotected-100k", DEFAULT_SAMPLES, || {
        for _ in 0..100_000 {
            cell.store(cell.load() + 1);
        }
        black_box(cell.load())
    });
}

fn barrier_rounds() {
    for &p in &[2usize, 4] {
        bench_case(&format!("barrier/spin-barrier-{p}x1000"), DEFAULT_SAMPLES, || {
            let barrier = Arc::new(SpinBarrier::new(p));
            let handles: Vec<_> = (0..p)
                .map(|_| {
                    let ba = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        for _ in 0..1000 {
                            ba.wait();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }
}

fn queue_walk() {
    bench_case("queue-walk/zero-on-read-64k", DEFAULT_SAMPLES, || {
        // The lock-free consumption pattern: read, clear, walk. Rebuilt
        // each iteration because the walk consumes the queue.
        let q = FrontierQueue::new(65536);
        let mut rear = 0;
        for v in 0..65536u32 {
            q.push(&mut rear, v);
        }
        let mut sum = 0u64;
        let mut i = 0;
        loop {
            let s = q.slot(i);
            if s == 0 {
                break;
            }
            q.clear_slot(i);
            sum += s as u64;
            i += 1;
        }
        black_box(sum)
    });
    let q = FrontierQueue::new(65536);
    let mut rear = 0;
    for v in 0..65536u32 {
        q.push(&mut rear, v);
    }
    bench_case("queue-walk/plain-read-64k", DEFAULT_SAMPLES, || {
        // The locked consumption pattern: read only.
        let mut sum = 0u64;
        for i in 0..65536 {
            sum += q.slot(i) as u64;
        }
        black_box(sum)
    });
}

fn main() {
    bench_header("sync primitives");
    racy_cells();
    locks();
    barrier_rounds();
    queue_walk();
}
