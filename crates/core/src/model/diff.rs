//! Differential replay: model-checker counterexamples, lowered onto the
//! **real** dispatchers through `obfs_sync::chaos` scripts.
//!
//! Each test takes the counterexample schedule the explorer finds for a
//! *weakened* protocol core, replays it in the model with the failing
//! thread's memory accesses traced, and feeds the exact load values that
//! thread observed into the corresponding real code path (positionally,
//! via [`obfs_sync::chaos::install_script`]). The real protocol — with
//! its sanity check intact — must *reject* the observation sequence that
//! violates the weakened model, landing in the matching stats/flight
//! bucket. That is the correspondence claim: the model's racy-operation
//! order is the real dispatcher's racy-operation order, so a schedule
//! that breaks the model-without-the-check exercises exactly the check
//! in the real code.
//!
//! Chaos scripts are thread-local and these tests drive the dispatchers
//! on the test thread, so no worker pool is involved.

use super::*;
use crate::driver::LevelEnv;
use crate::frontier::EMPTY_SLOT;
use crate::options::BfsOptions;
use crate::state::RunState;
use crate::stats::ThreadStats;
use crate::worksteal::{OwnedSegment, WorkStealing};
use obfs_sync::chaos::{install_script, uninstall_script, ChaosScript};
use obfs_sync::model::{replay, Choice, MemOp};

/// Replay `schedule` against `sys` with thread `tid`'s accesses traced;
/// return the `(addr, value)` pairs of every load it performed, after
/// asserting the replay reproduces `failure`.
fn traced_loads<T: obfs_sync::model::ModelThread>(
    mut sys: obfs_sync::model::System<T>,
    schedule: &[Choice],
    tid: usize,
    failure: &str,
) -> Vec<(usize, u32)> {
    sys.mem.trace_thread(tid);
    let (end, res) = replay(&sys, schedule);
    assert_eq!(res, Err(failure.to_string()), "replay must reproduce the counterexample");
    end.mem
        .trace()
        .iter()
        .filter_map(|op| match *op {
            MemOp::Load { addr, value } => Some((addr, value)),
            MemOp::Store { .. } => None,
        })
        .collect()
}

/// The thread whose step produced the counterexample: the schedule's
/// final choice (a `Step` — flushes never fail).
fn failing_tid(cx: &obfs_sync::model::Counterexample) -> usize {
    cx.schedule.last().expect("non-empty schedule").tid()
}

fn bounds() -> Explorer {
    Explorer { max_steps: 260, max_schedules: 12_000 }
}

/// A graph of isolated vertices: exploring a popped vertex scans no
/// neighbors, so the real pop path performs exactly one hooked `u32`
/// load (`note_pop`'s level read) per take — making the script's
/// positional feed easy to line up with the model trace.
fn isolated(n: usize) -> obfs_graph::CsrGraph {
    obfs_graph::CsrGraph::from_edges(n, &[])
}

/// Centralized fetch: the weakened model cuts a segment from an
/// `f' >= r'` observation. Feeding the failing thread's fetch loads
/// (everything since its last cursor read) into the real
/// `consume_pool_lockfree` must trip the sanity-check retry instead.
#[test]
fn centralized_counterexample_hits_fetch_retry_in_real_dispatcher() {
    let cx = centralized::check(true, bounds()).counterexample.expect("weakened cx");
    let tid = failing_tid(&cx);
    let loads = traced_loads(centralized::system(true), &cx.schedule, tid, &cx.failure);

    // The violating fetch: from the last cursor load to the final
    // (front, rear) re-read pair. All of these are index (usize) loads
    // in the real dispatcher; the walk's slot loads live at >= SLOTS0
    // and cannot appear between a cursor load and the fetch failure.
    let start = loads
        .iter()
        .rposition(|&(addr, _)| addr == centralized::CURSOR)
        .expect("counterexample thread re-read the cursor");
    let fetch: Vec<usize> = loads[start..]
        .iter()
        .map(|&(addr, v)| {
            assert!(addr < centralized::SLOTS0, "fetch loads are index loads");
            v as usize
        })
        .collect();
    let (f, r) = (fetch[fetch.len() - 2], fetch[fetch.len() - 1]);
    assert!(f >= r, "the final re-read pair is the invalid observation");

    // Real state: same thread count; input queues empty so the real
    // dispatcher drains and returns once the script is exhausted.
    let g = isolated(8);
    let opts = BfsOptions { threads: centralized::P, ..Default::default() };
    let st = RunState::new(&g, &opts);
    st.pool_cursors[0].store(0);
    let mut ts = ThreadStats::default();
    let mut out_rear = 0usize;

    install_script(&ChaosScript {
        usize_loads: fetch.iter().map(|&v| Some(v)).collect(),
        u32_loads: Vec::new(),
    });
    crate::centralized::consume_pool_lockfree(
        &st,
        st.qin(0),
        0,
        (0, centralized::P),
        0,
        0,
        &mut out_rear,
        st.qout(0).queue(0),
        &mut ts,
    );
    let rep = uninstall_script();

    assert_eq!(rep.fed_usize, fetch.len(), "every model load was replayed");
    assert_eq!(rep.leftover, 0);
    assert_eq!(ts.fetch_retries, 1, "the real sanity check rejected the invalid segment");
    assert_eq!(ts.segments_fetched, 0, "no segment was cut from the bad observation");
}

/// Zero-on-read: the weakened model "decodes" the empty-slot sentinel a
/// co-walker left behind. Feeding the failing walker's slot loads into
/// the real sentinel walk must stop it at that slot with a counted
/// stale abort — and consume exactly the slots the model walker took.
#[test]
fn zero_on_read_counterexample_hits_stale_abort_in_real_walk() {
    let cx = zero_on_read::check(true, bounds()).counterexample.expect("weakened cx");
    let tid = failing_tid(&cx);
    let loads = traced_loads(zero_on_read::system(true), &cx.schedule, tid, &cx.failure);

    // The walker's slot loads (addr >= 1; addr 0 is the rear read). The
    // last one observed the sentinel.
    let slots: Vec<u32> =
        loads.iter().filter(|&&(addr, _)| addr >= 1).map(|&(_, v)| v).collect();
    assert_eq!(*slots.last().unwrap(), EMPTY_SLOT);

    // Real state: queue 0 filled exactly like the model instance
    // (vertices 20..20+REAR encode to the model's slot values 21..).
    let g = isolated(32);
    let opts = BfsOptions { threads: zero_on_read::P, ..Default::default() };
    let st = RunState::new(&g, &opts);
    let queue = st.qin(0).queue(0);
    let mut rear = 0usize;
    for v in 0..zero_on_read::REAR {
        queue.push(&mut rear, 20 + v);
    }

    // Positional u32 feed: one entry per take_slot read, plus one
    // pass-through (`None`) for the level load `note_pop` performs after
    // each live take. Isolated vertices add no further hooked loads.
    let mut u32_loads = Vec::new();
    for &s in &slots {
        u32_loads.push(Some(s));
        if s != EMPTY_SLOT {
            u32_loads.push(None);
        }
    }

    let env = LevelEnv { st: &st, parity: 0, level: 0 };
    let strat = WorkStealing { locked: false, scale_free: false };
    let mut seg = OwnedSegment { q: 0, f: 0, r: zero_on_read::REAR as usize };
    let mut ts = ThreadStats::default();
    let mut out_rear = 0usize;

    install_script(&ChaosScript { usize_loads: Vec::new(), u32_loads });
    strat.walk_sentinel(&env, 1, &mut seg, &mut out_rear, &mut ts);
    let rep = uninstall_script();

    assert_eq!(rep.fed_u32, slots.len(), "every model slot read was replayed");
    assert_eq!(rep.leftover, 0);
    assert_eq!(ts.stale_slot_aborts, 1, "the real walk aborted at the co-walker's clear");
    assert_eq!(seg.f as u32 + 1, slots.len() as u32, "walk stopped at the model's slot");
    // The walk cleared exactly the slots the model walker took.
    assert_eq!(ts.vertices_explored as usize, slots.len() - 1);
    for i in 0..seg.f {
        assert_eq!(queue.slot(i), EMPTY_SLOT, "taken slot {i} is zeroed");
    }
}

/// Work-steal snapshot: the weakened model accepts a torn `(q', f', r')`
/// with `r'` past the victim queue's rear. Feeding the thief's four
/// snapshot loads into the real `try_steal_optimistic` must land the
/// attempt in the `invalid` sanity-failure bucket with nothing stolen.
#[test]
fn worksteal_counterexample_hits_invalid_steal_in_real_dispatcher() {
    let cx = worksteal::check(true, bounds()).counterexample.expect("weakened cx");
    let tid = failing_tid(&cx);
    let loads = traced_loads(worksteal::system(true), &cx.schedule, tid, &cx.failure);

    // The violating snapshot: the thief's final four loads are
    // q', f', r' (the descriptor) and rear[q'] (the sanity re-read).
    let tail: Vec<usize> = loads[loads.len() - 4..].iter().map(|&(_, v)| v as usize).collect();
    let (q, f, r, rear) = (tail[0], tail[1], tail[2], tail[3]);
    assert!(f < r && q < worksteal::P, "torn snapshot passed the earlier checks");
    assert!(r > rear, "the torn snapshot overruns the victim queue");

    let g = isolated(32);
    let opts = BfsOptions { threads: worksteal::P, ..Default::default() };
    let st = RunState::new(&g, &opts);
    let env = LevelEnv { st: &st, parity: 0, level: 0 };
    let strat = WorkStealing { locked: false, scale_free: false };

    install_script(&ChaosScript {
        usize_loads: vec![Some(q), Some(f), Some(r), Some(rear)],
        u32_loads: Vec::new(),
    });
    let got = strat.try_steal_optimistic(&env, 0, 1);
    let rep = uninstall_script();

    assert_eq!(rep.fed_usize, 4, "every model load was replayed");
    assert_eq!(rep.leftover, 0);
    // Tally the outcome the way the real dispatcher does.
    let mut ts = ThreadStats::default();
    match got {
        Ok(_) => panic!("a torn snapshot must never be stolen"),
        Err(why) => ts.steal_failed(obfs_sync::metrics::HistTimer::DISARMED, 0, 1, why),
    }
    assert_eq!(ts.steal.invalid, 1, "the real snapshot sanity check rejected it");
    assert_eq!(ts.steal.failed(), 1);
    assert_eq!(st.descs[0].snapshot(), (0, 0, 0), "thief published nothing");
    assert_eq!(st.descs[1].snapshot(), (0, 0, 0), "victim untouched");
}

/// Batch-or-claim: the weakened model overwrites an already-claimed
/// per-query level slot after a lost membership OR made the vertex look
/// undiscovered. Reconstructing the late claimant's observation in real
/// batch state — membership word missing the bit, level slot claimed —
/// and feeding its revalidation read into the real
/// `try_discover_batch` must *reject* the claim: the slot keeps its
/// first-claim level, nothing is pushed, and only the membership bit is
/// OR'd back.
#[test]
fn batch_counterexample_hits_slot_revalidation_in_real_kernel() {
    let cx = batch_or_claim::check(true, bounds()).counterexample.expect("weakened cx");
    let tid = failing_tid(&cx);
    let loads = traced_loads(batch_or_claim::system(true), &cx.schedule, tid, &cx.failure);

    // The late claimant's final load is the revalidation read of query
    // 0's level slot (the check the weakening deleted); the load before
    // it is the membership word with the lost bit.
    let &(slot_addr, slot_level) = loads.last().unwrap();
    assert_eq!(slot_addr, batch_or_claim::slot_addr(0));
    assert_ne!(slot_level, batch_or_claim::UNSET, "slot was claimed at level 1");
    let &(vis_addr, vis) = &loads[loads.len() - 2];
    assert_eq!(vis_addr, batch_or_claim::VISITED);
    assert_eq!(vis & 1, 0, "query-0 bit was lost from the membership word");

    // Real state: a 2-query batch; plant the model's observation — the
    // slot claimed at level 1, the membership word missing bit 0.
    let g = isolated(8);
    let w: u32 = 4;
    let opts = BfsOptions { threads: 1, ..Default::default() };
    let bufs = crate::state::RunBuffers::new(g.num_vertices(), &opts, false);
    let st = RunState::from_buffers(&g, &opts, None, bufs, Some(&[0, 1]));
    let b = st.batch.as_ref().expect("batch state armed");
    b.levels.set(w as usize * b.k, slot_level);
    b.visited_by.set(w as usize, u64::from(vis));
    let mut ts = ThreadStats::default();
    let mut out_rear = 0usize;

    // One hooked `u32` load on the rejection path: the revalidation
    // read (the membership load is a `u64` and passes through).
    install_script(&ChaosScript {
        usize_loads: Vec::new(),
        u32_loads: vec![Some(slot_level)],
    });
    st.try_discover_batch(w, 3, 1, 2, st.qout(0).queue(0), &mut out_rear, &mut ts);
    let rep = uninstall_script();

    assert_eq!(rep.fed_u32, 1, "the revalidation read was replayed");
    assert_eq!(rep.leftover, 0);
    assert_eq!(ts.vertices_discovered, 0, "the real revalidation rejected the claim");
    assert_eq!(out_rear, 0, "a rejected claim pushes nothing");
    assert_eq!(
        b.levels.get(w as usize * b.k),
        slot_level,
        "the slot keeps its first-claim level"
    );
    assert_eq!(b.visited_by.get(w as usize), u64::from(vis) | 1, "the bit was OR'd back");
}
