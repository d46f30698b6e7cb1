//! One worker's record of a run.
//!
//! The paper gives every thread its own output queue `Qout[tid]` and its
//! own tallies. A [`Worker`] is that thread-owned state as one value: the
//! thread id, this level's output queue and its rear, the victim/pool
//! PRNG, the [`ThreadStats`] counters, the latency histograms while
//! [`crate::BfsOptions::collect_histograms`] is set, and the flight ring
//! while [`crate::BfsOptions::flight_recorder`] is. The driver builds one
//! per worker per run and every kernel takes it as `&mut Worker`; nothing
//! in it is shared, so recording needs no synchronization, and the pool
//! join publishes it to the driver.
//!
//! A dispatcher reports each of its five events (segment fetched, fetch
//! retried, stale-slot abort, steal succeeded, steal failed) through one
//! method that bumps the counter, closes the call site's latency timer
//! and records the flight event, so the counters, the histograms and the
//! flight ring cannot disagree about what happened. Timers, flight
//! events and the barrier wait sit at dispatch granularity, never in the
//! per-edge loop; timers take no clock reading while histograms are off,
//! and events none while no ring is kept.

use crate::frontier::FrontierQueue;
use crate::options::BfsOptions;
use crate::stats::{StealFail, ThreadStats, WorkerHists};
use obfs_sync::flight::{kind, FlightRing};
use obfs_sync::SpinBarrier;
use obfs_util::{LogHistogram, Xoshiro256StarStar};
use std::time::Instant;

/// One worker's thread-owned state for one run; see the module docs.
pub struct Worker<'q> {
    /// Thread id: the index of this worker's queues, descriptor and
    /// per-thread slots.
    pub(crate) tid: usize,
    /// This level's output queue `Qout[tid]`.
    pub(crate) out: &'q FrontierQueue,
    /// Rear of this level's output queue: the next free slot.
    pub out_rear: usize,
    /// Victim and pool selection stream.
    pub(crate) rng: Xoshiro256StarStar,
    /// This worker's counters.
    pub stats: ThreadStats,
    /// Latency histograms; `None` unless
    /// [`BfsOptions::collect_histograms`] is set.
    pub(crate) hists: Option<Box<WorkerHists>>,
    /// Flight-event ring; `None` unless [`BfsOptions::flight_recorder`]
    /// is set.
    pub(crate) flight: Option<Box<FlightRing>>,
}

impl<'q> Worker<'q> {
    /// Worker `tid` of a run with `opts`, writing to `out`: its PRNG is
    /// stream `tid` of `opts.seed`, it keeps histograms iff
    /// `opts.collect_histograms`, and a flight ring of
    /// `opts.flight_recorder` events timed from `epoch`, the run start
    /// every worker shares.
    pub fn new(opts: &BfsOptions, tid: usize, out: &'q FrontierQueue, epoch: Instant) -> Self {
        Self {
            tid,
            out,
            out_rear: 0,
            rng: Xoshiro256StarStar::for_stream(opts.seed, tid as u64),
            stats: ThreadStats::default(),
            hists: opts.collect_histograms.then(Box::default),
            flight: opts.flight_recorder.map(|cap| Box::new(FlightRing::new(cap, epoch))),
        }
    }

    /// Record one flight event; nothing while no ring is kept.
    #[inline]
    pub(crate) fn record(&mut self, kind: u16, level: u32, a: u64, b: u64) {
        if let Some(ring) = self.flight.as_deref_mut() {
            ring.record(kind, level, a, b);
        }
    }

    /// Start a latency measurement: the current instant while histograms
    /// are kept, `None` (no clock read) otherwise.
    #[inline]
    pub(crate) fn timer(&self) -> Option<Instant> {
        self.hists.as_ref().map(|_| Instant::now())
    }

    /// Wait at `barrier`; the last arriver runs `serial` with this worker
    /// before releasing the others. The whole episode is timed into the
    /// barrier-wait histogram and bracketed by `BARRIER_ENTER` and
    /// `BARRIER_EXIT` (`a` = 1 on the leader), so the leader's includes
    /// its serial section.
    #[inline]
    pub(crate) fn wait(&mut self, barrier: &SpinBarrier, serial: impl FnOnce(&mut Self)) {
        let t = self.timer();
        self.record(kind::BARRIER_ENTER, 0, 0, 0);
        let led = barrier.wait_then(|| serial(self));
        self.record(kind::BARRIER_EXIT, 0, u64::from(led), 0);
        self.close(t, |h| &mut h.barrier_wait_us);
    }

    /// Record the microseconds since `start` into the histogram `pick`
    /// selects; nothing without histograms or a start (a timer taken
    /// while histograms were off).
    #[inline]
    fn close(&mut self, start: Option<Instant>, pick: fn(&mut WorkerHists) -> &mut LogHistogram) {
        if let (Some(t), Some(h)) = (start, self.hists.as_deref_mut()) {
            pick(h).record(t.elapsed().as_micros() as u64);
        }
    }

    /// A dispatcher handed this worker a segment of `len` entries: of
    /// queue `at`, or starting at edge cursor `at` for edge dispatch.
    /// `retries` is the optimistic fetch's sanity-check retry count,
    /// `None` for dispatchers that never retry.
    #[inline]
    pub(crate) fn segment_fetched(
        &mut self,
        timer: Option<Instant>,
        retries: Option<u64>,
        level: u32,
        at: u64,
        len: u64,
    ) {
        self.stats.segments_fetched += 1;
        self.close(timer, |h| &mut h.segment_fetch_us);
        if let (Some(r), Some(h)) = (retries, self.hists.as_deref_mut()) {
            h.fetch_retry_burst.record(r);
        }
        self.record(kind::SEGMENT_FETCH, level, at, len);
    }

    /// A fetch from queue or pool `index` came up empty and is retried;
    /// `probe` marks a failed decentralized pool probe (flight `b` = 1)
    /// rather than a raced queue cursor (`b` = 0).
    #[inline]
    pub(crate) fn fetch_retried(&mut self, level: u32, index: usize, probe: bool) {
        self.stats.fetch_retries += 1;
        self.record(kind::FETCH_RETRY, level, index as u64, u64::from(probe));
    }

    /// A segment walk stopped at the cleared slot `slot` of `queue`,
    /// below the queue's rear: the segment was replayed or co-walked.
    #[inline]
    pub(crate) fn stale_abort(&mut self, level: u32, queue: usize, slot: usize) {
        self.stats.stale_slot_aborts += 1;
        self.record(kind::STALE_ABORT, level, queue as u64, slot as u64);
    }

    /// A steal from `victim` took `len` entries.
    #[inline]
    pub(crate) fn steal_succeeded(
        &mut self,
        timer: Option<Instant>,
        level: u32,
        victim: usize,
        len: usize,
    ) {
        self.stats.steal.attempts += 1;
        self.stats.steal.success += 1;
        self.close(timer, |h| &mut h.steal_us);
        self.record(kind::STEAL_SUCCESS, level, victim as u64, len as u64);
    }

    /// A steal from `victim` failed for reason `why`.
    #[inline]
    pub(crate) fn steal_failed(
        &mut self,
        timer: Option<Instant>,
        level: u32,
        victim: usize,
        why: StealFail,
    ) {
        self.stats.steal.attempts += 1;
        let code = why.tally(&mut self.stats.steal);
        self.close(timer, |h| &mut h.steal_us);
        self.record(kind::STEAL_FAIL, level, victim as u64, code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(out: &FrontierQueue, histograms: bool, flight: Option<usize>) -> Worker<'_> {
        let opts = BfsOptions {
            collect_histograms: histograms,
            flight_recorder: flight,
            ..Default::default()
        };
        Worker::new(&opts, 0, out, Instant::now())
    }

    /// Each event and the barrier wait land in their own histogram.
    #[test]
    fn each_event_lands_in_its_histogram() {
        let q = FrontierQueue::new(4);
        let mut wk = worker(&q, true, None);
        let t = wk.timer();
        assert!(t.is_some());
        wk.segment_fetched(t, Some(5), 0, 0, 8);
        wk.segment_fetched(wk.timer(), Some(0), 0, 0, 8);
        wk.segment_fetched(wk.timer(), None, 0, 0, 8);
        wk.steal_succeeded(wk.timer(), 0, 1, 4);
        wk.steal_failed(wk.timer(), 0, 1, StealFail::Idle);
        wk.fetch_retried(0, 0, false);
        wk.stale_abort(0, 0, 1);
        let mut led = false;
        wk.wait(&SpinBarrier::new(1), |w| led = w.tid == 0);
        assert!(led, "the only party runs the serial section with its record");
        let h = wk.hists.as_deref().expect("histograms kept");
        assert_eq!(h.segment_fetch_us.count(), 3);
        assert_eq!(h.fetch_retry_burst.count(), 2, "only retrying dispatchers record bursts");
        assert_eq!(h.fetch_retry_burst.max(), 5);
        assert_eq!(h.steal_us.count(), 2);
        assert_eq!(h.barrier_wait_us.count(), 1);
        assert_eq!(wk.stats.segments_fetched, 3);
        assert_eq!((wk.stats.steal.attempts, wk.stats.steal.success), (2, 1));
        assert_eq!((wk.stats.fetch_retries, wk.stats.stale_slot_aborts), (1, 1));
    }

    /// Without histograms no timer reads the clock, the counters still
    /// count, and nothing is recorded.
    #[test]
    fn no_clock_read_when_histograms_are_off() {
        let q = FrontierQueue::new(4);
        let mut wk = worker(&q, false, None);
        assert!(wk.timer().is_none());
        wk.segment_fetched(wk.timer(), Some(3), 0, 0, 8);
        wk.steal_succeeded(wk.timer(), 0, 1, 4);
        wk.wait(&SpinBarrier::new(1), |_| {});
        assert!(wk.hists.is_none() && wk.flight.is_none());
        assert_eq!((wk.stats.segments_fetched, wk.stats.steal.success), (1, 1));
    }

    /// A barrier episode is bracketed by BARRIER_ENTER and BARRIER_EXIT,
    /// and the leader's serial section records between them.
    #[test]
    fn barrier_episode_is_bracketed_in_the_ring() {
        let q = FrontierQueue::new(4);
        let mut wk = worker(&q, false, Some(16));
        wk.wait(&SpinBarrier::new(1), |w| w.record(kind::COMPACT, 2, 7, 0));
        let events = wk.flight.take().expect("ring kept").into_dump().events;
        let got: Vec<_> = events.iter().map(|e| (e.kind, e.level, e.a)).collect();
        let want = [(kind::BARRIER_ENTER, 0, 0), (kind::COMPACT, 2, 7), (kind::BARRIER_EXIT, 0, 1)];
        assert_eq!(got, want, "the only party leads");
    }

    /// `StealFail` is the one map from a failure reason to its Table VI
    /// bucket and its flight code: each reason lands in its own bucket,
    /// and the one `STEAL_FAIL` event carries its code.
    #[test]
    fn each_steal_failure_lands_in_its_own_bucket() {
        type Bucket = fn(&crate::StealCounters) -> u64;
        let cases: [(StealFail, Bucket, u64); 5] = [
            (StealFail::Locked, |c| c.victim_locked, kind::STEAL_LOCKED),
            (StealFail::Idle, |c| c.victim_idle, kind::STEAL_IDLE),
            (StealFail::TooSmall, |c| c.too_small, kind::STEAL_TOO_SMALL),
            (StealFail::Stale, |c| c.stale, kind::STEAL_STALE),
            (StealFail::Invalid, |c| c.invalid, kind::STEAL_INVALID),
        ];
        let q = FrontierQueue::new(4);
        for (victim, (why, bucket, code)) in cases.into_iter().enumerate() {
            let mut c = crate::StealCounters::default();
            assert_eq!(why.tally(&mut c), code, "{why:?} flight code");
            assert_eq!((bucket(&c), c.failed()), (1, 1), "{why:?} bucket");

            let mut wk = worker(&q, false, Some(4));
            wk.steal_failed(None, 3, victim, why);
            let s = wk.stats.steal;
            assert_eq!((bucket(&s), s.attempts), (1, 1), "{why:?} bucket");
            assert!(s.is_consistent());
            let events = wk.flight.take().expect("ring kept").into_dump().events;
            let got: Vec<_> = events.iter().map(|e| (e.kind, e.level, e.a, e.b)).collect();
            assert_eq!(got, [(kind::STEAL_FAIL, 3, victim as u64, code)], "{why:?} event");
        }
    }

    #[test]
    fn merge_folds_all_four_histograms() {
        let mut a = WorkerHists::default();
        a.segment_fetch_us.record(10);
        a.fetch_retry_burst.record(2);
        let mut b = WorkerHists::default();
        b.steal_us.record(7);
        b.barrier_wait_us.record(100);
        b.barrier_wait_us.record(3);
        a.merge(&b);
        assert_eq!(a.segment_fetch_us.count(), 1);
        assert_eq!(a.steal_us.count(), 1);
        assert_eq!(a.fetch_retry_burst.count(), 1);
        assert_eq!(a.barrier_wait_us.count(), 2);
        assert!(!a.is_empty());
        assert!(WorkerHists::default().is_empty());
    }
}
