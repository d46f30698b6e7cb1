//! Parallel building blocks shared by the BFS frontier compaction
//! (`obfs-core`) and the graph builder (`obfs-graph`): the contiguous
//! block split, the exclusive prefix sum over block totals (the scheme of
//! Tithi/Fogel/Chowdhury, arXiv:2209.08764), scoped worker threads, and
//! the stable scatter of a parallel counting sort.
//!
//! # Stable scatter
//!
//! A counting sort over `p` contiguous parts of an input runs two passes
//! per part. The count pass tallies how many items the part emits under
//! each key (a `u32` per key). [`stable_scatter`] then lays the output
//! out key by key, and within a key part by part, so part `t`'s items for
//! key `k` land after those of parts `< t`; each part replays its input
//! and puts every item into its own range ([`Scatter::put`]).
//!
//! Each part keeps one cursor per key (its tally, reused), and every put
//! is checked against the end of the part's range, so no caller can make
//! two threads share a slot. The ends cost nothing for two parts: parts
//! pair up around a shared start, the even part filling its range from
//! that start down and the odd part from it up, so their outer ends are
//! the key's own ends (0 and its count). Only the boundaries between
//! pairs are stored. The parts write without locks and without atomic
//! RMWs.

use std::marker::PhantomData;
use std::sync::OnceLock;

/// Serial exclusive prefix sum: `out[i] = xs[0] + … + xs[i-1]`, with one
/// extra trailing element holding the total (`out.len() == xs.len() + 1`).
/// The graph builder's sort lays out its parts' output ranges with it.
pub fn exclusive_scan(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(xs.len() + 1);
    let mut acc = 0u64;
    for &x in xs {
        out.push(acc);
        acc += x;
    }
    out.push(acc);
    out
}

/// Contiguous block `[lo, hi)` of `len` items owned by `tid` of
/// `threads` (the last blocks may be empty when `len < threads`).
#[inline]
pub fn block_range(len: usize, threads: usize, tid: usize) -> (usize, usize) {
    let per = crate::div_ceil(len, threads.max(1));
    ((tid * per).min(len), ((tid + 1) * per).min(len))
}

/// Exclusive prefix of the published block totals: the sum of
/// `totals[..tid]`. Every worker computes this independently after the
/// barrier — replicated O(p) work in place of a serial section.
#[inline]
pub fn block_prefix(totals: &[u64], tid: usize) -> u64 {
    totals[..tid].iter().sum()
}

/// Threads for a pass over `work` items: every available core, but no
/// more than give each thread `grain` items, and at least one. Below two
/// grains the pass runs on the caller alone.
pub fn threads_for(work: usize, grain: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    cores.min(work / grain.max(1)).max(1)
}

/// Run `f(t, inputs[t])` for every input, each on its own scoped thread
/// (the first on the caller, so one input spawns nothing), and return the
/// results in input order. A panic on any thread is re-raised here once
/// every thread has stopped.
pub fn map<I: Send, R: Send>(inputs: Vec<I>, f: impl Fn(usize, I) -> R + Sync) -> Vec<R> {
    let mut inputs = inputs.into_iter().enumerate();
    let Some((_, first)) = inputs.next() else { return Vec::new() };
    let f = &f;
    std::thread::scope(|s| {
        let rest: Vec<_> = inputs.map(|(t, input)| s.spawn(move || f(t, input))).collect();
        let mut out = vec![f(0, first)];
        out.extend(
            rest.into_iter().map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        out
    })
}

// lint:region hot-path:stable-scatter
/// One part's write handle during [`stable_scatter`]: per key, the
/// cursor into the range this part alone owns (relative to the key's
/// offset), and the far end of that range.
pub struct Scatter<'a, T> {
    out: *mut T,
    offsets: &'a [u64],
    next: Vec<u32>,
    /// Per key, the end the cursor moves toward: the low end when `down`,
    /// the high end otherwise. `None` is the key's own end (0 when `down`,
    /// else the key's item count).
    limit: Option<&'a [u32]>,
    down: bool,
    _out: PhantomData<&'a mut [T]>,
}

// SAFETY: a `Scatter` writes only inside its own part's ranges, which no
// other `Scatter` of the same call shares (see `put`), and it reads only
// `offsets` and `limit`, which nothing writes while it lives; so moving it
// to another thread is as safe as moving a `&mut [T]` of disjoint slots.
unsafe impl<T: Send> Send for Scatter<'_, T> {}

impl<T> Scatter<'_, T> {
    /// Whether this part fills its ranges from the top down. Such a part
    /// must put its items in reverse input order for the output to keep
    /// input order.
    pub fn descending(&self) -> bool {
        self.down
    }

    /// Write `item` into the next free slot of this part's range for
    /// `key`. Panics if the part puts more items under `key` than it
    /// counted.
    #[inline]
    pub fn put(&mut self, key: usize, item: T) {
        let base = self.offsets[key];
        let next = &mut self.next[key];
        let slot = if self.down {
            let floor = self.limit.map_or(0, |l| l[key]);
            assert!(*next > floor, "a part put more items under key {key} than it counted");
            *next -= 1;
            *next
        } else {
            let ceil = self.limit.map_or(self.offsets[key + 1] - base, |l| u64::from(l[key]));
            assert!(
                u64::from(*next) < ceil,
                "a part put more items under key {key} than it counted"
            );
            *next += 1;
            *next - 1
        };
        // SAFETY: `stable_scatter` gave this part, for `key`, the range
        // between its cursor's start and its limit, inside the key's
        // `[offsets[key], offsets[key + 1])` of `out` and disjoint from
        // every other part's range; the check above keeps `slot` in it,
        // and the cursor hands out each slot once. `out` stays exclusively
        // borrowed by `stable_scatter` until every part has joined, so no
        // other access can touch the slot.
        unsafe { self.out.add(base as usize + slot as usize).write(item) };
    }
}

/// The scatter pass of a stable parallel counting sort. `tallies[t][k]`
/// is how many items part `t` counted under key `k` (at most `u32::MAX`);
/// `fill(t, scatter)` runs once per part on
/// its own thread and must put the same items under the same keys, in
/// reverse order when [`Scatter::descending`]. Returns the key offsets
/// (`keys + 1` entries, the last one the total) and the output: the items
/// grouped by key, and within a key by part and then in input order.
pub fn stable_scatter<T: Copy + Default + Send>(
    tallies: Vec<Vec<u32>>,
    fill: impl Fn(usize, &mut Scatter<'_, T>) + Sync,
) -> (Vec<u64>, Vec<T>) {
    let parts = tallies.len();
    let keys = tallies.first().map_or(0, Vec::len);
    assert!(tallies.iter().all(|t| t.len() == keys), "every part must tally the same keys");
    // With b_t the start of part t's range within a key (b_0 = 0, the
    // last one the key's count): part 2i fills [b_2i, b_2i+1) down from
    // b_2i+1 and part 2i+1 fills [b_2i+1, b_2i+2) up from it, so the
    // cursors start from the tallies in place and `bounds[i - 1]` = b_2i
    // is the only end stored.
    let mut next = tallies;
    let mut bounds: Vec<Vec<u32>> = (1..parts.div_ceil(2)).map(|_| vec![0; keys]).collect();
    let mut offsets = vec![0u64; keys + 1];
    let mut total = 0u64;
    for (k, offset) in offsets.iter_mut().take(keys).enumerate() {
        *offset = total;
        let mut start = 0u32;
        for (t, part) in next.iter_mut().enumerate() {
            let end = start.checked_add(part[k]).expect("a key's item count exceeds u32");
            if t % 2 == 0 {
                if t > 0 {
                    bounds[t / 2 - 1][k] = start;
                }
                part[k] = end;
            } else {
                part[k] = start;
            }
            start = end;
        }
        total += u64::from(start);
    }
    offsets[keys] = total;
    let total = usize::try_from(total).expect("the item count exceeds the address space");
    let mut out = vec![T::default(); total];
    let scatters: Vec<Scatter<'_, T>> = next
        .into_iter()
        .enumerate()
        .map(|(t, next)| {
            let down = t % 2 == 0;
            let limit = if down {
                (t > 0).then(|| &bounds[t / 2 - 1][..])
            } else {
                (t + 1 < parts).then(|| &bounds[(t - 1) / 2][..])
            };
            Scatter {
                out: out.as_mut_ptr(),
                offsets: &offsets,
                next,
                limit,
                down,
                _out: PhantomData,
            }
        })
        .collect();
    map(scatters, |t, mut part| fill(t, &mut part));
    (offsets, out)
}
// lint:endregion

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_scan_reference() {
        assert_eq!(exclusive_scan(&[]), vec![0]);
        assert_eq!(exclusive_scan(&[7]), vec![0, 7]);
        assert_eq!(exclusive_scan(&[1, 2, 3]), vec![0, 1, 3, 6]);
    }

    #[test]
    fn block_ranges_partition() {
        for (len, threads) in [(0, 4), (1, 4), (3, 4), (4, 4), (17, 4), (4100, 8)] {
            let mut next = 0;
            for t in 0..threads {
                let (lo, hi) = block_range(len, threads, t);
                assert_eq!(lo, next.min(len), "len={len} t={t}");
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, len, "blocks must cover [0, len)");
        }
    }

    #[test]
    fn threads_for_respects_the_grain() {
        assert_eq!(threads_for(0, 10), 1);
        assert_eq!(threads_for(19, 10), 1);
        assert!(threads_for(1 << 30, 10) >= 1);
        assert!(threads_for(40, 10) <= 4);
    }

    #[test]
    fn map_keeps_input_order() {
        assert_eq!(map(Vec::<u32>::new(), |_, x| x), Vec::<u32>::new());
        assert_eq!(map(vec![10, 20, 30], |t, x| x + t), vec![10, 21, 32]);
    }

    /// Every part count, including odd ones and parts with nothing:
    /// each key's items stay in part order, and each part's in input
    /// order, whichever way the part fills its range.
    #[test]
    fn scatter_is_stable_by_part_then_order() {
        let items: Vec<(usize, u32)> = (0..40u32).map(|i| ((i * 7 % 5) as usize, i)).collect();
        let mut expected = items.clone();
        expected.sort_by_key(|&(k, _)| k);
        for parts in 1..=6 {
            let part = |t| {
                &items[block_range(items.len(), parts, t).0..block_range(items.len(), parts, t).1]
            };
            let tallies = (0..parts)
                .map(|t| {
                    let mut tally = vec![0; 5];
                    part(t).iter().for_each(|&(k, _)| tally[k] += 1);
                    tally
                })
                .collect();
            let (offsets, out) = stable_scatter(tallies, |t, s| {
                if s.descending() {
                    part(t).iter().rev().for_each(|&(k, v)| s.put(k, v));
                } else {
                    part(t).iter().for_each(|&(k, v)| s.put(k, v));
                }
            });
            assert_eq!(offsets, vec![0, 8, 16, 24, 32, 40], "{parts} parts");
            assert_eq!(out, expected.iter().map(|&(_, v)| v).collect::<Vec<_>>(), "{parts} parts");
        }
    }

    #[test]
    fn scatter_refuses_an_uncounted_item() {
        for parts in [1, 2, 3] {
            for rogue in 0..parts {
                let result = std::panic::catch_unwind(|| {
                    let tallies = (0..parts).map(|_| vec![0, 1]).collect();
                    stable_scatter(tallies, |t, s: &mut Scatter<'_, u32>| {
                        s.put(1, 5);
                        if t == rogue {
                            s.put(1, 6);
                        }
                    })
                });
                assert!(result.is_err(), "{parts} parts, part {rogue} put an extra item");
            }
        }
    }
}
