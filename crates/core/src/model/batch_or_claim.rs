//! Model of the batched multi-source discovery core
//! (`RunState::try_discover_batch`), DESIGN.md §11.
//!
//! One shared vertex `w` in a 2-query batch. Two level-1 discoverers
//! race to OR their query's bit into `w`'s membership word and claim
//! their per-query level slot; a third thread re-discovers `w` for
//! query 0 at level 2 (its query-0 frontier path reaches `w` again).
//! Each thread runs the real kernel's racy-op order, one access per
//! step:
//!
//! ```text
//! load visited_by[w] -> vis; news = fbits & !vis   (LoadVis)
//! if news != 0:
//!   load levels[w,q]                               (LoadSlot)
//!   if UNSET { store levels[w,q] = next }          (StoreSlot)
//!   store visited_by[w] = vis | news               (StoreVis)
//!   if claimed:
//!     load pushed_at[w]                            (LoadPushed)
//!     if != next { store pushed_at[w] = next }     (StorePushed)
//! ```
//!
//! The membership word is written with plain racy ORs, so concurrent
//! discoverers can *lose bits* (both load `vis = 0`, the second commit
//! erases the first's bit). The protocol survives because the word is
//! only a strict under-approximation: every apparently-new bit is
//! **revalidated against the per-query level slot** before claiming,
//! and the level-1 claim is barrier-published before any level-2
//! worker runs. The **weakened** variant deletes that revalidation:
//! the late claimant acts on the lost bit and overwrites query 0's
//! already-claimed slot with a later level — the model flags it at the
//! exact step the deleted check would have rejected.
//!
//! The level barrier between the two levels is modeled by per-seed
//! flag words: a seed's flag store is its *last* program-order store,
//! so under TSO's FIFO buffers the late thread observing both flags
//! implies every earlier seed store has committed — the same release
//! ordering the real barrier provides. A late thread that does not
//! observe both flags gives up without attempting (keeping every
//! bounded execution terminating); the explorer still reaches the
//! post-barrier interleavings that matter.
//!
//! Instance: 3 threads, queries {0, 1}, one shared vertex.

use obfs_sync::model::{Explorer, Footprint, ModelThread, Outcome, System, VirtualMemory};

/// Threads: two level-1 seeds + one level-2 late claimant.
pub const P: usize = 3;
/// Unclaimed level-slot sentinel (stands in for `UNVISITED`).
pub const UNSET: u32 = 0;
/// "Never pushed" sentinel for the pushed-at word (distinct from every
/// level used by the instance).
pub const NEVER: u32 = 99;

/// Word address of `w`'s membership word (`visited_by[w]`).
pub const VISITED: usize = 0;
/// Word address of query `q`'s level slot for `w` (`levels[w*k + q]`).
pub fn slot_addr(q: usize) -> usize {
    1 + q
}
/// Word address of `w`'s pushed-at word (`pushed_at[w]`).
pub const PUSHED: usize = 3;
/// Word address of seed `q`'s barrier flag.
pub fn flag_addr(q: usize) -> usize {
    4 + q
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    /// Late only: observe the level-1 barrier flags (give up on 0).
    Flag(usize),
    LoadVis,
    LoadSlot,
    StoreSlot,
    StoreVis,
    LoadPushed,
    StorePushed,
    StoreFlag,
    Done,
}

/// One discoverer calling the batch kernel on `w`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discoverer {
    weakened: bool,
    /// Query bit this thread discovers `w` for.
    q: usize,
    /// Level it would claim (`next_level`).
    next: u32,
    /// Level-2 late claimant (waits on the barrier flags, has no flag
    /// of its own).
    late: bool,
    pc: Pc,
    vis: u32,
    slot: u32,
    /// Did this thread win its slot claim?
    pub claimed: bool,
    /// Did this thread attempt discovery (late threads give up when
    /// the barrier flags are not yet visible)?
    pub attempted: bool,
}

impl Discoverer {
    fn seed(weakened: bool, q: usize) -> Self {
        Self {
            weakened,
            q,
            next: 1,
            late: false,
            pc: Pc::LoadVis,
            vis: 0,
            slot: 0,
            claimed: false,
            attempted: true,
        }
    }

    fn late(weakened: bool) -> Self {
        Self {
            weakened,
            q: 0,
            next: 2,
            late: true,
            pc: Pc::Flag(0),
            vis: 0,
            slot: 0,
            claimed: false,
            attempted: false,
        }
    }
}

impl ModelThread for Discoverer {
    fn done(&self) -> bool {
        self.pc == Pc::Done
    }

    fn footprint(&self, _mem: &VirtualMemory) -> Footprint {
        match self.pc {
            Pc::Flag(q) => Footprint::Read(flag_addr(q)),
            Pc::LoadVis => Footprint::Read(VISITED),
            Pc::LoadSlot => Footprint::Read(slot_addr(self.q)),
            Pc::StoreSlot => Footprint::Write(slot_addr(self.q)),
            Pc::StoreVis => Footprint::Write(VISITED),
            Pc::LoadPushed => Footprint::Read(PUSHED),
            Pc::StorePushed => Footprint::Write(PUSHED),
            Pc::StoreFlag => Footprint::Write(flag_addr(self.q)),
            Pc::Done => Footprint::Internal,
        }
    }

    fn step(&mut self, tid: usize, mem: &mut VirtualMemory) -> Result<(), String> {
        match self.pc {
            Pc::Flag(q) => {
                // Bounded barrier wait: proceed only if this seed's
                // flag is already visible, otherwise give up (the
                // explorer covers the post-barrier schedules anyway).
                if mem.load(tid, flag_addr(q)) == 0 {
                    self.pc = Pc::Done;
                } else if q + 1 < P - 1 {
                    self.pc = Pc::Flag(q + 1);
                } else {
                    self.attempted = true;
                    self.pc = Pc::LoadVis;
                }
            }
            Pc::LoadVis => {
                self.vis = mem.load(tid, VISITED);
                let news = (1 << self.q) & !self.vis;
                self.pc = if news == 0 {
                    // Bit already visible: nothing new to record. (Only
                    // the late thread can observe this.)
                    Pc::Done
                } else {
                    Pc::LoadSlot
                };
            }
            Pc::LoadSlot => {
                self.slot = mem.load(tid, slot_addr(self.q));
                if self.slot == UNSET {
                    self.pc = Pc::StoreSlot;
                } else if self.weakened {
                    // The revalidation is gone: the kernel would act on
                    // the lost membership bit and overwrite a claimed
                    // slot with a later level.
                    return Err(format!(
                        "overwrote query-{} level slot ({} -> {}): lost membership OR made \
                         the vertex look undiscovered (level-slot revalidation deleted)",
                        self.q, self.slot, self.next
                    ));
                } else {
                    // Revalidation rejects: the slot was claimed by a
                    // barrier-published earlier discovery; only record
                    // the membership bit.
                    self.pc = Pc::StoreVis;
                }
            }
            Pc::StoreSlot => {
                mem.store(tid, slot_addr(self.q), self.next);
                self.claimed = true;
                self.pc = Pc::StoreVis;
            }
            Pc::StoreVis => {
                mem.store(tid, VISITED, self.vis | (1 << self.q));
                self.pc = if self.claimed { Pc::LoadPushed } else { Pc::Done };
            }
            Pc::LoadPushed => {
                let pushed = mem.load(tid, PUSHED);
                self.pc = if pushed == self.next {
                    // Another claimant of this level already pushed w;
                    // the late claims ride that push.
                    if self.late {
                        Pc::Done
                    } else {
                        Pc::StoreFlag
                    }
                } else {
                    Pc::StorePushed
                };
            }
            Pc::StorePushed => {
                mem.store(tid, PUSHED, self.next);
                self.pc = if self.late { Pc::Done } else { Pc::StoreFlag };
            }
            Pc::StoreFlag => {
                // Program-order-last store: under TSO FIFO flush, a
                // thread observing this flag observes every store
                // above — the model's stand-in for the level barrier.
                mem.store(tid, flag_addr(self.q), 1);
                self.pc = Pc::Done;
            }
            Pc::Done => {}
        }
        Ok(())
    }
}

/// Initial system: membership word empty, both slots unclaimed, `w`
/// never pushed, barrier flags down.
pub fn system(weakened: bool) -> System<Discoverer> {
    let mut mem = VirtualMemory::new(P, 6, true);
    mem.init(VISITED, 0);
    mem.init(slot_addr(0), UNSET);
    mem.init(slot_addr(1), UNSET);
    mem.init(PUSHED, NEVER);
    mem.init(flag_addr(0), 0);
    mem.init(flag_addr(1), 0);
    System::new(
        mem,
        vec![
            Discoverer::seed(weakened, 0),
            Discoverer::seed(weakened, 1),
            Discoverer::late(weakened),
        ],
    )
}

/// Terminal invariants: first-claim wins and membership bits stay a
/// strict under-approximation of the claimed slots.
pub fn check_final(sys: &System<Discoverer>) -> Result<(), String> {
    // Every level-1 seed claims its own slot (nothing else can hold it
    // before the barrier), and the slot keeps the first-claim level
    // forever: a late claimant must never overwrite it.
    for q in 0..2 {
        let slot = sys.mem.committed(slot_addr(q));
        if slot != 1 {
            return Err(format!(
                "query-{q} level slot ended {slot}, expected the level-1 claim \
                 (first-set-bit claim not sticky)"
            ));
        }
    }
    // Membership bits under-approximate discovery: a set bit whose
    // level slot is unclaimed would be a vertex lost to that query.
    let vis = sys.mem.committed(VISITED);
    for q in 0..2 {
        if vis & (1 << q) != 0 && sys.mem.committed(slot_addr(q)) == UNSET {
            return Err(format!(
                "membership bit {q} set but query-{q} level slot unclaimed \
                 (vertex lost to query {q})"
            ));
        }
    }
    // The late claimant must never win: the slot it races for was
    // claimed strictly before the barrier flags it waited on.
    if sys.threads[P - 1].claimed {
        return Err("late claimant won a slot that was barrier-published as claimed".into());
    }
    Ok(())
}

/// Explore the core. `weakened` deletes the level-slot revalidation.
pub fn check(weakened: bool, bounds: Explorer) -> Outcome {
    bounds.explore(&system(weakened), check_final)
}
