//! Model of the work-steal descriptor snapshot (`try_steal_optimistic` +
//! `walk_sentinel`), paper §IV-B.
//!
//! Thread 0 (the **owner**) walks its queue 0 segment by sentinel,
//! publishing `desc.f` after every take; when queue 0 is drained it
//! acquires a segment of queue 1 — as a successful steal would — by
//! publishing `desc.{q,f,r}` with three plain stores (the real
//! `SegmentDesc::set` store order), then walks that. Thread 1 (the
//! **thief**) runs the real steal sequence, one access per step:
//!
//! ```text
//! load desc.q; load desc.f; load desc.r       (snapshot: three racy loads)
//! if f' >= r'        -> victim-idle fail      (no memory access)
//! if q' >= threads   -> invalid fail          (short-circuits the rear load)
//! load rear[q']; if r' > rear -> invalid fail (the mixed-snapshot check)
//! store my desc = (q', mid, r'); store victim desc.r = mid
//! load slot[q'][mid]; if 0 -> stale fail
//! walk [mid, …) by sentinel
//! ```
//!
//! The interleaving of the thief's three snapshot loads with the owner's
//! three retarget stores produces exactly the paper's *mixed snapshot*
//! (e.g. old `q` with new `r`), and the TSO buffers add partially
//! committed variants. The **weakened** variant deletes the
//! `r' <= rear[q']` check: the model flags the moment a torn snapshot is
//! *accepted* — the invariant "every invalid segment is rejected by a
//! sanity check". (The model steals a segment of any length, where the
//! driver's `STEAL_MIN` is 4, so the too-small check never fires and
//! every race window stays open.)
//!
//! Instance: queue 0 with rear 1, queue 1 with rear 3; thief gives up
//! after [`MAX_TRIES`] failed attempts and stops after one successful
//! steal, keeping the schedule space finite.

use obfs_sync::model::{Explorer, Footprint, ModelThread, Outcome, System, VirtualMemory};

/// Threads (owner + thief); also the duplicate-exploration bound.
pub const P: usize = 2;
/// Queues.
pub const NQ: usize = 2;
/// Immutable level rears per queue.
pub const REARS: [u32; NQ] = [1, 3];
/// Failed steal attempts before the thief gives up.
pub const MAX_TRIES: u32 = 3;

/// Owner (victim) descriptor `q` word; `f`/`r` follow.
pub const DESC_OWNER: usize = 0;
/// Thief descriptor base.
pub const DESC_THIEF: usize = 3;
/// `rear[k]` lives at `REAR0 + k`.
pub const REAR0: usize = 6;
/// Slot arrays (one trailing sentinel word per queue) start here.
pub const SLOTS0: usize = 8;

/// Slot-array length of queue `k` (live slots + sentinel).
pub fn slots_len(k: usize) -> usize {
    REARS[k] as usize + 1
}

/// Address of slot `i` of queue `k`.
pub fn slot_addr(k: usize, i: usize) -> usize {
    let mut a = SLOTS0;
    for q in 0..k {
        a += slots_len(q);
    }
    a + i
}

fn words() -> usize {
    slot_addr(NQ - 1, 0) + slots_len(NQ - 1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Owner,
    Thief,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    // Thief: the steal sequence.
    LoadQ,
    LoadF,
    LoadR,
    Check,
    LoadRear,
    SetQ,
    SetF,
    SetR,
    Shrink,
    Probe,
    // Shared: the sentinel walk.
    WalkLoad,
    StaleCheck,
    WalkClear,
    StoreF,
    // Owner: re-target to queue 1 (a successful steal's publication).
    RetargetQ,
    RetargetF,
    RetargetR,
    Done,
}

/// One worker (owner or thief).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agent {
    role: Role,
    weakened: bool,
    pc: Pc,
    /// Walked queue (owner) / snapshotted queue (thief).
    q: u32,
    /// Walk cursor (owner) / snapshotted front (thief).
    f: u32,
    r: u32,
    rear: u32,
    mid: u32,
    pending: u32,
    attempts: u32,
    /// True once the owner has re-targeted (second walk ends the run).
    retargeted: bool,
    /// (queue, slot, value) taken by this thread, in order.
    pub takes: Vec<(usize, usize, u32)>,
    /// Mid-segment cleared-slot aborts observed.
    pub stale_aborts: u32,
    /// Steal failures: (victim_idle, invalid, stale).
    pub fails: (u32, u32, u32),
}

impl Agent {
    fn new(role: Role, weakened: bool) -> Self {
        Self {
            role,
            weakened,
            pc: match role {
                Role::Owner => Pc::WalkLoad,
                Role::Thief => Pc::LoadQ,
            },
            q: 0,
            f: 0,
            r: 0,
            rear: 0,
            mid: 0,
            pending: 0,
            attempts: 0,
            retargeted: false,
            takes: Vec::new(),
            stale_aborts: 0,
            fails: (0, 0, 0),
        }
    }

    /// My own descriptor's base word.
    fn my_desc(&self) -> usize {
        match self.role {
            Role::Owner => DESC_OWNER,
            Role::Thief => DESC_THIEF,
        }
    }

    /// A failed steal attempt: retry or give up.
    fn steal_fail(&mut self) {
        self.attempts += 1;
        self.pc = if self.attempts >= MAX_TRIES { Pc::Done } else { Pc::LoadQ };
    }

    /// The walk ended (sentinel / capacity): owner re-targets once,
    /// everyone else is done.
    fn walk_end(&mut self) {
        self.pc =
            if self.role == Role::Owner && !self.retargeted { Pc::RetargetQ } else { Pc::Done };
    }
}

impl ModelThread for Agent {
    fn done(&self) -> bool {
        self.pc == Pc::Done
    }

    fn footprint(&self, _mem: &VirtualMemory) -> Footprint {
        match self.pc {
            Pc::LoadQ => Footprint::Read(DESC_OWNER),
            Pc::LoadF => Footprint::Read(DESC_OWNER + 1),
            Pc::LoadR => Footprint::Read(DESC_OWNER + 2),
            Pc::Check => Footprint::Internal,
            Pc::LoadRear => Footprint::Read(REAR0 + self.q as usize),
            Pc::SetQ => Footprint::Write(DESC_THIEF),
            Pc::SetF => Footprint::Write(DESC_THIEF + 1),
            Pc::SetR => Footprint::Write(DESC_THIEF + 2),
            Pc::Shrink => Footprint::Write(DESC_OWNER + 2),
            Pc::Probe if (self.mid as usize) >= slots_len(self.q as usize) => Footprint::Internal,
            Pc::Probe => Footprint::Read(slot_addr(self.q as usize, self.mid as usize)),
            Pc::WalkLoad if (self.f as usize) >= slots_len(self.q as usize) => Footprint::Internal,
            Pc::WalkLoad => Footprint::Read(slot_addr(self.q as usize, self.f as usize)),
            Pc::StaleCheck => Footprint::Read(REAR0 + self.q as usize),
            Pc::WalkClear => Footprint::Write(slot_addr(self.q as usize, self.f as usize)),
            Pc::StoreF => Footprint::Write(self.my_desc() + 1),
            Pc::RetargetQ => Footprint::Write(DESC_OWNER),
            Pc::RetargetF => Footprint::Write(DESC_OWNER + 1),
            Pc::RetargetR => Footprint::Write(DESC_OWNER + 2),
            Pc::Done => Footprint::Internal,
        }
    }

    fn step(&mut self, tid: usize, mem: &mut VirtualMemory) -> Result<(), String> {
        match self.pc {
            Pc::LoadQ => {
                self.q = mem.load(tid, DESC_OWNER);
                self.pc = Pc::LoadF;
            }
            Pc::LoadF => {
                self.f = mem.load(tid, DESC_OWNER + 1);
                self.pc = Pc::LoadR;
            }
            Pc::LoadR => {
                self.r = mem.load(tid, DESC_OWNER + 2);
                self.pc = Pc::Check;
            }
            Pc::Check => {
                if self.f >= self.r {
                    self.fails.0 += 1;
                    self.steal_fail();
                } else if self.q as usize >= NQ {
                    // `q >= st.threads` — short-circuits the rear load.
                    self.fails.1 += 1;
                    self.steal_fail();
                } else {
                    self.pc = Pc::LoadRear;
                }
            }
            Pc::LoadRear => {
                self.rear = mem.load(tid, REAR0 + self.q as usize);
                if self.r > self.rear {
                    if self.weakened {
                        // The mixed-snapshot check is gone and a torn
                        // snapshot is about to be stolen from.
                        return Err(format!(
                            "accepted a torn steal snapshot (q'={}, f'={}, r'={}) with \
                             r' > rear[q']={} (the snapshot sanity check would have \
                             rejected it)",
                            self.q, self.f, self.r, self.rear
                        ));
                    }
                    self.fails.1 += 1;
                    self.steal_fail();
                } else {
                    self.mid = self.f + (self.r - self.f) / 2;
                    self.pc = Pc::SetQ;
                }
            }
            Pc::SetQ => {
                mem.store(tid, DESC_THIEF, self.q);
                self.pc = Pc::SetF;
            }
            Pc::SetF => {
                mem.store(tid, DESC_THIEF + 1, self.mid);
                self.pc = Pc::SetR;
            }
            Pc::SetR => {
                mem.store(tid, DESC_THIEF + 2, self.r);
                self.pc = Pc::Shrink;
            }
            Pc::Shrink => {
                mem.store(tid, DESC_OWNER + 2, self.mid);
                self.pc = Pc::Probe;
            }
            Pc::Probe => {
                if (self.mid as usize) >= slots_len(self.q as usize) {
                    // The real code would index out of bounds here; only
                    // reachable if an invalid snapshot were accepted.
                    return Err(format!(
                        "steal probe out of bounds: slot {} of queue {} (len {})",
                        self.mid,
                        self.q,
                        slots_len(self.q as usize)
                    ));
                }
                let v = mem.load(tid, slot_addr(self.q as usize, self.mid as usize));
                if v == 0 {
                    self.fails.2 += 1;
                    self.steal_fail();
                } else {
                    self.f = self.mid;
                    self.pc = Pc::WalkLoad;
                }
            }
            Pc::WalkLoad => {
                if (self.f as usize) >= slots_len(self.q as usize) {
                    // take_slot's capacity guard.
                    self.walk_end();
                } else {
                    let v = mem.load(tid, slot_addr(self.q as usize, self.f as usize));
                    if v == 0 {
                        self.pc = Pc::StaleCheck;
                    } else {
                        self.pending = v;
                        self.pc = Pc::WalkClear;
                    }
                }
            }
            Pc::StaleCheck => {
                let rear = mem.load(tid, REAR0 + self.q as usize);
                if self.f < rear {
                    self.stale_aborts += 1;
                }
                self.walk_end();
            }
            Pc::WalkClear => {
                mem.store(tid, slot_addr(self.q as usize, self.f as usize), 0);
                self.takes.push((self.q as usize, self.f as usize, self.pending));
                self.f += 1;
                self.pc = Pc::StoreF;
            }
            Pc::StoreF => {
                mem.store(tid, self.my_desc() + 1, self.f);
                self.pc = Pc::WalkLoad;
            }
            Pc::RetargetQ => {
                mem.store(tid, DESC_OWNER, 1);
                self.pc = Pc::RetargetF;
            }
            Pc::RetargetF => {
                mem.store(tid, DESC_OWNER + 1, 0);
                self.pc = Pc::RetargetR;
            }
            Pc::RetargetR => {
                mem.store(tid, DESC_OWNER + 2, REARS[1]);
                self.q = 1;
                self.f = 0;
                self.retargeted = true;
                self.pc = Pc::WalkLoad;
            }
            Pc::Done => {}
        }
        Ok(())
    }
}

/// Initial system: owner mid-level on queue 0 (`desc = (0, 0, 1)`),
/// thief probing; queue 1 full behind it.
#[allow(clippy::needless_range_loop)] // k, i are model memory addresses
pub fn system(weakened: bool) -> System<Agent> {
    let mut mem = VirtualMemory::new(P, words(), true);
    for k in 0..NQ {
        mem.init(REAR0 + k, REARS[k]);
        for i in 0..REARS[k] as usize {
            mem.init(slot_addr(k, i), 31 + (k * 8 + i) as u32);
        }
    }
    mem.init(DESC_OWNER + 2, REARS[0]); // owner descriptor (0, 0, rear0)
    System::new(mem, vec![Agent::new(Role::Owner, weakened), Agent::new(Role::Thief, weakened)])
}

/// Terminal invariants: coverage and bounded duplicates over both queues.
#[allow(clippy::needless_range_loop)] // k, i are model memory addresses
pub fn check_final(sys: &System<Agent>) -> Result<(), String> {
    let mut taken = [[0u32; 4]; NQ];
    for t in &sys.threads {
        for &(k, i, v) in &t.takes {
            if v == 0 {
                return Err(format!("thread explored the sentinel value 0 at queue {k} slot {i}"));
            }
            taken[k][i] += 1;
        }
    }
    for k in 0..NQ {
        for i in 0..REARS[k] as usize {
            if sys.mem.committed(slot_addr(k, i)) != 0 {
                return Err(format!("slot {i} of queue {k} never consumed (coverage violation)"));
            }
            if taken[k][i] == 0 {
                return Err(format!("slot {i} of queue {k} zeroed but never explored"));
            }
            if taken[k][i] > P as u32 {
                return Err(format!(
                    "slot {i} of queue {k} explored {}x > P={P} (duplicate bound violation)",
                    taken[k][i]
                ));
            }
        }
    }
    Ok(())
}

/// Explore the core. `weakened` deletes the `r' <= rear[q']` check.
pub fn check(weakened: bool, bounds: Explorer) -> Outcome {
    bounds.explore(&system(weakened), check_final)
}
